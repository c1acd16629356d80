//! The per-grain transactional facet: one lock holder and staged writes.

use om_common::ids::TransactionId;
use om_common::{OmError, OmResult};
use std::fmt;

/// A staged write, kept to be replayed on the committed state.
type Op<S> = Box<dyn Fn(&mut S) + Send>;

/// A grain-embedded transactional state cell.
///
/// The grain keeps its authoritative state inside the participant; plain
/// (non-transactional) reads see the last committed value, while
/// transactional writes go through [`TxParticipant::stage`] and the 2PC
/// surface ([`TxParticipant::prepare`], [`TxParticipant::commit`],
/// [`TxParticipant::abort`]).
///
/// **Deferred update.** A write stages an *op*, not a copy of the state.
/// The op runs at once on a shadow (the committed state with the
/// holder's ops applied) and joins a redo list; commit replays the list
/// on the committed state. The shadow outlives the transaction, since
/// after a commit it equals the committed state again. So only the first
/// write after construction, after an abort with staged ops, or after a
/// [`TxParticipant::mutate_committed`] clones the state: a transaction
/// otherwise costs the ops it runs, not the size of the grain.
///
/// **One holder.** The first stage of a transaction takes the lock, and
/// its decision releases it. Transactions are admitted only once every
/// grain they declared is free ([`crate::tx::Coordinator::admit`]), so a
/// lock held by another transaction means the stager did not declare
/// this grain: a bug, answered `Conflict`.
pub struct TxParticipant<S> {
    committed: S,
    /// `committed` with `redo` applied; `None` until a write needs it.
    shadow: Option<S>,
    /// The holder's staged ops, in staging order.
    redo: Vec<Op<S>>,
    /// The transaction holding the lock.
    holder: Option<TransactionId>,
}

impl<S: fmt::Debug> fmt::Debug for TxParticipant<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TxParticipant")
            .field("committed", &self.committed)
            .field("staged_ops", &self.redo.len())
            .field("holder", &self.holder)
            .finish()
    }
}

impl<S: Clone> TxParticipant<S> {
    /// A free participant whose committed state is `initial`.
    pub fn new(initial: S) -> Self {
        Self {
            committed: initial,
            shadow: None,
            redo: Vec::new(),
            holder: None,
        }
    }

    /// Last committed state (non-transactional read).
    pub fn committed(&self) -> &S {
        &self.committed
    }

    /// Mutates committed state outside any transaction (data ingestion /
    /// eventual-mode writes) and returns what `f` returns. Fails if a
    /// transaction holds the lock. Drops the shadow, so the next staged
    /// write clones the new state.
    pub fn mutate_committed<R>(&mut self, f: impl FnOnce(&mut S) -> R) -> OmResult<R> {
        if let Some(holder) = self.holder {
            return Err(OmError::Conflict(format!(
                "non-transactional write blocked by {holder}"
            )));
        }
        let out = f(&mut self.committed);
        self.shadow = None;
        Ok(out)
    }

    /// Stages a write, taking the lock if it is free. Runs `op` on the
    /// shadow, cloning the committed state only if there is no shadow,
    /// returns its result, and keeps `op` to replay on the committed
    /// state at commit. `Conflict` if another transaction holds the
    /// lock: the grain was not declared at admission.
    ///
    /// **Contract:** `op` runs twice, now on the shadow and again at
    /// commit, so it must be a pure function of the state and what it
    /// captures. Read clocks, ticks and random draws outside it and move
    /// the values in. An op that changes the state and then returns `Err`
    /// (a refused stock reservation counts the refusal) is replayed like
    /// any other, so its change commits with the transaction.
    pub fn stage<R>(
        &mut self,
        tid: TransactionId,
        op: impl Fn(&mut S) -> R + Send + 'static,
    ) -> OmResult<R> {
        if let Some(holder) = self.holder.filter(|&h| h != tid) {
            return Err(OmError::Conflict(format!(
                "{tid} stages on a grain {holder} holds: not declared at admission"
            )));
        }
        self.holder = Some(tid);
        let out = op(self.shadow.get_or_insert_with(|| self.committed.clone()));
        self.redo.push(Box::new(move |s| {
            op(s);
        }));
        Ok(out)
    }

    /// Phase one: vote. Yes iff the transaction holds the lock.
    pub fn prepare(&self, tid: TransactionId) -> bool {
        self.holder == Some(tid)
    }

    /// Phase two (commit): replays the staged ops on the committed state
    /// and releases the lock. The shadow now equals the committed state
    /// and serves the next transaction.
    pub fn commit(&mut self, tid: TransactionId) {
        if self.holder == Some(tid) {
            for op in self.redo.drain(..) {
                op(&mut self.committed);
            }
            self.holder = None;
        }
    }

    /// Phase two (abort): discards the staged ops, and the shadow they
    /// changed, and releases the lock.
    pub fn abort(&mut self, tid: TransactionId) {
        if self.holder == Some(tid) {
            if !self.redo.is_empty() {
                self.redo.clear();
                self.shadow = None;
            }
            self.holder = None;
        }
    }

    /// True if a transaction holds the lock.
    pub fn is_locked(&self) -> bool {
        self.holder.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn tid(n: u64) -> TransactionId {
        TransactionId(n)
    }

    #[test]
    fn the_first_stage_takes_the_lock_and_an_undeclared_one_conflicts() {
        let mut p = TxParticipant::new(0i32);
        assert!(!p.is_locked());
        p.stage(tid(5), |s| *s = 1).unwrap();
        assert!(p.is_locked());
        p.stage(tid(5), |s| *s += 1).unwrap();
        // Another transaction staging here did not declare the grain.
        assert_eq!(p.stage(tid(3), |s| *s = 9).unwrap_err().label(), "conflict");
        assert!(p.prepare(tid(5)));
        assert!(!p.prepare(tid(3)), "a non-holder votes no");
        p.commit(tid(5));
        assert_eq!(*p.committed(), 2);
        assert!(!p.is_locked());
    }

    #[test]
    fn a_decision_by_a_non_holder_leaves_the_holder_alone() {
        let mut p = TxParticipant::new(1i32);
        p.stage(tid(2), |s| *s = 20).unwrap();
        p.abort(tid(3));
        p.commit(tid(4));
        assert_eq!(*p.committed(), 1, "another tid's commit replayed nothing");
        assert!(p.prepare(tid(2)), "the holder kept its lock");
        p.commit(tid(2));
        assert_eq!(*p.committed(), 20, "and its staged ops");
    }

    #[test]
    fn staged_writes_are_invisible_until_commit() {
        let mut p = TxParticipant::new(10i32);
        assert_eq!(p.stage(tid(1), |s| {
            *s = 99;
            *s
        }), Ok(99), "own write visible to the op");
        assert_eq!(*p.committed(), 10, "uncommitted write leaked");
        assert!(p.prepare(tid(1)));
        p.commit(tid(1));
        assert_eq!(*p.committed(), 99);
        assert!(!p.is_locked());
    }

    #[test]
    fn abort_discards_staged_state() {
        let mut p = TxParticipant::new(10i32);
        p.stage(tid(1), |s| *s = 99).unwrap();
        p.abort(tid(1));
        assert_eq!(*p.committed(), 10);
        assert!(!p.is_locked());
        // The lock is free again.
        p.stage(tid(2), |s| *s += 1).unwrap();
    }

    #[test]
    fn prepare_without_lock_votes_no() {
        let p = TxParticipant::new(0i32);
        assert!(!p.prepare(tid(1)));
    }

    #[test]
    fn non_transactional_mutation_respects_write_lock() {
        let mut p = TxParticipant::new(0i32);
        p.mutate_committed(|s| *s = 5).unwrap();
        assert_eq!(*p.committed(), 5);
        p.stage(tid(1), |_| ()).unwrap();
        assert!(p.mutate_committed(|s| *s = 6).is_err());
        p.abort(tid(1));
        p.mutate_committed(|s| *s = 6).unwrap();
        assert_eq!(*p.committed(), 6);
    }

    /// A state whose every clone bumps a shared counter.
    #[derive(Debug)]
    struct Counted {
        rows: Vec<u64>,
        clones: Arc<AtomicUsize>,
    }

    impl Clone for Counted {
        fn clone(&self) -> Self {
            self.clones.fetch_add(1, Ordering::Relaxed);
            Self {
                rows: self.rows.clone(),
                clones: self.clones.clone(),
            }
        }
    }

    fn counted() -> (TxParticipant<Counted>, impl Fn() -> usize) {
        let clones = Arc::new(AtomicUsize::new(0));
        let count = clones.clone();
        let p = TxParticipant::new(Counted {
            rows: Vec::new(),
            clones,
        });
        (p, move || count.load(Ordering::Relaxed))
    }

    /// Runs one write transaction that pushes `row`, then commits it.
    fn push_and_commit(p: &mut TxParticipant<Counted>, t: u64, row: u64) {
        p.stage(tid(t), move |s| s.rows.push(row)).unwrap();
        assert!(p.prepare(tid(t)));
        p.commit(tid(t));
    }

    #[test]
    fn committed_writes_share_one_clone() {
        let (mut p, clones) = counted();
        for t in 1..=100 {
            push_and_commit(&mut p, t, t);
        }
        assert_eq!(p.committed().rows, (1..=100).collect::<Vec<_>>());
        assert!(clones() <= 1, "100 commits took {} clones", clones());
    }

    #[test]
    fn abort_and_outside_writes_cost_one_clone_at_the_next_stage() {
        let (mut p, clones) = counted();
        push_and_commit(&mut p, 1, 1);
        assert_eq!(clones(), 1);

        p.stage(tid(2), |s| s.rows.push(99)).unwrap();
        p.abort(tid(2));
        assert_eq!(clones(), 1, "the abort itself clones nothing");
        push_and_commit(&mut p, 3, 3);
        assert_eq!(clones(), 2, "the stage after an abort clones once");

        p.mutate_committed(|s| s.rows.push(4)).unwrap();
        assert_eq!(clones(), 2, "the outside write itself clones nothing");
        push_and_commit(&mut p, 5, 5);
        assert_eq!(clones(), 3, "the stage after an outside write clones once");
        assert_eq!(p.committed().rows, vec![1, 3, 4, 5]);
    }

    #[test]
    fn a_participant_that_never_stages_never_clones() {
        let (mut p, clones) = counted();
        for row in 0..100 {
            p.mutate_committed(|s| s.rows.push(row)).unwrap();
            assert!(!p.prepare(tid(row + 1)));
            p.commit(tid(row + 1));
        }
        assert_eq!(p.committed().rows.len(), 100);
        assert_eq!(clones(), 0);
    }
}
