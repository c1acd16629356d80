//! The per-grain transactional facet: wait-die locking and staged writes.

use om_common::ids::TransactionId;
use om_common::{OmError, OmResult};
use std::fmt;

/// Lock mode requested by a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    /// Shared with other readers.
    Read,
    /// Exclusive.
    Write,
}

/// A staged write, kept to be replayed on the committed state.
type Op<S> = Box<dyn Fn(&mut S) + Send>;

/// A grain-embedded transactional state cell.
///
/// The grain keeps its authoritative state inside the participant; plain
/// (non-transactional) reads see the last committed value, while
/// transactional access goes through [`TxParticipant::acquire`] /
/// [`TxParticipant::read`] / [`TxParticipant::stage`] and the 2PC
/// surface ([`TxParticipant::prepare`], [`TxParticipant::commit`],
/// [`TxParticipant::abort`]).
///
/// **Deferred update.** A write stages an *op*, not a copy of the state.
/// The op runs at once on a shadow (the committed state with the write
/// holder's ops applied) and joins a redo list; commit replays the list
/// on the committed state. The shadow outlives the transaction, since
/// after a commit it equals the committed state again. So only the first
/// write after construction, after an abort with staged ops, or after a
/// [`TxParticipant::mutate_committed`] clones the state: a transaction
/// otherwise costs the ops it runs, not the size of the grain.
///
/// **Wait-die** deadlock avoidance: transaction ids double as priorities
/// (lower id = older = wins). An older transaction requesting a held lock
/// *waits* (the acquire returns `Conflict`, and the coordinator retries);
/// a younger one *dies* (`TxWaitDie`, the transaction restarts). This
/// guarantees no deadlock cycles while letting old transactions make
/// progress.
pub struct TxParticipant<S> {
    committed: S,
    /// `committed` with `redo` applied; `None` until a write needs it.
    shadow: Option<S>,
    /// The write holder's staged ops, in staging order.
    redo: Vec<Op<S>>,
    /// Current read holders (empty when write-locked or free).
    read_holders: Vec<TransactionId>,
    /// Current write holder.
    write_holder: Option<TransactionId>,
    /// Transactions that voted yes in phase one.
    prepared: Vec<TransactionId>,
}

impl<S: fmt::Debug> fmt::Debug for TxParticipant<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TxParticipant")
            .field("committed", &self.committed)
            .field("staged_ops", &self.redo.len())
            .field("read_holders", &self.read_holders)
            .field("write_holder", &self.write_holder)
            .field("prepared", &self.prepared)
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
            read_holders: Vec::new(),
            write_holder: None,
            prepared: Vec::new(),
        }
    }

    /// Last committed state (non-transactional read).
    pub fn committed(&self) -> &S {
        &self.committed
    }

    /// Mutates committed state outside any transaction (data ingestion /
    /// eventual-mode writes) and returns what `f` returns. Fails if a
    /// transaction holds the write lock. Drops the shadow, so the next
    /// staged write clones the new state.
    pub fn mutate_committed<R>(&mut self, f: impl FnOnce(&mut S) -> R) -> OmResult<R> {
        if let Some(holder) = self.write_holder {
            return Err(OmError::Conflict(format!(
                "non-transactional write blocked by {holder}"
            )));
        }
        let out = f(&mut self.committed);
        self.shadow = None;
        Ok(out)
    }

    fn holds_any(&self, tid: TransactionId) -> bool {
        self.write_holder == Some(tid) || self.read_holders.contains(&tid)
    }

    /// Attempts to acquire the lock in `mode` for `tid`.
    ///
    /// * `Ok(())` — granted (idempotent re-acquire included; read→write
    ///   upgrade is granted when `tid` is the only reader).
    /// * `Err(Conflict)` — wait: `tid` is older than every holder; retry.
    /// * `Err(TxWaitDie)` — die: a younger `tid` must abort and restart.
    pub fn acquire(&mut self, tid: TransactionId, mode: LockMode) -> OmResult<()> {
        match mode {
            LockMode::Read => {
                if self.holds_any(tid) {
                    return Ok(());
                }
                match self.write_holder {
                    None => {
                        self.read_holders.push(tid);
                        Ok(())
                    }
                    Some(holder) => self.wait_or_die(tid, &[holder]),
                }
            }
            LockMode::Write => {
                if self.write_holder == Some(tid) {
                    return Ok(());
                }
                // Upgrade: sole reader may take the write lock.
                let other_readers: Vec<TransactionId> = self
                    .read_holders
                    .iter()
                    .copied()
                    .filter(|&t| t != tid)
                    .collect();
                if self.write_holder.is_none() && other_readers.is_empty() {
                    self.read_holders.retain(|&t| t != tid);
                    self.write_holder = Some(tid);
                    return Ok(());
                }
                let mut holders = other_readers;
                if let Some(h) = self.write_holder {
                    holders.push(h);
                }
                self.wait_or_die(tid, &holders)
            }
        }
    }

    fn wait_or_die(&self, tid: TransactionId, holders: &[TransactionId]) -> OmResult<()> {
        // Older (smaller id) than every holder => wait; otherwise die.
        if holders.iter().all(|&h| tid < h) {
            Err(OmError::Conflict(format!(
                "{tid} waiting for lock held by {holders:?}"
            )))
        } else {
            Err(OmError::TxWaitDie(format!(
                "{tid} younger than holder(s) {holders:?}"
            )))
        }
    }

    /// Transactional read; requires a previously acquired lock. The write
    /// holder sees its staged ops; every other holder sees the committed
    /// state.
    pub fn read(&self, tid: TransactionId) -> OmResult<&S> {
        if !self.holds_any(tid) {
            return Err(OmError::Internal(format!("{tid} reads without a lock")));
        }
        match &self.shadow {
            Some(shadow) if self.write_holder == Some(tid) && !self.redo.is_empty() => Ok(shadow),
            _ => Ok(&self.committed),
        }
    }

    /// Stages a write; requires the write lock. Runs `op` on the shadow,
    /// cloning the committed state only if there is no shadow, returns
    /// its result, and keeps `op` to replay on the committed state at
    /// commit.
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
        if self.write_holder != Some(tid) {
            return Err(OmError::Internal(format!(
                "{tid} writes without the write lock"
            )));
        }
        let out = op(self.shadow.get_or_insert_with(|| self.committed.clone()));
        self.redo.push(Box::new(move |s| {
            op(s);
        }));
        Ok(out)
    }

    /// Phase one: vote. Yes iff the transaction holds its locks (writes
    /// staged or read-only participation).
    pub fn prepare(&mut self, tid: TransactionId) -> OmResult<bool> {
        if !self.holds_any(tid) {
            return Ok(false);
        }
        if !self.prepared.contains(&tid) {
            self.prepared.push(tid);
        }
        Ok(true)
    }

    /// Phase two (commit): replays the staged ops on the committed state
    /// and releases locks. The shadow now equals the committed state and
    /// serves the next transaction.
    pub fn commit(&mut self, tid: TransactionId) {
        if self.write_holder == Some(tid) {
            for op in self.redo.drain(..) {
                op(&mut self.committed);
            }
        }
        self.release(tid);
    }

    /// Phase two (abort): discards the staged ops, and the shadow they
    /// changed, and releases locks.
    pub fn abort(&mut self, tid: TransactionId) {
        if self.write_holder == Some(tid) && !self.redo.is_empty() {
            self.redo.clear();
            self.shadow = None;
        }
        self.release(tid);
    }

    fn release(&mut self, tid: TransactionId) {
        self.read_holders.retain(|&t| t != tid);
        if self.write_holder == Some(tid) {
            self.write_holder = None;
        }
        self.prepared.retain(|&t| t != tid);
    }

    /// True if any transaction holds any lock (diagnostics).
    pub fn is_locked(&self) -> bool {
        self.write_holder.is_some() || !self.read_holders.is_empty()
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
    fn read_locks_are_shared() {
        let mut p = TxParticipant::new(0i32);
        p.acquire(tid(1), LockMode::Read).unwrap();
        p.acquire(tid(2), LockMode::Read).unwrap();
        assert_eq!(*p.read(tid(1)).unwrap(), 0);
        assert_eq!(*p.read(tid(2)).unwrap(), 0);
    }

    #[test]
    fn write_lock_is_exclusive_wait_die() {
        let mut p = TxParticipant::new(0i32);
        p.acquire(tid(5), LockMode::Write).unwrap();
        // Older tx waits.
        assert_eq!(
            p.acquire(tid(3), LockMode::Write).unwrap_err().label(),
            "conflict"
        );
        // Younger tx dies.
        assert_eq!(
            p.acquire(tid(9), LockMode::Write).unwrap_err().label(),
            "tx_wait_die"
        );
        // Re-acquire by holder is idempotent.
        p.acquire(tid(5), LockMode::Write).unwrap();
    }

    #[test]
    fn reader_blocks_writer_and_vice_versa() {
        let mut p = TxParticipant::new(0i32);
        p.acquire(tid(2), LockMode::Read).unwrap();
        assert!(p.acquire(tid(1), LockMode::Write).unwrap_err().label() == "conflict");
        assert!(p.acquire(tid(3), LockMode::Write).unwrap_err().label() == "tx_wait_die");

        let mut q = TxParticipant::new(0i32);
        q.acquire(tid(2), LockMode::Write).unwrap();
        assert_eq!(q.acquire(tid(1), LockMode::Read).unwrap_err().label(), "conflict");
        assert_eq!(q.acquire(tid(3), LockMode::Read).unwrap_err().label(), "tx_wait_die");
    }

    #[test]
    fn sole_reader_upgrades_to_writer() {
        let mut p = TxParticipant::new(0i32);
        p.acquire(tid(1), LockMode::Read).unwrap();
        p.acquire(tid(1), LockMode::Write).unwrap();
        p.stage(tid(1), |s| *s = 7).unwrap();
        p.commit(tid(1));
        assert_eq!(*p.committed(), 7);
    }

    #[test]
    fn upgrade_with_other_readers_fails() {
        let mut p = TxParticipant::new(0i32);
        p.acquire(tid(1), LockMode::Read).unwrap();
        p.acquire(tid(2), LockMode::Read).unwrap();
        let err = p.acquire(tid(1), LockMode::Write).unwrap_err();
        assert_eq!(err.label(), "conflict", "older waits for reader 2");
    }

    #[test]
    fn staged_writes_are_invisible_until_commit() {
        let mut p = TxParticipant::new(10i32);
        p.acquire(tid(1), LockMode::Write).unwrap();
        p.stage(tid(1), |s| *s = 99).unwrap();
        assert_eq!(*p.committed(), 10, "uncommitted write leaked");
        assert_eq!(*p.read(tid(1)).unwrap(), 99, "own write not visible");
        assert!(p.prepare(tid(1)).unwrap());
        p.commit(tid(1));
        assert_eq!(*p.committed(), 99);
        assert!(!p.is_locked());
    }

    #[test]
    fn abort_discards_staged_state() {
        let mut p = TxParticipant::new(10i32);
        p.acquire(tid(1), LockMode::Write).unwrap();
        p.stage(tid(1), |s| *s = 99).unwrap();
        p.abort(tid(1));
        assert_eq!(*p.committed(), 10);
        assert!(!p.is_locked());
        // Lock is free again.
        p.acquire(tid(2), LockMode::Write).unwrap();
    }

    #[test]
    fn prepare_without_lock_votes_no() {
        let mut p = TxParticipant::new(0i32);
        assert!(!p.prepare(tid(1)).unwrap());
    }

    #[test]
    fn unlocked_read_and_write_are_internal_errors() {
        let mut p = TxParticipant::new(0i32);
        assert_eq!(p.read(tid(1)).unwrap_err().label(), "internal");
        assert_eq!(p.stage(tid(1), |s| *s = 1).unwrap_err().label(), "internal");
    }

    #[test]
    fn non_transactional_mutation_respects_write_lock() {
        let mut p = TxParticipant::new(0i32);
        p.mutate_committed(|s| *s = 5).unwrap();
        assert_eq!(*p.committed(), 5);
        p.acquire(tid(1), LockMode::Write).unwrap();
        assert!(p.mutate_committed(|s| *s = 6).is_err());
        p.abort(tid(1));
        p.mutate_committed(|s| *s = 6).unwrap();
        assert_eq!(*p.committed(), 6);
    }

    #[test]
    fn wait_die_is_deadlock_free_ordering() {
        // For any pair of txs contending on two participants in opposite
        // orders, at least one acquire returns TxWaitDie (the younger),
        // so no wait-for cycle can form.
        let mut a = TxParticipant::new(0i32);
        let mut b = TxParticipant::new(0i32);
        a.acquire(tid(1), LockMode::Write).unwrap();
        b.acquire(tid(2), LockMode::Write).unwrap();
        // tid2 wants a (held by older tid1): dies.
        assert_eq!(a.acquire(tid(2), LockMode::Write).unwrap_err().label(), "tx_wait_die");
        // tid1 wants b (held by younger tid2): waits.
        assert_eq!(b.acquire(tid(1), LockMode::Write).unwrap_err().label(), "conflict");
        // tid2 dies: releases b; tid1 can now proceed.
        b.abort(tid(2));
        b.acquire(tid(1), LockMode::Write).unwrap();
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
        p.acquire(tid(t), LockMode::Write).unwrap();
        p.stage(tid(t), move |s| s.rows.push(row)).unwrap();
        assert!(p.prepare(tid(t)).unwrap());
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

        p.acquire(tid(2), LockMode::Write).unwrap();
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
            p.acquire(tid(row + 1), LockMode::Read).unwrap();
            assert_eq!(p.read(tid(row + 1)).unwrap().rows.len() as u64, row + 1);
            p.commit(tid(row + 1));
        }
        assert_eq!(clones(), 0);
    }
}
