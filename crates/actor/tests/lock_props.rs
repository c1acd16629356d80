//! Property-based tests of the wait-die lock manager and the 2PC state
//! machine embedded in grains.
//!
//! Invariants under arbitrary acquire/release schedules:
//!
//! * mutual exclusion — never two write holders, never a write holder
//!   alongside foreign readers;
//! * wait-die discipline — an older transaction is told to wait
//!   (`Conflict`), a younger one to die (`TxWaitDie`); so the lock
//!   "waits-for" order always points from younger to older and no cycle
//!   (deadlock) can form;
//! * staged writes are invisible until commit, discarded on abort;
//! * staged ops replayed at commit behave exactly like the shadow copy
//!   (clone on first write, install on commit) they replace;
//! * the coordinator's log never records both commit and abort for one
//!   transaction.

use om_actor::tx::{Coordinator, LockMode, Participants, TxParticipant};
use om_common::ids::TransactionId;
use om_common::{OmError, OmResult};
use parking_lot::Mutex;
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};

/// A randomly generated lock-protocol step.
#[derive(Debug, Clone)]
enum LockStep {
    Acquire { tx: u8, cell: u8, write: bool },
    Release { tx: u8, cell: u8, commit: bool },
}

fn step_strategy(txs: u8, cells: u8) -> impl Strategy<Value = LockStep> {
    prop_oneof![
        3 => (0..txs, 0..cells, any::<bool>())
            .prop_map(|(tx, cell, write)| LockStep::Acquire { tx, cell, write }),
        2 => (0..txs, 0..cells, any::<bool>())
            .prop_map(|(tx, cell, commit)| LockStep::Release { tx, cell, commit }),
    ]
}

/// A staged write over a `Vec<u64>` state, in the three shapes the grains
/// stage.
#[derive(Debug, Clone, Copy)]
enum Write {
    /// Adds to every row and returns the new sum (a value-returning op).
    AddAll(u64),
    /// Appends a row (a pure mutation).
    Push(u64),
    /// Appends a row, then fails: a refused stock reservation counts the
    /// refusal and returns `Err`.
    PushThenRefuse(u64),
}

impl Write {
    fn apply(self, rows: &mut Vec<u64>) -> Result<u64, u64> {
        match self {
            Write::AddAll(x) => {
                rows.iter_mut().for_each(|r| *r = r.wrapping_add(x));
                Ok(rows.iter().fold(0, |a, r| a.wrapping_add(*r)))
            }
            Write::Push(x) => {
                rows.push(x);
                Ok(rows.len() as u64)
            }
            Write::PushThenRefuse(x) => {
                rows.push(x);
                Err(x)
            }
        }
    }
}

/// One step of a participant's life.
#[derive(Debug, Clone)]
enum CellStep {
    Acquire { tx: u64, write: bool },
    Stage { tx: u64, write: Write },
    Read { tx: u64 },
    Prepare { tx: u64 },
    Commit { tx: u64 },
    Abort { tx: u64 },
    MutateCommitted(u64),
}

fn cell_step_strategy() -> impl Strategy<Value = CellStep> {
    let tx = 1..4u64;
    let write = prop_oneof![
        (0..5u64).prop_map(Write::AddAll),
        (0..100u64).prop_map(Write::Push),
        (0..100u64).prop_map(Write::PushThenRefuse),
    ];
    prop_oneof![
        3 => (tx.clone(), any::<bool>()).prop_map(|(tx, write)| CellStep::Acquire { tx, write }),
        4 => (tx.clone(), write).prop_map(|(tx, write)| CellStep::Stage { tx, write }),
        2 => tx.clone().prop_map(|tx| CellStep::Read { tx }),
        1 => tx.clone().prop_map(|tx| CellStep::Prepare { tx }),
        2 => tx.clone().prop_map(|tx| CellStep::Commit { tx }),
        1 => tx.prop_map(|tx| CellStep::Abort { tx }),
        1 => (0..100u64).prop_map(CellStep::MutateCommitted),
    ]
}

/// The staging semantics the redo list replaces: the first write of a
/// transaction clones the committed state, later writes change the
/// clone, commit installs it and abort drops it. Lock grants are taken
/// from the participant (`wait_die_locking_is_safe` checks them); the
/// model only tracks who holds what.
#[derive(Default)]
struct CloneOnWrite {
    committed: Vec<u64>,
    staged: HashMap<u64, Vec<u64>>,
    writer: Option<u64>,
    readers: BTreeSet<u64>,
}

impl CloneOnWrite {
    fn holds(&self, tx: u64) -> bool {
        self.writer == Some(tx) || self.readers.contains(&tx)
    }

    fn release(&mut self, tx: u64) {
        self.readers.remove(&tx);
        if self.writer == Some(tx) {
            self.writer = None;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random schedules of lock, stage, read, 2PC and outside writes give
    /// the same op results, transactional reads and committed state as a
    /// clone-on-first-write model, and a transaction that does not hold
    /// the write lock never sees staged state.
    #[test]
    fn staged_ops_match_a_clone_on_first_write(
        steps in prop::collection::vec(cell_step_strategy(), 1..120)
    ) {
        let mut cell = TxParticipant::new(Vec::<u64>::new());
        let mut model = CloneOnWrite::default();
        for step in steps {
            match step {
                CellStep::Acquire { tx, write } => {
                    let mode = if write { LockMode::Write } else { LockMode::Read };
                    if cell.acquire(TransactionId(tx), mode).is_ok() {
                        if write {
                            prop_assert!(model.readers.iter().all(|&r| r == tx));
                            prop_assert!(model.writer.is_none() || model.writer == Some(tx));
                            model.readers.remove(&tx);
                            model.writer = Some(tx);
                        } else if !model.holds(tx) {
                            prop_assert!(model.writer.is_none());
                            model.readers.insert(tx);
                        }
                    }
                }
                CellStep::Stage { tx, write } => {
                    let got = cell.stage(TransactionId(tx), move |rows| write.apply(rows));
                    if model.writer == Some(tx) {
                        let staged = model
                            .staged
                            .entry(tx)
                            .or_insert_with(|| model.committed.clone());
                        prop_assert_eq!(got.unwrap(), write.apply(staged));
                    } else {
                        prop_assert_eq!(got.unwrap_err().label(), "internal");
                    }
                }
                CellStep::Read { tx } => {
                    let got = cell.read(TransactionId(tx));
                    if model.holds(tx) {
                        let want = model.staged.get(&tx).unwrap_or(&model.committed);
                        prop_assert_eq!(got.unwrap(), want);
                    } else {
                        prop_assert_eq!(got.unwrap_err().label(), "internal");
                    }
                }
                CellStep::Prepare { tx } => {
                    prop_assert_eq!(cell.prepare(TransactionId(tx)).unwrap(), model.holds(tx));
                }
                CellStep::Commit { tx } => {
                    cell.commit(TransactionId(tx));
                    if let Some(staged) = model.staged.remove(&tx) {
                        model.committed = staged;
                    }
                    model.release(tx);
                }
                CellStep::Abort { tx } => {
                    cell.abort(TransactionId(tx));
                    model.staged.remove(&tx);
                    model.release(tx);
                }
                CellStep::MutateCommitted(x) => {
                    let got = cell.mutate_committed(|rows| rows.push(x));
                    prop_assert_eq!(got.is_ok(), model.writer.is_none());
                    if model.writer.is_none() {
                        model.committed.push(x);
                    }
                }
            }
            // Non-transactional readers, and every transaction but the
            // write holder, see only committed state.
            prop_assert_eq!(cell.committed(), &model.committed);
            for tx in 1..4u64 {
                if model.readers.contains(&tx) {
                    prop_assert_eq!(cell.read(TransactionId(tx)).unwrap(), &model.committed);
                }
            }
        }
    }

    /// Drives random acquire/release traffic over a few lock cells and
    /// checks mutual exclusion plus the wait-die rule on every denial.
    #[test]
    fn wait_die_locking_is_safe(
        steps in prop::collection::vec(step_strategy(6, 3), 1..80)
    ) {
        let mut cells: Vec<TxParticipant<u64>> =
            (0..3).map(|_| TxParticipant::new(0u64)).collect();
        // holders[cell] = set of (tid, is_write) we believe hold the lock.
        let mut holders: Vec<BTreeSet<(u64, bool)>> =
            vec![BTreeSet::new(); cells.len()];

        for step in steps {
            match step {
                LockStep::Acquire { tx, cell, write } => {
                    let tid = TransactionId(tx as u64 + 1);
                    let mode = if write { LockMode::Write } else { LockMode::Read };
                    let held = &mut holders[cell as usize];
                    match cells[cell as usize].acquire(tid, mode) {
                        Ok(()) => {
                            // Mutual exclusion, checked against the model
                            // built from previous grants:
                            if write {
                                let others: Vec<_> = held
                                    .iter()
                                    .filter(|&&(t, _)| t != tid.0)
                                    .collect();
                                prop_assert!(
                                    others.is_empty(),
                                    "write granted to {tid:?} while cell {cell} held by {others:?}"
                                );
                                held.clear();
                                held.insert((tid.0, true));
                            } else {
                                let writers: Vec<_> = held
                                    .iter()
                                    .filter(|&&(t, w)| w && t != tid.0)
                                    .collect();
                                prop_assert!(
                                    writers.is_empty(),
                                    "read granted to {tid:?} while cell {cell} write-held by {writers:?}"
                                );
                                // Idempotent re-acquire keeps the stronger
                                // mode.
                                if !held.contains(&(tid.0, true)) {
                                    held.insert((tid.0, false));
                                }
                            }
                        }
                        Err(OmError::Conflict(_)) => {
                            // Wait verdict => requester older (smaller id)
                            // than every current holder it conflicts with.
                            let conflicting: Vec<u64> = held
                                .iter()
                                .filter(|&&(t, w)| {
                                    t != tid.0 && (write || w)
                                })
                                .map(|&(t, _)| t)
                                .collect();
                            prop_assert!(
                                conflicting.iter().all(|&h| tid.0 < h),
                                "wait verdict but {tid:?} is not oldest vs {conflicting:?}"
                            );
                        }
                        Err(OmError::TxWaitDie(_)) => {
                            let conflicting: Vec<u64> = held
                                .iter()
                                .filter(|&&(t, w)| t != tid.0 && (write || w))
                                .map(|&(t, _)| t)
                                .collect();
                            prop_assert!(
                                conflicting.iter().any(|&h| tid.0 > h),
                                "die verdict but {tid:?} is older than all of {conflicting:?}"
                            );
                        }
                        Err(other) => prop_assert!(false, "unexpected error {other}"),
                    }
                }
                LockStep::Release { tx, cell, commit } => {
                    let tid = TransactionId(tx as u64 + 1);
                    let participant = &mut cells[cell as usize];
                    if commit && participant.prepare(tid).unwrap_or(false) {
                        participant.commit(tid);
                    } else {
                        participant.abort(tid);
                    }
                    holders[cell as usize].retain(|&(t, _)| t != tid.0);
                }
            }
        }
    }

    /// Staged writes become visible exactly on commit and never on abort.
    #[test]
    fn staging_is_atomic(values in prop::collection::vec((any::<u64>(), any::<bool>()), 1..32)) {
        let mut cell = TxParticipant::new(0u64);
        let mut committed_value = 0u64;
        for (i, (value, commit)) in values.into_iter().enumerate() {
            let tid = TransactionId(i as u64 + 1);
            cell.acquire(tid, LockMode::Write).unwrap();
            cell.stage(tid, move |s| *s = value).unwrap();
            // Not visible before the decision:
            prop_assert_eq!(*cell.committed(), committed_value);
            if commit {
                prop_assert!(cell.prepare(tid).unwrap());
                cell.commit(tid);
                committed_value = value;
            } else {
                cell.abort(tid);
            }
            prop_assert_eq!(*cell.committed(), committed_value);
            prop_assert!(!cell.is_locked(), "locks must drain at decision");
        }
    }

    /// Random 2PC outcomes keep the decision log consistent: one decision
    /// per transaction, and every all-yes vote commits.
    #[test]
    fn two_phase_commit_log_is_consistent(
        rounds in prop::collection::vec((any::<bool>(), any::<bool>(), any::<bool>()), 1..24)
    ) {
        struct Part {
            inner: Mutex<TxParticipant<u64>>,
            vote_yes: std::sync::atomic::AtomicBool,
        }
        /// In-process participants: each phase asks all of them.
        struct Parts(Vec<Part>);
        impl Participants for Parts {
            fn prepare(&self, tid: TransactionId) -> Vec<OmResult<bool>> {
                self.0
                    .iter()
                    .map(|p| {
                        if !p.vote_yes.load(std::sync::atomic::Ordering::Relaxed) {
                            return Ok(false);
                        }
                        p.inner.lock().prepare(tid)
                    })
                    .collect()
            }
            fn commit(&self, tid: TransactionId) -> Vec<OmResult<()>> {
                self.0
                    .iter()
                    .map(|p| {
                        p.inner.lock().commit(tid);
                        Ok(())
                    })
                    .collect()
            }
            fn abort(&self, tid: TransactionId) -> Vec<OmResult<()>> {
                self.0
                    .iter()
                    .map(|p| {
                        p.inner.lock().abort(tid);
                        Ok(())
                    })
                    .collect()
            }
        }

        let coordinator = Coordinator::new();
        let parts = Parts(
            (0..3)
                .map(|_| Part {
                    inner: Mutex::new(TxParticipant::new(0)),
                    vote_yes: std::sync::atomic::AtomicBool::new(true),
                })
                .collect(),
        );

        let mut expected_commits = 0u64;
        for (v0, v1, v2) in rounds {
            let votes = [v0, v1, v2];
            let tid = coordinator.begin();
            for (part, vote) in parts.0.iter().zip(votes) {
                part.vote_yes
                    .store(vote, std::sync::atomic::Ordering::Relaxed);
                // Stage something under the lock so prepare has work.
                let mut inner = part.inner.lock();
                inner.acquire(tid, LockMode::Write).unwrap();
                inner.stage(tid, |s| *s += 1).unwrap();
            }
            let outcome = coordinator.run_2pc(tid, &parts);
            if votes.iter().all(|&v| v) {
                prop_assert!(outcome.is_ok(), "all-yes must commit");
                expected_commits += 1;
            } else {
                prop_assert!(outcome.is_err(), "any-no must abort");
            }
            // No participant may stay locked after the decision.
            for part in &parts.0 {
                prop_assert!(!part.inner.lock().is_locked());
            }
        }
        prop_assert!(coordinator.log().is_consistent());
        prop_assert_eq!(coordinator.log().commits(), expected_commits);
        // Committed state: every participant applied exactly one
        // increment per committed round.
        for part in &parts.0 {
            prop_assert_eq!(*part.inner.lock().committed(), expected_commits);
        }
    }
}
