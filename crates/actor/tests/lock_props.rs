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
//! * the coordinator's log never records both commit and abort for one
//!   transaction.

use om_actor::tx::{Coordinator, LockMode, Participants, TxParticipant};
use om_common::ids::TransactionId;
use om_common::{OmError, OmResult};
use parking_lot::Mutex;
use proptest::prelude::*;
use std::collections::BTreeSet;

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

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
            *cell.stage_mut(tid).unwrap() = value;
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
                *inner.stage_mut(tid).unwrap() += 1;
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
