//! Property-based tests of the admission gate, the per-grain lock and
//! the 2PC state machine embedded in grains.
//!
//! Invariants:
//!
//! * admission is exclusive and deadlock-free — two admitted
//!   transactions never share a declared grain, and threads admitting
//!   random overlapping sets all finish;
//! * a grain's lock has one holder, taken by its first stage; another
//!   transaction's stage is refused (`Conflict`);
//! * staged writes are invisible until commit, discarded on abort;
//! * staged ops replayed at commit behave exactly like the shadow copy
//!   (clone on first write, install on commit) they replace;
//! * the coordinator's log never records both commit and abort for one
//!   transaction.

use om_actor::tx::{Coordinator, Participants, TxParticipant};
use om_actor::GrainId;
use om_common::ids::TransactionId;
use om_common::OmResult;
use parking_lot::Mutex;
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

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
    Stage { tx: u64, write: Write },
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
        4 => (tx.clone(), write).prop_map(|(tx, write)| CellStep::Stage { tx, write }),
        1 => tx.clone().prop_map(|tx| CellStep::Prepare { tx }),
        2 => tx.clone().prop_map(|tx| CellStep::Commit { tx }),
        1 => tx.prop_map(|tx| CellStep::Abort { tx }),
        1 => (0..100u64).prop_map(CellStep::MutateCommitted),
    ]
}

/// The staging semantics the redo list replaces: the first write of a
/// transaction takes the lock and clones the committed state, later
/// writes change the clone, commit installs it and abort drops it.
#[derive(Default)]
struct CloneOnWrite {
    committed: Vec<u64>,
    staged: HashMap<u64, Vec<u64>>,
    holder: Option<u64>,
}

impl CloneOnWrite {
    fn release(&mut self, tx: u64) {
        if self.holder == Some(tx) {
            self.holder = None;
        }
    }
}

/// Threads that each admit a run of declared grain sets over `grains`
/// grains. Inside an admission a thread raises a flag per declared
/// grain, and finding one raised means two admitted transactions shared
/// it. Returns the first such clash, or a timeout if some thread never
/// finished (a deadlock).
fn admit_concurrently(grains: u64, plans: Vec<Vec<Vec<u64>>>) -> Result<(), String> {
    let coordinator = Arc::new(Coordinator::new());
    let flags: Arc<Vec<AtomicBool>> = Arc::new((0..grains).map(|_| AtomicBool::new(false)).collect());
    let (done, finished) = mpsc::channel();
    let threads = plans.len();
    for plan in plans {
        let (coordinator, flags, done) = (coordinator.clone(), flags.clone(), done.clone());
        std::thread::spawn(move || {
            let mut clash = None;
            for set in plan {
                let ids: Vec<GrainId> = set.iter().map(|&g| GrainId::new("g", g)).collect();
                let _admitted = coordinator.admit(&ids);
                let mut raised = Vec::new();
                for &g in &set {
                    if !raised.contains(&g) {
                        if flags[g as usize].swap(true, Ordering::AcqRel) {
                            clash.get_or_insert(format!("grain {g} admitted twice"));
                        }
                        raised.push(g);
                    }
                }
                std::thread::yield_now();
                for g in raised {
                    flags[g as usize].store(false, Ordering::Release);
                }
            }
            let _ = done.send(clash);
        });
    }
    for _ in 0..threads {
        match finished.recv_timeout(Duration::from_secs(20)) {
            Ok(None) => {}
            Ok(Some(clash)) => return Err(clash),
            Err(_) => return Err("a thread never finished its admissions".into()),
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random schedules of stage, 2PC and outside writes give the same op
    /// results and committed state as a clone-on-first-write model, and
    /// a stage by a transaction that does not hold the lock is refused.
    #[test]
    fn staged_ops_match_a_clone_on_first_write(
        steps in prop::collection::vec(cell_step_strategy(), 1..120)
    ) {
        let mut cell = TxParticipant::new(Vec::<u64>::new());
        let mut model = CloneOnWrite::default();
        for step in steps {
            match step {
                CellStep::Stage { tx, write } => {
                    let got = cell.stage(TransactionId(tx), move |rows| write.apply(rows));
                    if model.holder.is_none_or(|h| h == tx) {
                        model.holder = Some(tx);
                        let staged = model
                            .staged
                            .entry(tx)
                            .or_insert_with(|| model.committed.clone());
                        prop_assert_eq!(got.unwrap(), write.apply(staged));
                    } else {
                        prop_assert_eq!(got.unwrap_err().label(), "conflict");
                    }
                }
                CellStep::Prepare { tx } => {
                    prop_assert_eq!(cell.prepare(TransactionId(tx)), model.holder == Some(tx));
                }
                CellStep::Commit { tx } => {
                    cell.commit(TransactionId(tx));
                    if model.holder == Some(tx) {
                        if let Some(staged) = model.staged.remove(&tx) {
                            model.committed = staged;
                        }
                    }
                    model.release(tx);
                }
                CellStep::Abort { tx } => {
                    cell.abort(TransactionId(tx));
                    if model.holder == Some(tx) {
                        model.staged.remove(&tx);
                    }
                    model.release(tx);
                }
                CellStep::MutateCommitted(x) => {
                    let got = cell.mutate_committed(|rows| rows.push(x));
                    prop_assert_eq!(got.is_ok(), model.holder.is_none());
                    if model.holder.is_none() {
                        model.committed.push(x);
                    }
                }
            }
            // Non-transactional readers see only committed state.
            prop_assert_eq!(cell.committed(), &model.committed);
            prop_assert_eq!(cell.is_locked(), model.holder.is_some());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Three threads admit random declared sets (duplicates included)
    /// over four grains: no grain is ever held by two admitted
    /// transactions at once, and every thread finishes.
    #[test]
    fn admission_is_exclusive_and_deadlock_free(
        plans in prop::collection::vec(
            prop::collection::vec(prop::collection::vec(0..4u64, 1..4), 1..40),
            3..4,
        )
    ) {
        if let Err(e) = admit_concurrently(4, plans) {
            prop_assert!(false, "{}", e);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Staged writes become visible exactly on commit and never on abort.
    #[test]
    fn staging_is_atomic(values in prop::collection::vec((any::<u64>(), any::<bool>()), 1..32)) {
        let mut cell = TxParticipant::new(0u64);
        let mut committed_value = 0u64;
        for (i, (value, commit)) in values.into_iter().enumerate() {
            let tid = TransactionId(i as u64 + 1);
            cell.stage(tid, move |s| *s = value).unwrap();
            // Not visible before the decision:
            prop_assert_eq!(*cell.committed(), committed_value);
            if commit {
                prop_assert!(cell.prepare(tid));
                cell.commit(tid);
                committed_value = value;
            } else {
                cell.abort(tid);
            }
            prop_assert_eq!(*cell.committed(), committed_value);
            prop_assert!(!cell.is_locked(), "locks must drain at decision");
        }
    }

    /// Random 2PC outcomes: every all-yes vote commits, any no vote
    /// aborts, the coordinator counts one decision per transaction, and
    /// every participant applied exactly the committed rounds.
    #[test]
    fn two_phase_commit_applies_exactly_the_all_yes_rounds(
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
                        Ok(p.inner.lock().prepare(tid))
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
        let total = rounds.len() as u64;
        for (v0, v1, v2) in rounds {
            let votes = [v0, v1, v2];
            let tid = coordinator.begin();
            for (part, vote) in parts.0.iter().zip(votes) {
                part.vote_yes
                    .store(vote, std::sync::atomic::Ordering::Relaxed);
                // Stage something, taking the lock, so prepare has work.
                part.inner.lock().stage(tid, |s| *s += 1).unwrap();
            }
            let outcome = coordinator.run_2pc(tid, &parts, || Ok(()));
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
        prop_assert_eq!(coordinator.commits(), expected_commits);
        prop_assert_eq!(coordinator.aborts(), total - expected_commits);
        // Committed state: every participant applied exactly one
        // increment per committed round.
        for part in &parts.0 {
            prop_assert_eq!(*part.inner.lock().committed(), expected_commits);
        }
    }
}
