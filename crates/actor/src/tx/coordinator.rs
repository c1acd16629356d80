//! The two-phase-commit coordinator and its admission gate.
//!
//! Like the textbook coordinator, it sends PREPARE to every participant at
//! once and then COMMIT (or ABORT) to every participant at once: a round
//! costs two waits however many participants there are. It keeps nothing
//! per finished transaction (in-memory presumed abort: a tid it holds no
//! record of was not committed; Mohan, Lindsay & Obermarck, TODS 1986),
//! only the grains its admitted transactions hold and three counts.

use crate::grain::GrainId;
use om_common::ids::{IdSequence, TransactionId};
use om_common::{OmError, OmResult};
use parking_lot::{Condvar, Mutex};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};

/// Coordinator-side view of one transaction's participants. Each method
/// sends one protocol message to **every** participant at once and returns
/// their answers in participant order. The marketplace's transactional
/// binding sends each one as a single [`crate::Cluster::call_all`] to the
/// grains that host the corresponding [`crate::tx::TxParticipant`]s.
pub trait Participants {
    /// Phase one: every participant's vote, `Ok(true)` = yes.
    fn prepare(&self, tid: TransactionId) -> Vec<OmResult<bool>>;
    /// Phase two, commit path. Must succeed once prepared (participants
    /// may not change their mind).
    fn commit(&self, tid: TransactionId) -> Vec<OmResult<()>>;
    /// Phase two, abort path. Must be idempotent.
    fn abort(&self, tid: TransactionId) -> Vec<OmResult<()>>;
}

/// The client-side 2PC coordinator, which also admits its transactions.
///
/// **Conservative 2PL.** Before its first phase a transaction declares
/// every grain it may lock, and [`Coordinator::admit`] blocks until no
/// admitted transaction holds any of them; the transaction then holds
/// them all until its [`Admitted`] guard drops. Two admitted
/// transactions never share a grain, so a lock is always free when its
/// transaction stages on it, no wait-for cycle can form, and nothing is
/// ever killed or restarted.
///
/// **Last agent.** [`Coordinator::run_2pc`] takes one more participant
/// that is not a grain: work that commits on its own (a projection into
/// a store) once every grain has voted yes, and whose failure aborts
/// them all. It runs admitted, so what the declared grains guard guards
/// it too.
#[derive(Default)]
pub struct Coordinator {
    seq: IdSequence,
    /// Grains held by admitted transactions. Changed only under its
    /// mutex, as the `parking_lot` shim's sleeper count requires.
    held: Mutex<HashSet<GrainId>>,
    /// Notified when an admitted transaction frees its grains.
    freed: Condvar,
    /// Commit decisions taken.
    commits: AtomicU64,
    /// Abort decisions taken.
    aborts: AtomicU64,
    /// Admissions that found a declared grain held and slept.
    admission_waits: AtomicU64,
}

/// An admitted transaction's hold on its declared grains, released on
/// drop.
#[must_use = "the grains are free again as soon as the guard drops"]
pub struct Admitted<'a> {
    coordinator: &'a Coordinator,
    grains: Vec<GrainId>,
}

impl Drop for Admitted<'_> {
    fn drop(&mut self) {
        let mut held = self.coordinator.held.lock();
        for grain in &self.grains {
            held.remove(grain);
        }
        drop(held);
        self.coordinator.freed.notify_all();
    }
}

impl Coordinator {
    /// A coordinator holding no grains, minting tids from 1.
    pub fn new() -> Self {
        Self {
            seq: IdSequence::new(1),
            ..Self::default()
        }
    }

    /// Mints a fresh transaction id.
    pub fn begin(&self) -> TransactionId {
        TransactionId(self.seq.next_raw())
    }

    /// Blocks until no admitted transaction holds any of `grains`, then
    /// holds them all (duplicates count once) until the guard drops.
    pub fn admit(&self, grains: &[GrainId]) -> Admitted<'_> {
        let mut grains = grains.to_vec();
        grains.sort_unstable();
        grains.dedup();
        let mut held = self.held.lock();
        if grains.iter().any(|g| held.contains(g)) {
            self.admission_waits.fetch_add(1, Ordering::Relaxed);
            while grains.iter().any(|g| held.contains(g)) {
                self.freed.wait(&mut held);
            }
        }
        held.extend(grains.iter().copied());
        Admitted {
            coordinator: self,
            grains,
        }
    }

    /// Admissions that had to wait for a declared grain.
    pub fn admission_waits(&self) -> u64 {
        self.admission_waits.load(Ordering::Relaxed)
    }

    /// Commit decisions taken so far.
    pub fn commits(&self) -> u64 {
        self.commits.load(Ordering::Relaxed)
    }

    /// Abort decisions taken so far.
    pub fn aborts(&self) -> u64 {
        self.aborts.load(Ordering::Relaxed)
    }

    /// Runs two-phase commit for `tid` across `participants`, with
    /// `last_agent` as the last participant.
    ///
    /// The last agent runs only once every participant has voted yes, and
    /// before the decision: its commit is its vote (Samaras et al.,
    /// "Two-Phase Commit Optimizations and Tradeoffs in the Commercial
    /// Environment", ICDE 1993). Returns `Ok(())` if all voted yes and
    /// committed. Otherwise aborts everywhere and returns the last agent's
    /// own error, or [`OmError::TxAborted`] with the first refusal in
    /// participant order; a participant error in prepare is a no vote.
    pub fn run_2pc<P: Participants + ?Sized>(
        &self,
        tid: TransactionId,
        participants: &P,
        last_agent: impl FnOnce() -> OmResult<()>,
    ) -> OmResult<()> {
        let refusal = participants
            .prepare(tid)
            .into_iter()
            .find_map(|vote| match vote {
                Ok(true) => None,
                Ok(false) => Some("participant voted no".to_string()),
                Err(e) => Some(format!("prepare failed: {e}")),
            });
        let vote = match refusal {
            None => last_agent(),
            Some(reason) => Err(OmError::TxAborted(reason)),
        };
        if let Err(e) = vote {
            self.aborts.fetch_add(1, Ordering::Relaxed);
            let _ = participants.abort(tid); // idempotent; best effort
            return Err(e);
        }
        self.commits.fetch_add(1, Ordering::Relaxed);
        // Prepared participants must obey the decision; an error here is
        // a bug in the participant, surfaced loudly.
        for outcome in participants.commit(tid) {
            outcome
                .map_err(|e| OmError::Internal(format!("commit after prepare failed: {e}")))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;

    /// Scripted participant for protocol tests.
    struct Scripted {
        vote: bool,
        fail_prepare: bool,
        fail_commit: bool,
        prepared: std::sync::atomic::AtomicBool,
        committed: Mutex<Vec<TransactionId>>,
        aborted: Mutex<Vec<TransactionId>>,
    }

    impl Scripted {
        fn yes() -> Self {
            Self {
                vote: true,
                fail_prepare: false,
                fail_commit: false,
                prepared: std::sync::atomic::AtomicBool::new(false),
                committed: Mutex::new(vec![]),
                aborted: Mutex::new(vec![]),
            }
        }

        fn no() -> Self {
            Self {
                vote: false,
                ..Self::yes()
            }
        }

        fn crashing() -> Self {
            Self {
                fail_prepare: true,
                ..Self::yes()
            }
        }

        fn failing_commit() -> Self {
            Self {
                fail_commit: true,
                ..Self::yes()
            }
        }
    }

    /// In-process participants: each phase asks every one of them.
    struct Set(Vec<Scripted>);

    impl Participants for Set {
        fn prepare(&self, _tid: TransactionId) -> Vec<OmResult<bool>> {
            self.0
                .iter()
                .map(|p| {
                    p.prepared.store(true, std::sync::atomic::Ordering::Relaxed);
                    if p.fail_prepare {
                        Err(OmError::Unavailable("participant down".into()))
                    } else {
                        Ok(p.vote)
                    }
                })
                .collect()
        }

        fn commit(&self, tid: TransactionId) -> Vec<OmResult<()>> {
            self.0
                .iter()
                .map(|p| {
                    if p.fail_commit {
                        return Err(OmError::Unavailable("participant lost".into()));
                    }
                    p.committed.lock().push(tid);
                    Ok(())
                })
                .collect()
        }

        fn abort(&self, tid: TransactionId) -> Vec<OmResult<()>> {
            self.0
                .iter()
                .map(|p| {
                    p.aborted.lock().push(tid);
                    Ok(())
                })
                .collect()
        }
    }

    #[test]
    fn unanimous_yes_commits_everywhere() {
        let c = Coordinator::new();
        let set = Set(vec![Scripted::yes(), Scripted::yes()]);
        let tid = c.begin();
        c.run_2pc(tid, &set, || Ok(())).unwrap();
        for p in &set.0 {
            assert_eq!(p.committed.lock().as_slice(), &[tid]);
            assert!(p.aborted.lock().is_empty());
        }
        assert!(set.0.iter().all(|p| p.prepared.load(Ordering::Relaxed)));
        assert_eq!((c.commits(), c.aborts()), (1, 0));
    }

    #[test]
    fn any_no_vote_aborts_everywhere() {
        let c = Coordinator::new();
        let set = Set(vec![Scripted::yes(), Scripted::no()]);
        let tid = c.begin();
        let err = c.run_2pc(tid, &set, || Ok(())).unwrap_err();
        assert_eq!(err.label(), "tx_aborted");
        for p in &set.0 {
            assert!(p.committed.lock().is_empty(), "nothing may commit");
            assert_eq!(p.aborted.lock().as_slice(), &[tid]);
        }
        assert_eq!((c.commits(), c.aborts()), (0, 1));
    }

    #[test]
    fn participant_crash_during_prepare_aborts() {
        let c = Coordinator::new();
        let set = Set(vec![Scripted::crashing(), Scripted::yes()]);
        let tid = c.begin();
        let err = c.run_2pc(tid, &set, || Ok(())).unwrap_err();
        assert_eq!(err.label(), "tx_aborted");
        assert!(err.to_string().contains("participant down"), "{err}");
        assert!(set.0[1].committed.lock().is_empty());
        assert_eq!(set.0[1].aborted.lock().as_slice(), &[tid]);
    }

    #[test]
    fn prepare_reaches_every_participant_and_the_decision_reaches_them_all() {
        // A no vote does not cut phase one short: every participant is
        // asked in the same fan-out, and every one of them, the refuser
        // and the crashed one too, hears the abort.
        let c = Coordinator::new();
        let set = Set(vec![Scripted::no(), Scripted::yes(), Scripted::crashing()]);
        let tid = c.begin();
        let err = c.run_2pc(tid, &set, || Ok(())).unwrap_err();
        assert!(
            err.to_string().contains("voted no"),
            "first refusal wins: {err}"
        );
        for p in &set.0 {
            assert!(p.prepared.load(Ordering::Relaxed));
            assert_eq!(p.aborted.lock().as_slice(), &[tid]);
            assert!(p.committed.lock().is_empty());
        }
        let tid2 = c.begin();
        let set2 = Set(vec![Scripted::yes()]);
        c.run_2pc(tid2, &set2, || Ok(())).unwrap();
        assert_eq!(set2.0[0].committed.lock().as_slice(), &[tid2]);
        assert!(set2.0[0].aborted.lock().is_empty());
        assert_eq!((c.commits(), c.aborts()), (1, 1));
    }

    #[test]
    fn the_last_agent_is_not_asked_when_a_participant_votes_no() {
        let c = Coordinator::new();
        let set = Set(vec![Scripted::yes(), Scripted::no()]);
        let tid = c.begin();
        let mut asked = false;
        let err = c
            .run_2pc(tid, &set, || {
                asked = true;
                Ok(())
            })
            .unwrap_err();
        assert_eq!(err.label(), "tx_aborted");
        assert!(!asked, "the last agent ran after a no vote");
    }

    #[test]
    fn the_last_agent_runs_after_every_yes_and_before_any_commit() {
        let c = Coordinator::new();
        let set = Set(vec![Scripted::yes(), Scripted::yes()]);
        let tid = c.begin();
        let mut asked = false;
        c.run_2pc(tid, &set, || {
            assert!(set.0.iter().all(|p| p.prepared.load(Ordering::Relaxed)));
            assert!(set.0.iter().all(|p| p.committed.lock().is_empty()));
            assert_eq!((c.commits(), c.aborts()), (0, 0), "decided before the last vote");
            asked = true;
            Ok(())
        })
        .unwrap();
        assert!(asked);
        assert!(set.0.iter().all(|p| p.committed.lock().as_slice() == [tid]));
    }

    #[test]
    fn a_failing_last_agent_aborts_everywhere_with_its_own_error() {
        let c = Coordinator::new();
        let set = Set(vec![Scripted::yes(), Scripted::yes()]);
        let tid = c.begin();
        let err = c
            .run_2pc(tid, &set, || Err(OmError::Internal("projection".into())))
            .unwrap_err();
        assert!(matches!(&err, OmError::Internal(m) if m == "projection"), "{err:?}");
        for p in &set.0 {
            assert!(p.committed.lock().is_empty(), "nothing may commit");
            assert_eq!(p.aborted.lock().as_slice(), &[tid]);
        }
        assert_eq!((c.commits(), c.aborts()), (0, 1));
    }

    #[test]
    fn a_participant_failing_its_commit_is_a_loud_error_after_a_commit_decision() {
        // Prepared participants may not change their mind: the decision
        // stands and counts as a commit, the others still commit, and the
        // failure surfaces as an internal error rather than an abort.
        let c = Coordinator::new();
        let set = Set(vec![Scripted::failing_commit(), Scripted::yes()]);
        let tid = c.begin();
        let err = c.run_2pc(tid, &set, || Ok(())).unwrap_err();
        assert!(
            matches!(&err, OmError::Internal(m) if m.contains("participant lost")),
            "{err:?}"
        );
        assert_eq!(set.0[1].committed.lock().as_slice(), &[tid]);
        assert!(set.0.iter().all(|p| p.aborted.lock().is_empty()));
        assert_eq!((c.commits(), c.aborts()), (1, 0));
    }

    #[test]
    fn tids_are_monotonic() {
        let c = Coordinator::new();
        let a = c.begin();
        let b = c.begin();
        assert!(a < b);
    }

    #[test]
    fn disjoint_sets_are_admitted_together_and_a_dropped_guard_frees_its_grains() {
        let c = Coordinator::new();
        let g = |k| GrainId::new("g", k);
        let first = c.admit(&[g(1), g(2), g(1)]);
        let second = c.admit(&[g(3)]);
        assert_eq!(c.held.lock().len(), 3, "a duplicate counts once");
        drop(first);
        let third = c.admit(&[g(1), g(2)]);
        drop((second, third));
        assert!(c.held.lock().is_empty());
        assert_eq!(c.admission_waits(), 0, "no admission found its grains held");
    }

    #[test]
    fn an_admission_waits_once_until_every_declared_grain_is_free() {
        let c = Coordinator::new();
        let g = |k| GrainId::new("g", k);
        let (first, second) = (c.admit(&[g(1)]), c.admit(&[g(2)]));
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| drop(c.admit(&[g(1), g(2)])));
            while c.admission_waits() == 0 {
                std::thread::yield_now();
            }
            // Freeing one declared grain wakes the waiter, which sleeps
            // again on the other.
            drop(first);
            assert!(!waiter.is_finished(), "admitted while grain 2 is held");
            drop(second);
            waiter.join().unwrap();
        });
        assert_eq!(c.admission_waits(), 1, "one admission waited, whatever its wake-ups");
        assert!(c.held.lock().is_empty());
    }
}
