//! The commit barrier behind **group commit**: N concurrent writers
//! share one flush/fsync instead of paying N.
//!
//! Writers stage their record, obtain a monotone *ticket*, then park on
//! `CommitGroup::wait_durable`. At any moment at most one parked writer
//! is elected **leader**: it runs the caller-supplied flush closure
//! exactly once — which must make every ticket staged so far durable
//! and report the highest ticket it covered — and every writer whose
//! ticket the flush covered is released together. Writers that staged
//! while the leader was mid-flush stay parked and are picked up by the
//! next leader, so the cohort size adapts to contention automatically.
//!
//! Its one user is [`crate::segment_log`], which batches the segment
//! writes (and fsyncs) of the file backend's WAL and of each
//! persistent-topic partition through it.

use om_common::{OmError, OmResult};
use parking_lot::{Condvar, Mutex};

/// Point-in-time counters of a segment log's commit barrier (see
/// [`crate::segment_log::LogStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommitGroupStats {
    /// Leader flushes performed (each is one flush+fsync shared by a
    /// whole cohort).
    pub flushes: u64,
    /// Tickets released across all flushes; `released / flushes` is the
    /// mean commits-per-sync the group achieved.
    pub released: u64,
    /// Largest single cohort released by one flush.
    pub max_cohort: u64,
}

impl CommitGroupStats {
    /// Mean tickets released per leader flush, the headline
    /// group-commit metric (1 = no batching happened).
    pub fn commits_per_flush(&self) -> u64 {
        self.released.checked_div(self.flushes).unwrap_or(0)
    }
}

struct GroupState {
    /// Highest durable (released) ticket.
    durable: u64,
    /// A leader is currently running the flush closure.
    leader_active: bool,
    /// Tickets at or below this bound that never became durable were
    /// dropped by [`CommitGroup::abort_below`]: their waiters fail
    /// instead of being released (or re-electing themselves leader and
    /// flushing an empty stage into a false acknowledgement).
    aborted_below: u64,
    stats: CommitGroupStats,
}

/// The commit barrier. See the module docs for the protocol.
pub struct CommitGroup {
    state: Mutex<GroupState>,
    released: Condvar,
}

impl CommitGroup {
    /// A barrier whose elected leader flushes as soon as it is elected —
    /// under contention that still batches every ticket that queued
    /// while the previous leader was flushing.
    pub fn new() -> Self {
        Self {
            state: Mutex::new(GroupState {
                durable: 0,
                leader_active: false,
                aborted_below: 0,
                stats: CommitGroupStats::default(),
            }),
            released: Condvar::new(),
        }
    }

    /// Parks until `ticket` is durable. The caller must have already
    /// staged its record such that a subsequent `flush()` covers it;
    /// tickets are monotone starting at 1 (0 is the "nothing durable
    /// yet" floor).
    ///
    /// `flush` is the leader duty: make everything staged so far
    /// durable and return the highest ticket covered. It runs with no
    /// barrier lock held, on exactly one thread at a time. A flush
    /// error is returned to the leader; other parked writers re-elect
    /// and retry, so one failed leader never wedges the cohort.
    pub fn wait_durable<F>(&self, ticket: u64, mut flush: F) -> OmResult<()>
    where
        F: FnMut() -> OmResult<u64>,
    {
        let mut st = self.state.lock();
        loop {
            // Checked BEFORE the durable floor: an abort raises the
            // floor over the dropped tickets so later cohorts release
            // normally, but the dropped tickets themselves must fail.
            if ticket <= st.aborted_below {
                return Err(OmError::Wedged(format!(
                    "commit ticket {ticket} was dropped by a store repair; the write was never durable"
                )));
            }
            if st.durable >= ticket {
                return Ok(());
            }
            if st.leader_active {
                self.released.wait(&mut st);
                continue;
            }
            st.leader_active = true;
            drop(st);
            let result = flush();
            st = self.state.lock();
            st.leader_active = false;
            match result {
                Ok(upto) => {
                    if upto > st.durable {
                        let cohort = upto - st.durable;
                        st.stats.flushes += 1;
                        st.stats.released += cohort;
                        st.stats.max_cohort = st.stats.max_cohort.max(cohort);
                        st.durable = upto;
                    }
                    self.released.notify_all();
                }
                Err(e) => {
                    // Wake the cohort so another writer can retry as
                    // leader (or fail on its own terms).
                    self.released.notify_all();
                    return Err(e);
                }
            }
        }
    }

    /// Highest durable ticket (0 before any flush).
    #[cfg(test)]
    pub fn durable(&self) -> u64 {
        self.state.lock().durable
    }

    /// Raises the durable floor without a flush. Recovery calls this
    /// with the last recovered ticket so that tickets resuming above
    /// pre-crash sequence numbers do not count the whole recovered
    /// history as one giant released cohort (which would inflate
    /// `commits_per_sync`-style stats by the recovered count).
    pub fn reset_floor(&self, floor: u64) {
        let mut st = self.state.lock();
        st.durable = st.durable.max(floor);
    }

    /// Fails every ticket up to and including `bound` that is not yet
    /// durable: parked waiters wake with an error, and late
    /// `wait_durable` calls for those tickets fail instead of electing
    /// a leader over an empty stage (which would release them as a
    /// false acknowledgement). The durable floor is raised over the
    /// dropped range so later tickets release normally.
    ///
    /// This is the barrier half of a store **unwedge**: the staged
    /// frames behind those tickets were discarded with the torn tail,
    /// so their committers must observe failure, not success. The
    /// caller must hold whatever lock stops new tickets being staged
    /// at or below `bound`.
    pub fn abort_below(&self, bound: u64) {
        let mut st = self.state.lock();
        st.aborted_below = st.aborted_below.max(bound);
        st.durable = st.durable.max(bound);
        self.released.notify_all();
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> CommitGroupStats {
        self.state.lock().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn single_writer_leads_itself() {
        let group = CommitGroup::new();
        let staged = AtomicU64::new(3);
        group
            .wait_durable(3, || Ok(staged.load(Ordering::SeqCst)))
            .unwrap();
        assert_eq!(group.durable(), 3);
        let stats = group.stats();
        assert_eq!(stats.flushes, 1);
        assert_eq!(stats.released, 3);
    }

    #[test]
    fn cohort_shares_flushes_under_contention() {
        const WRITERS: u64 = 8;
        const ROUNDS: u64 = 50;
        let group = Arc::new(CommitGroup::new());
        let staged = Arc::new(AtomicU64::new(0));
        let flushed = Arc::new(AtomicU64::new(0));
        let next = Arc::new(AtomicU64::new(1));
        let mut handles = Vec::new();
        for _ in 0..WRITERS {
            let (group, staged, flushed, next) =
                (group.clone(), staged.clone(), flushed.clone(), next.clone());
            handles.push(std::thread::spawn(move || {
                for _ in 0..ROUNDS {
                    let ticket = next.fetch_add(1, Ordering::SeqCst);
                    staged.fetch_max(ticket, Ordering::SeqCst);
                    group
                        .wait_durable(ticket, || {
                            // Simulate a sync: every staged ticket
                            // becomes durable.
                            flushed.fetch_add(1, Ordering::SeqCst);
                            std::thread::yield_now();
                            Ok(staged.load(Ordering::SeqCst))
                        })
                        .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let stats = group.stats();
        assert_eq!(stats.released, WRITERS * ROUNDS, "every ticket released");
        assert_eq!(stats.flushes, flushed.load(Ordering::SeqCst));
        assert!(
            stats.flushes <= WRITERS * ROUNDS,
            "never more flushes than commits"
        );
        assert_eq!(group.durable(), WRITERS * ROUNDS);
    }

    #[test]
    fn lone_writer_pays_one_flush_per_commit() {
        let group = CommitGroup::new();
        assert_eq!(group.stats().commits_per_flush(), 0, "no flush yet");
        let staged = AtomicU64::new(0);
        for ticket in 1..=32u64 {
            staged.store(ticket, Ordering::SeqCst);
            group
                .wait_durable(ticket, || Ok(staged.load(Ordering::SeqCst)))
                .unwrap();
        }
        let stats = group.stats();
        assert_eq!(stats.flushes, 32, "nothing to batch with: one flush each");
        assert_eq!(stats.released, 32);
        assert_eq!(stats.max_cohort, 1);
        assert_eq!(stats.commits_per_flush(), 1);
    }

    #[test]
    fn writers_parked_behind_a_leader_share_its_flush() {
        const WRITERS: u64 = 6;
        let group = Arc::new(CommitGroup::new());
        let staged = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..WRITERS {
            let (group, staged) = (group.clone(), staged.clone());
            handles.push(std::thread::spawn(move || {
                let ticket = staged.fetch_add(1, Ordering::SeqCst) + 1;
                group
                    .wait_durable(ticket, || {
                        // Whoever leads holds the flush open until every
                        // writer has staged: the rest queue behind it.
                        while staged.load(Ordering::SeqCst) < WRITERS {
                            std::thread::yield_now();
                        }
                        Ok(staged.load(Ordering::SeqCst))
                    })
                    .unwrap();
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let stats = group.stats();
        assert_eq!(stats.flushes, 1, "one leader flush covers the whole cohort");
        assert_eq!(stats.released, WRITERS);
        assert_eq!(stats.max_cohort, WRITERS);
        assert_eq!(stats.commits_per_flush(), WRITERS);
    }

    #[test]
    fn a_flush_covering_later_tickets_releases_them_without_another() {
        let group = CommitGroup::new();
        // The leader's flush made tickets 2 and 3 durable too (they were
        // staged before it ran but not yet waited on).
        group.wait_durable(1, || Ok(3)).unwrap();
        group
            .wait_durable(2, || panic!("ticket 2 is already durable"))
            .unwrap();
        group
            .wait_durable(3, || panic!("ticket 3 is already durable"))
            .unwrap();
        let stats = group.stats();
        assert_eq!((stats.flushes, stats.released, stats.max_cohort), (1, 3, 3));
        group.wait_durable(4, || Ok(4)).unwrap();
        let stats = group.stats();
        assert_eq!((stats.flushes, stats.released, stats.max_cohort), (2, 4, 3));
    }

    #[test]
    fn reset_floor_keeps_recovered_history_out_of_the_cohort_stats() {
        let group = CommitGroup::new();
        // Recovery found 100 commits on disk.
        group.reset_floor(100);
        assert_eq!(group.durable(), 100);
        group
            .wait_durable(40, || panic!("recovered tickets are already durable"))
            .unwrap();
        group.wait_durable(101, || Ok(101)).unwrap();
        let stats = group.stats();
        assert_eq!(
            (stats.flushes, stats.released, stats.max_cohort),
            (1, 1, 1),
            "the first flush after recovery releases one commit, not 101"
        );
        // The floor only ever rises.
        group.reset_floor(50);
        assert_eq!(group.durable(), 101);
    }

    #[test]
    fn abort_below_fails_dropped_tickets_and_frees_later_ones() {
        let group = Arc::new(CommitGroup::new());
        // Ticket 1 is durable the normal way.
        group.wait_durable(1, || Ok(1)).unwrap();
        // A waiter parks on ticket 3 behind a leader that never
        // completes (simulated: the abort fires while it is parked).
        let parked = {
            let group = group.clone();
            std::thread::spawn(move || {
                group.wait_durable(3, || {
                    // Leader duty observes the wedge and fails; the
                    // waiter then parks until the abort wakes it.
                    Err(OmError::Wedged("store wedged".into()))
                })
            })
        };
        let r = parked.join().unwrap();
        assert!(r.is_err(), "leader sees the wedge error");
        // The unwedge drops tickets <= 3.
        group.abort_below(3);
        // A late wait on a dropped ticket fails — it must NOT elect
        // itself leader over the (now empty) stage and self-release.
        let late = group.wait_durable(2, || panic!("dropped ticket must not flush"));
        assert!(matches!(late, Err(OmError::Wedged(_))), "{late:?}");
        // Re-waiting the already-aborted leader ticket also fails.
        let again = group.wait_durable(3, || panic!("dropped ticket must not flush"));
        assert!(again.is_err());
        // Tickets above the bound proceed normally.
        group.wait_durable(4, || Ok(4)).unwrap();
        assert_eq!(group.durable(), 4);
    }

    #[test]
    fn failed_leader_does_not_wedge_the_cohort() {
        let group = Arc::new(CommitGroup::new());
        let fail_once = Arc::new(AtomicU64::new(1));
        // Ticket 1: first flush attempt fails; the retry (same caller —
        // single-threaded here) succeeds.
        let err = group.wait_durable(1, || {
            if fail_once.swap(0, Ordering::SeqCst) == 1 {
                Err(OmError::Internal("disk on fire".into()))
            } else {
                Ok(1)
            }
        });
        assert!(err.is_err(), "the leader sees its own flush error");
        group.wait_durable(1, || Ok(1)).unwrap();
        assert_eq!(group.durable(), 1);
    }
}
