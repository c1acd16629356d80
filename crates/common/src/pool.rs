//! The workspace's one hand-off queue, [`WorkQueue`], and the fixed-size
//! pool of long-lived named worker threads built on it, [`WorkerPool`].
//!
//! A [`WorkQueue`] is an unbounded multi-producer multi-consumer FIFO
//! (a `VecDeque` under a mutex, a condvar for blocked consumers). It
//! carries this pool's jobs and the dataflow epoch inboxes and group
//! results.
//!
//! A [`WorkerPool`] is every background thread the platforms start: the
//! actor cluster's turns (`om-actor-N`), the dataflow epoch groups past
//! the first (`om-df-worker-N`) and the dataflow pump (`om-df-pump-0`)
//! are jobs on one. The threads are created once (named `<prefix>-<i>`
//! so they are identifiable in profiles and stack dumps) and take jobs
//! off a shared `WorkQueue`. A [`PoolHandle`] queues jobs without owning
//! the pool, so a job may queue further jobs but is never the one that
//! joins it. A panicking job is contained by the worker — counted, never
//! propagated, and never fatal to the thread — because the submitter is
//! expected to observe the failure through its own shared state (the
//! dataflow runtime catches a group's panic itself and poisons the
//! epoch; a grain handler's panic fails its own call).
//!
//! Every pool thread is background work to the kernel's scheduler
//! (`SCHED_BATCH`): it keeps a normal share of the CPU, but its wake-up
//! does not preempt the running thread. On a core shared with an HTTP
//! event loop, an event a request handler sends then runs after the
//! handler's response is written, not in the middle of it.
//!
//! Dropping the pool closes the job queue and joins every worker; jobs
//! already queued still run to completion first, so a submitted job is
//! never silently discarded. A job queued after the close is dropped
//! unrun.
//!
//! ```
//! use om_common::pool::WorkerPool;
//! use std::sync::atomic::{AtomicU64, Ordering};
//! use std::sync::Arc;
//!
//! let pool = WorkerPool::named("doc-worker", 2);
//! let hits = Arc::new(AtomicU64::new(0));
//! for _ in 0..8 {
//!     let hits = hits.clone();
//!     pool.execute(move || {
//!         hits.fetch_add(1, Ordering::SeqCst);
//!     });
//! }
//! drop(pool); // joins: all queued jobs have run
//! assert_eq!(hits.load(Ordering::SeqCst), 8);
//! ```

use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Unbounded MPMC FIFO. See the module docs.
pub struct WorkQueue<T> {
    state: Mutex<QueueState<T>>,
    ready: Condvar,
}

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

impl<T> WorkQueue<T> {
    /// Appends `item` and wakes one blocked consumer. A closed queue
    /// drops the item: no consumer is left to take it.
    pub fn push(&self, item: T) {
        let mut state = self.state.lock();
        if state.closed {
            return;
        }
        state.items.push_back(item);
        drop(state);
        self.ready.notify_one();
    }

    /// Takes the oldest item, blocking while the queue is empty and
    /// open; `None` once it is closed and drained.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.state.lock();
        loop {
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            self.ready.wait(&mut state);
        }
    }

    /// Takes the oldest item if there is one, without blocking.
    pub fn try_pop(&self) -> Option<T> {
        self.state.lock().items.pop_front()
    }

    /// Refuses further pushes and wakes every blocked consumer; items
    /// already queued are still popped.
    pub fn close(&self) {
        self.state.lock().closed = true;
        self.ready.notify_all();
    }
}

/// An open queue holding `iter`'s items in order.
impl<T> FromIterator<T> for WorkQueue<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let items = iter.into_iter().collect();
        Self {
            state: Mutex::new(QueueState {
                items,
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }
}

impl<T> Default for WorkQueue<T> {
    fn default() -> Self {
        Self::from_iter([])
    }
}

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Fixed-size pool of long-lived named worker threads. See the module
/// docs for the lifecycle and panic containment.
pub struct WorkerPool {
    jobs: PoolHandle,
    handles: Vec<JoinHandle<()>>,
    panics: Arc<AtomicU64>,
}

/// Queues jobs on a [`WorkerPool`] without owning it: a clone held by a
/// job keeps no thread alive, and a job queued after the pool is dropped
/// is dropped unrun.
#[derive(Clone)]
pub struct PoolHandle(Arc<WorkQueue<Job>>);

impl PoolHandle {
    /// Queues a job; some pool thread runs it as soon as one is free.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) {
        self.0.push(Box::new(job));
    }
}

impl WorkerPool {
    /// Spawns `size` `SCHED_BATCH` worker threads named `<prefix>-0` ..
    /// `<prefix>-N`.
    pub fn named(prefix: &str, size: usize) -> Self {
        assert!(size > 0, "a worker pool needs at least one thread");
        let jobs = PoolHandle(Arc::default());
        let panics = Arc::new(AtomicU64::new(0));
        let handles = (0..size)
            .map(|i| {
                let jobs = jobs.0.clone();
                let panics = panics.clone();
                std::thread::Builder::new()
                    .name(format!("{prefix}-{i}"))
                    .spawn(move || {
                        run_as_background();
                        while let Some(job) = jobs.pop() {
                            // Contain the panic: the thread survives to
                            // serve later jobs, the submitter learns of
                            // the failure through its own channels.
                            if catch_unwind(AssertUnwindSafe(job)).is_err() {
                                panics.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    })
                    .expect("spawn pool worker thread")
            })
            .collect();
        Self {
            jobs,
            handles,
            panics,
        }
    }

    /// Queues a job; some pool thread runs it as soon as one is free.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) {
        self.jobs.execute(job);
    }

    /// A handle that queues jobs on this pool without owning it.
    pub fn handle(&self) -> PoolHandle {
        self.jobs.clone()
    }

    /// Number of worker threads.
    pub fn size(&self) -> usize {
        self.handles.len()
    }

    /// Jobs that panicked (and were contained) so far.
    pub fn panics(&self) -> u64 {
        self.panics.load(Ordering::Relaxed)
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the queue lets each worker drain the remaining jobs and
        // exit; join so no job outlives the pool handle.
        self.jobs.0.close();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Schedules the calling thread as `SCHED_BATCH`: a normal share of the
/// CPU, no wake-up preemption of the running thread. A refusal leaves
/// the thread as it was.
#[cfg(target_os = "linux")]
fn run_as_background() {
    /// Linux's `struct sched_param`.
    #[repr(C)]
    struct SchedParam {
        priority: i32,
    }
    extern "C" {
        fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    }
    const SCHED_BATCH: i32 = 3;
    // SAFETY: `param` is a live `sched_param`; pid 0 names the calling
    // thread, and the call changes only how that thread is scheduled.
    unsafe { sched_setscheduler(0, SCHED_BATCH, &SchedParam { priority: 0 }) };
}

#[cfg(not(target_os = "linux"))]
fn run_as_background() {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;
    use std::time::{Duration, Instant};

    #[test]
    fn runs_jobs_on_named_threads() {
        let pool = WorkerPool::named("pool-test", 3);
        assert_eq!(pool.size(), 3);
        let (tx, rx) = std::sync::mpsc::channel();
        for _ in 0..6 {
            let tx = tx.clone();
            pool.execute(move || {
                let name = std::thread::current().name().unwrap_or("").to_string();
                tx.send(name).unwrap();
            });
        }
        for _ in 0..6 {
            let name = rx.recv_timeout(Duration::from_secs(5)).unwrap();
            assert!(
                name.starts_with("pool-test-"),
                "job ran on a named pool thread, got {name:?}"
            );
        }
    }

    #[test]
    fn drop_joins_after_queued_jobs_complete() {
        let done = Arc::new(AtomicUsize::new(0));
        let pool = WorkerPool::named("pool-drop", 2);
        for _ in 0..16 {
            let done = done.clone();
            pool.execute(move || {
                std::thread::sleep(Duration::from_millis(1));
                done.fetch_add(1, Ordering::SeqCst);
            });
        }
        drop(pool);
        assert_eq!(done.load(Ordering::SeqCst), 16, "no queued job discarded");
    }

    #[test]
    fn panicking_job_is_contained_and_counted() {
        let pool = WorkerPool::named("pool-panic", 1);
        pool.execute(|| panic!("job exploded"));
        let done = Arc::new(AtomicUsize::new(0));
        let d = done.clone();
        // The same (only) thread must survive to run the next job.
        pool.execute(move || {
            d.fetch_add(1, Ordering::SeqCst);
        });
        while done.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        assert_eq!(pool.panics(), 1);
    }

    #[test]
    fn two_thread_pool_runs_jobs_in_parallel() {
        // Each job waits at the barrier until the other arrives: a pool
        // that ran one job at a time would time out here, not hang.
        let pool = WorkerPool::named("pool-parallel", 2);
        let barrier = Arc::new(Barrier::new(2));
        let met = Arc::new(AtomicUsize::new(0));
        for _ in 0..2 {
            let (barrier, met) = (barrier.clone(), met.clone());
            pool.execute(move || {
                barrier.wait();
                met.fetch_add(1, Ordering::SeqCst);
            });
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while met.load(Ordering::SeqCst) < 2 {
            if Instant::now() > deadline {
                // A worker is stuck at the barrier: dropping the pool
                // would join it forever.
                std::mem::forget(pool);
                panic!("the two jobs never met: the pool ran them one at a time");
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// A consumer that pops until the queue is closed and drained.
    fn consumer<T: Send + 'static>(q: &Arc<WorkQueue<T>>) -> std::thread::JoinHandle<Vec<T>> {
        let q = q.clone();
        std::thread::spawn(move || std::iter::from_fn(|| q.pop()).collect())
    }

    #[test]
    fn queue_is_fifo() {
        let q: WorkQueue<_> = (0..5).collect();
        q.push(5);
        assert_eq!(q.try_pop(), Some(0));
        q.close();
        // Closed, it still yields what it holds.
        let rest: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(rest, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn blocked_pop_returns_the_next_push() {
        let q = Arc::new(WorkQueue::default());
        let waiter = consumer(&q);
        // Time for the consumer to block; the answer is the same if not.
        std::thread::sleep(Duration::from_millis(20));
        q.push(7);
        q.close();
        assert_eq!(waiter.join().unwrap(), vec![7]);
    }

    #[test]
    fn close_wakes_every_consumer_after_the_queue_drains() {
        let q = Arc::new(WorkQueue::default());
        let consumers: Vec<_> = (0..3).map(|_| consumer(&q)).collect();
        std::thread::sleep(Duration::from_millis(20));
        q.push(1);
        q.push(2);
        q.close();
        q.push(3); // dropped: the queue is closed
        let deadline = Instant::now() + Duration::from_secs(10);
        while !consumers.iter().all(|c| c.is_finished()) {
            assert!(Instant::now() < deadline, "close left a consumer blocked");
            std::thread::sleep(Duration::from_millis(1));
        }
        let mut seen: Vec<i32> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![1, 2]);
    }

    #[test]
    fn four_by_four_delivers_each_item_exactly_once() {
        const PER_PRODUCER: usize = 10_000;
        let q = Arc::new(WorkQueue::default());
        let consumers: Vec<_> = (0..4).map(|_| consumer(&q)).collect();
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let q = q.clone();
                std::thread::spawn(move || {
                    (0..PER_PRODUCER).for_each(|i| q.push(p * PER_PRODUCER + i))
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let mut all: Vec<usize> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..4 * PER_PRODUCER).collect::<Vec<_>>());
    }
}
