//! Silos: grain hosts, each with a run queue and a worker-thread pool that
//! runs the turns no caller ran itself: events, and activations with
//! messages left after a turn.
//!
//! The run queue is a [`WorkQueue`] of runnable activations. Shutdown
//! closes it and joins the workers: each worker runs the turns still
//! queued, then sees the queue empty and exits. An activation scheduled
//! after the close is dropped, as no worker is left to run it.
//!
//! Workers are background work to the kernel's scheduler
//! (`SCHED_BATCH`): they keep a normal share of the CPU but a wake-up
//! does not preempt the thread that queued the event. On a core shared
//! with an HTTP event loop, an event a request handler sends then runs
//! after the handler's response is written, not in the middle of it.

use crate::grain::{GrainId, RowWrite};
use crate::mailbox::{ActivationRef, Envelope};
use om_common::pool::WorkQueue;
use om_common::time::LogicalClock;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Dispatch interface the silo workers use to route grain-to-grain events
/// back through the cluster (which owns placement and fault injection).
pub(crate) trait Router<M>: Send + Sync {
    fn route_event(&self, target: GrainId, msg: M);
    fn save_state(&self, id: GrainId, snapshot: Option<Vec<u8>>, rows: Vec<RowWrite>);
    /// Reports `n` messages handled (quiescence accounting).
    fn on_processed(&self, n: u64);
}

/// A silo hosting grain activations and a worker pool.
pub(crate) struct Silo<M, R> {
    pub index: usize,
    activations: RwLock<HashMap<GrainId, ActivationRef<M, R>>>,
    run_queue: WorkQueue<ActivationRef<M, R>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    alive: AtomicBool,
    turns: AtomicU64,
}

impl<M: Send + 'static, R: Send + 'static> Silo<M, R> {
    pub fn new(index: usize) -> Arc<Self> {
        Arc::new(Self {
            index,
            activations: RwLock::new(HashMap::new()),
            run_queue: WorkQueue::default(),
            workers: Mutex::new(Vec::new()),
            alive: AtomicBool::new(true),
            turns: AtomicU64::new(0),
        })
    }

    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::Acquire)
    }

    /// Spawns `n` worker threads draining the run queue.
    pub fn start_workers(
        self: &Arc<Self>,
        n: usize,
        clock: Arc<LogicalClock>,
        router: Arc<dyn Router<M>>,
    ) {
        let mut workers = self.workers.lock();
        for w in 0..n {
            let silo = self.clone();
            let clock = clock.clone();
            let router = router.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("silo{}-w{}", self.index, w))
                    .spawn(move || silo.worker_loop(clock, router))
                    .expect("spawn silo worker"),
            );
        }
    }

    fn worker_loop(&self, clock: Arc<LogicalClock>, router: Arc<dyn Router<M>>) {
        run_as_background();
        while let Some(activation) = self.run_queue.pop() {
            if self.run_turn(&activation, &clock, router.as_ref()) {
                self.schedule(activation);
            }
        }
    }

    /// Runs one turn of `activation`, which the calling thread owns (its
    /// enqueue or a run-queue item made it runnable); returns whether it
    /// must be scheduled again for messages still queued. The one turn
    /// runner, for silo workers and calling threads alike.
    pub(crate) fn run_turn(
        &self,
        activation: &ActivationRef<M, R>,
        clock: &LogicalClock,
        router: &dyn Router<M>,
    ) -> bool {
        if !self.is_alive() {
            activation.poison();
            return false;
        }
        let result = activation.run_turn(clock);
        self.turns.fetch_add(1, Ordering::Relaxed);
        // Stored before the turn ends, so saves of one grain land in turn
        // order.
        if result.persisted.is_some() || !result.rows.is_empty() {
            router.save_state(activation.id, result.persisted, result.rows);
        }
        if result.panicked {
            // The next message to the grain reactivates it from storage.
            let mut map = self.activations.write();
            if map
                .get(&activation.id)
                .is_some_and(|a| Arc::ptr_eq(a, activation))
            {
                map.remove(&activation.id);
            }
        }
        let reschedule = activation.end_turn();
        for out in result.outbox {
            router.route_event(out.target, out.msg);
        }
        router.on_processed(result.processed);
        reschedule
    }

    /// Looks up or installs the activation for `id` using `make`.
    pub fn activation_or_insert<F>(&self, id: GrainId, make: F) -> ActivationRef<M, R>
    where
        F: FnOnce() -> ActivationRef<M, R>,
    {
        if let Some(a) = self.activations.read().get(&id) {
            return a.clone();
        }
        let mut map = self.activations.write();
        map.entry(id).or_insert_with(make).clone()
    }

    /// Delivers an envelope to an activation, scheduling it if needed.
    pub fn deliver(&self, activation: &ActivationRef<M, R>, env: Envelope<M, R>) {
        if activation.enqueue(env) {
            self.schedule(activation.clone());
        }
    }

    /// Puts `activation` on the run queue for a worker to run its turn.
    pub fn schedule(&self, activation: ActivationRef<M, R>) {
        self.run_queue.push(activation);
    }

    /// Kills the silo: poisons all mailboxes and drops activations.
    /// Worker threads stay parked on the queue but refuse work.
    pub fn kill(&self) {
        self.alive.store(false, Ordering::Release);
        let mut map = self.activations.write();
        for (_, a) in map.drain() {
            a.poison();
        }
    }

    /// Restarts a killed silo (activations are rebuilt lazily on demand).
    pub fn restart(&self) {
        self.alive.store(true, Ordering::Release);
    }

    /// Stops the worker pool (cluster shutdown): closes the run queue
    /// and joins the workers once they have drained it.
    pub fn shutdown(&self) {
        self.run_queue.close();
        let workers = std::mem::take(&mut *self.workers.lock());
        for h in workers {
            let _ = h.join();
        }
    }

    /// Number of hosted activations.
    pub fn activation_count(&self) -> usize {
        self.activations.read().len()
    }

    /// Turns executed so far (diagnostics / load-balance tests).
    pub fn turn_count(&self) -> u64 {
        self.turns.load(Ordering::Relaxed)
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
