//! Silos: grain hosts, each with a run queue and a worker-thread pool that
//! runs the turns no caller ran itself: events, and activations with
//! messages left after a turn.

use crate::grain::{GrainId, RowWrite};
use crate::mailbox::{ActivationRef, Envelope};
use crossbeam::channel::{unbounded, Receiver, Sender};
use om_common::time::LogicalClock;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Work item on a silo's run queue.
pub(crate) enum Work<M, R> {
    /// An activation to run a turn of.
    Run(ActivationRef<M, R>),
    Shutdown,
}

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
    queue_tx: Sender<Work<M, R>>,
    queue_rx: Receiver<Work<M, R>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    alive: AtomicBool,
    turns: AtomicU64,
}

impl<M: Send + 'static, R: Send + 'static> Silo<M, R> {
    pub fn new(index: usize) -> Arc<Self> {
        let (queue_tx, queue_rx) = unbounded();
        Arc::new(Self {
            index,
            activations: RwLock::new(HashMap::new()),
            queue_tx,
            queue_rx,
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
        while let Ok(work) = self.queue_rx.recv() {
            match work {
                Work::Shutdown => break,
                Work::Run(activation) => {
                    if self.run_turn(&activation, &clock, router.as_ref()) {
                        self.schedule(activation);
                    }
                }
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
        let _ = self.queue_tx.send(Work::Run(activation));
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

    /// Stops the worker pool (cluster shutdown).
    pub fn shutdown(&self) {
        let workers = {
            let mut guard = self.workers.lock();
            std::mem::take(&mut *guard)
        };
        for _ in 0..workers.len() {
            let _ = self.queue_tx.send(Work::Shutdown);
        }
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
