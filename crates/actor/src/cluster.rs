//! The cluster: grain directory, placement, messaging API, fault
//! injection and the worker pool that runs every turn no caller runs.

use crate::grain::{GrainFactory, GrainId, Row, RowWrite};
use crate::mailbox::{Activation, ActivationRef, Envelope, Gather, ReplyTo};
use crate::silo::{Router, Silo};
use crate::storage::StorageMap;
use om_common::pool::{PoolHandle, WorkerPool};
use om_common::rng::SplitMix64;
use om_common::stats::CounterSet;
use om_common::time::LogicalClock;
use om_common::{OmError, OmResult};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fault injection for one-way event delivery (calls are never dropped —
/// they surface errors instead). Probabilities are evaluated per event
/// with a seeded deterministic RNG.
#[derive(Debug, Clone, Copy)]
pub struct FaultConfig {
    /// Probability an event message is silently dropped.
    pub event_drop_prob: f64,
    /// Probability an event message is delivered twice.
    pub event_duplicate_prob: f64,
    /// Seed of the RNG that draws the drops and duplicates.
    pub seed: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self {
            event_drop_prob: 0.0,
            event_duplicate_prob: 0.0,
            seed: 0xFA017,
        }
    }
}

impl FaultConfig {
    /// No faults: every event is delivered exactly once.
    pub fn reliable() -> Self {
        Self::default()
    }

    /// Drops each event with probability `drop` and delivers it twice with
    /// probability `duplicate`, drawn from a RNG seeded with `seed`.
    pub fn lossy(drop: f64, duplicate: f64, seed: u64) -> Self {
        Self {
            event_drop_prob: drop,
            event_duplicate_prob: duplicate,
            seed,
        }
    }

    fn is_active(&self) -> bool {
        self.event_drop_prob > 0.0 || self.event_duplicate_prob > 0.0
    }
}

/// A registered grain kind.
struct Kind<M, R> {
    factory: GrainFactory<M, R>,
    /// Whether activations receive the grain's stored rows.
    rows: bool,
}

struct Inner<M, R> {
    silos: Vec<Silo<M, R>>,
    directory: RwLock<HashMap<GrainId, usize>>,
    factories: HashMap<&'static str, Kind<M, R>>,
    storage: StorageMap,
    clock: LogicalClock,
    /// Queues turns on the cluster's worker pool. The [`Cluster`] owns the
    /// pool: a job holds this state, never the pool, so no job joins it.
    pool: PoolHandle,
    faults: FaultConfig,
    fault_rng: Mutex<SplitMix64>,
    counters: CounterSet,
    /// Envelopes enqueued but not yet processed (quiescence detection).
    in_flight: AtomicI64,
}

impl<M: Payload, R: Send + 'static> Inner<M, R> {
    /// Chooses/there-registers the hosting silo for `id`, skipping dead
    /// silos.
    fn place(&self, id: GrainId) -> OmResult<usize> {
        if let Some(&s) = self.directory.read().get(&id) {
            if self.silos[s].is_alive() {
                return Ok(s);
            }
        }
        let mut dir = self.directory.write();
        // Re-check under the write lock (another thread may have placed).
        if let Some(&s) = dir.get(&id) {
            if self.silos[s].is_alive() {
                return Ok(s);
            }
        }
        let n = self.silos.len();
        let preferred = {
            use std::hash::{Hash, Hasher};
            let mut h = std::collections::hash_map::DefaultHasher::new();
            id.hash(&mut h);
            (h.finish() % n as u64) as usize
        };
        let chosen = (0..n)
            .map(|off| (preferred + off) % n)
            .find(|&s| self.silos[s].is_alive())
            .ok_or_else(|| OmError::Unavailable("no silo alive".into()))?;
        dir.insert(id, chosen);
        Ok(chosen)
    }

    /// The silo hosting `id` and its activation there, activating the
    /// grain if it has none.
    fn activation(&self, id: GrainId) -> OmResult<(usize, ActivationRef<M, R>)> {
        let silo_idx = self.place(id)?;
        let kind = self
            .factories
            .get(id.kind)
            .ok_or_else(|| OmError::NotFound(format!("no factory for grain kind '{}'", id.kind)))?;
        let activation = self.silos[silo_idx].activation_or_insert(id, || {
            // Only row-keyed kinds pay for the prefix scan; the others
            // reactivate from a point read of their snapshot.
            let (snapshot, rows) = if kind.rows {
                self.storage.load_rows(&id)
            } else {
                (self.storage.load(&id), Vec::new())
            };
            Arc::new(Activation::new(id, (kind.factory)(id, snapshot, rows)))
        });
        Ok((silo_idx, activation))
    }

    /// Delivers an envelope, queueing the grain's turn if this made it
    /// runnable.
    fn deliver(self: &Arc<Self>, id: GrainId, env: Envelope<M, R>) -> OmResult<()> {
        let (silo_idx, activation) = self.activation(id)?;
        self.in_flight.fetch_add(1, Ordering::AcqRel);
        if activation.enqueue(env) {
            self.schedule(silo_idx, activation);
        }
        Ok(())
    }

    /// Queues a turn of `activation`, whose next turn the caller owns, on
    /// the worker pool; a turn that leaves messages behind queues the next.
    fn schedule(self: &Arc<Self>, silo_idx: usize, activation: ActivationRef<M, R>) {
        let inner = self.clone();
        self.pool.execute(move || {
            if inner.silos[silo_idx].run_turn(&activation, &inner.clock, &inner) {
                inner.schedule(silo_idx, activation);
            }
        });
    }

    fn notify_inner(self: &Arc<Self>, id: GrainId, msg: M) {
        if self.deliver(id, Envelope { msg, reply: None }).is_err() {
            self.counters.incr("events_undeliverable");
        }
    }
}

impl<M: Payload, R: Send + 'static> Router<M> for Arc<Inner<M, R>> {
    fn route_event(&self, target: GrainId, msg: M) {
        // Fault injection applies to grain-to-grain events.
        if self.faults.is_active() {
            let (drop_it, duplicate) = {
                let mut rng = self.fault_rng.lock();
                (
                    rng.chance(self.faults.event_drop_prob),
                    rng.chance(self.faults.event_duplicate_prob),
                )
            };
            if drop_it {
                self.counters.incr("events_dropped");
                return;
            }
            if duplicate {
                self.counters.incr("events_duplicated");
                self.notify_inner(target, msg.clone());
            }
        }
        self.counters.incr("events_routed");
        self.notify_inner(target, msg);
    }

    fn save_state(&self, id: GrainId, snapshot: Option<Vec<u8>>, rows: Vec<RowWrite>) {
        self.storage.save(id, snapshot, rows);
    }

    fn on_processed(&self, n: u64) {
        self.in_flight.fetch_sub(n as i64, Ordering::AcqRel);
    }

    fn on_panic(&self) {
        self.counters.incr("grain_panics");
    }
}

/// Marker trait bundle for cluster payloads.
pub trait Payload: Clone + Send + 'static {}
impl<T: Clone + Send + 'static> Payload for T {}

/// An Orleans-like cluster of silos hosting virtual grains.
pub struct Cluster<M: Payload, R: Send + 'static> {
    inner: Arc<Inner<M, R>>,
    /// Runs every turn no caller runs. Dropped after `inner`, it joins its
    /// threads once they have run the turns still queued; a turn queued
    /// after that is dropped unrun.
    _pool: WorkerPool,
    /// Default timeout for blocking calls.
    call_timeout: Duration,
}

impl<M: Payload, R: Send + 'static> Cluster<M, R> {
    /// A builder for a cluster: one silo, four workers, no grain kinds,
    /// no faults and a 10 s call timeout until configured.
    pub fn builder() -> ClusterBuilder<M, R> {
        ClusterBuilder::new()
    }

    /// Sends a one-way event to a grain (fire and forget). Faults are
    /// *not* injected on client→grain events, only grain→grain routing;
    /// the driver's submissions are assumed reliable.
    pub fn notify(&self, id: GrainId, msg: M) {
        self.inner.counters.incr("notifies");
        self.inner.notify_inner(id, msg);
    }

    /// Calls a grain and waits for its reply: a fan-out of one.
    pub fn call(&self, id: GrainId, msg: M) -> OmResult<R> {
        self.call_all(vec![(id, msg)])
            .pop()
            .expect("call_all answers every call")
    }

    /// Calls every grain in `calls` and waits once for all the replies,
    /// which come back in call order; messages to one grain are handled
    /// in the order given.
    ///
    /// Every envelope is enqueued first. Then the calling thread runs one
    /// turn of each activation its own enqueue made runnable, through the
    /// pool's turn runner: a call to an idle grain costs no hand-off to a
    /// worker and no park. An activation with messages left after its
    /// turn queues its next turn on the pool, and the caller parks on the
    /// gather latch only for calls to grains that were mid-turn on
    /// another thread (counted as `parks`); the last reply wakes it. The
    /// events those turns emit run on the pool. A call that cannot
    /// be delivered fails in its slot, and one unanswered by the call
    /// timeout fails as `Timeout`, without holding up the other slots.
    pub fn call_all(&self, calls: Vec<(GrainId, M)>) -> Vec<OmResult<R>> {
        if calls.is_empty() {
            return Vec::new();
        }
        let inner = &self.inner;
        inner.counters.add("calls", calls.len() as u64);
        inner.counters.incr("waits");
        let deadline = Instant::now() + self.call_timeout;
        let gather = Gather::new(calls.len());
        let ids: Vec<GrainId> = calls.iter().map(|&(id, _)| id).collect();
        let mut runnable = Vec::new();
        for (slot, (id, msg)) in calls.into_iter().enumerate() {
            match inner.activation(id) {
                Ok((silo_idx, activation)) => {
                    inner.in_flight.fetch_add(1, Ordering::AcqRel);
                    let reply = Some(ReplyTo::new(gather.clone(), slot));
                    if activation.enqueue(Envelope { msg, reply }) {
                        runnable.push((silo_idx, activation));
                    }
                }
                Err(e) => gather.fill(slot, Err(e)),
            }
        }
        for (silo_idx, activation) in runnable {
            if inner.silos[silo_idx].run_turn(&activation, &inner.clock, inner) {
                inner.schedule(silo_idx, activation);
            }
        }
        if !gather.is_filled() {
            inner.counters.incr("parks");
        }
        gather
            .wait(deadline)
            .into_iter()
            .zip(ids)
            .map(|(reply, id)| {
                reply.unwrap_or_else(|| Err(OmError::Timeout(format!("call to {id} timed out"))))
            })
            .collect()
    }

    /// Blocks until all in-flight messages (including cascading events)
    /// have been processed, or `timeout` elapses. Returns `true` when
    /// quiescent.
    pub fn drain(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if self.inner.in_flight.load(Ordering::Acquire) <= 0 {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Kills silo `i`: activations are dropped (volatile state lost),
    /// queued messages fail and leave the in-flight count, directory
    /// entries are lazily re-placed.
    pub fn kill_silo(&self, i: usize) {
        let failed = self.inner.silos[i].kill();
        self.inner.on_processed(failed);
        self.inner.counters.incr("silos_killed");
        // Re-placement happens on next access; drop stale directory entries.
        self.inner.directory.write().retain(|_, &mut s| s != i);
    }

    /// Restarts silo `i`; grains reactivate lazily from storage.
    pub fn restart_silo(&self, i: usize) {
        self.inner.silos[i].restart();
    }

    /// Number of silos.
    pub fn silo_count(&self) -> usize {
        self.inner.silos.len()
    }

    /// Cluster-wide grain storage.
    pub fn storage(&self) -> &StorageMap {
        &self.inner.storage
    }

    /// Diagnostics counters: `calls` (messages sent by `call`/`call_all`),
    /// `waits` (one per `call` or non-empty `call_all`: a protocol step),
    /// `parks` (the waits whose caller parked because a grain was mid-turn
    /// on another thread), `grain_panics` (turns whose handler panicked),
    /// `events_routed`, `events_dropped`, ...
    pub fn counters(&self) -> &CounterSet {
        &self.inner.counters
    }

    /// Logical cluster clock.
    pub fn clock(&self) -> &LogicalClock {
        &self.inner.clock
    }

    /// Activations currently hosted per silo (diagnostics).
    pub fn activation_counts(&self) -> Vec<usize> {
        self.inner
            .silos
            .iter()
            .map(|s| s.activation_count())
            .collect()
    }
}

/// Builder for [`Cluster`].
pub struct ClusterBuilder<M, R> {
    silos: usize,
    workers: usize,
    factories: HashMap<&'static str, Kind<M, R>>,
    faults: FaultConfig,
    call_timeout: Duration,
    storage: Option<Arc<dyn om_storage::StateBackend>>,
}

impl<M: Payload, R: Send + 'static> ClusterBuilder<M, R> {
    fn new() -> Self {
        Self {
            silos: 1,
            workers: 4,
            factories: HashMap::new(),
            faults: FaultConfig::default(),
            call_timeout: Duration::from_secs(10),
            storage: None,
        }
    }

    /// Number of silos (grain hosts).
    pub fn silos(mut self, n: usize) -> Self {
        assert!(n > 0);
        self.silos = n;
        self
    }

    /// Threads of the cluster's worker pool, which runs the turns of
    /// every silo that no caller runs.
    pub fn workers(mut self, n: usize) -> Self {
        assert!(n > 0);
        self.workers = n;
        self
    }

    /// Registers a grain kind whose state is one snapshot.
    pub fn register<F>(mut self, kind: &'static str, factory: F) -> Self
    where
        F: Fn(GrainId, Option<Vec<u8>>) -> Box<dyn crate::grain::Grain<M, R>>
            + Send
            + Sync
            + 'static,
    {
        let factory: GrainFactory<M, R> =
            Box::new(move |id, snapshot, _rows| factory(id, snapshot));
        self.factories.insert(
            kind,
            Kind {
                factory,
                rows: false,
            },
        );
        self
    }

    /// Registers a **row-keyed** grain kind: its grains write rows beside
    /// their snapshot ([`crate::GrainContext::put_row`]), and an activation
    /// receives the snapshot plus every stored row, in row order, from one
    /// prefix scan of the grain's storage key.
    pub fn register_rows<F>(mut self, kind: &'static str, factory: F) -> Self
    where
        F: Fn(GrainId, Option<Vec<u8>>, Vec<Row>) -> Box<dyn crate::grain::Grain<M, R>>
            + Send
            + Sync
            + 'static,
    {
        self.factories.insert(
            kind,
            Kind {
                factory: Box::new(factory),
                rows: true,
            },
        );
        self
    }

    /// Configures event-delivery fault injection.
    pub fn faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }

    /// Timeout for blocking calls.
    pub fn call_timeout(mut self, timeout: Duration) -> Self {
        self.call_timeout = timeout;
        self
    }

    /// Injects the [`om_storage::StateBackend`] grain snapshots persist
    /// to. Defaults to the sharded eventual backend.
    pub fn storage_backend(mut self, backend: Arc<dyn om_storage::StateBackend>) -> Self {
        self.storage = Some(backend);
        self
    }

    /// Builds and starts the cluster.
    pub fn build(self) -> Cluster<M, R> {
        let storage = match self.storage {
            Some(backend) => StorageMap::with_backend(backend),
            None => StorageMap::new(),
        };
        let pool = WorkerPool::named("om-actor", self.workers);
        let inner = Arc::new(Inner {
            silos: (0..self.silos).map(|_| Silo::new()).collect(),
            directory: RwLock::new(HashMap::new()),
            factories: self.factories,
            storage,
            clock: LogicalClock::new(),
            pool: pool.handle(),
            fault_rng: Mutex::new(SplitMix64::new(self.faults.seed)),
            faults: self.faults,
            counters: CounterSet::new(),
            in_flight: AtomicI64::new(0),
        });
        Cluster {
            inner,
            _pool: pool,
            call_timeout: self.call_timeout,
        }
    }
}
