//! The cluster: the grain table, placement, the turn runner, messaging
//! API, fault injection and the worker pool that runs every turn no caller
//! runs.
//!
//! A silo is a host the table places grains on, with an alive flag; it
//! owns no thread and no queue. The table keeps one entry per activated
//! grain, its silo and its activation, beside the alive flags, under one
//! lock: a call to an active grain takes its read lock for one lookup,
//! and placing a grain, killing a silo and restarting one take its write
//! lock, so no grain is ever installed on a dead silo and none is left
//! behind on one. Killing a silo retires its activations (see
//! [`crate::mailbox`]): each fails every message it gets from then on,
//! and a restart never revives one. A kill does not wait for a turn it
//! interrupts; the grain's next activation does, so it loads the state
//! that turn stored.

use crate::grain::{GrainFactory, GrainId, Row};
use crate::mailbox::{Activation, ActivationRef, Envelope, Gather, ReplyTo};
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

/// Where every activated grain lives, and which silos are alive.
struct Table<M, R> {
    alive: Vec<bool>,
    /// One entry per activated grain: its silo and its activation there.
    /// No entry names a dead silo.
    grains: HashMap<GrainId, (usize, ActivationRef<M, R>)>,
    /// Retired activations a kill caught mid-turn. Their grain is not
    /// activated again until that turn has stored its state, so the new
    /// activation never loads a state older than one the old one answered.
    retiring: HashMap<GrainId, ActivationRef<M, R>>,
}

struct Inner<M, R> {
    table: RwLock<Table<M, R>>,
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
    /// The activation of `id`, activating the grain if it has none.
    ///
    /// Every grain call runs this lookup. Its callers are instantiated in
    /// the crate that names the cluster's message types, and whether the
    /// lookup was inlined there depended on how that crate happened to be
    /// split into codegen units; left out of line, it cost marketbench's
    /// `checkout_tx_mem` cell 16 % of its `peak_rps` (alternating pairs,
    /// one core of a 2-vCPU host).
    #[inline]
    fn activation(&self, id: GrainId) -> OmResult<ActivationRef<M, R>> {
        if let Some((_, activation)) = self.table.read().grains.get(&id) {
            return Ok(activation.clone());
        }
        self.activate(id)
    }

    /// Activates `id` on its hash-preferred silo, or the next live one
    /// after it, unless another thread got there first. The grain is built
    /// and installed under the table's write lock, so no kill comes
    /// between the choice of its silo and the install.
    fn activate(&self, id: GrainId) -> OmResult<ActivationRef<M, R>> {
        let mut table = self.table.write();
        // A kill caught the grain's last activation mid-turn: wait, off the
        // lock, until that turn has stored its state.
        while let Some(old) = table.retiring.get(&id).cloned() {
            drop(table);
            old.wait_for_turn();
            table = self.table.write();
            if table
                .retiring
                .get(&id)
                .is_some_and(|a| Arc::ptr_eq(a, &old))
            {
                table.retiring.remove(&id);
            }
        }
        if let Some((_, activation)) = table.grains.get(&id) {
            return Ok(activation.clone());
        }
        let n = table.alive.len();
        let preferred = {
            use std::hash::{Hash, Hasher};
            let mut h = std::collections::hash_map::DefaultHasher::new();
            id.hash(&mut h);
            (h.finish() % n as u64) as usize
        };
        let silo = (0..n)
            .map(|off| (preferred + off) % n)
            .find(|&s| table.alive[s])
            .ok_or_else(|| OmError::Unavailable("no silo alive".into()))?;
        let kind = self
            .factories
            .get(id.kind)
            .ok_or_else(|| OmError::NotFound(format!("no factory for grain kind '{}'", id.kind)))?;
        // Only row-keyed kinds pay for the prefix scan; the others
        // reactivate from a point read of their snapshot.
        let (snapshot, rows) = if kind.rows {
            self.storage.load_rows(&id)
        } else {
            (self.storage.load(&id), Vec::new())
        };
        let activation = Arc::new(Activation::new(id, (kind.factory)(id, snapshot, rows)));
        table.grains.insert(id, (silo, activation.clone()));
        Ok(activation)
    }

    /// Delivers an envelope, queueing the grain's turn if this made it
    /// runnable.
    fn deliver(self: &Arc<Self>, id: GrainId, env: Envelope<M, R>) -> OmResult<()> {
        let activation = self.activation(id)?;
        self.in_flight.fetch_add(1, Ordering::AcqRel);
        if activation.enqueue(env) {
            self.schedule(activation);
        }
        Ok(())
    }

    /// Queues a turn of `activation`, whose next turn the caller owns, on
    /// the worker pool; a turn that leaves messages behind queues the next.
    fn schedule(self: &Arc<Self>, activation: ActivationRef<M, R>) {
        let inner = self.clone();
        self.pool.execute(move || {
            if inner.run_turn(&activation) {
                inner.schedule(activation);
            }
        });
    }

    /// Runs one turn of `activation`, which the calling thread owns (its
    /// enqueue or a pool job made it runnable); returns whether it must be
    /// scheduled again for messages still queued. The one turn runner, for
    /// pool threads and calling threads alike.
    fn run_turn(self: &Arc<Self>, activation: &ActivationRef<M, R>) -> bool {
        let result = activation.run_turn(&self.clock, |snapshot, rows| {
            self.storage.save(activation.id, snapshot, rows)
        });
        if result.panicked {
            self.counters.incr("grain_panics");
            // The next message to the grain activates it afresh from
            // storage.
            let mut table = self.table.write();
            if table
                .grains
                .get(&activation.id)
                .is_some_and(|(_, a)| Arc::ptr_eq(a, activation))
            {
                table.grains.remove(&activation.id);
            }
        }
        let reschedule = activation.end_turn();
        for out in result.outbox {
            self.route_event(out.target, out.msg);
        }
        self.in_flight
            .fetch_sub(result.processed as i64, Ordering::AcqRel);
        reschedule
    }

    /// Sends a grain-to-grain event, through fault injection.
    fn route_event(self: &Arc<Self>, target: GrainId, msg: M) {
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

    fn notify_inner(self: &Arc<Self>, id: GrainId, msg: M) {
        if self.deliver(id, Envelope { msg, reply: None }).is_err() {
            self.counters.incr("events_undeliverable");
        }
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
    /// pool's own turn runner: a call to an idle grain costs no hand-off to a
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
                Ok(activation) => {
                    inner.in_flight.fetch_add(1, Ordering::AcqRel);
                    let reply = Some(ReplyTo::new(gather.clone(), slot));
                    if activation.enqueue(Envelope { msg, reply }) {
                        runnable.push(activation);
                    }
                }
                Err(e) => gather.fill(slot, Err(e)),
            }
        }
        for activation in runnable {
            if inner.run_turn(&activation) {
                inner.schedule(activation);
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

    /// Kills silo `i`: its activations are retired (volatile state lost),
    /// their queued messages fail and leave the in-flight count, and their
    /// grains are placed afresh on their next message, once any turn the
    /// kill interrupted has stored its state.
    pub fn kill_silo(&self, i: usize) {
        let mut failed = 0;
        {
            let mut table = self.inner.table.write();
            let table = &mut *table;
            table.alive[i] = false;
            table.retiring.retain(|_, a| a.mid_turn());
            table.grains.retain(|&id, (silo, activation)| {
                if *silo != i {
                    return true;
                }
                failed += activation.retire();
                if activation.mid_turn() {
                    table.retiring.insert(id, activation.clone());
                }
                false
            });
        }
        self.inner
            .in_flight
            .fetch_sub(failed as i64, Ordering::AcqRel);
        self.inner.counters.incr("silos_killed");
    }

    /// Restarts silo `i`; grains reactivate lazily from storage.
    pub fn restart_silo(&self, i: usize) {
        self.inner.table.write().alive[i] = true;
    }

    /// Number of silos.
    pub fn silo_count(&self) -> usize {
        self.inner.table.read().alive.len()
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
        let table = self.inner.table.read();
        let mut counts = vec![0; table.alive.len()];
        for &(silo, _) in table.grains.values() {
            counts[silo] += 1;
        }
        counts
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
            table: RwLock::new(Table {
                alive: vec![true; self.silos],
                grains: HashMap::new(),
                retiring: HashMap::new(),
            }),
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
