//! The epoch-checkpointed dataflow runtime.
//!
//! ## Epoch execution and the worker pool
//!
//! An epoch pulls a bounded batch per partition from the replayable
//! ingress log, processes it to quiescence (including cross-partition
//! sends), and commits **once**: offsets, dirty state deltas and the
//! epoch number go through the [`BackendCheckpointStore`] atomically,
//! and only then is the buffered egress released.
//! [`DataflowBuilder::workers`] selects how the per-partition
//! pull→apply→dirty-tracking loop runs:
//!
//! * `workers(1)` — the serial baseline: one thread walks the
//!   partitions round-robin. Committed results of this path are the
//!   reference the parallel path is tested against.
//! * `workers(n > 1)` — partitions are split into `min(n, partitions)`
//!   groups, each processed by a long-lived `om-df-worker-N` pool
//!   thread ([`om_common::pool::WorkerPool`]). The epoch-aligned join
//!   before the commit is an `om_common::commit_group::CommitGroup`
//!   cohort barrier: every worker stages its group's results and parks
//!   on a barrier ticket; the elected leader waits for all groups,
//!   runs the single atomic checkpoint commit, and releases the whole
//!   cohort together (same primitive the WAL uses for group commit).
//! * `workers(0)` — auto: one worker per core (capped at the partition
//!   count); small epochs (≤ 8 records) skip the fan-out because the
//!   handoff costs more than the work.
//!
//! ## Row-keyed state
//!
//! The state of an address `(fn_type, key)` is an ordered set of **rows**
//! `row → bytes`. An invocation reads through a [`StateView`] (`get` one
//! row, iterate a row prefix in order) and writes through
//! [`Effects::put_row`] / [`Effects::delete_row`]; the runtime applies
//! those writes to the partition's live rows as soon as the invocation
//! returns, so every later invocation of the epoch reads them, and the
//! epoch's checkpoint commits exactly the rows that changed (a write that
//! leaves a row's bytes as they were dirties nothing). Single-row
//! state (`set_state` / `clear_state` / `state_of`) is the row with the
//! empty name.
//!
//! ## Epoch poisoning
//!
//! A logic panic or a logic `Err` inside an epoch — on a pool worker or
//! on the serial path — poisons it deterministically: **no** partition's
//! dirty rows or egress are committed (even for partitions that finished
//! cleanly), live state is rebuilt from the last committed checkpoint,
//! offsets stay untouched, and the next epoch replays the same batch. An
//! injected crash (`inject_crash_after`) follows the same discard path
//! but reports [`EpochOutcome::CrashedAndRecovered`]; a poisoned epoch
//! surfaces as an `OmError::Internal` to the epoch's driver.
//!
//! ## Lock discipline
//!
//! The runtime's locks are ordered; every path follows it, and
//! `tests/concurrency.rs` hammers the orderings:
//!
//! 1. `epoch_mutex` is outermost — epochs and recovery serialize on it.
//! 2. `states[p]` are only ever acquired in **ascending partition
//!    order**, and a thread holds either its partitions' state locks
//!    *or* `meta`/`committed_egress`, never both. Workers take their
//!    group's state locks once (ascending), process, and **release
//!    them before staging results at the barrier**, so the committing
//!    leader (which re-acquires each `states[p]` transiently, ascending,
//!    to fold dirty rows) never contends with a processing worker.
//! 3. `committed_egress` is acquired last and alone. Egress is staged
//!    per partition and concatenated in **partition index order** at
//!    commit time — never appended by workers as they finish — so the
//!    committed egress order is independent of which partition
//!    completes first, and a late poison can still discard all of it.

use crate::checkpoint::{BackendCheckpointStore, StateDelta, StateRow};
use om_common::commit_group::{CommitGroup, CommitGroupStats};
use om_common::config::BackendKind;
use om_common::pool::{WorkQueue, WorkerPool};
use om_common::{OmError, OmResult};
use om_log::{EventLog, Topic};
use om_storage::make_backend;
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Address of a stateful function instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Address {
    /// Registered function type.
    pub fn_type: &'static str,
    /// Key within the function type (determines the partition).
    pub key: u64,
}

impl Address {
    /// Address of `(fn_type, key)`.
    pub const fn new(fn_type: &'static str, key: u64) -> Self {
        Self { fn_type, key }
    }

    #[inline]
    fn partition(&self, n: usize) -> usize {
        (self.key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % n
    }
}

/// Effects produced by one function invocation: row updates, messages
/// to other functions and egress records. Effects are buffered and become
/// externally visible atomically with the epoch's checkpoint commit.
pub struct Effects<M> {
    /// Row writes (`Some`) and deletions (`None`), applied in call order.
    rows: Vec<(Vec<u8>, Option<Vec<u8>>)>,
    sends: Vec<(Address, M)>,
    egress: Vec<M>,
}

impl<M> Effects<M> {
    fn new() -> Self {
        Self {
            rows: Vec::new(),
            sends: Vec::new(),
            egress: Vec::new(),
        }
    }

    /// Writes one row of this function instance's state.
    pub fn put_row(&mut self, row: impl Into<Vec<u8>>, bytes: Vec<u8>) {
        self.rows.push((row.into(), Some(bytes)));
    }

    /// Deletes one row of this function instance's state.
    pub fn delete_row(&mut self, row: impl Into<Vec<u8>>) {
        self.rows.push((row.into(), None));
    }

    /// Replaces this function instance's single-row state (the row with
    /// the empty name).
    pub fn set_state(&mut self, bytes: Vec<u8>) {
        self.put_row(Vec::new(), bytes);
    }

    /// Deletes this function instance's single-row state.
    pub fn clear_state(&mut self) {
        self.delete_row(Vec::new());
    }

    /// Sends a message to another function (delivered within the same
    /// epoch; exactly-once, per-partition FIFO).
    pub fn send(&mut self, to: Address, msg: M) {
        self.sends.push((to, msg));
    }

    /// Emits a record to the egress. Egress is released only when the
    /// epoch commits — a rolled-back epoch emits nothing (no duplicates).
    pub fn emit(&mut self, record: M) {
        self.egress.push(record);
    }
}

/// The rows of one address, ordered by row name.
type Rows = BTreeMap<Vec<u8>, Vec<u8>>;

/// The rows of one address whose name starts with `prefix`, in row order.
fn rows_with_prefix<'a>(
    rows: &'a Rows,
    prefix: &'a [u8],
) -> impl Iterator<Item = (&'a [u8], &'a [u8])> {
    rows.range::<[u8], _>((
        std::ops::Bound::Included(prefix),
        std::ops::Bound::Unbounded,
    ))
    .take_while(move |(row, _)| row.starts_with(prefix))
    .map(|(row, bytes)| (row.as_slice(), bytes.as_slice()))
}

/// Lock domains of the snapshot-isolation backend a runtime built
/// without a checkpoint store commits into.
const DEFAULT_STORE_SHARDS: usize = 4;

/// Read access to the invoked instance's rows: the last checkpoint plus
/// every write of the running epoch's earlier invocations.
#[derive(Clone, Copy)]
pub struct StateView<'a> {
    rows: Option<&'a Rows>,
}

impl<'a> StateView<'a> {
    /// The bytes of `row`, if it exists.
    pub fn get(&self, row: &[u8]) -> Option<&'a [u8]> {
        self.rows?.get(row).map(Vec::as_slice)
    }

    /// `(row, bytes)` of every row whose name starts with `prefix`, in
    /// row order (the empty prefix iterates the whole instance).
    pub fn prefix(&self, prefix: &'a [u8]) -> impl Iterator<Item = (&'a [u8], &'a [u8])> {
        self.rows
            .into_iter()
            .flat_map(move |rows| rows_with_prefix(rows, prefix))
    }
}

/// A stateful function: logic over `(key, state, message) -> effects`.
pub trait FnLogic<M>: Send + Sync {
    /// Processes one message addressed to `(fn_type, key)` given the
    /// instance's current rows. An `Err` poisons the epoch (see the
    /// module docs): nothing of it commits and its batch is replayed.
    fn invoke(&self, key: u64, state: StateView<'_>, msg: M, out: &mut Effects<M>) -> OmResult<()>;
}

/// Single-row functions: a closure over the instance's one (empty-named)
/// row that cannot fail.
impl<M, F> FnLogic<M> for F
where
    F: Fn(u64, Option<&[u8]>, M, &mut Effects<M>) + Send + Sync,
{
    fn invoke(&self, key: u64, state: StateView<'_>, msg: M, out: &mut Effects<M>) -> OmResult<()> {
        self(key, state.get(b""), msg, out);
        Ok(())
    }
}

/// Adapter registering a function that reads its rows through the
/// [`StateView`] and may fail: `register("orders", RowFn(order_fn))`.
pub struct RowFn<F>(pub F);

impl<M, F> FnLogic<M> for RowFn<F>
where
    F: Fn(u64, StateView<'_>, M, &mut Effects<M>) -> OmResult<()> + Send + Sync,
{
    fn invoke(&self, key: u64, state: StateView<'_>, msg: M, out: &mut Effects<M>) -> OmResult<()> {
        (self.0)(key, state, msg, out)
    }
}

type PartitionState = HashMap<(&'static str, u64), Rows>;

/// The committed epoch/offset coordinates — an in-memory mirror of what
/// the [`BackendCheckpointStore`] holds, so the hot paths (epoch start,
/// `pending_ingress`) never pay a store read.
struct CheckpointMeta {
    epoch: u64,
    offsets: Vec<u64>,
}

/// Outcome of [`Dataflow::run_epoch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochOutcome {
    /// No ingress records pending.
    Idle,
    /// Epoch committed.
    Committed {
        /// Ingress records consumed.
        ingress: u64,
        /// Total function invocations (ingress + internal messages).
        invocations: u64,
    },
    /// An injected crash interrupted the epoch; state and offsets were
    /// restored from the checkpoint store and the buffered egress was
    /// discarded. The next epoch replays.
    CrashedAndRecovered,
}

/// What [`Dataflow::recover`] restored from the checkpoint store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Epoch the runtime restarted from (0 = nothing was ever committed).
    pub epoch: u64,
    /// State rows rebuilt into the live partitions.
    pub restored_keys: u64,
    /// Ingress records between the restored offsets and the log end —
    /// committed upstream but not yet processed; the next epochs replay
    /// them.
    pub replayable_ingress: u64,
    /// Wall-clock cost of the restore.
    pub duration: std::time::Duration,
}

/// Builder for [`Dataflow`].
pub struct DataflowBuilder<M> {
    partitions: usize,
    max_batch: usize,
    workers: usize,
    functions: HashMap<&'static str, Arc<dyn FnLogic<M>>>,
    store: Option<Arc<BackendCheckpointStore>>,
    ingress: Option<Arc<dyn EventLog<(Address, M)>>>,
}

impl<M: Send + Clone + 'static> DataflowBuilder<M> {
    /// Number of parallel partitions.
    pub fn partitions(mut self, n: usize) -> Self {
        assert!(n > 0);
        self.partitions = n;
        self
    }

    /// Maximum ingress records pulled per partition per epoch — the
    /// checkpoint-interval knob (ablation A2).
    pub fn max_batch(mut self, n: usize) -> Self {
        assert!(n > 0);
        self.max_batch = n;
        self
    }

    /// Epoch worker threads: `0` (the default) resolves to the core
    /// count, `1` is the serial baseline, `n > 1` spawns `n` long-lived
    /// `om-df-worker-N` pool threads (capped at the partition count —
    /// more workers than partitions cannot help). An **explicit**
    /// `n > 1` always fans out, even for tiny epochs or on a single
    /// core; the auto setting skips the fan-out for epochs of ≤ 8
    /// records, where the handoff costs more than the work.
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n;
        self
    }

    /// Registers a function type.
    pub fn register(mut self, fn_type: &'static str, logic: impl FnLogic<M> + 'static) -> Self {
        self.functions.insert(fn_type, Arc::new(logic));
        self
    }

    /// Checkpoints flow through `store` instead of the default, a store
    /// over a fresh snapshot-isolation backend that only this runtime
    /// sees. Building over a store that already holds a committed
    /// checkpoint **restarts from it** — see [`Dataflow::recover`] for the
    /// exact restore semantics.
    pub fn checkpoint_store(mut self, store: Arc<BackendCheckpointStore>) -> Self {
        self.store = Some(store);
        self
    }

    /// Reuses an existing ingress log instead of creating a fresh one —
    /// any [`EventLog`]: a shared in-memory [`Topic`], or an
    /// `om_log::PersistentTopic` whose records live on disk. Paired with
    /// [`checkpoint_store`](Self::checkpoint_store), this is the full
    /// restart path: committed offsets stay valid against the shared
    /// log, so records that were in flight when the previous runtime
    /// died are replayed instead of lost. With a persistent topic *and*
    /// a durable checkpoint store, the restart works from a **cold
    /// process** — nothing in memory is shared; see `docs/DURABILITY.md`.
    pub fn ingress_topic(mut self, topic: Arc<dyn EventLog<(Address, M)>>) -> Self {
        self.ingress = Some(topic);
        self
    }

    /// Builds the runtime. If the checkpoint store already holds a
    /// committed checkpoint (a restart), the runtime adopts it before the
    /// first epoch runs.
    pub fn build(self) -> Dataflow<M> {
        let partitions = self.partitions;
        if let Some(topic) = &self.ingress {
            // Checked here rather than in `ingress_topic` so the check
            // sees the final partition count regardless of builder-call
            // order.
            assert_eq!(
                topic.partition_count(),
                partitions,
                "ingress topic partition count must match the runtime's"
            );
        }
        let ingress = self.ingress.unwrap_or_else(|| {
            Arc::new(Topic::new("ingress", partitions)) as Arc<dyn EventLog<(Address, M)>>
        });
        // Producer sequences must stay monotonic across restarts on a
        // shared log, or the idempotence fence would drop fresh records
        // as retransmissions.
        let max_seq = (0..partitions)
            .map(|p| ingress.max_seq(p))
            .max()
            .unwrap_or(0);
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let workers_auto = self.workers == 0;
        let workers = if workers_auto { cores } else { self.workers }
            .min(partitions)
            .max(1);
        let core = Arc::new(DfCore {
            ingress,
            ingress_seq: AtomicU64::new(max_seq + 1),
            functions: Arc::new(self.functions),
            states: (0..partitions).map(|_| Mutex::new(HashMap::new())).collect(),
            meta: Mutex::new(CheckpointMeta {
                epoch: 0,
                offsets: vec![0; partitions],
            }),
            store: self.store.unwrap_or_else(|| {
                Arc::new(BackendCheckpointStore::new(make_backend(
                    BackendKind::SnapshotIsolation,
                    DEFAULT_STORE_SHARDS,
                )))
            }),
            committed_egress: Mutex::new(Vec::new()),
            epoch_mutex: Mutex::new(()),
            partitions,
            max_batch: self.max_batch,
            workers,
            workers_auto,
            // An immediate-flush barrier: the epoch leader never waits
            // out a window — the cohort is exactly this epoch's workers
            // plus the driver, all parked before the flush runs.
            barrier: CommitGroup::new(),
            barrier_ticket: AtomicU64::new(0),
            crash_countdown: AtomicI64::new(i64::MIN),
            epochs: AtomicU64::new(0),
            replays: AtomicU64::new(0),
            invocations_total: AtomicU64::new(0),
            unroutable: AtomicU64::new(0),
            recoveries: AtomicU64::new(0),
            last_recovery_us: AtomicU64::new(0),
            last_recovery: Mutex::new(None),
        });
        let df = Dataflow {
            // Declared before `core` so Drop joins the pool (flushing
            // any in-flight jobs and their Arc<DfCore> clones) first.
            pool: (workers > 1).then(|| WorkerPool::named("om-df-worker", workers)),
            core,
        };
        df.recover().expect("checkpoint store readable at startup");
        df
    }
}

/// One partition's staged epoch results, held back until the barrier
/// commit (see the module docs on lock discipline: staged per partition,
/// concatenated in partition order, never appended on completion).
struct PartitionStage<M> {
    /// Rows written or deleted this epoch. Incremental checkpointing:
    /// the commit copies only these, so checkpoint cost scales with the
    /// batch, not with the accumulated state (the Flink/RocksDB approach).
    dirty: HashSet<(&'static str, u64, Vec<u8>)>,
    egress: Vec<M>,
}

impl<M> Default for PartitionStage<M> {
    fn default() -> Self {
        Self {
            dirty: HashSet::new(),
            egress: Vec::new(),
        }
    }
}

/// Shared state of one in-flight parallel epoch. Workers and the driver
/// all hold an `Arc` of this; the epoch's verdict is recorded once in
/// `result` and read by every barrier participant.
struct EpochCtx<M> {
    /// Worker groups this epoch fanned out to (`min(workers, partitions)`).
    groups: usize,
    /// Barrier tickets: worker `g` parks on `base_ticket + 1 + g`, the
    /// driver on `top_ticket = base_ticket + groups + 1`; one flush
    /// releases the whole cohort.
    base_ticket: u64,
    top_ticket: u64,
    offsets: Vec<u64>,
    batch_lens: Vec<u64>,
    ingress_count: u64,
    /// One inbox per partition: its batch, then the cross-partition
    /// sends cascading within the epoch.
    inboxes: Vec<WorkQueue<(Address, M)>>,
    /// Messages pulled but not yet fully processed (sends count until
    /// their cascade lands); quiescence is `in_flight == 0`.
    in_flight: AtomicI64,
    /// Injected crash fired (or a worker observed poison).
    crashed: AtomicBool,
    /// A worker panicked: the epoch is poisoned with this message.
    poison: Mutex<Option<String>>,
    invocations: AtomicU64,
    /// Per-partition staged results, written by the owning group only.
    staged: Mutex<Vec<Option<PartitionStage<M>>>>,
    /// Groups that finished staging; the commit leader waits for all of
    /// them — the epoch-aligned barrier before the atomic commit.
    staged_groups: AtomicUsize,
    /// The epoch's verdict, recorded exactly once by the first leader
    /// to run the finalize; re-elected leaders and the driver read it.
    result: Mutex<Option<OmResult<EpochOutcome>>>,
}

/// The dataflow runtime. See the module docs for the model, the
/// worker-pool/barrier design and the exactly-once argument.
pub struct Dataflow<M> {
    /// Long-lived `om-df-worker-N` threads (absent when `workers == 1`).
    /// Field order matters: dropped before `core`, so pool jobs (which
    /// hold `Arc<DfCore>` clones) finish before the core is torn down —
    /// a job must never be the one to drop the core, or the pool would
    /// join its own thread.
    pool: Option<WorkerPool>,
    core: Arc<DfCore<M>>,
}

/// The runtime state proper, shared between the public handle and the
/// pool workers (jobs capture `Arc<DfCore>`).
struct DfCore<M> {
    ingress: Arc<dyn EventLog<(Address, M)>>,
    ingress_seq: AtomicU64,
    functions: Arc<HashMap<&'static str, Arc<dyn FnLogic<M>>>>,
    /// Live keyed state per partition (== last checkpoint between epochs).
    states: Vec<Mutex<PartitionState>>,
    /// Committed epoch/offsets mirror of `store`.
    meta: Mutex<CheckpointMeta>,
    /// Where committed checkpoints live (and recovery reads from).
    store: Arc<BackendCheckpointStore>,
    committed_egress: Mutex<Vec<M>>,
    /// Serializes epochs (one checkpoint in flight at a time).
    epoch_mutex: Mutex<()>,
    partitions: usize,
    max_batch: usize,
    /// Resolved epoch worker count (≥ 1; capped at `partitions`).
    workers: usize,
    /// `true` when the count came from the core-count default, which
    /// also enables the small-epoch serial shortcut.
    workers_auto: bool,
    /// The epoch-aligned join: workers and driver park on tickets, one
    /// leader runs the atomic commit for the whole cohort.
    barrier: CommitGroup,
    barrier_ticket: AtomicU64,
    /// Fault injection: crash after this many further invocations
    /// (`i64::MIN` = disabled).
    crash_countdown: AtomicI64,
    epochs: AtomicU64,
    replays: AtomicU64,
    invocations_total: AtomicU64,
    unroutable: AtomicU64,
    recoveries: AtomicU64,
    last_recovery_us: AtomicU64,
    last_recovery: Mutex<Option<RecoveryReport>>,
}

impl<M: Send + Clone + 'static> Dataflow<M> {
    /// A builder with default partitioning, auto worker count and a
    /// checkpoint store of its own (see
    /// [`DataflowBuilder::checkpoint_store`]).
    pub fn builder() -> DataflowBuilder<M> {
        DataflowBuilder {
            partitions: 4,
            max_batch: 256,
            workers: 0,
            functions: HashMap::new(),
            store: None,
            ingress: None,
        }
    }

    /// Number of partitions.
    pub fn partitions(&self) -> usize {
        self.core.partitions
    }

    /// Resolved epoch worker count (1 = serial baseline).
    pub fn workers(&self) -> usize {
        self.core.workers
    }

    /// Counters of the epoch barrier: one flush per parallel epoch, the
    /// cohort being that epoch's workers + driver. Serial epochs never
    /// touch the barrier.
    pub fn barrier_stats(&self) -> CommitGroupStats {
        self.core.barrier.stats()
    }

    /// The checkpoint store this runtime commits through.
    pub fn checkpoint_store(&self) -> &Arc<BackendCheckpointStore> {
        &self.core.store
    }

    /// The replayable ingress log (share it with
    /// [`DataflowBuilder::ingress_topic`] to rebuild a runtime without
    /// losing in-flight records).
    pub fn ingress_topic(&self) -> Arc<dyn EventLog<(Address, M)>> {
        self.core.ingress.clone()
    }

    /// Appends a message for `to` into the replayable ingress log. The
    /// record is processed by a subsequent epoch. Fails when the log
    /// cannot take the record — a persistent log wedged by a failed
    /// segment write answers [`OmError::Wedged`] —
    /// and then nothing was submitted.
    pub fn submit(&self, to: Address, msg: M) -> OmResult<()> {
        let partition = to.partition(self.core.partitions);
        let seq = self.core.ingress_seq.fetch_add(1, Ordering::Relaxed);
        self.core.ingress.append_raw(partition, 0, seq, (to, msg))?;
        Ok(())
    }

    /// Arms fault injection: the runtime "crashes" after `n` further
    /// function invocations, abandoning the in-flight epoch.
    pub fn inject_crash_after(&self, n: u64) {
        self.core.crash_countdown.store(n as i64, Ordering::SeqCst);
    }

    /// Disarms a pending [`inject_crash_after`](Self::inject_crash_after)
    /// that has not fired yet.
    pub fn disarm_crash(&self) {
        self.core.crash_countdown.store(i64::MIN, Ordering::SeqCst);
    }

    /// Ingress records not yet committed (lag).
    pub fn pending_ingress(&self) -> u64 {
        let meta = self.core.meta.lock();
        (0..self.core.partitions)
            .map(|p| self.core.ingress.end_offset(p) - meta.offsets[p])
            .sum()
    }

    /// Restores epoch, offsets and keyed state from the last committed
    /// checkpoint in the store — the recovery path after a crash, and the
    /// restart path when a runtime is rebuilt over an existing store.
    /// Blocks until no epoch is in flight (restoring under a running
    /// epoch would mix rolled-back and half-applied state).
    ///
    /// Live partition state is discarded and rebuilt from the store;
    /// function types that are no longer registered are dropped (counted
    /// as unroutable). Offsets are clamped to the current ingress log
    /// end: on a shared log they always fit, while a runtime rebuilt over
    /// a **fresh** log keeps its recovered state but rebases to the new
    /// log's start (the old records are unreachable).
    pub fn recover(&self) -> OmResult<RecoveryReport> {
        let _epoch_guard = self.core.epoch_mutex.lock();
        self.core.recover_locked()
    }

    /// The most recent [`RecoveryReport`] (the build-time restore counts).
    pub fn last_recovery(&self) -> Option<RecoveryReport> {
        self.core.last_recovery.lock().clone()
    }

    /// Runs one epoch. See [`EpochOutcome`]. Blocks if another epoch is
    /// in flight.
    pub fn run_epoch(&self) -> OmResult<EpochOutcome> {
        let guard = self.core.epoch_mutex.lock();
        self.run_epoch_locked(guard)
    }

    /// Runs one epoch only if no other epoch is in flight; returns
    /// `Ok(None)` when another thread is already driving. Lets clients
    /// *help* (caller-runs) without queueing up redundant epochs behind
    /// the epoch mutex.
    pub fn try_run_epoch(&self) -> OmResult<Option<EpochOutcome>> {
        match self.core.epoch_mutex.try_lock() {
            Some(guard) => self.run_epoch_locked(guard).map(Some),
            None => Ok(None),
        }
    }

    fn run_epoch_locked(
        &self,
        _epoch_guard: parking_lot::MutexGuard<'_, ()>,
    ) -> OmResult<EpochOutcome> {
        let core = &self.core;
        // 1. Pull the input batch per partition from committed offsets.
        let offsets: Vec<u64> = core.meta.lock().offsets.clone();
        let batches: Vec<Vec<(Address, M)>> = (0..core.partitions)
            .map(|p| {
                core.ingress
                    .read_from(p, offsets[p], core.max_batch)
                    .into_iter()
                    .map(|e| e.payload)
                    .collect()
            })
            .collect();
        let batch_lens: Vec<u64> = batches.iter().map(|b| b.len() as u64).collect();
        let ingress_count: u64 = batch_lens.iter().sum();
        if ingress_count == 0 {
            return Ok(EpochOutcome::Idle);
        }

        // 2. One inbox per partition carries its batch and any
        // cross-partition sends cascading within the epoch.
        let inboxes: Vec<WorkQueue<(Address, M)>> =
            batches.into_iter().map(WorkQueue::from_iter).collect();

        // An explicitly sized pool always fans out; the auto default
        // additionally skips tiny epochs, where the handoff costs more
        // than sequential processing (and spin-waits starve single-core
        // machines).
        let fan_out = self.pool.is_some() && (!core.workers_auto || ingress_count > 8);
        if let Some(pool) = self.pool.as_ref().filter(|_| fan_out) {
            let groups = pool.size().min(core.partitions);
            let base_ticket = core
                .barrier_ticket
                .fetch_add(groups as u64 + 1, Ordering::Relaxed);
            let ctx = Arc::new(EpochCtx {
                groups,
                base_ticket,
                top_ticket: base_ticket + groups as u64 + 1,
                offsets,
                batch_lens,
                ingress_count,
                inboxes,
                in_flight: AtomicI64::new(ingress_count as i64),
                crashed: AtomicBool::new(false),
                poison: Mutex::new(None),
                invocations: AtomicU64::new(0),
                staged: Mutex::new((0..core.partitions).map(|_| None).collect()),
                staged_groups: AtomicUsize::new(0),
                result: Mutex::new(None),
            });
            for g in 0..groups {
                let core = Arc::clone(core);
                let ctx = Arc::clone(&ctx);
                pool.execute(move || core.epoch_worker(&ctx, g));
            }
            // The driver parks on the cohort's highest ticket; whichever
            // participant is elected leader runs the epoch-aligned
            // finalize (barrier wait + single atomic commit) for all.
            let _ = core
                .barrier
                .wait_durable(ctx.top_ticket, || core.finalize_epoch(&ctx));
            return ctx
                .result
                .lock()
                .clone()
                .expect("finalize recorded the epoch verdict before releasing the barrier");
        }

        // Serial baseline (`workers(1)` / small auto epochs): one thread
        // walks the partitions round-robin. This path is the reference
        // the parallel path's committed results are tested against.
        let mut invocations = 0u64;
        let mut stages: Vec<PartitionStage<M>> =
            (0..core.partitions).map(|_| Default::default()).collect();
        // A logic panic must not escape with this epoch's writes left in
        // the live state: it gets the pool path's verdict below.
        // `Ok(crashed)`: whether the injected crash fired.
        let processed = catch_poison(|| {
            // Lock discipline: all partition state locks taken upfront in
            // ascending order, released before the commit re-acquires them.
            let mut states: Vec<_> = core.states.iter().map(|m| m.lock()).collect();
            loop {
                let mut progressed = false;
                for p in 0..core.partitions {
                    while let Some((to, msg)) = inboxes[p].try_pop() {
                        progressed = true;
                        if core.crash_countdown.fetch_sub(1, Ordering::SeqCst) == 0 {
                            return Ok(true);
                        }
                        let routed =
                            core.invoke_one(to, msg, &mut states[p], &mut stages[p], |addr, m| {
                                inboxes[addr.partition(core.partitions)].push((addr, m));
                            })?;
                        invocations += u64::from(routed);
                    }
                }
                if !progressed {
                    return Ok(false);
                }
            }
        });
        core.invocations_total
            .fetch_add(invocations, Ordering::Relaxed);
        match processed {
            Err(poison) => return core.poisoned(poison),
            Ok(true) => return core.crash_restore(),
            Ok(false) => {}
        }
        core.commit_epoch(&offsets, &batch_lens, stages)?;
        core.epochs.fetch_add(1, Ordering::Relaxed);
        Ok(EpochOutcome::Committed {
            ingress: ingress_count,
            invocations,
        })
    }

    /// Runs epochs until the ingress lag is zero; returns the number of
    /// committed epochs (crashes are recovered and replayed).
    pub fn run_to_completion(&self) -> OmResult<u64> {
        let mut committed = 0;
        while self.pending_ingress() > 0 {
            match self.run_epoch()? {
                EpochOutcome::Committed { .. } => committed += 1,
                EpochOutcome::CrashedAndRecovered => {}
                EpochOutcome::Idle => break,
            }
        }
        Ok(committed)
    }

    /// Committed egress records so far (exactly-once output).
    pub fn committed_egress(&self) -> Vec<M> {
        self.core.committed_egress.lock().clone()
    }

    /// Number of committed egress records without cloning.
    pub fn committed_egress_len(&self) -> usize {
        self.core.committed_egress.lock().len()
    }

    /// Drains the committed egress (consumer semantics for the driver).
    pub fn take_committed_egress(&self) -> Vec<M> {
        std::mem::take(&mut *self.core.committed_egress.lock())
    }

    /// Committed single-row state of `(fn_type, key)` as of the last
    /// checkpoint (served by the checkpoint store, never live state).
    pub fn state_of(&self, addr: Address) -> Option<Vec<u8>> {
        self.row_of(addr, b"")
    }

    /// Committed bytes of one row of `(fn_type, key)`.
    pub fn row_of(&self, addr: Address, row: &[u8]) -> Option<Vec<u8>> {
        self.core.store.get_row(
            addr.partition(self.core.partitions),
            addr.fn_type,
            addr.key,
            row,
        )
    }

    /// Committed rows of `(fn_type, key)` whose name starts with
    /// `prefix`, as `(row, bytes)` in row order.
    pub fn rows_of(&self, addr: Address, prefix: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        self.core.store.scan_rows(
            addr.partition(self.core.partitions),
            addr.fn_type,
            addr.key,
            prefix,
        )
    }

    /// Keys of every `fn_type` instance that holds state as of the last
    /// checkpoint, ascending. Waits out an epoch in flight, then reads the
    /// live partitions (equal to the checkpoint between epochs) — a
    /// restarted application lists its entities without a second load of
    /// the store.
    pub fn keys_of(&self, fn_type: &str) -> Vec<u64> {
        let _epoch_guard = self.core.epoch_mutex.lock();
        let mut keys: Vec<u64> = Vec::new();
        for state in &self.core.states {
            keys.extend(
                state
                    .lock()
                    .keys()
                    .filter(|(f, _)| *f == fn_type)
                    .map(|(_, key)| *key),
            );
        }
        keys.sort_unstable();
        keys
    }

    /// Committed epoch number.
    pub fn committed_epoch(&self) -> u64 {
        self.core.meta.lock().epoch
    }

    /// Committed per-partition ingress offsets.
    pub fn committed_offsets(&self) -> Vec<u64> {
        self.core.meta.lock().offsets.clone()
    }

    /// (committed epochs, replays after crashes, total invocations,
    /// unroutable messages).
    pub fn stats(&self) -> (u64, u64, u64, u64) {
        (
            self.core.epochs.load(Ordering::Relaxed),
            self.core.replays.load(Ordering::Relaxed),
            self.core.invocations_total.load(Ordering::Relaxed),
            self.core.unroutable.load(Ordering::Relaxed),
        )
    }

    /// (restores from the checkpoint store, duration of the last one in
    /// microseconds). The build-time restore counts, so a fresh runtime
    /// reports one recovery.
    pub fn recovery_stats(&self) -> (u64, u64) {
        (
            self.core.recoveries.load(Ordering::Relaxed),
            self.core.last_recovery_us.load(Ordering::Relaxed),
        )
    }
}

impl<M: Send + Clone + 'static> DfCore<M> {
    /// [`Dataflow::recover`] body; the caller holds (or is inside) the
    /// epoch mutex.
    fn recover_locked(&self) -> OmResult<RecoveryReport> {
        let started = std::time::Instant::now();
        let snapshot = self.store.load()?;
        let mut rebuilt: Vec<PartitionState> =
            (0..self.partitions).map(|_| HashMap::new()).collect();
        let mut meta = self.meta.lock();
        let mut restored_keys = 0u64;
        match snapshot {
            Some(snap) => {
                // The checkpoint encodes one offset per partition; a
                // runtime with a different partition count would misroute
                // every restored key (state lives at the old partition
                // index, lookups hash against the new count). Refuse
                // loudly instead of silently dropping state.
                if snap.offsets.len() != self.partitions {
                    return Err(om_common::OmError::Rejected(format!(
                        "checkpoint was committed with {} partitions but the runtime has {}; \
                         rebuild with the original partition count",
                        snap.offsets.len(),
                        self.partitions
                    )));
                }
                meta.epoch = snap.epoch;
                meta.offsets = (0..self.partitions)
                    .map(|p| snap.offsets[p].min(self.ingress.end_offset(p)))
                    .collect();
                for StateRow {
                    partition,
                    fn_type,
                    key,
                    row,
                    value,
                } in snap.states
                {
                    if partition >= self.partitions {
                        continue;
                    }
                    match self.functions.get_key_value(fn_type.as_str()) {
                        Some((&interned, _)) => {
                            rebuilt[partition]
                                .entry((interned, key))
                                .or_default()
                                .insert(row, value);
                            restored_keys += 1;
                        }
                        None => {
                            self.unroutable.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            }
            None => {
                meta.epoch = 0;
                meta.offsets = vec![0; self.partitions];
            }
        }
        let epoch = meta.epoch;
        let replayable_ingress = (0..self.partitions)
            .map(|p| self.ingress.end_offset(p) - meta.offsets[p])
            .sum();
        // Lock discipline: meta released before any state lock is taken.
        drop(meta);
        for (p, slot) in self.states.iter().enumerate() {
            *slot.lock() = std::mem::take(&mut rebuilt[p]);
        }
        let duration = started.elapsed();
        self.recoveries.fetch_add(1, Ordering::Relaxed);
        self.last_recovery_us
            .store(duration.as_micros() as u64, Ordering::Relaxed);
        let report = RecoveryReport {
            epoch,
            restored_keys,
            replayable_ingress,
            duration,
        };
        *self.last_recovery.lock() = Some(report.clone());
        Ok(report)
    }

    /// Restores from the store after a crash or a failed commit. Called
    /// from inside an epoch (the epoch mutex is already held).
    fn crash_restore(&self) -> OmResult<EpochOutcome> {
        self.crash_countdown.store(i64::MIN, Ordering::SeqCst);
        self.recover_locked()?;
        self.replays.fetch_add(1, Ordering::Relaxed);
        Ok(EpochOutcome::CrashedAndRecovered)
    }

    /// The verdict of an epoch a logic panic or error poisoned: every
    /// partition's dirty rows and egress are discarded (live state
    /// rebuilt from the last committed checkpoint), offsets untouched —
    /// the next epoch replays the same batch.
    fn poisoned(&self, poison: String) -> OmResult<EpochOutcome> {
        self.recover_locked()?;
        self.replays.fetch_add(1, Ordering::Relaxed);
        Err(OmError::Internal(format!(
            "dataflow epoch poisoned by {poison}"
        )))
    }

    /// One invocation, the same on the serial and the pool path: look up
    /// the logic, invoke it over the instance's live rows, apply its row
    /// updates to `state` and mark them dirty in `stage`, buffer its
    /// egress, hand its sends to `route`. `Ok(false)` = unroutable
    /// (counted, nothing ran).
    fn invoke_one(
        &self,
        to: Address,
        msg: M,
        state: &mut PartitionState,
        stage: &mut PartitionStage<M>,
        mut route: impl FnMut(Address, M),
    ) -> Result<bool, String> {
        let Some(logic) = self.functions.get(to.fn_type) else {
            self.unroutable.fetch_add(1, Ordering::Relaxed);
            return Ok(false);
        };
        let address = (to.fn_type, to.key);
        let mut effects = Effects::new();
        let view = StateView {
            rows: state.get(&address),
        };
        logic
            .invoke(to.key, view, msg, &mut effects)
            .map_err(|e| format!("function error at {}/{}: {e}", to.fn_type, to.key))?;
        for (row, update) in effects.rows {
            // A write that leaves the row as it was dirties nothing.
            let changed = match update {
                Some(bytes) => {
                    let rows = state.entry(address).or_default();
                    rows.get(&row) != Some(&bytes) && {
                        rows.insert(row.clone(), bytes);
                        true
                    }
                }
                None => match state.get_mut(&address) {
                    Some(rows) => {
                        let existed = rows.remove(&row).is_some();
                        if rows.is_empty() {
                            state.remove(&address);
                        }
                        existed
                    }
                    None => false,
                },
            };
            if changed {
                stage.dirty.insert((to.fn_type, to.key, row));
            }
        }
        stage.egress.extend(effects.egress);
        for (addr, m) in effects.sends {
            route(addr, m);
        }
        Ok(true)
    }

    /// Folds the epoch's dirty rows into checkpoint deltas and commits
    /// them (with the advanced offsets) through the store, then updates
    /// the in-memory meta mirror and releases the staged egress. On a
    /// store-side commit failure the live state is rolled back to the
    /// last committed checkpoint.
    fn commit_epoch(
        &self,
        offsets: &[u64],
        batch_lens: &[u64],
        stages: Vec<PartitionStage<M>>,
    ) -> OmResult<()> {
        let next_epoch = self.meta.lock().epoch + 1;
        let new_offsets: Vec<u64> = (0..self.partitions)
            // Advance by exactly what this epoch consumed; records
            // appended mid-epoch belong to the next one.
            .map(|p| offsets[p] + batch_lens[p])
            .collect();
        let mut deltas = Vec::new();
        let mut egress_buffers = Vec::with_capacity(stages.len());
        for (p, stage) in stages.into_iter().enumerate() {
            // Lock discipline: states re-acquired transiently, one at a
            // time, in ascending partition order, with meta released.
            let live = self.states[p].lock();
            for (fn_type, key, row) in stage.dirty {
                let value = live
                    .get(&(fn_type, key))
                    .and_then(|rows| rows.get(&row))
                    .cloned();
                deltas.push(StateDelta {
                    partition: p,
                    fn_type,
                    key,
                    row,
                    value,
                });
            }
            egress_buffers.push(stage.egress);
        }
        if let Err(e) = self.store.commit_epoch(next_epoch, &new_offsets, deltas) {
            // The epoch's effects never became durable: roll the live
            // state back to the last committed checkpoint and surface the
            // store error (offsets unchanged, egress discarded).
            let _ = self.crash_restore();
            return Err(e);
        }
        {
            let mut meta = self.meta.lock();
            meta.epoch = next_epoch;
            meta.offsets = new_offsets;
        }
        // Lock discipline: egress last and alone; buffers concatenated
        // in partition index order, independent of completion order.
        let mut egress = self.committed_egress.lock();
        for buf in egress_buffers {
            egress.extend(buf);
        }
        Ok(())
    }

    /// One pool job: process worker group `g`'s partitions to
    /// quiescence, stage the results, then park on the epoch barrier.
    /// Stages **unconditionally** — even after a panic or crash — so the
    /// finalize's all-groups wait always terminates.
    fn epoch_worker(&self, ctx: &EpochCtx<M>, g: usize) {
        // Static group assignment: group g owns partitions p ≡ g (mod G).
        let own: Vec<usize> = (g..self.partitions).step_by(ctx.groups).collect();
        let stages = match catch_poison(|| self.process_group(ctx, &own)) {
            Ok(stages) => stages,
            Err(poison) => {
                ctx.poison.lock().get_or_insert(poison);
                // Other groups stop pulling instead of spinning on
                // in_flight the dead group will never drain.
                ctx.crashed.store(true, Ordering::Release);
                own.iter().map(|&p| (p, PartitionStage::default())).collect()
            }
        };
        {
            let mut staged = ctx.staged.lock();
            for (p, stage) in stages {
                staged[p] = Some(stage);
            }
        }
        ctx.staged_groups.fetch_add(1, Ordering::AcqRel);
        // Park on this group's ticket; the error (if the epoch was
        // poisoned) is delivered to the driver via ctx.result, so the
        // worker itself has nothing to do with it.
        let _ = self
            .barrier
            .wait_durable(ctx.base_ticket + 1 + g as u64, || self.finalize_epoch(ctx));
    }

    /// The processing loop of one worker group: pull → apply → track
    /// dirty rows, over the group's own partitions only.
    fn process_group(
        &self,
        ctx: &EpochCtx<M>,
        own: &[usize],
    ) -> Result<Vec<(usize, PartitionStage<M>)>, String> {
        // Lock discipline: the group's state locks, taken once in
        // ascending partition order (own is ascending by construction),
        // held for the whole processing phase, released before staging.
        let mut guards: Vec<_> = own.iter().map(|&p| self.states[p].lock()).collect();
        let mut stages: Vec<PartitionStage<M>> =
            own.iter().map(|_| PartitionStage::default()).collect();
        let mut idle_polls = 0u32;
        'epoch: loop {
            let mut progressed = false;
            for (i, &p) in own.iter().enumerate() {
                loop {
                    if ctx.crashed.load(Ordering::Acquire) {
                        break 'epoch;
                    }
                    let Some((to, msg)) = ctx.inboxes[p].try_pop() else {
                        break;
                    };
                    progressed = true;
                    idle_polls = 0;
                    // Fault injection: decrement the countdown; the
                    // invocation that hits zero "crashes" the runtime —
                    // deliberately racing partitions that already
                    // finished their batch.
                    let cd = self.crash_countdown.fetch_sub(1, Ordering::SeqCst);
                    if cd == 0 {
                        ctx.crashed.store(true, Ordering::Release);
                        break 'epoch;
                    }
                    // Sends are routed (and counted in flight) before this
                    // message is declared done, so in_flight never dips to
                    // zero while cascades are pending.
                    let routed =
                        self.invoke_one(to, msg, &mut guards[i], &mut stages[i], |addr, m| {
                            ctx.in_flight.fetch_add(1, Ordering::AcqRel);
                            ctx.inboxes[addr.partition(self.partitions)].push((addr, m));
                        })?;
                    ctx.invocations
                        .fetch_add(u64::from(routed), Ordering::Relaxed);
                    ctx.in_flight.fetch_sub(1, Ordering::AcqRel);
                }
            }
            if ctx.crashed.load(Ordering::Acquire) {
                break;
            }
            if !progressed {
                if ctx.in_flight.load(Ordering::Acquire) <= 0 {
                    break;
                }
                // Escalating backoff: spinning starves the busy groups
                // on small machines.
                idle_polls += 1;
                if idle_polls > 64 {
                    std::thread::sleep(std::time::Duration::from_micros(50));
                } else {
                    std::thread::yield_now();
                }
            }
        }
        // Lock discipline: state released before the barrier, so the
        // committing leader never contends with a processing worker.
        drop(guards);
        Ok(own.iter().copied().zip(stages).collect())
    }

    /// The barrier leader's duty, run by exactly one participant at a
    /// time inside `CommitGroup::wait_durable`: wait until every group
    /// has staged (the epoch-aligned barrier), then either commit the
    /// epoch atomically or poison it. **Idempotent** — the verdict is
    /// recorded once in `ctx.result`; a late or re-elected leader
    /// returns the recorded verdict instead of redoing the commit.
    ///
    /// The flush ALWAYS reports `Ok(top_ticket)`, even for a poisoned
    /// epoch: the verdict (including the poison error) travels through
    /// `ctx.result`, never through the barrier. Failing the flush
    /// instead would leave `durable` behind this epoch's tickets, so
    /// parked workers would each have to self-elect as leader to learn
    /// the error — and the driver, released first, could start the next
    /// epoch and enqueue `pool.size()` jobs while a straggler still
    /// occupies its pool thread: the queued job's group never stages,
    /// the new leader spin-waits for it, and the straggler waits for
    /// that leader's flush. One advancing flush releases everyone and
    /// makes the cycle impossible.
    fn finalize_epoch(&self, ctx: &EpochCtx<M>) -> OmResult<u64> {
        if ctx.result.lock().is_some() {
            return Ok(ctx.top_ticket);
        }
        // Epoch-aligned barrier: every group staged (or poisoned) before
        // anything commits. Terminates because workers stage
        // unconditionally, panic or not.
        let mut idle_polls = 0u32;
        while ctx.staged_groups.load(Ordering::Acquire) < ctx.groups {
            idle_polls += 1;
            if idle_polls > 64 {
                std::thread::sleep(std::time::Duration::from_micros(50));
            } else {
                std::thread::yield_now();
            }
        }
        self.invocations_total
            .fetch_add(ctx.invocations.load(Ordering::Relaxed), Ordering::Relaxed);
        let verdict: OmResult<EpochOutcome> = (|| {
            if let Some(poison) = ctx.poison.lock().take() {
                return self.poisoned(poison);
            }
            if ctx.crashed.load(Ordering::Acquire) {
                // Injected crash: same discard, reported as an outcome.
                return self.crash_restore();
            }
            let stages: Vec<PartitionStage<M>> = ctx
                .staged
                .lock()
                .iter_mut()
                .map(|slot| slot.take().expect("every partition staged by its group"))
                .collect();
            self.commit_epoch(&ctx.offsets, &ctx.batch_lens, stages)?;
            self.epochs.fetch_add(1, Ordering::Relaxed);
            Ok(EpochOutcome::Committed {
                ingress: ctx.ingress_count,
                invocations: ctx.invocations.load(Ordering::Relaxed),
            })
        })();
        *ctx.result.lock() = Some(verdict);
        Ok(ctx.top_ticket)
    }
}

/// Runs `work`, turning a panic into the poison message an `Err` of
/// `work` carries anyway — both abort the epoch the same way.
fn catch_poison<T>(work: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(work)).unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "opaque payload".into());
        Err(format!("worker panic: {msg}"))
    })
}
