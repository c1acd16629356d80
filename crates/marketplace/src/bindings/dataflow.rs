//! The **Apache Flink Statefun** binding (paper §III): exactly-once
//! stateful dataflow.
//!
//! Every service becomes a keyed stateful function; the checkout workflow
//! is a message cascade inside the dataflow, and clients observe results
//! through the committed egress. Exactly-once processing is inherited
//! from `om-dataflow`'s epoch checkpointing: no event of the workflow is
//! ever lost or double-applied, even across injected crashes — but there
//! are **no cross-function transactions**, so the atomicity criterion is
//! met only in the absence of logic-level rejections, and the dashboard
//! remains two non-atomic reads (paper: Statefun "shows lower scalability
//! compared to Orleans Eventual but outperforms Orleans Transactions").
//!
//! Function state is **row-keyed** (`om_dataflow`'s `StateView` /
//! `put_row`): the four aggregates that grow with the run — a seller's
//! dashboard entries, a customer's orders and payments, a seller's
//! packages — keep one row per entity beside a small header row, so an
//! invocation decodes and re-encodes the entities its message names and a
//! checkpoint commits the rows that changed, never the history.
//!
//! A function is an adapter over its service's workflow step
//! ([`crate::domain::flow`], shared with the grains): it loads the rows
//! the message names into the (otherwise empty) domain service, runs the
//! step with its effects as the outbox — what it sends becomes function
//! messages and egress — and writes the row delta
//! ([`crate::domain::rows`]). A step's `Err` is a business outcome its
//! egress already reports, never a failed invocation. The one function of
//! its own is the delivery coordinator: it fans Update Delivery out to
//! the shipment functions and gathers their answers, the work the actor
//! bindings do with one `call_all`.

use om_common::entity::{Customer, Product, Seller, SellerDashboard};
use om_common::ids::*;
use om_common::pool::WorkerPool;
use om_common::stats::CounterSet;
use om_common::time::EventTime;
use om_common::{Money, OmError, OmResult};
use om_dataflow::{Address, BackendCheckpointStore, Dataflow, Effects, RowFn, StateView};
use om_storage::StateBackend;
use parking_lot::{Condvar, Mutex};
use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use super::kinds;
use crate::api::{
    CheckoutItem, CheckoutOutcome, CheckoutRequest, MarketSnapshot, MarketplacePlatform,
    PackageSnapshot, PlatformKind, StockSnapshot,
};
use crate::domain::flow::{to_basis_points, Eg, Msg, Step};
use crate::domain::rows::{self, load_root, store_root, CustomerOrders, SellerDelta, StoredRows};
use crate::domain::{
    CartService, PaymentService, ProductReplica, SellerView, ShipmentService, StockService,
};

/// Function type for the delivery workflow coordinator.
const DELIVERY_FN: &str = "delivery";

/// Function type of the crash-recovery drill: a registered no-op, so a
/// drill wave burns invocations (arming the injected crash) without ever
/// touching business state or the unroutable counter.
const DRILL_FN: &str = "recovery_drill";

/// The completion table: an awaited transaction's egress, published by
/// whichever thread drove the epoch that committed it and kept until its
/// caller takes it, the tids whose callers gave up, and the count of
/// driven epochs (failed ones too), which `epoch_end` announces. All
/// change only under `done`, as the `parking_lot` shim's sleeper count
/// requires.
#[derive(Default)]
struct Completions {
    done: Mutex<Done>,
    epoch_end: Condvar,
    /// The platform's first minted tid. A lower one is an earlier life's
    /// transaction, replayed from the ingress log: no caller waits for
    /// it, so its completion is not kept.
    first_tid: u64,
}

#[derive(Default)]
struct Done {
    by_tid: HashMap<u64, Eg>,
    /// Tids whose caller gave up before their egress was published: no
    /// one will take it, so `publish` drops it.
    abandoned: HashSet<u64>,
    epochs: u64,
}

impl Completions {
    /// Publishes one driven epoch's committed egress and wakes every
    /// waiter.
    fn publish(&self, egress: Vec<Msg>) {
        let mut done = self.done.lock();
        for record in egress {
            match record {
                Msg::Egress(eg)
                    if eg.tid().0 >= self.first_tid && !done.abandoned.remove(&eg.tid().0) =>
                {
                    done.by_tid.insert(eg.tid().0, eg);
                }
                _ => {}
            }
        }
        done.epochs += 1;
        drop(done);
        self.epoch_end.notify_all();
    }

    /// `tid`'s completion, or, when it is not published yet, the epoch
    /// count to wait past.
    fn take(&self, tid: u64) -> Result<Eg, u64> {
        let mut done = self.done.lock();
        done.by_tid.remove(&tid).ok_or(done.epochs)
    }

    /// `tid`'s completion if it is published; else gives up on it, so
    /// the epoch that commits it later drops it.
    fn give_up(&self, tid: u64) -> Option<Eg> {
        let mut done = self.done.lock();
        let eg = done.by_tid.remove(&tid);
        if eg.is_none() {
            done.abandoned.insert(tid);
        }
        eg
    }

    /// Sleeps until the epoch count moves past `seen`, or until
    /// `deadline`.
    fn wait_past(&self, seen: u64, deadline: Instant) {
        let mut done = self.done.lock();
        if done.epochs == seen {
            let left = deadline.saturating_duration_since(Instant::now());
            self.epoch_end.wait_for(&mut done, left);
        }
    }
}

type Out = Effects<Msg>;

fn addr(fn_type: &'static str, key: u64) -> Address {
    Address::new(fn_type, key)
}

/// Delivery-workflow coordinator state (keyed by transaction id).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct DeliveryState {
    max: u32,
    waiting_oldest: usize,
    ranked: Vec<(EventTime, SellerId)>,
    waiting_deliver: usize,
    packages: u32,
    at: EventTime,
}

/// Every function type the marketplace topology registers — the closed
/// set [`DfRecordCodec`] interns persisted addresses against.
const FN_TYPES: [&str; 11] = [
    kinds::PRODUCT,
    kinds::REPLICA,
    kinds::STOCK,
    kinds::CART,
    kinds::ORDER,
    kinds::PAYMENT,
    kinds::SHIPMENT,
    kinds::SELLER,
    kinds::CUSTOMER,
    DELIVERY_FN,
    DRILL_FN,
];

/// Codec for persisted ingress records. [`Address::fn_type`] is a
/// `&'static str`, which no deserializer can mint — so the codec writes
/// the name as bytes and interns it back against the topology's closed
/// function set ([`FN_TYPES`]) on decode, exactly as the checkpoint
/// store interns function types during state recovery.
struct DfRecordCodec;

fn intern_fn_type(name: &str) -> Option<&'static str> {
    FN_TYPES.iter().copied().find(|k| *k == name)
}

impl om_log::RecordCodec<(Address, Msg)> for DfRecordCodec {
    fn encode(&self, (addr, msg): &(Address, Msg)) -> OmResult<Vec<u8>> {
        let body = om_common::codec::to_bytes(msg)
            .map_err(|e| OmError::Internal(format!("ingress record encode: {e:?}")))?;
        let mut out = Vec::with_capacity(2 + addr.fn_type.len() + 8 + body.len());
        out.extend_from_slice(&(addr.fn_type.len() as u16).to_be_bytes());
        out.extend_from_slice(addr.fn_type.as_bytes());
        out.extend_from_slice(&addr.key.to_le_bytes());
        out.extend_from_slice(&body);
        Ok(out)
    }

    fn decode(&self, bytes: &[u8]) -> OmResult<(Address, Msg)> {
        let corrupt = || OmError::Internal("corrupt persisted ingress record".into());
        if bytes.len() < 2 {
            return Err(corrupt());
        }
        let fn_len = u16::from_be_bytes(bytes[..2].try_into().unwrap()) as usize;
        if bytes.len() < 2 + fn_len + 8 {
            return Err(corrupt());
        }
        let name = std::str::from_utf8(&bytes[2..2 + fn_len]).map_err(|_| corrupt())?;
        let fn_type = intern_fn_type(name).ok_or_else(|| {
            OmError::Internal(format!("persisted ingress record targets unknown function {name:?}"))
        })?;
        let key = u64::from_le_bytes(bytes[2 + fn_len..10 + fn_len].try_into().unwrap());
        let msg = om_common::codec::from_bytes(&bytes[10 + fn_len..])
            .map_err(|e| OmError::Internal(format!("ingress record decode: {e:?}")))?;
        Ok((Address::new(fn_type, key), msg))
    }
}

/// Opens (or recovers) the dataflow binding's **persistent ingress
/// topic** at `dir` — segment files per partition, so a cold-started
/// platform can replay in-flight records from disk alone.
pub fn persistent_ingress(
    dir: impl AsRef<std::path::Path>,
    partitions: usize,
) -> OmResult<Arc<om_log::PersistentTopic<(Address, Msg)>>> {
    persistent_ingress_with(dir, partitions, om_log::PersistentTopicOptions::default())
}

/// [`persistent_ingress`] with explicit topic options. The factory calls
/// this when a `PlatformSpec` carries a `data_dir`, with the default
/// options: appends reach the page cache but are **not** fsynced, even
/// when the spec's `DurableOptions::sync_commits` fsyncs the state WAL.
/// An acknowledged fire-and-forget op (`add_to_cart`, `price_update`)
/// whose epoch has not committed yet can therefore be lost on power loss
/// (a process crash loses nothing); see `docs/DURABILITY.md`.
pub fn persistent_ingress_with(
    dir: impl AsRef<std::path::Path>,
    partitions: usize,
    options: om_log::PersistentTopicOptions,
) -> OmResult<Arc<om_log::PersistentTopic<(Address, Msg)>>> {
    Ok(Arc::new(om_log::PersistentTopic::open_with(
        dir,
        "ingress",
        partitions,
        Arc::new(DfRecordCodec),
        options,
    )?))
}

/// [`persistent_ingress_with`] over an explicit
/// [`om_storage::vfs::Vfs`] — the fault-injection seam: the torture
/// harness records (or faults) every byte the ingress log writes, the
/// same way it drives the state backend's WAL and snapshots.
pub fn persistent_ingress_with_vfs(
    dir: impl AsRef<std::path::Path>,
    partitions: usize,
    options: om_log::PersistentTopicOptions,
    vfs: Arc<dyn om_storage::vfs::Vfs>,
) -> OmResult<Arc<om_log::PersistentTopic<(Address, Msg)>>> {
    Ok(Arc::new(om_log::PersistentTopic::open_with_vfs(
        dir,
        "ingress",
        partitions,
        Arc::new(DfRecordCodec),
        options,
        vfs,
    )?))
}

/// Builds the marketplace dataflow topology. A `store` holding a
/// committed checkpoint makes this a **restart**: the topology resumes
/// from the last committed epoch (paired with `ingress`, in-flight
/// records replay too).
fn build_dataflow(
    partitions: usize,
    max_batch: usize,
    workers: usize,
    store: Option<Arc<BackendCheckpointStore>>,
    ingress: Option<Arc<dyn om_log::EventLog<(Address, Msg)>>>,
) -> Dataflow<Msg> {
    let mut builder = Dataflow::builder()
        .partitions(partitions)
        .max_batch(max_batch)
        .workers(workers);
    if let Some(store) = store {
        builder = builder.checkpoint_store(store);
    }
    if let Some(ingress) = ingress {
        builder = builder.ingress_topic(ingress);
    }
    builder
        .register(kinds::PRODUCT, RowFn(root_fn::<Product>))
        .register(kinds::REPLICA, RowFn(root_fn::<ProductReplica>))
        .register(kinds::STOCK, RowFn(root_fn::<StockService>))
        .register(kinds::CART, RowFn(cart_fn))
        .register(kinds::ORDER, RowFn(order_fn))
        .register(kinds::PAYMENT, RowFn(payment_fn))
        .register(kinds::SHIPMENT, RowFn(shipment_fn))
        .register(kinds::SELLER, RowFn(seller_fn))
        .register(kinds::CUSTOMER, RowFn(root_fn::<Customer>))
        .register(DELIVERY_FN, RowFn(delivery_fn))
        .register(DRILL_FN, |_key, _state: Option<&[u8]>, _msg: Msg, _out: &mut Effects<Msg>| {})
        .build()
}

/// A service whose whole state is its root row: product, replica, stock
/// and customer.
fn root_fn<T>(_key: u64, state: StateView<'_>, msg: Msg, out: &mut Out) -> OmResult<()>
where
    T: Serialize + DeserializeOwned,
    Option<T>: Step,
{
    let mut entity: Option<T> = load_root(&state)?;
    match (entity.step(msg, out), &entity) {
        (Ok(_), Some(entity)) => store_root(out, entity),
        _ => Ok(()),
    }
}

fn cart_fn(key: u64, state: StateView<'_>, msg: Msg, out: &mut Out) -> OmResult<()> {
    let mut cart = load_root(&state)?.unwrap_or_else(|| CartService::new(CustomerId(key)));
    match cart.step(msg, out) {
        Ok(_) => store_root(out, &cart),
        Err(_) => Ok(()),
    }
}

fn order_fn(key: u64, state: StateView<'_>, msg: Msg, out: &mut Out) -> OmResult<()> {
    let mut orders = CustomerOrders::load(CustomerId(key), &state)?;
    if let Msg::StockAnswer { tid, .. } = &msg {
        orders.load_pending(&state, *tid)?;
    }
    if let Some(order) = msg.order() {
        orders.load_order(&state, order)?;
    }
    match orders.svc.step(msg, out) {
        Ok(_) => orders.store(out),
        Err(_) => Ok(()),
    }
}

fn payment_fn(key: u64, state: StateView<'_>, msg: Msg, out: &mut Out) -> OmResult<()> {
    // The header row is the service with no payments in it (id sequence,
    // counters); the step adds the one payment its message creates.
    let mut svc = load_root(&state)?.unwrap_or_else(|| PaymentService::new(CustomerId(key)));
    match svc.step(msg, out) {
        Ok(_) => svc.store_rows(out),
        Err(_) => Ok(()),
    }
}

fn shipment_fn(key: u64, state: StateView<'_>, msg: Msg, out: &mut Out) -> OmResult<()> {
    let seller = SellerId(key);
    // The coordinator's two calls are answered with a message back: the
    // oldest open order, read from the index, and the packages a delivery
    // delivered.
    if let Msg::OldestQuery { tid } = msg {
        let oldest = ShipmentService::oldest_open(&state)?.map(|(shipped_at, _)| shipped_at);
        out.send(addr(DELIVERY_FN, tid.0), Msg::OldestReply { tid, seller, oldest });
        return Ok(());
    }
    // The header row is the service with no packages in it; a delivery
    // loads the packages of the oldest open order.
    let mut svc = load_root(&state)?.unwrap_or_else(|| ShipmentService::new(seller));
    let coordinator = match msg {
        Msg::DeliverOldest { tid, .. } => {
            if let Some((_, order)) = ShipmentService::oldest_open(&state)? {
                svc.load_order(&state, order)?;
            }
            Some(tid)
        }
        _ => None,
    };
    let done = svc.step(msg, out);
    if let Some(tid) = coordinator {
        let packages = *done.as_ref().unwrap_or(&0) as u32;
        out.send(addr(DELIVERY_FN, tid.0), Msg::DeliverReply { tid, seller, packages });
    }
    match done {
        Ok(_) => svc.store_rows(out),
        Err(_) => Ok(()),
    }
}

fn seller_fn(_key: u64, state: StateView<'_>, msg: Msg, out: &mut Out) -> OmResult<()> {
    // The header row is the view with no entries in it (profile and the
    // continuous aggregate); a status change loads the entries of the one
    // order it names, so `SellerView`'s own methods maintain both.
    let mut view: Option<SellerView> = load_root(&state)?;
    let delta = match (&msg, view.as_mut()) {
        (Msg::IngestSeller(_), _) => {
            SellerView::delete_entries(&state, out);
            SellerDelta::default()
        }
        (Msg::AddEntry(entry), Some(view)) => SellerDelta::of(view, [entry.order]),
        (Msg::ApplyStatus { order, .. }, Some(view)) => {
            view.load_order(&state, *order)?;
            SellerDelta::of(view, [*order])
        }
        _ => SellerDelta::default(),
    };
    match (view.step(msg, out), &view) {
        (Ok(_), Some(view)) => delta.store(view, out),
        _ => Ok(()),
    }
}

fn delivery_fn(key: u64, state: StateView<'_>, msg: Msg, out: &mut Out) -> OmResult<()> {
    let tid = TransactionId(key);
    match msg {
        Msg::DeliveryRequest {
            sellers, max, at, ..
        } => {
            if sellers.is_empty() {
                out.emit(Msg::Egress(Eg::DeliveryDone { tid, packages: 0 }));
                return Ok(());
            }
            let st = DeliveryState {
                max,
                waiting_oldest: sellers.len(),
                ranked: Vec::new(),
                waiting_deliver: 0,
                packages: 0,
                at,
            };
            for s in sellers {
                out.send(addr(kinds::SHIPMENT, s.0), Msg::OldestQuery { tid });
            }
            store_root(out, &st)?;
        }
        Msg::OldestReply { seller, oldest, .. } => {
            let Some(mut st) = load_root::<DeliveryState>(&state)? else {
                return Ok(());
            };
            st.waiting_oldest -= 1;
            if let Some(t) = oldest {
                st.ranked.push((t, seller));
            }
            if st.waiting_oldest == 0 {
                st.ranked.sort();
                let chosen: Vec<SellerId> = st
                    .ranked
                    .iter()
                    .take(st.max as usize)
                    .map(|&(_, s)| s)
                    .collect();
                if chosen.is_empty() {
                    out.emit(Msg::Egress(Eg::DeliveryDone { tid, packages: 0 }));
                    out.clear_state();
                    return Ok(());
                }
                st.waiting_deliver = chosen.len();
                let at = st.at;
                for s in chosen {
                    out.send(addr(kinds::SHIPMENT, s.0), Msg::DeliverOldest { tid, at });
                }
            }
            store_root(out, &st)?;
        }
        Msg::DeliverReply { packages, .. } => {
            let Some(mut st) = load_root::<DeliveryState>(&state)? else {
                return Ok(());
            };
            st.packages += packages;
            st.waiting_deliver -= 1;
            if st.waiting_deliver == 0 {
                out.emit(Msg::Egress(Eg::DeliveryDone {
                    tid,
                    packages: st.packages,
                }));
                out.clear_state();
            } else {
                store_root(out, &st)?;
            }
        }
        _ => {}
    }
    Ok(())
}

/// Configuration for the dataflow platform.
#[derive(Clone)]
pub struct DataflowPlatformConfig {
    pub partitions: usize,
    /// Checkpoint interval in ingress records per partition.
    pub max_batch: usize,
    /// Epoch groups of the runtime: 0 = core count, n = every epoch
    /// runs in n groups, one on the driving thread and n − 1 on
    /// long-lived `om-df-worker-N` threads (capped at `partitions`).
    pub workers: usize,
    pub decline_rate: f64,
    /// Where epoch checkpoints live; `None` gives the runtime a store
    /// over a fresh snapshot-isolation backend of its own. A store over a
    /// shared backend makes the platform restartable: a second platform
    /// built over the same store resumes from the last committed epoch.
    pub checkpoint_store: Option<Arc<BackendCheckpointStore>>,
    /// Reuse an existing ingress log (pairs with `checkpoint_store` for
    /// full restarts that also replay in-flight records). Any
    /// [`om_log::EventLog`] works: a shared in-memory topic, or the
    /// [`persistent_ingress`] topic for restarts from a cold process.
    pub ingress: Option<Arc<dyn om_log::EventLog<(Address, Msg)>>>,
}

impl std::fmt::Debug for DataflowPlatformConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DataflowPlatformConfig")
            .field("partitions", &self.partitions)
            .field("max_batch", &self.max_batch)
            .field("workers", &self.workers)
            .field("decline_rate", &self.decline_rate)
            .field(
                "checkpoint_store",
                &self
                    .checkpoint_store
                    .as_ref()
                    .map(|s| s.backend().kind().label()),
            )
            .field("shared_ingress", &self.ingress.is_some())
            .finish()
    }
}

impl Default for DataflowPlatformConfig {
    fn default() -> Self {
        Self {
            partitions: 4,
            max_batch: 64,
            workers: 0,
            decline_rate: 0.05,
            checkpoint_store: None,
            ingress: None,
        }
    }
}

/// What the pump thread shares with the platform: the runtime, its
/// counters, the completion table and the callers waiting on it.
struct Core {
    df: Dataflow<Msg>,
    counters: CounterSet,
    completions: Completions,
    /// Callers blocked in [`DataflowPlatform::await_completion`]; while
    /// nonzero the pump stands down and they drive epochs themselves.
    active_waiters: AtomicUsize,
}

impl Core {
    /// Runs one epoch if ingress is pending — when another thread is
    /// driving one, after it if `wait`, else not at all — adds its time
    /// to `counter`, publishes the committed egress and wakes every
    /// waiter. `Ok(false)`: this call ran no epoch. `Err`: the epoch
    /// failed (a wedged store, a poisoned batch) and nothing committed.
    fn drive(&self, wait: bool, counter: &'static str) -> OmResult<bool> {
        if self.df.pending_ingress() == 0 {
            return Ok(false);
        }
        let started = Instant::now();
        let ran = if wait {
            self.df.run_epoch().map(Some)
        } else {
            self.df.try_run_epoch()
        };
        if let Ok(None) = ran {
            return Ok(false);
        }
        self.counters
            .add(counter, started.elapsed().as_micros() as u64);
        self.completions.publish(self.df.take_committed_egress());
        ran.map(|_| true)
    }
}

/// The Statefun-like platform: topology + pump + completion table.
pub struct DataflowPlatform {
    core: Arc<Core>,
    catalog: super::actor_core::Catalog,
    /// Mints every transaction id and, as `EventTime(tid)`, its origin
    /// time, past every id in the ingress log.
    tids: IdSequence,
    decline_rate: f64,
    stop: Arc<AtomicBool>,
    /// Runs the pump, its one job, until `stop`; dropped after `stop` is
    /// set, it joins the pump.
    _pump: WorkerPool,
}

impl DataflowPlatform {
    pub fn new(config: DataflowPlatformConfig) -> Self {
        let df = build_dataflow(
            config.partitions,
            config.max_batch,
            config.workers,
            config.checkpoint_store,
            config.ingress,
        );
        // A restarted platform rebuilds its entity catalog — snapshots,
        // dashboards and the delivery fan-out must see the pre-crash
        // entities even though the catalog itself is process-local. Two
        // sources: the recovered checkpoint's function states, and
        // ingest records still in flight in the (persistent or shared)
        // ingress log — durably appended but not yet checkpointed, they
        // will replay into function state, so they belong in the
        // catalog too.
        let catalog = super::actor_core::Catalog::default();
        for key in df.keys_of(kinds::SELLER) {
            catalog.add_seller(SellerId(key));
        }
        for key in df.keys_of(kinds::CUSTOMER) {
            catalog.add_customer(CustomerId(key));
        }
        for key in df.keys_of(kinds::PRODUCT) {
            catalog.add_product(ProductId(key));
        }
        // Its ids resume past the log's, walked from the start (it is
        // never pruned): an in-flight checkout or delivery replays with
        // its tid, which no new one may reuse, and new times follow it.
        let mut next_id = 1;
        let ingress = df.ingress_topic();
        for (partition, &committed) in df.committed_offsets().iter().enumerate() {
            for entry in ingress.read_from(partition, 0, usize::MAX) {
                match entry.payload.1 {
                    Msg::Checkout { tid, at, .. } | Msg::DeliveryRequest { tid, at, .. } => {
                        next_id = next_id.max(tid.0.max(at.0) + 1);
                    }
                    _ if entry.offset < committed => {}
                    Msg::IngestSeller(s) => catalog.add_seller(s.id),
                    Msg::IngestCustomer(c) => catalog.add_customer(c.id),
                    Msg::IngestProduct(p) => catalog.add_product(p.id),
                    _ => {}
                }
            }
        }
        let core = Arc::new(Core {
            df,
            counters: CounterSet::new(),
            completions: Completions {
                first_tid: next_id,
                ..Completions::default()
            },
            active_waiters: AtomicUsize::new(0),
        });
        let stop = Arc::new(AtomicBool::new(false));
        let pump = WorkerPool::named("om-df-pump", 1);
        {
            let core = core.clone();
            let stop = stop.clone();
            pump.execute(move || {
                while !stop.load(Ordering::Acquire) {
                    // The pump is only the asynchronous fallback for
                    // fire-and-forget traffic: it stands down while
                    // clients await results and drive epochs themselves
                    // (caller-runs), never queues behind a running epoch
                    // (which takes what is pending), and sleeps every
                    // iteration so it never competes with them for the
                    // CPU.
                    if core.active_waiters.load(Ordering::Acquire) == 0 {
                        let _ = core.drive(false, "df.pump_epoch_us");
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            });
        }
        Self {
            core,
            catalog,
            tids: IdSequence::new(next_id),
            decline_rate: config.decline_rate,
            stop,
            _pump: pump,
        }
    }

    /// The underlying dataflow (tests / fault injection). Drive no epoch
    /// through it while the platform serves callers: a waiting caller
    /// wakes only when an epoch the platform drives ends.
    pub fn dataflow(&self) -> &Dataflow<Msg> {
        &self.core.df
    }

    /// Waits for `tid`'s completion while *helping*: if no other thread
    /// drives an epoch, the calling thread drives one itself (caller-runs,
    /// as embedded Statefun deployments do) instead of bouncing to the
    /// pump thread — on small machines the scheduler round-trip per epoch
    /// otherwise dominates end-to-end latency — else it sleeps until that
    /// epoch ends. Its own failed epoch (a wedged store) is its answer.
    fn await_completion(&self, tid: TransactionId) -> OmResult<Eg> {
        // While counted, the pump stands down (see the pump loop).
        struct WaiterGuard<'a>(&'a AtomicUsize);
        impl Drop for WaiterGuard<'_> {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::AcqRel);
            }
        }
        let core = &self.core;
        core.active_waiters.fetch_add(1, Ordering::AcqRel);
        let _guard = WaiterGuard(&core.active_waiters);

        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let seen = match core.completions.take(tid.0) {
                Ok(eg) => return Ok(eg),
                Err(epochs) => epochs,
            };
            match core.drive(false, "df.caller_epoch_us") {
                Ok(true) => {}
                Ok(false) => core.completions.wait_past(seen, deadline),
                Err(e) => return core.completions.give_up(tid.0).ok_or(e),
            }
            if Instant::now() > deadline {
                let timeout = OmError::Timeout(format!("dataflow completion for {tid}"));
                return core.completions.give_up(tid.0).ok_or(timeout);
            }
        }
    }

    /// The committed header (or whole single-row state) of an address.
    fn committed<T: DeserializeOwned>(
        &self,
        fn_type: &'static str,
        key: u64,
    ) -> OmResult<Option<T>> {
        load_root(&StoredRows::root(self.core.df.state_of(addr(fn_type, key))))
    }

    /// The committed rows of an address under `tag`, in row order — one
    /// ordered scan.
    fn committed_rows(&self, fn_type: &'static str, key: u64, tag: u8) -> StoredRows {
        StoredRows {
            root: None,
            rows: self.core.df.rows_of(addr(fn_type, key), &[tag]),
        }
    }
}

impl Drop for DataflowPlatform {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
    }
}

impl MarketplacePlatform for DataflowPlatform {
    fn kind(&self) -> PlatformKind {
        PlatformKind::Dataflow
    }

    /// The backend behind the checkpoint store.
    fn store(&self) -> Option<&Arc<dyn StateBackend>> {
        Some(self.core.df.checkpoint_store().backend())
    }

    fn ingest_seller(&self, seller: Seller) -> OmResult<()> {
        let id = seller.id;
        self.core.df
            .submit(addr(kinds::SELLER, id.0), Msg::IngestSeller(seller))?;
        self.catalog.add_seller(id);
        Ok(())
    }

    fn ingest_customer(&self, customer: Customer) -> OmResult<()> {
        let id = customer.id;
        self.core.df
            .submit(addr(kinds::CUSTOMER, id.0), Msg::IngestCustomer(customer))?;
        self.catalog.add_customer(id);
        Ok(())
    }

    fn ingest_product(&self, product: Product, initial_stock: u32) -> OmResult<()> {
        let id = product.id;
        let key = StockKey::new(product.seller, id);
        self.core.df
            .submit(addr(kinds::PRODUCT, id.0), Msg::IngestProduct(product))?;
        self.core.df.submit(
            addr(kinds::STOCK, id.0),
            Msg::IngestStock {
                key,
                qty: initial_stock,
            },
        )?;
        self.catalog.add_product(id);
        Ok(())
    }

    fn add_to_cart(&self, customer: CustomerId, item: CheckoutItem) -> OmResult<()> {
        let replica: ProductReplica = self
            .committed(kinds::REPLICA, item.product.0)?
            .ok_or_else(|| OmError::NotFound(format!("replica of {}", item.product)))?;
        if !replica.active {
            return Err(OmError::Rejected(format!("{} deleted", item.product)));
        }
        if let Some(p) = self.committed::<Product>(kinds::PRODUCT, item.product.0)? {
            if replica.version < p.version {
                self.core.counters.incr("stale_price_reads");
            }
        }
        self.core.counters.incr("cart_adds");
        self.core.df.submit(
            addr(kinds::CART, customer.0),
            Msg::CartAdd(replica.cart_line(&item)),
        )
    }

    fn checkout(&self, request: CheckoutRequest) -> OmResult<CheckoutOutcome> {
        let tid = TransactionId(self.tids.next_raw());
        self.core.df.submit(
            addr(kinds::CART, request.customer.0),
            Msg::Checkout {
                tid,
                method: request.method,
                decline_rate_bp: to_basis_points(self.decline_rate),
                at: EventTime(tid.0),
            },
        )?;
        match self.await_completion(tid)? {
            Eg::CheckoutDone {
                order,
                total,
                accepted,
                reason,
                ..
            } => {
                if accepted {
                    self.core.counters.incr("checkouts_committed");
                    Ok(CheckoutOutcome::Placed { order, total })
                } else {
                    self.core.counters.incr("checkouts_rejected");
                    Ok(CheckoutOutcome::Rejected(reason))
                }
            }
            other => Err(OmError::Internal(format!("unexpected egress {other:?}"))),
        }
    }

    fn price_update(&self, _seller: SellerId, product: ProductId, price: Money) -> OmResult<()> {
        self.core.counters.incr("price_updates");
        self.core.df.submit(
            addr(kinds::PRODUCT, product.0),
            Msg::PriceUpdate { price },
        )
    }

    fn product_delete(&self, _seller: SellerId, product: ProductId) -> OmResult<()> {
        self.core.counters.incr("product_deletes");
        self.core.df
            .submit(addr(kinds::PRODUCT, product.0), Msg::ProductDelete)
    }

    fn update_delivery(&self, max_sellers: usize) -> OmResult<u32> {
        let tid = TransactionId(self.tids.next_raw());
        let sellers: Vec<SellerId> = self.catalog.sellers.read().clone();
        self.core.df.submit(
            addr(DELIVERY_FN, tid.0),
            Msg::DeliveryRequest {
                tid,
                sellers,
                max: max_sellers as u32,
                at: EventTime(tid.0),
            },
        )?;
        match self.await_completion(tid)? {
            Eg::DeliveryDone { packages, .. } => {
                self.core.counters.incr("update_deliveries");
                Ok(packages)
            }
            other => Err(OmError::Internal(format!("unexpected egress {other:?}"))),
        }
    }

    /// Two reads of the committed seller state: the aggregate from the
    /// header row, then the entry rows in one ordered scan. The pump may
    /// commit a checkpoint between them, so the halves can disagree — the
    /// consistent-querying criterion Statefun does not provide.
    fn seller_dashboard(&self, seller: SellerId) -> OmResult<SellerDashboard> {
        let header: SellerView = self
            .committed(kinds::SELLER, seller.0)?
            .ok_or_else(|| OmError::NotFound(format!("{seller}")))?;
        let (amount, count) = header.aggregate();
        let entries =
            rows::seller_entries(&self.committed_rows(kinds::SELLER, seller.0, rows::ENTRY))?;
        self.core.counters.incr("dashboards");
        Ok(SellerDashboard {
            seller: header.seller.id,
            in_progress_amount: amount,
            in_progress_count: count,
            entries,
        })
    }

    /// Drives epochs until the ingress drains. The first failed epoch
    /// (a wedged store) ends it: no later one can commit either.
    fn quiesce(&self) {
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            if !matches!(self.core.drive(true, "df.caller_epoch_us"), Ok(true)) {
                return;
            }
        }
    }

    fn snapshot(&self) -> OmResult<MarketSnapshot> {
        let mut snap = MarketSnapshot::default();
        for &p in self.catalog.products.read().iter() {
            snap.products
                .extend(self.committed::<Product>(kinds::PRODUCT, p.0)?);
            if let Some(s) = self.committed::<StockService>(kinds::STOCK, p.0)? {
                snap.stock.push(StockSnapshot {
                    item: s.item,
                    qty_sold: s.qty_sold,
                });
            }
        }
        for &c in self.catalog.customers.read().iter() {
            let pending = self.committed_rows(kinds::ORDER, c.0, rows::PENDING);
            snap.stuck_assemblies += pending.rows.len() as u64;
            let orders = self.committed_rows(kinds::ORDER, c.0, rows::ORDER);
            snap.orders.extend(rows::orders(&orders)?);
            let payments = self.committed_rows(kinds::PAYMENT, c.0, rows::PAYMENT);
            snap.payments.extend(rows::payments(&payments)?);
            snap.customers
                .extend(self.committed::<Customer>(kinds::CUSTOMER, c.0)?);
        }
        for &s in self.catalog.sellers.read().iter() {
            let header = self.committed::<SellerView>(kinds::SELLER, s.0)?;
            snap.sellers.extend(header.map(|header| header.seller));
            let packages =
                rows::packages(&self.committed_rows(kinds::SHIPMENT, s.0, rows::PACKAGE))?;
            snap.shipments
                .extend(packages.iter().map(PackageSnapshot::from));
        }
        Ok(snap)
    }

    fn counters(&self) -> std::collections::BTreeMap<String, u64> {
        let mut out = self.core.counters.snapshot();
        let (epochs, replays, invocations, unroutable) = self.core.df.stats();
        out.insert("df.epochs".into(), epochs);
        out.insert("df.replays".into(), replays);
        out.insert("df.invocations".into(), invocations);
        out.insert("df.unroutable".into(), unroutable);
        let (recoveries, last_recovery_us) = self.core.df.recovery_stats();
        out.insert("df.recoveries".into(), recoveries);
        out.insert("df.last_recovery_us".into(), last_recovery_us);
        out.insert(
            "df.checkpoint_commits".into(),
            self.core.df.checkpoint_store().commits(),
        );
        // The groups a fanned-out epoch runs in.
        out.insert("df.workers".into(), self.core.df.workers() as u64);
        // Storage-layer counters of the checkpoint store's backend
        // (group-commit amortization, snapshot deltas), prefixed the
        // same way the actor bindings prefix theirs.
        for (k, v) in self.core.df.checkpoint_store().backend().counters() {
            out.insert(format!("storage.{k}"), v);
        }
        out
    }

    /// The dataflow recovery cell: crash mid-epoch, restore from the
    /// checkpoint store, replay. The drill wave targets the registered
    /// no-op drill function, so it leaves no state behind — only
    /// committed epochs (meta-only checkpoints) and the measured restore.
    fn crash_and_recover(&self) -> Option<crate::api::RecoveryOutcome> {
        // Drain outstanding work so the drill measures only itself.
        self.quiesce();
        const DRILL_RECORDS: u64 = 32;
        let replays_before = self.core.df.stats().1;
        // Arm the crash *before* submitting the wave: the pump thread
        // races this method, and an unarmed wave could be fully committed
        // first, leaving a countdown that never fires.
        self.core.df.inject_crash_after(DRILL_RECORDS / 2);
        for i in 0..DRILL_RECORDS {
            if self
                .core
                .df
                .submit(addr(DRILL_FN, i), Msg::CustomerDelivery)
                .is_err()
            {
                // The ingress log refuses the wave (wedged): no drill.
                self.core.df.disarm_crash();
                return None;
            }
        }
        // Drive the wave until it has crashed and drained. A failed
        // epoch (a wedged store) ends the drill: its rollback is no
        // crash recovery to report.
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut drove = Ok(true);
        while matches!(drove, Ok(true))
            && (self.core.df.pending_ingress() > 0 || self.core.df.stats().1 == replays_before)
            && Instant::now() < deadline
        {
            drove = self.core.drive(true, "df.caller_epoch_us");
        }
        if drove.is_err() || self.core.df.stats().1 == replays_before {
            // No crash fired (the deadline expired, or an epoch failed):
            // disarm and report no drill rather than a misleading
            // outcome built from an earlier recovery.
            self.core.df.disarm_crash();
            return None;
        }
        let recovery = self.core.df.last_recovery()?;
        Some(crate::api::RecoveryOutcome {
            store: self
                .core
                .df
                .checkpoint_store()
                .backend()
                .kind()
                .label()
                .to_string(),
            recovered_epoch: recovery.epoch,
            final_epoch: self.core.df.committed_epoch(),
            recovery_us: recovery.duration.as_micros() as u64,
            replayed_ingress: recovery.replayable_ingress,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use om_log::RecordCodec;
    use proptest::prelude::*;

    /// A persisted ingress record laid out by hand: `fn_len` (u16 BE),
    /// name bytes, then `rest` (key LE ++ message body).
    fn record(fn_len: u16, name: &[u8], rest: &[u8]) -> Vec<u8> {
        let mut out = fn_len.to_be_bytes().to_vec();
        out.extend_from_slice(name);
        out.extend_from_slice(rest);
        out
    }

    fn key_and_body(key: u64) -> Vec<u8> {
        let mut out = key.to_le_bytes().to_vec();
        out.extend(om_common::codec::to_bytes(&Msg::ProductDelete).unwrap());
        out
    }

    fn decode_err(bytes: &[u8]) -> String {
        match DfRecordCodec.decode(bytes) {
            Ok(decoded) => panic!("decoded {decoded:?} from {bytes:?}"),
            Err(e) => {
                assert_eq!(e.label(), "internal", "{e}");
                e.to_string()
            }
        }
    }

    #[test]
    fn record_codec_round_trips_every_registered_function() {
        let msgs = [
            Msg::PriceUpdate {
                price: Money::from_cents(1_250),
            },
            Msg::IngestSeller(Seller::new(SellerId(3), "s".into(), "c".into())),
            Msg::DeliveryRequest {
                tid: TransactionId(9),
                sellers: vec![SellerId(1), SellerId(2)],
                max: 10,
                at: EventTime(4),
            },
            Msg::Egress(Eg::DeliveryDone {
                tid: TransactionId(9),
                packages: 2,
            }),
        ];
        for (i, &fn_type) in FN_TYPES.iter().enumerate() {
            let to = addr(fn_type, u64::MAX - i as u64);
            let msg = msgs[i % msgs.len()].clone();
            let bytes = DfRecordCodec.encode(&(to, msg.clone())).unwrap();
            let (back, back_msg) = DfRecordCodec.decode(&bytes).unwrap();
            assert_eq!(back, to, "{fn_type}");
            assert_eq!(
                om_common::codec::to_bytes(&back_msg).unwrap(),
                om_common::codec::to_bytes(&msg).unwrap(),
                "{fn_type}"
            );
        }
    }

    #[test]
    fn record_codec_refuses_a_header_shorter_than_its_length_field() {
        decode_err(&[]);
        decode_err(&[0]);
    }

    #[test]
    fn record_codec_refuses_a_name_running_past_the_end() {
        decode_err(&record(200, b"cart", &key_and_body(1)));
        // The name fits, the 8-byte key does not.
        decode_err(&record(4, b"cart", &[1, 2, 3]));
    }

    #[test]
    fn record_codec_refuses_a_name_that_is_not_utf8() {
        decode_err(&record(2, &[0xFF, 0xFE], &key_and_body(1)));
    }

    #[test]
    fn record_codec_refuses_an_unregistered_function() {
        let err = decode_err(&record(5, b"ghost", &key_and_body(1)));
        assert!(err.contains("unknown function \"ghost\""), "{err}");
    }

    #[test]
    fn record_codec_refuses_a_body_that_is_no_message() {
        let mut rest = 7u64.to_le_bytes().to_vec();
        rest.extend_from_slice(&[0xFF, 0xFF, 0xFF, 0xFF]);
        let err = decode_err(&record(4, b"cart", &rest));
        assert!(err.contains("ingress record decode"), "{err}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Segment bytes are outside input: whatever they hold, decoding
        /// returns a typed result and never panics.
        #[test]
        fn prop_record_codec_never_panics_on_arbitrary_bytes(
            bytes in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            let _ = DfRecordCodec.decode(&bytes);
        }

        /// A well-formed header in front of arbitrary body bytes decodes
        /// only to a registered function, and never panics.
        #[test]
        fn prop_record_codec_checks_bodies_behind_a_valid_header(
            which in 0usize..11,
            key in any::<u64>(),
            body in proptest::collection::vec(any::<u8>(), 0..48),
        ) {
            let name = FN_TYPES[which];
            let mut rest = key.to_le_bytes().to_vec();
            rest.extend_from_slice(&body);
            if let Ok((to, _)) =
                DfRecordCodec.decode(&record(name.len() as u16, name.as_bytes(), &rest))
            {
                prop_assert_eq!(to, addr(name, key));
            }
        }
    }

    fn done(tid: u64) -> Eg {
        Eg::DeliveryDone {
            tid: TransactionId(tid),
            packages: 1,
        }
    }

    #[test]
    fn a_completion_is_kept_until_it_is_taken() {
        let completions = Completions::default();
        completions.publish(vec![Msg::Egress(done(5))]);
        completions.publish(Vec::new());
        assert!(matches!(completions.take(5), Ok(Eg::DeliveryDone { .. })));
        assert_eq!(
            completions.take(5).err(),
            Some(2),
            "taken once; the count is of both epochs"
        );
    }

    #[test]
    fn only_its_own_tid_takes_a_completion() {
        let completions = Completions::default();
        completions.publish(vec![Msg::Egress(done(7)), Msg::ProductDelete]);
        assert!(completions.take(6).is_err(), "another tid's completion stays");
        assert!(completions.take(7).is_ok());
        assert_eq!(completions.done.lock().by_tid.len(), 0, "the other record is no egress");
    }

    #[test]
    fn giving_up_takes_a_published_completion_and_drops_a_later_one() {
        let completions = Completions::default();
        completions.publish(vec![Msg::Egress(done(4))]);
        assert!(completions.give_up(4).is_some(), "published before the caller gave up");
        assert!(completions.give_up(5).is_none());
        completions.publish(vec![Msg::Egress(done(5)), Msg::Egress(done(6))]);
        let done = completions.done.lock();
        assert_eq!(done.by_tid.keys().copied().collect::<Vec<_>>(), vec![6]);
        assert!(done.abandoned.is_empty(), "5 was dropped once");
    }

    #[test]
    fn a_rebuilt_platform_keeps_no_completion_of_an_earlier_life() {
        let ingress: Arc<dyn om_log::EventLog<(Address, Msg)>> =
            Arc::new(om_log::Topic::new("ingress", 2));
        // An earlier life submitted a checkout of customer 3's empty cart
        // and crashed before any epoch committed it.
        let earlier: Dataflow<Msg> = Dataflow::builder()
            .partitions(2)
            .ingress_topic(ingress.clone())
            .build();
        earlier
            .submit(
                addr(kinds::CART, 3),
                Msg::Checkout {
                    tid: TransactionId(1),
                    method: om_common::entity::PaymentMethod::CreditCard,
                    decline_rate_bp: 0,
                    at: EventTime(1),
                },
            )
            .unwrap();
        let reborn = DataflowPlatform::new(DataflowPlatformConfig {
            partitions: 2,
            ingress: Some(ingress),
            ..DataflowPlatformConfig::default()
        });
        reborn.quiesce();
        assert_eq!(reborn.core.df.pending_ingress(), 0, "the checkout replayed");
        assert!(
            reborn.core.completions.done.lock().by_tid.is_empty(),
            "no caller of this life waits for tid 1"
        );
    }

    /// A caller whose own epoch failed gives up on its checkout; the
    /// epoch that commits the checkout once the store is repaired drops
    /// its completion instead of keeping it for no one.
    #[test]
    fn a_completion_whose_caller_gave_up_is_not_kept() {
        use om_common::entity::PaymentMethod;
        use om_storage::{FaultVfs, FileBackend, FileBackendOptions};
        struct Cleanup(std::path::PathBuf);
        impl Drop for Cleanup {
            fn drop(&mut self) {
                let _ = std::fs::remove_dir_all(&self.0);
            }
        }
        let dir = std::env::temp_dir().join(format!("om-df-gave-up-{}", std::process::id()));
        let _cleanup = Cleanup(dir.clone());
        let vfs = FaultVfs::new(0x5EED);
        let options = FileBackendOptions {
            sync_commits: true,
            snapshot_every: 0,
            ..Default::default()
        };
        let backend = FileBackend::open_with_vfs(&dir, options, Arc::new(vfs.clone())).unwrap();
        let platform = DataflowPlatform::new(DataflowPlatformConfig {
            partitions: 2,
            decline_rate: 0.0,
            checkpoint_store: Some(Arc::new(BackendCheckpointStore::new(Arc::new(backend)))),
            ..DataflowPlatformConfig::default()
        });
        platform
            .ingest_seller(Seller::new(SellerId(1), "acme".into(), "city".into()))
            .unwrap();
        platform
            .ingest_customer(Customer::new(CustomerId(1), "c1".into(), "addr".into()))
            .unwrap();
        let product = Product {
            id: ProductId(1),
            seller: SellerId(1),
            name: "widget".into(),
            category: "cat".into(),
            description: String::new(),
            price: Money::from_cents(500),
            freight_value: Money::ZERO,
            version: 0,
            active: true,
        };
        platform.ingest_product(product, 100).unwrap();
        platform.quiesce();
        let item = CheckoutItem {
            seller: SellerId(1),
            product: ProductId(1),
            quantity: 1,
        };
        platform.add_to_cart(CustomerId(1), item).unwrap();
        platform.quiesce();

        let _ = vfs.clone().fail_nth_sync(vfs.syncs_seen() + 1);
        let err = platform
            .checkout(CheckoutRequest {
                customer: CustomerId(1),
                items: vec![],
                method: PaymentMethod::CreditCard,
            })
            .unwrap_err();
        assert_eq!(err.label(), "wedged", "{err}");
        assert!(matches!(platform.unwedge(), Some(Ok(_))));
        platform.quiesce();
        assert_eq!(platform.core.df.pending_ingress(), 0, "the checkout committed");
        let done = platform.core.completions.done.lock();
        assert!(done.by_tid.is_empty(), "no caller waits for the checkout");
        assert!(done.abandoned.is_empty(), "its completion was dropped");
    }
}
