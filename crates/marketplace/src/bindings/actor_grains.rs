//! Grain implementations shared by the actor bindings.
//!
//! A grain is an adapter over its service's workflow step
//! ([`crate::domain::flow`]): a [`Msg::Flow`] message runs the step on
//! the grain's committed state, what the step sends goes on as grain
//! events, and the grain stores its state in the [`crate::domain::rows`]
//! format. Beside that, a grain answers queries and the transactional
//! surface.
//!
//! The six participant grains (stock, order, payment, shipment, seller,
//! customer) run behind one adapter, `TxGrain`, which wraps the domain
//! state in a [`TxParticipant`] so the same cluster serves both the
//! *Eventual* binding (which only touches committed state via
//! events/calls) and the *Transactional*/*Customized* bindings (which
//! additionally drive the `Tx*` message surface under 2PL + 2PC). A
//! workflow event that reaches a grain a transaction holds waits in the
//! grain's queue, then runs when the holder's commit or abort releases
//! the lock; a workflow call there is answered `Conflict`. A message the
//! bindings send while admitted over the grain (a delivery's seller
//! status, a seller's ingestion on Customized) always finds it free.

use om_actor::tx::TxParticipant;
use om_actor::{Cluster, FaultConfig, GrainContext, GrainId};
use om_common::entity::{Customer, Product};
use om_common::ids::*;
use om_common::{OmError, OmResult};
use serde::Serialize;
use std::collections::{BTreeSet, VecDeque};
use std::time::Duration;

use super::actor_msg::{Msg, Reply};
use super::kinds;
use crate::api::{PackageSnapshot, StockSnapshot};
use crate::domain::flow::{self, from_basis_points, ingested, Step};
use crate::domain::rows::{load_root, store_root, StoredRows};
use crate::domain::{
    CartService, OrderService, PaymentService, ProductReplica, SellerView, ShipmentService,
    StockService,
};

/// Grain id helpers.
pub fn product_grain(p: ProductId) -> GrainId {
    GrainId::new(kinds::PRODUCT, p.0)
}
pub fn replica_grain(p: ProductId) -> GrainId {
    GrainId::new(kinds::REPLICA, p.0)
}
pub fn stock_grain(p: ProductId) -> GrainId {
    GrainId::new(kinds::STOCK, p.0)
}
pub fn cart_grain(c: CustomerId) -> GrainId {
    GrainId::new(kinds::CART, c.0)
}
pub fn order_grain(c: CustomerId) -> GrainId {
    GrainId::new(kinds::ORDER, c.0)
}
pub fn payment_grain(c: CustomerId) -> GrainId {
    GrainId::new(kinds::PAYMENT, c.0)
}
pub fn shipment_grain(s: SellerId) -> GrainId {
    GrainId::new(kinds::SHIPMENT, s.0)
}
pub fn seller_grain(s: SellerId) -> GrainId {
    GrainId::new(kinds::SELLER, s.0)
}
pub fn customer_grain(c: CustomerId) -> GrainId {
    GrainId::new(kinds::CUSTOMER, c.0)
}

fn not_mine(id: GrainId, msg: &Msg) -> Reply {
    Reply::Err(OmError::Internal(format!(
        "grain {id} received foreign message {msg:?}"
    )))
}

/// Stores an entity's whole state as its root row, once ingested.
fn store_entity<T: Serialize>(entity: &Option<T>, ctx: &mut GrainContext<'_, Msg>) -> OmResult<()> {
    entity.as_ref().map_or(Ok(()), |e| store_root(ctx, e))
}

fn answer(done: OmResult<u64>) -> Reply {
    done.map_or_else(Reply::Err, Reply::Count)
}

/// Stages a transactional op under `tid`'s lock.
fn stage<S: Clone>(
    part: &mut TxParticipant<S>,
    tid: TransactionId,
    op: impl Fn(&mut S) -> OmResult<()> + Send + 'static,
) -> Reply {
    match part.stage(tid, op).flatten() {
        Ok(()) => Reply::Ok,
        Err(e) => Reply::Err(e),
    }
}

/// What a participant grain's service adds to [`TxGrain`]: how a change
/// is stored, and the grain's own messages.
trait Service: Step + Clone + Send + 'static {
    /// Notes in `orders` the orders whose rows `msg` rewrites, on the
    /// state it is about to run on. Only the seller stores a row per
    /// order.
    fn note(&self, _msg: &flow::Msg, _orders: &mut BTreeSet<OrderId>) {}

    /// Stores the state after a change; `orders` are the orders it
    /// rewrote. A failed store leaves the change applied in memory only.
    fn store(&self, _orders: &BTreeSet<OrderId>, _: &mut GrainContext<'_, Msg>) -> OmResult<()> {
        Ok(())
    }

    /// Answers a query, or stages a `Tx*` op under its transaction's
    /// lock (noting in `grain.staged` the orders the op rewrites).
    fn own(grain: &mut TxGrain<Self>, ctx: &mut GrainContext<'_, Msg>, msg: Msg) -> Reply;
}

/// The one adapter of the participant grains: it answers the 2PC surface
/// and runs the workflow, and hands every other message to the service.
///
/// A workflow message to a free grain runs its step on the committed
/// state, which is then stored. While a transaction holds the lock, a
/// workflow event (no reply expected) waits in `waiting`, and a workflow
/// call is answered `Conflict`: its reply is the turn's return value, so
/// it cannot wait. The commit or abort that releases the lock steps
/// every waiting event, in arrival order, in the same turn, and stores
/// the state once for the holder's changes and theirs. A silo kill
/// loses the queue together with the lock and the activation.
struct TxGrain<S> {
    part: TxParticipant<S>,
    /// Workflow events that reached the grain while it was held.
    waiting: VecDeque<flow::Msg>,
    /// The orders the lock holder's staged ops rewrite.
    staged: BTreeSet<OrderId>,
}

impl<S: Service> TxGrain<S> {
    fn boxed(initial: S) -> Box<dyn om_actor::Grain<Msg, Reply>> {
        Box::new(Self {
            part: TxParticipant::new(initial),
            waiting: VecDeque::new(),
            staged: BTreeSet::new(),
        })
    }

    /// Steps `msgs` on the committed state in order, noting the orders
    /// each rewrites, then stores the state once if `changed` or a step
    /// succeeded. Answers the last step: `Conflict` while a transaction
    /// holds the lock.
    fn run(
        &mut self,
        msgs: impl IntoIterator<Item = flow::Msg>,
        mut orders: BTreeSet<OrderId>,
        mut changed: bool,
        ctx: &mut GrainContext<'_, Msg>,
    ) -> OmResult<u64> {
        let mut last = Ok(0);
        for msg in msgs {
            self.part.committed().note(&msg, &mut orders);
            last = self.part.mutate_committed(|s| s.step(msg, ctx)).and_then(|done| done);
            changed |= last.is_ok();
        }
        if changed {
            let _ = self.part.committed().store(&orders, ctx);
        }
        last
    }
}

impl<S: Service> om_actor::Grain<Msg, Reply> for TxGrain<S> {
    fn handle(&mut self, ctx: &mut GrainContext<'_, Msg>, msg: Msg, reply_expected: bool) -> Reply {
        match msg {
            Msg::TxPrepare { tid } => Reply::Vote(self.part.prepare(tid)),
            // The holder's decision releases the lock, then the waiting
            // events run; another tid's changes nothing.
            Msg::TxCommit { tid } | Msg::TxAbort { tid } if self.part.prepare(tid) => {
                let commit = matches!(msg, Msg::TxCommit { .. });
                let staged = std::mem::take(&mut self.staged);
                let orders = if commit {
                    self.part.commit(tid);
                    staged
                } else {
                    self.part.abort(tid);
                    BTreeSet::new()
                };
                let waiting = std::mem::take(&mut self.waiting);
                let _ = self.run(waiting, orders, commit, ctx);
                Reply::Ok
            }
            Msg::TxCommit { .. } | Msg::TxAbort { .. } => Reply::Ok,
            Msg::Flow(m) if self.part.is_locked() && !reply_expected => {
                self.waiting.push_back(m);
                Reply::Ok
            }
            Msg::Flow(m) => answer(self.run([m], BTreeSet::new(), false, ctx)),
            other => S::own(self, ctx, other),
        }
    }
}

/// Silos of every actor binding's cluster.
pub const SILOS: usize = 2;

/// Builds the marketplace cluster shared by the actor bindings:
/// [`SILOS`] silos whose turns run on one pool of `parallelism` worker
/// threads (at least one).
///
/// Grain state persists through the `backend`-selected
/// [`om_storage::StateBackend`] in the [`crate::domain::rows`] format:
/// stock grains and the catalog entities — products, replicas, customers
/// — as their root row, and seller grains as a header plus one row per
/// dashboard entry, so a platform rebuilt over a durable backend
/// reactivates them from their last committed state and
/// [`super::actor_core::Catalog::recover_from`] can re-list them on a
/// cold start.
pub fn build_cluster(
    parallelism: usize,
    faults: FaultConfig,
    backend: std::sync::Arc<dyn om_storage::StateBackend>,
) -> Cluster<Msg, Reply> {
    Cluster::builder()
        .silos(SILOS)
        .workers(parallelism.max(1))
        .faults(faults)
        .call_timeout(Duration::from_secs(30))
        .storage_backend(backend)
        .register(kinds::PRODUCT, |_id, root| make_product_grain(root))
        .register(kinds::REPLICA, |_id, root| make_replica_grain(root))
        .register(kinds::STOCK, |_id, root| {
            TxGrain::boxed(load_root::<StockService>(&StoredRows::root(root)).ok().flatten())
        })
        .register(kinds::CART, |id, _snap| make_cart_grain(CustomerId(id.key)))
        .register(kinds::ORDER, |id, _| TxGrain::boxed(OrderService::new(CustomerId(id.key))))
        .register(kinds::PAYMENT, |id, _| TxGrain::boxed(PaymentService::new(CustomerId(id.key))))
        .register(kinds::SHIPMENT, |id, _| TxGrain::boxed(ShipmentService::new(SellerId(id.key))))
        .register_rows(kinds::SELLER, |_id, root, rows| {
            TxGrain::boxed(SellerView::load_all(&StoredRows { root, rows }).ok().flatten())
        })
        .register(kinds::CUSTOMER, |_id, root| {
            TxGrain::boxed(load_root::<Customer>(&StoredRows::root(root)).ok().flatten())
        })
        .build()
}

// ---------------------------------------------------------------------
// Product and replica
// ---------------------------------------------------------------------

fn make_product_grain(root: Option<Vec<u8>>) -> Box<dyn om_actor::Grain<Msg, Reply>> {
    let mut state: Option<Product> = load_root(&StoredRows::root(root)).ok().flatten();
    Box::new(move |ctx: &mut GrainContext<'_, Msg>, msg: Msg, _| match msg {
        Msg::ProductIngest(p) => {
            let _ = store_root(ctx, &p);
            state = Some(p);
            Reply::Ok
        }
        Msg::ProductGet => Reply::Product(state.clone()),
        Msg::Flow(m) => answer(state.step(m, ctx).inspect(|_| {
            let _ = store_entity(&state, ctx);
        })),
        other => not_mine(ctx.id(), &other),
    })
}

fn make_replica_grain(root: Option<Vec<u8>>) -> Box<dyn om_actor::Grain<Msg, Reply>> {
    let mut state: Option<ProductReplica> = load_root(&StoredRows::root(root)).ok().flatten();
    Box::new(move |ctx: &mut GrainContext<'_, Msg>, msg: Msg, _| match msg {
        Msg::ReplicaGet => Reply::Replica(state.clone()),
        Msg::Flow(m) => answer(state.step(m, ctx).inspect(|_| {
            let _ = store_entity(&state, ctx);
        })),
        other => not_mine(ctx.id(), &other),
    })
}

// ---------------------------------------------------------------------
// Stock
// ---------------------------------------------------------------------

impl Service for Option<StockService> {
    fn store(&self, _: &BTreeSet<OrderId>, ctx: &mut GrainContext<'_, Msg>) -> OmResult<()> {
        store_entity(self, ctx)
    }

    fn own(grain: &mut TxGrain<Self>, ctx: &mut GrainContext<'_, Msg>, msg: Msg) -> Reply {
        let part = &mut grain.part;
        match msg {
            Msg::StockGet => Reply::Stock(part.committed().as_ref().map(|s| StockSnapshot {
                item: s.item.clone(),
                qty_sold: s.qty_sold,
            })),
            Msg::TxStockReserve { tid, qty } => stage(part, tid, move |s| {
                ingested(s, kinds::STOCK)?.reserve(qty)
            }),
            Msg::TxStockConfirm { tid, qty } => stage(part, tid, move |s| {
                ingested(s, kinds::STOCK).map(|s| s.confirm(qty))
            }),
            Msg::TxStockCancel { tid, qty } => stage(part, tid, move |s| {
                ingested(s, kinds::STOCK).map(|s| s.cancel(qty))
            }),
            other => not_mine(ctx.id(), &other),
        }
    }
}

// ---------------------------------------------------------------------
// Cart
// ---------------------------------------------------------------------

fn make_cart_grain(customer: CustomerId) -> Box<dyn om_actor::Grain<Msg, Reply>> {
    let mut svc = CartService::new(customer);
    Box::new(move |ctx: &mut GrainContext<'_, Msg>, msg: Msg, _| match msg {
        Msg::Flow(m) => answer(svc.step(m, ctx)),
        Msg::CartBeginCheckout => match svc.begin_checkout() {
            Ok(items) => Reply::Items(items),
            Err(e) => Reply::Err(e),
        },
        Msg::CartFinishCheckout => {
            svc.finish_checkout();
            Reply::Ok
        }
        Msg::CartAbortCheckout => {
            svc.abort_checkout();
            Reply::Ok
        }
        other => not_mine(ctx.id(), &other),
    })
}

// ---------------------------------------------------------------------
// Order
// ---------------------------------------------------------------------

impl Service for OrderService {
    fn own(grain: &mut TxGrain<Self>, ctx: &mut GrainContext<'_, Msg>, msg: Msg) -> Reply {
        let part = &mut grain.part;
        match msg {
            Msg::OrderGetAll => {
                Reply::Orders(part.committed().orders.values().cloned().collect())
            }
            Msg::OrderStuckAssemblies => {
                Reply::Count(part.committed().stuck_assemblies() as u64)
            }
            Msg::TxOrderCreate { tid, items, at } => part
                .stage(tid, move |s| s.create_order(&items, at))
                .flatten()
                .map_or_else(Reply::Err, Reply::Order),
            Msg::TxOrderSetStatus { tid, order, status } => {
                let at = ctx.tick();
                stage(part, tid, move |s| s.set_status(order, status, at))
            }
            other => not_mine(ctx.id(), &other),
        }
    }
}

// ---------------------------------------------------------------------
// Payment
// ---------------------------------------------------------------------

impl Service for PaymentService {
    fn own(grain: &mut TxGrain<Self>, ctx: &mut GrainContext<'_, Msg>, msg: Msg) -> Reply {
        let part = &mut grain.part;
        match msg {
            Msg::PaymentGetAll => {
                Reply::Payments(part.committed().payments.values().cloned().collect())
            }
            Msg::TxPaymentProcess {
                tid,
                order,
                method,
                amount,
                decline_rate_bp,
            } => {
                let at = ctx.tick();
                part.stage(tid, move |s| {
                    s.process(order, method, amount, from_basis_points(decline_rate_bp), at)
                })
                .map_or_else(Reply::Err, Reply::Payment)
            }
            other => not_mine(ctx.id(), &other),
        }
    }
}

// ---------------------------------------------------------------------
// Shipment
// ---------------------------------------------------------------------

impl Service for ShipmentService {
    fn own(grain: &mut TxGrain<Self>, ctx: &mut GrainContext<'_, Msg>, msg: Msg) -> Reply {
        let part = &mut grain.part;
        match msg {
            Msg::ShipOldest => Reply::OldestUndelivered(part.committed().oldest_undelivered()),
            Msg::ShipGetPackages => Reply::Packages(
                part.committed()
                    .packages
                    .iter()
                    .map(PackageSnapshot::from)
                    .collect(),
            ),
            Msg::TxShipCreatePackages {
                tid,
                shipment,
                order,
                customer,
                lines,
            } => {
                let at = ctx.tick();
                part.stage(tid, move |s| {
                    s.create_packages(shipment, order, customer, &lines, at).len() as u64
                })
                .map_or_else(Reply::Err, Reply::Count)
            }
            Msg::TxShipDeliverOldest { tid } => {
                let at = ctx.tick();
                let delivered = part.stage(tid, move |s| s.deliver_oldest_order(at));
                delivered.map_or_else(Reply::Err, |d| Reply::Delivered {
                    order: d.as_ref().map(|(order, _)| *order),
                    packages: d.map_or(0, |(_, pkgs)| pkgs.len() as u32),
                })
            }
            other => not_mine(ctx.id(), &other),
        }
    }
}

// ---------------------------------------------------------------------
// Seller
// ---------------------------------------------------------------------

/// A seller stores its header and the entry rows of the orders a change
/// rewrote, not its history.
impl Service for Option<SellerView> {
    /// The order a workflow entry joins or whose entries a status changes
    /// — or, re-ingesting the seller, every order of the old view, whose
    /// rows the new one deletes.
    fn note(&self, msg: &flow::Msg, orders: &mut BTreeSet<OrderId>) {
        match (msg, self) {
            (flow::Msg::IngestSeller(_), Some(old)) => {
                orders.extend(old.entries.keys().map(|&(order, _)| order));
            }
            (flow::Msg::AddEntry(entry), _) => {
                orders.insert(entry.order);
            }
            (flow::Msg::ApplyStatus { order, .. }, Some(view))
                if view.order_entries(*order).next().is_some() =>
            {
                orders.insert(*order);
            }
            _ => {}
        }
    }

    fn store(&self, orders: &BTreeSet<OrderId>, ctx: &mut GrainContext<'_, Msg>) -> OmResult<()> {
        self.as_ref().map_or(Ok(()), |v| v.store_orders(orders.iter().copied(), ctx))
    }

    fn own(grain: &mut TxGrain<Self>, ctx: &mut GrainContext<'_, Msg>, msg: Msg) -> Reply {
        let part = &mut grain.part;
        match msg {
            Msg::SellerGetAggregate => match part.committed() {
                Some(view) => {
                    let (amount, count) = view.aggregate();
                    Reply::Aggregate { amount, count }
                }
                None => Reply::Err(OmError::NotFound(format!("seller {}", ctx.id().key))),
            },
            Msg::SellerGetEntries => match part.committed() {
                Some(view) => Reply::Entries(view.entry_list()),
                None => Reply::Err(OmError::NotFound(format!("seller {}", ctx.id().key))),
            },
            Msg::SellerGetProfile => {
                Reply::SellerProfile(part.committed().as_ref().map(|v| v.seller.clone()))
            }
            Msg::TxSellerAddEntry { tid, entry } => {
                // A terminal entry is counted but joins no order's row.
                let joins = entry.status.in_progress().then_some(entry.order);
                let reply = stage(part, tid, move |v| {
                    ingested(v, kinds::SELLER).map(|v| v.add_entry(entry.clone()))
                });
                if matches!(reply, Reply::Ok) {
                    grain.staged.extend(joins);
                }
                reply
            }
            Msg::TxSellerApplyStatus { tid, order, status } => {
                let reply = stage(part, tid, move |v| {
                    ingested(v, kinds::SELLER).map(|v| v.apply_status(order, status))
                });
                if matches!(reply, Reply::Ok) {
                    grain.staged.insert(order);
                }
                reply
            }
            other => not_mine(ctx.id(), &other),
        }
    }
}

// ---------------------------------------------------------------------
// Customer
// ---------------------------------------------------------------------

impl Service for Option<Customer> {
    fn store(&self, _: &BTreeSet<OrderId>, ctx: &mut GrainContext<'_, Msg>) -> OmResult<()> {
        store_entity(self, ctx)
    }

    fn own(grain: &mut TxGrain<Self>, ctx: &mut GrainContext<'_, Msg>, msg: Msg) -> Reply {
        let part = &mut grain.part;
        match msg {
            Msg::CustomerGet => Reply::CustomerProfile(part.committed().clone()),
            Msg::TxCustomerPaymentResult {
                tid,
                approved,
                amount,
            } => stage(part, tid, move |c| {
                ingested(c, kinds::CUSTOMER).map(|c| c.record_payment(approved, amount))
            }),
            other => not_mine(ctx.id(), &other),
        }
    }
}
