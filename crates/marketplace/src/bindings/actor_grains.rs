//! Grain implementations shared by the actor bindings.
//!
//! A grain is an adapter over its service's workflow step
//! ([`crate::domain::flow`]): a [`Msg::Flow`] message runs the step on
//! the grain's committed state, what the step sends goes on as grain
//! events, and the grain stores its state in the [`crate::domain::rows`]
//! format. Beside that, a grain answers queries and the transactional
//! surface.
//!
//! Every stateful service grain wraps its domain state in a
//! [`TxParticipant`] so the same cluster serves both the *Eventual*
//! binding (which only touches committed state via events/calls) and the
//! *Transactional*/*Customized* bindings (which additionally drive the
//! `Tx*` message surface under 2PL + 2PC). A transaction's write lock
//! refuses a workflow message, which is then dropped — except that a
//! stock reservation answers `reserved: false` and a product deletion
//! waits at the stock for the lock to go.

use om_actor::tx::TxParticipant;
use om_actor::{Cluster, FaultConfig, GrainContext, GrainId};
use om_common::entity::{Customer, Product};
use om_common::ids::*;
use om_common::{OmError, OmResult};
use serde::Serialize;
use std::collections::{BTreeSet, HashMap};
use std::time::Duration;

use super::actor_msg::{Msg, Reply};
use super::kinds;
use crate::api::{PackageSnapshot, StockSnapshot};
use crate::domain::flow::{self, from_basis_points, ingested, Step};
use crate::domain::rows::{load_root, store_root, SellerDelta, StoredRows};
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

/// Runs a 2PC surface message against a participant; `commit_hook` runs on
/// commit with the newly committed state (to store it). A hook that fails
/// leaves the commit applied in memory only, as a failed store does on
/// every other grain turn.
fn handle_tx_protocol<S: Clone, M>(
    part: &mut TxParticipant<S>,
    msg: &Msg,
    ctx: &mut GrainContext<'_, M>,
    commit_hook: impl FnOnce(&S, &mut GrainContext<'_, M>) -> OmResult<()>,
) -> Option<Reply> {
    match msg {
        Msg::TxPrepare { tid } => Some(Reply::Vote(part.prepare(*tid))),
        Msg::TxCommit { tid } => {
            part.commit(*tid);
            let _ = commit_hook(part.committed(), ctx);
            Some(Reply::Ok)
        }
        Msg::TxAbort { tid } => {
            part.abort(*tid);
            Some(Reply::Ok)
        }
        _ => None,
    }
}

/// Runs a workflow step on a participant's committed state, sending on
/// as grain events. A transaction's write lock refuses it, and the
/// message is dropped.
fn step_committed<S: Step + Clone>(
    part: &mut TxParticipant<S>,
    ctx: &mut GrainContext<'_, Msg>,
    msg: flow::Msg,
) -> OmResult<u64> {
    part.mutate_committed(|s| s.step(msg, ctx))?
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
        .register(kinds::STOCK, |_id, root| make_stock_grain(root))
        .register(kinds::CART, |id, _snap| make_cart_grain(CustomerId(id.key)))
        .register(kinds::ORDER, |id, _snap| make_order_grain(CustomerId(id.key)))
        .register(kinds::PAYMENT, |id, _snap| {
            make_payment_grain(CustomerId(id.key))
        })
        .register(kinds::SHIPMENT, |id, _snap| {
            make_shipment_grain(SellerId(id.key))
        })
        .register_rows(kinds::SELLER, |_id, root, rows| {
            make_seller_grain(StoredRows { root, rows })
        })
        .register(kinds::CUSTOMER, |_id, root| make_customer_grain(root))
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

fn make_stock_grain(root: Option<Vec<u8>>) -> Box<dyn om_actor::Grain<Msg, Reply>> {
    // Reactivation: restore the last committed state saved by a previous
    // activation, if the backend holds one.
    let mut part: TxParticipant<Option<StockService>> =
        TxParticipant::new(load_root(&StoredRows::root(root)).ok().flatten());
    // A replicated product deletion arriving while a checkout transaction
    // holds the write lock cannot touch committed state; it parks here and
    // applies as soon as the lock is released (commit or abort). Dropping
    // it instead would permanently violate the stock→product integrity
    // criterion even on the full-featured stack.
    let mut deferred_delete: Option<u64> = None;
    Box::new(move |ctx: &mut GrainContext<'_, Msg>, msg: Msg, _| {
        if let Some(reply) = handle_tx_protocol(&mut part, &msg, ctx, store_entity) {
            if let Some(version) = deferred_delete.filter(|_| !part.is_locked()) {
                deferred_delete = None;
                if step_committed(&mut part, ctx, flow::Msg::StockDelete { version }).is_ok() {
                    let _ = store_entity(part.committed(), ctx);
                }
            }
            return reply;
        }
        match msg {
            Msg::Flow(flow::Msg::StockDelete { version }) if part.is_locked() => {
                deferred_delete = Some(deferred_delete.map_or(version, |v| v.max(version)));
                Reply::Ok
            }
            // To the workflow, a locked stock is one with nothing to
            // reserve: a reservation answers `reserved: false`, and the
            // step drops the rest.
            Msg::Flow(m) if part.is_locked() => answer(None::<StockService>.step(m, ctx)),
            Msg::Flow(m) => {
                let done = step_committed(&mut part, ctx, m);
                if done.is_ok() {
                    let _ = store_entity(part.committed(), ctx);
                }
                answer(done)
            }
            Msg::StockGet => Reply::Stock(part.committed().as_ref().map(|s| StockSnapshot {
                item: s.item.clone(),
                qty_sold: s.qty_sold,
            })),
            // Transactional surface.
            Msg::TxStockReserve { tid, qty } => stage(&mut part, tid, move |s| {
                ingested(s, kinds::STOCK)?.reserve(qty)
            }),
            Msg::TxStockConfirm { tid, qty } => stage(&mut part, tid, move |s| {
                ingested(s, kinds::STOCK).map(|s| s.confirm(qty))
            }),
            Msg::TxStockCancel { tid, qty } => stage(&mut part, tid, move |s| {
                ingested(s, kinds::STOCK).map(|s| s.cancel(qty))
            }),
            other => not_mine(ctx.id(), &other),
        }
    })
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

fn make_order_grain(customer: CustomerId) -> Box<dyn om_actor::Grain<Msg, Reply>> {
    let mut part = TxParticipant::new(OrderService::new(customer));
    Box::new(move |ctx: &mut GrainContext<'_, Msg>, msg: Msg, _| {
        if let Some(reply) = handle_tx_protocol(&mut part, &msg, ctx, |_, _| Ok(())) {
            return reply;
        }
        match msg {
            Msg::Flow(m) => answer(step_committed(&mut part, ctx, m)),
            Msg::OrderGetAll => {
                Reply::Orders(part.committed().orders.values().cloned().collect())
            }
            Msg::OrderGet(order) => Reply::Orders(
                part.committed()
                    .orders
                    .get(&order)
                    .cloned()
                    .into_iter()
                    .collect(),
            ),
            Msg::OrderStuckAssemblies => {
                Reply::Count(part.committed().stuck_assemblies() as u64)
            }
            Msg::TxOrderCreate { tid, items, at } => {
                match part.stage(tid, move |s| s.create_order(&items, at)).flatten() {
                    Ok(order) => Reply::Order(order),
                    Err(e) => Reply::Err(e),
                }
            }
            Msg::TxOrderSetStatus { tid, order, status } => {
                let at = ctx.tick();
                stage(&mut part, tid, move |s| s.set_status(order, status, at))
            }
            other => not_mine(ctx.id(), &other),
        }
    })
}

// ---------------------------------------------------------------------
// Payment
// ---------------------------------------------------------------------

fn make_payment_grain(customer: CustomerId) -> Box<dyn om_actor::Grain<Msg, Reply>> {
    let mut part = TxParticipant::new(PaymentService::new(customer));
    Box::new(move |ctx: &mut GrainContext<'_, Msg>, msg: Msg, _| {
        if let Some(reply) = handle_tx_protocol(&mut part, &msg, ctx, |_, _| Ok(())) {
            return reply;
        }
        match msg {
            Msg::Flow(m) => answer(step_committed(&mut part, ctx, m)),
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
                match part.stage(tid, move |s| {
                    s.process(order, method, amount, from_basis_points(decline_rate_bp), at)
                }) {
                    Ok(p) => Reply::Payment(p),
                    Err(e) => Reply::Err(e),
                }
            }
            other => not_mine(ctx.id(), &other),
        }
    })
}

// ---------------------------------------------------------------------
// Shipment
// ---------------------------------------------------------------------

fn make_shipment_grain(seller: SellerId) -> Box<dyn om_actor::Grain<Msg, Reply>> {
    let mut part = TxParticipant::new(ShipmentService::new(seller));
    Box::new(move |ctx: &mut GrainContext<'_, Msg>, msg: Msg, _| {
        if let Some(reply) = handle_tx_protocol(&mut part, &msg, ctx, |_, _| Ok(())) {
            return reply;
        }
        match msg {
            Msg::Flow(m) => answer(step_committed(&mut part, ctx, m)),
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
                match part.stage(tid, move |s| {
                    s.create_packages(shipment, order, customer, &lines, at).len()
                }) {
                    Ok(n) => Reply::Count(n as u64),
                    Err(e) => Reply::Err(e),
                }
            }
            Msg::TxShipDeliverOldest { tid } => {
                let at = ctx.tick();
                match part.stage(tid, move |s| s.deliver_oldest_order(at)) {
                    Ok(Some((order, pkgs))) => Reply::Delivered {
                        order: Some(order),
                        packages: pkgs.len() as u32,
                    },
                    Ok(None) => Reply::Delivered {
                        order: None,
                        packages: 0,
                    },
                    Err(e) => Reply::Err(e),
                }
            }
            other => not_mine(ctx.id(), &other),
        }
    })
}

// ---------------------------------------------------------------------
// Seller
// ---------------------------------------------------------------------

fn make_seller_grain(stored: StoredRows) -> Box<dyn om_actor::Grain<Msg, Reply>> {
    let mut part: TxParticipant<Option<SellerView>> =
        TxParticipant::new(SellerView::load_all(&stored).ok().flatten());
    // The orders each open transaction staged, so its commit stores their
    // rows and nothing else.
    let mut touched: HashMap<TransactionId, BTreeSet<OrderId>> = HashMap::new();
    Box::new(move |ctx: &mut GrainContext<'_, Msg>, msg: Msg, _| {
        let delta = match (&msg, part.committed()) {
            (Msg::TxCommit { tid }, Some(view)) => {
                SellerDelta::of(view, touched.remove(tid).unwrap_or_default())
            }
            (Msg::TxAbort { tid }, _) => {
                touched.remove(tid);
                SellerDelta::default()
            }
            // A workflow message stores the header and the rows of the
            // order it names — or, re-ingesting the seller, retires every
            // row of the old view.
            (Msg::Flow(flow::Msg::IngestSeller(_)), Some(old)) => SellerDelta::replace(old),
            (Msg::Flow(m), Some(view)) => SellerDelta::of(view, m.order()),
            _ => SellerDelta::default(),
        };
        let store = |view: &Option<SellerView>, ctx: &mut GrainContext<'_, Msg>| {
            view.as_ref().map_or(Ok(()), |v| delta.store(v, ctx))
        };
        if let Some(reply) = handle_tx_protocol(&mut part, &msg, ctx, store) {
            return reply;
        }
        match msg {
            Msg::Flow(m) => {
                let done = step_committed(&mut part, ctx, m);
                if done.is_ok() {
                    let _ = store(part.committed(), ctx);
                }
                answer(done)
            }
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
                let order = entry.order;
                let reply = stage(&mut part, tid, move |v| {
                    ingested(v, kinds::SELLER).map(|v| v.add_entry(entry.clone()))
                });
                if matches!(reply, Reply::Ok) {
                    touched.entry(tid).or_default().insert(order);
                }
                reply
            }
            Msg::TxSellerApplyStatus { tid, order, status } => {
                let reply = stage(&mut part, tid, move |v| {
                    ingested(v, kinds::SELLER).map(|v| v.apply_status(order, status))
                });
                if matches!(reply, Reply::Ok) {
                    touched.entry(tid).or_default().insert(order);
                }
                reply
            }
            other => not_mine(ctx.id(), &other),
        }
    })
}

// ---------------------------------------------------------------------
// Customer
// ---------------------------------------------------------------------

fn make_customer_grain(root: Option<Vec<u8>>) -> Box<dyn om_actor::Grain<Msg, Reply>> {
    let mut part: TxParticipant<Option<Customer>> =
        TxParticipant::new(load_root(&StoredRows::root(root)).ok().flatten());
    Box::new(move |ctx: &mut GrainContext<'_, Msg>, msg: Msg, _| {
        if let Some(reply) = handle_tx_protocol(&mut part, &msg, ctx, store_entity) {
            return reply;
        }
        match msg {
            Msg::Flow(m) => {
                let done = step_committed(&mut part, ctx, m);
                if done.is_ok() {
                    let _ = store_entity(part.committed(), ctx);
                }
                answer(done)
            }
            Msg::CustomerGet => Reply::CustomerProfile(part.committed().clone()),
            Msg::TxCustomerPaymentResult {
                tid,
                approved,
                amount,
            } => stage(&mut part, tid, move |c| {
                ingested(c, kinds::CUSTOMER).map(|c| c.record_payment(approved, amount))
            }),
            other => not_mine(ctx.id(), &other),
        }
    })
}
