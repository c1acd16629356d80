//! Grain implementations shared by the actor bindings.
//!
//! Every stateful service grain wraps its domain state in a
//! [`TxParticipant`] so the same cluster serves both the *Eventual*
//! binding (which only touches committed state via events/calls) and the
//! *Transactional*/*Customized* bindings (which additionally drive the
//! `Tx*` message surface under 2PL + 2PC). The participant adds a lock
//! check on the non-transactional path — negligible next to messaging —
//! so measured differences between bindings come from workflow shape, not
//! divergent grain code.

use om_actor::tx::{LockMode, TxParticipant};
use om_actor::{Cluster, FaultConfig, GrainContext, GrainId};
use om_common::entity::{Customer, OrderStatus, Product};
use om_common::event::OrderLineRef;
use om_common::ids::*;
use om_common::{OmError, OmResult};
use std::collections::{BTreeSet, HashMap};
use std::time::Duration;

use super::actor_msg::{from_basis_points, Msg, Reply};
use super::kinds;
use crate::api::{PackageSnapshot, StockSnapshot};
use crate::domain::order::customer_of_order;
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
        Msg::TxPrepare { tid } => Some(match part.prepare(*tid) {
            Ok(vote) => Reply::Vote(vote),
            Err(e) => Reply::Err(e),
        }),
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

/// Builds the marketplace cluster shared by the actor bindings.
///
/// `decline_rate` only matters for the *event-driven* payment path; the
/// transactional path carries the rate in its messages. Grain state
/// persists through the `backend`-selected [`om_storage::StateBackend`]
/// in the [`crate::domain::rows`] format: stock grains and the catalog
/// entities — products, replicas, customers — as their root row, and
/// seller grains as a header plus one row per dashboard entry, so a
/// platform rebuilt over a durable backend reactivates them from their
/// last committed state and [`super::actor_core::Catalog::recover_from`]
/// can re-list them on a cold start.
pub fn build_cluster(
    silos: usize,
    workers_per_silo: usize,
    faults: FaultConfig,
    backend: std::sync::Arc<dyn om_storage::StateBackend>,
) -> Cluster<Msg, Reply> {
    Cluster::builder()
        .silos(silos)
        .workers_per_silo(workers_per_silo)
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
        .register_rows(kinds::SELLER, |id, root, rows| {
            make_seller_grain(SellerId(id.key), StoredRows { root, rows })
        })
        .register(kinds::CUSTOMER, |id, root| {
            make_customer_grain(CustomerId(id.key), root)
        })
        .build()
}

// ---------------------------------------------------------------------
// Product
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
        Msg::ProductPriceUpdate(price) => match state.as_mut() {
            Some(p) if p.active => {
                p.set_price(price);
                ctx.tick();
                let _ = store_root(ctx, p);
                ctx.send(
                    replica_grain(p.id),
                    Msg::ReplicaApplyUpdate {
                        price,
                        version: p.version,
                    },
                );
                Reply::Count(p.version)
            }
            Some(_) => Reply::Err(OmError::Rejected("product deleted".into())),
            None => Reply::Err(OmError::NotFound("product".into())),
        },
        Msg::ProductDelete => match state.as_mut() {
            Some(p) if p.active => {
                p.delete();
                let _ = store_root(ctx, p);
                ctx.send(replica_grain(p.id), Msg::ReplicaApplyDelete { version: p.version });
                ctx.send(stock_grain(p.id), Msg::StockApplyDelete { version: p.version });
                Reply::Count(p.version)
            }
            Some(_) => Reply::Err(OmError::Rejected("already deleted".into())),
            None => Reply::Err(OmError::NotFound("product".into())),
        },
        other => not_mine(ctx.id(), &other),
    })
}

// ---------------------------------------------------------------------
// Replica (cart-side product view)
// ---------------------------------------------------------------------

fn make_replica_grain(root: Option<Vec<u8>>) -> Box<dyn om_actor::Grain<Msg, Reply>> {
    let mut state: Option<ProductReplica> = load_root(&StoredRows::root(root)).ok().flatten();
    Box::new(move |ctx: &mut GrainContext<'_, Msg>, msg: Msg, _| match msg {
        Msg::ReplicaIngest(r) => {
            let _ = store_root(ctx, &r);
            state = Some(r);
            Reply::Ok
        }
        Msg::ReplicaApplyUpdate { price, version } => match state.as_mut() {
            Some(r) => {
                let applied = r.apply_update(price, version);
                if applied {
                    let _ = store_root(ctx, r);
                }
                Reply::Bool(applied)
            }
            None => Reply::Err(OmError::NotFound("replica".into())),
        },
        Msg::ReplicaApplyDelete { version } => match state.as_mut() {
            Some(r) => {
                let applied = r.apply_delete(version);
                if applied {
                    let _ = store_root(ctx, r);
                }
                Reply::Bool(applied)
            }
            None => Reply::Err(OmError::NotFound("replica".into())),
        },
        Msg::ReplicaGet => Reply::Replica(state.clone()),
        other => not_mine(ctx.id(), &other),
    })
}

// ---------------------------------------------------------------------
// Stock
// ---------------------------------------------------------------------

fn make_stock_grain(root: Option<Vec<u8>>) -> Box<dyn om_actor::Grain<Msg, Reply>> {
    // Reactivation: restore the last committed state saved by a previous
    // activation, if the backend holds one.
    let mut part: Option<TxParticipant<StockService>> =
        load_root(&StoredRows::root(root)).ok().flatten().map(TxParticipant::new);
    // A replicated product deletion arriving while a checkout transaction
    // holds the write lock cannot touch committed state; it parks here and
    // applies as soon as the lock is released (commit or abort). Dropping
    // it instead would permanently violate the stock→product integrity
    // criterion even on the full-featured stack.
    let mut deferred_delete: Option<u64> = None;
    Box::new(move |ctx: &mut GrainContext<'_, Msg>, msg: Msg, _| {
        if let Some(p) = part.as_mut() {
            if let Some(reply) = handle_tx_protocol(p, &msg, ctx, |s, ctx| store_root(ctx, s)) {
                if !p.is_locked() {
                    if let Some(version) = deferred_delete.take() {
                        let _ = p.mutate_committed(|s| s.apply_product_delete(version));
                        let _ = store_root(ctx, p.committed());
                    }
                }
                return reply;
            }
        }
        match msg {
            Msg::StockIngest { key, qty } => {
                match part.as_mut() {
                    Some(p) => {
                        // Replenishment of an existing item.
                        let _ = p.mutate_committed(|s| s.item.replenish(qty));
                    }
                    None => part = Some(TxParticipant::new(StockService::new(key, qty))),
                }
                let _ = store_root(ctx, part.as_ref().expect("just ingested").committed());
                Reply::Ok
            }
            Msg::StockReserveEvent {
                tid,
                customer,
                item,
                method,
                decline_rate_bp,
            } => {
                let reserved = match part.as_mut() {
                    Some(p) => {
                        let mut ok = false;
                        let _ = p.mutate_committed(|s| ok = s.reserve(item.quantity).is_ok());
                        if ok {
                            let _ = store_root(ctx, p.committed());
                        }
                        ok
                    }
                    None => false,
                };
                ctx.send(
                    order_grain(customer),
                    Msg::OrderStockAnswer {
                        tid,
                        item,
                        reserved,
                        method,
                        decline_rate_bp,
                    },
                );
                Reply::Bool(reserved)
            }
            Msg::StockConfirm { qty } => match part.as_mut() {
                Some(p) => {
                    let _ = p.mutate_committed(|s| s.confirm(qty));
                    let _ = store_root(ctx, p.committed());
                    Reply::Ok
                }
                None => Reply::Err(OmError::NotFound("stock".into())),
            },
            Msg::StockCancel { qty } => match part.as_mut() {
                Some(p) => {
                    let _ = p.mutate_committed(|s| s.cancel(qty));
                    let _ = store_root(ctx, p.committed());
                    Reply::Ok
                }
                None => Reply::Err(OmError::NotFound("stock".into())),
            },
            Msg::StockApplyDelete { version } => match part.as_mut() {
                Some(p) => {
                    if p.mutate_committed(|s| s.apply_product_delete(version)).is_err() {
                        deferred_delete =
                            Some(deferred_delete.map_or(version, |v| v.max(version)));
                    } else {
                        let _ = store_root(ctx, p.committed());
                    }
                    Reply::Ok
                }
                None => Reply::Err(OmError::NotFound("stock".into())),
            },
            Msg::StockGet => Reply::Stock(part.as_ref().map(|p| {
                let s = p.committed();
                StockSnapshot {
                    item: s.item.clone(),
                    qty_sold: s.qty_sold,
                }
            })),
            // Transactional surface.
            Msg::TxStockReserve { tid, qty } => with_tx(part.as_mut(), tid, |p, tid| {
                p.acquire(tid, LockMode::Write)?;
                p.stage(tid, move |s| s.reserve(qty))?
            }),
            Msg::TxStockConfirm { tid, qty } => with_tx(part.as_mut(), tid, |p, tid| {
                p.acquire(tid, LockMode::Write)?;
                p.stage(tid, move |s| s.confirm(qty))
            }),
            Msg::TxStockCancel { tid, qty } => with_tx(part.as_mut(), tid, |p, tid| {
                p.acquire(tid, LockMode::Write)?;
                p.stage(tid, move |s| s.cancel(qty))
            }),
            other => not_mine(ctx.id(), &other),
        }
    })
}

/// Runs a transactional op against an optional participant, mapping
/// errors into `Reply::Err`.
fn with_tx<S: Clone>(
    part: Option<&mut TxParticipant<S>>,
    tid: TransactionId,
    op: impl FnOnce(&mut TxParticipant<S>, TransactionId) -> Result<(), OmError>,
) -> Reply {
    match part {
        Some(p) => match op(p, tid) {
            Ok(()) => Reply::Ok,
            Err(e) => Reply::Err(e),
        },
        None => Reply::Err(OmError::NotFound("state not ingested".into())),
    }
}

// ---------------------------------------------------------------------
// Cart
// ---------------------------------------------------------------------

fn make_cart_grain(customer: CustomerId) -> Box<dyn om_actor::Grain<Msg, Reply>> {
    let mut svc = CartService::new(customer);
    Box::new(move |ctx: &mut GrainContext<'_, Msg>, msg: Msg, _| match msg {
        Msg::CartAdd(item) => match svc.add_item(item) {
            Ok(()) => Reply::Ok,
            Err(e) => Reply::Err(e),
        },
        Msg::CartCheckoutEvent {
            tid,
            method,
            decline_rate_bp,
        } => match svc.begin_checkout() {
            Ok(items) => {
                let at = ctx.tick();
                ctx.send(
                    order_grain(customer),
                    Msg::OrderBeginAssembly {
                        tid,
                        expected: items.len(),
                        at,
                    },
                );
                for item in &items {
                    ctx.send(
                        stock_grain(item.product),
                        Msg::StockReserveEvent {
                            tid,
                            customer,
                            item: item.clone(),
                            method,
                            decline_rate_bp,
                        },
                    );
                }
                // Optimistic completion: the eventual binding does not
                // wait for the workflow (paper: "does not ensure all
                // actions are complete as part of a business transaction").
                svc.finish_checkout();
                Reply::Count(items.len() as u64)
            }
            Err(e) => Reply::Err(e),
        },
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
    // The sellers that delivered each order still in transit.
    let mut delivered_by: HashMap<OrderId, BTreeSet<SellerId>> = HashMap::new();
    Box::new(move |ctx: &mut GrainContext<'_, Msg>, msg: Msg, _| {
        if let Some(reply) = handle_tx_protocol(&mut part, &msg, ctx, |_, _| Ok(())) {
            return reply;
        }
        match msg {
            Msg::OrderBeginAssembly { tid, expected, at } => {
                let _ = part.mutate_committed(|s| s.begin_assembly(tid, expected, at));
                Reply::Ok
            }
            Msg::OrderStockAnswer {
                tid,
                item,
                reserved,
                method,
                decline_rate_bp,
            } => {
                let mut completed = None;
                let _ = part.mutate_committed(|s| {
                    completed = s.record_stock_answer(tid, item, reserved);
                });
                let Some(done) = completed else {
                    return Reply::Ok;
                };
                if done.confirmed.is_empty() {
                    // Entire checkout rejected by stock; nothing reserved.
                    return Reply::Ok;
                }
                let at = ctx.tick();
                let mut order = None;
                let _ = part.mutate_committed(|s| {
                    order = s.create_order(&done.confirmed, at).ok();
                });
                let Some(order) = order else {
                    return Reply::Err(OmError::Internal("order creation failed".into()));
                };
                // Seller dashboards learn of the new entries.
                for entry in order.entries(OrderStatus::Invoiced) {
                    ctx.send(seller_grain(entry.seller), Msg::SellerAddEntry(entry));
                }
                ctx.send(
                    payment_grain(customer),
                    Msg::PaymentProcessEvent {
                        tid,
                        order: order.id,
                        customer,
                        method,
                        amount: order.total_invoice(),
                        decline_rate_bp,
                        lines: order.lines(),
                    },
                );
                Reply::Ok
            }
            Msg::OrderSetStatus { order, status } => {
                let at = ctx.tick();
                let mut result = Ok(());
                let _ = part.mutate_committed(|s| {
                    result = s.set_status(order, status, at);
                });
                match result {
                    Ok(()) | Err(OmError::Conflict(_)) => Reply::Ok,
                    Err(e) => Reply::Err(e),
                }
            }
            Msg::OrderPackagesDelivered { order, seller } => {
                let placed = part.committed().orders.get(&order);
                if placed.is_some_and(|o| o.status == OrderStatus::Delivered) {
                    return Reply::Ok;
                }
                let reported = delivered_by.entry(order).or_default();
                reported.insert(seller);
                if placed.is_some_and(|o| o.items.iter().all(|i| reported.contains(&i.seller))) {
                    delivered_by.remove(&order);
                    let at = ctx.tick();
                    let _ = part.mutate_committed(|s| {
                        let _ = s.set_status(order, OrderStatus::Delivered, at);
                    });
                    ctx.send(customer_grain(customer), Msg::CustomerDelivery);
                }
                Reply::Ok
            }
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
                match part
                    .acquire(tid, LockMode::Write)
                    .and_then(|_| part.stage(tid, move |s| s.create_order(&items, at))?)
                {
                    Ok(order) => Reply::Order(order),
                    Err(e) => Reply::Err(e),
                }
            }
            Msg::TxOrderSetStatus { tid, order, status } => {
                let at = ctx.tick();
                match part
                    .acquire(tid, LockMode::Write)
                    .and_then(|_| part.stage(tid, move |s| s.set_status(order, status, at))?)
                {
                    Ok(()) => Reply::Ok,
                    Err(e) => Reply::Err(e),
                }
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
            Msg::PaymentProcessEvent {
                tid,
                order,
                customer: cust,
                method,
                amount,
                decline_rate_bp,
                lines,
            } => {
                let at = ctx.tick();
                let mut payment = None;
                let _ = part.mutate_committed(|s| {
                    payment = Some(s.process(
                        order,
                        method,
                        amount,
                        from_basis_points(decline_rate_bp),
                        at,
                    ));
                });
                let payment = payment.expect("mutate_committed ran");
                let status = payment.order_status();
                ctx.send(order_grain(cust), Msg::OrderSetStatus { order, status });
                ctx.send(
                    customer_grain(cust),
                    Msg::CustomerPaymentResult {
                        approved: payment.approved,
                        amount: payment.amount,
                    },
                );
                for line in &lines {
                    ctx.send(
                        seller_grain(line.seller),
                        Msg::SellerApplyStatus { order, status },
                    );
                }
                if payment.approved {
                    for line in &lines {
                        ctx.send(
                            stock_grain(line.product),
                            Msg::StockConfirm { qty: line.quantity },
                        );
                    }
                    // One shipment per order; group lines by seller.
                    let mut by_seller: HashMap<SellerId, Vec<OrderLineRef>> = HashMap::new();
                    for line in lines {
                        by_seller.entry(line.seller).or_default().push(line);
                    }
                    for (seller, seller_lines) in by_seller {
                        ctx.send(
                            shipment_grain(seller),
                            Msg::ShipCreatePackages {
                                tid,
                                shipment: ShipmentId(order.0),
                                order,
                                customer: cust,
                                lines: seller_lines,
                            },
                        );
                    }
                } else {
                    for line in &lines {
                        ctx.send(
                            stock_grain(line.product),
                            Msg::StockCancel { qty: line.quantity },
                        );
                    }
                }
                Reply::Payment(payment)
            }
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
                match part.acquire(tid, LockMode::Write).and_then(|_| {
                    part.stage(tid, move |s| {
                        s.process(order, method, amount, from_basis_points(decline_rate_bp), at)
                    })
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
            Msg::ShipCreatePackages {
                tid: _,
                shipment,
                order,
                customer,
                lines,
            } => {
                let at = ctx.tick();
                let mut count = 0;
                let _ = part.mutate_committed(|s| {
                    count = s
                        .create_packages(shipment, order, customer, &lines, at)
                        .len();
                });
                ctx.send(
                    order_grain(customer),
                    Msg::OrderSetStatus {
                        order,
                        status: OrderStatus::InTransit,
                    },
                );
                ctx.send(
                    seller_grain(seller),
                    Msg::SellerApplyStatus {
                        order,
                        status: OrderStatus::InTransit,
                    },
                );
                Reply::Count(count as u64)
            }
            Msg::ShipOldest => Reply::OldestUndelivered(part.committed().oldest_undelivered()),
            Msg::ShipDeliverOldest => {
                let at = ctx.tick();
                let mut delivered = None;
                let _ = part.mutate_committed(|s| {
                    delivered = s.deliver_oldest_order(at);
                });
                match delivered {
                    Some((order, pkgs)) => {
                        ctx.send(
                            order_grain(customer_of_order(order)),
                            Msg::OrderPackagesDelivered { order, seller },
                        );
                        ctx.send(
                            seller_grain(seller),
                            Msg::SellerApplyStatus {
                                order,
                                status: OrderStatus::Delivered,
                            },
                        );
                        Reply::Delivered {
                            order: Some(order),
                            packages: pkgs.len() as u32,
                        }
                    }
                    None => Reply::Delivered {
                        order: None,
                        packages: 0,
                    },
                }
            }
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
                match part.acquire(tid, LockMode::Write).and_then(|_| {
                    part.stage(tid, move |s| {
                        s.create_packages(shipment, order, customer, &lines, at).len()
                    })
                }) {
                    Ok(n) => Reply::Count(n as u64),
                    Err(e) => Reply::Err(e),
                }
            }
            Msg::TxShipDeliverOldest { tid } => {
                let at = ctx.tick();
                match part
                    .acquire(tid, LockMode::Write)
                    .and_then(|_| part.stage(tid, move |s| s.deliver_oldest_order(at)))
                {
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

/// Applies a non-transactional change to one order of the committed view
/// and stores the header plus that order's rows. A change blocked by a
/// transaction's write lock is dropped and stores nothing.
fn change_order(
    part: Option<&mut TxParticipant<SellerView>>,
    ctx: &mut GrainContext<'_, Msg>,
    seller: SellerId,
    order: OrderId,
    change: impl FnOnce(&mut SellerView),
) -> Reply {
    let Some(p) = part else {
        return Reply::Err(OmError::NotFound(format!("seller {seller}")));
    };
    let delta = SellerDelta::of(p.committed(), [order]);
    if p.mutate_committed(change).is_ok() {
        let _ = delta.store(p.committed(), ctx);
    }
    Reply::Ok
}

fn make_seller_grain(seller: SellerId, stored: StoredRows) -> Box<dyn om_actor::Grain<Msg, Reply>> {
    let mut part: Option<TxParticipant<SellerView>> = SellerView::load_all(&stored)
        .ok()
        .flatten()
        .map(TxParticipant::new);
    // The orders each open transaction staged, so its commit stores their
    // rows and nothing else.
    let mut touched: HashMap<TransactionId, BTreeSet<OrderId>> = HashMap::new();
    Box::new(move |ctx: &mut GrainContext<'_, Msg>, msg: Msg, _| {
        if let Some(p) = part.as_mut() {
            let delta = match &msg {
                Msg::TxCommit { tid } => {
                    SellerDelta::of(p.committed(), touched.remove(tid).unwrap_or_default())
                }
                Msg::TxAbort { tid } => {
                    touched.remove(tid);
                    SellerDelta::default()
                }
                _ => SellerDelta::default(),
            };
            if let Some(reply) = handle_tx_protocol(p, &msg, ctx, |v, ctx| delta.store(v, ctx)) {
                return reply;
            }
        }
        match msg {
            Msg::SellerIngest(s) => {
                let delta = part.as_ref().map_or_else(SellerDelta::default, |old| {
                    SellerDelta::replace(old.committed())
                });
                let view = SellerView::new(s);
                let _ = delta.store(&view, ctx);
                part = Some(TxParticipant::new(view));
                Reply::Ok
            }
            Msg::SellerAddEntry(entry) => {
                change_order(part.as_mut(), ctx, seller, entry.order, |v| v.add_entry(entry))
            }
            Msg::SellerApplyStatus { order, status } => {
                change_order(part.as_mut(), ctx, seller, order, |v| {
                    v.apply_status(order, status)
                })
            }
            Msg::SellerGetAggregate => match part.as_ref() {
                Some(p) => {
                    let (amount, count) = p.committed().aggregate();
                    Reply::Aggregate { amount, count }
                }
                None => Reply::Err(OmError::NotFound(format!("seller {seller}"))),
            },
            Msg::SellerGetEntries => match part.as_ref() {
                Some(p) => Reply::Entries(p.committed().entry_list()),
                None => Reply::Err(OmError::NotFound(format!("seller {seller}"))),
            },
            Msg::SellerGetProfile => {
                Reply::SellerProfile(part.as_ref().map(|p| p.committed().seller.clone()))
            }
            Msg::TxSellerAddEntry { tid, entry } => {
                let order = entry.order;
                let reply = with_tx(part.as_mut(), tid, |p, tid| {
                    p.acquire(tid, LockMode::Write)?;
                    p.stage(tid, move |v| v.add_entry(entry.clone()))
                });
                if matches!(reply, Reply::Ok) {
                    touched.entry(tid).or_default().insert(order);
                }
                reply
            }
            Msg::TxSellerApplyStatus { tid, order, status } => {
                let reply = with_tx(part.as_mut(), tid, |p, tid| {
                    p.acquire(tid, LockMode::Write)?;
                    p.stage(tid, move |v| v.apply_status(order, status))
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

fn make_customer_grain(
    customer: CustomerId,
    root: Option<Vec<u8>>,
) -> Box<dyn om_actor::Grain<Msg, Reply>> {
    let mut part: Option<TxParticipant<Customer>> =
        load_root(&StoredRows::root(root)).ok().flatten().map(TxParticipant::new);
    Box::new(move |ctx: &mut GrainContext<'_, Msg>, msg: Msg, _| {
        if let Some(p) = part.as_mut() {
            if let Some(reply) = handle_tx_protocol(p, &msg, ctx, |c, ctx| store_root(ctx, c)) {
                return reply;
            }
        }
        match msg {
            Msg::CustomerIngest(c) => {
                let _ = store_root(ctx, &c);
                part = Some(TxParticipant::new(c));
                Reply::Ok
            }
            Msg::CustomerPaymentResult { approved, amount } => match part.as_mut() {
                Some(p) => {
                    let _ = p.mutate_committed(|c| c.record_payment(approved, amount));
                    let _ = store_root(ctx, p.committed());
                    Reply::Ok
                }
                None => Reply::Err(OmError::NotFound(format!("customer {customer}"))),
            },
            Msg::CustomerDelivery => match part.as_mut() {
                Some(p) => {
                    let _ = p.mutate_committed(|c| c.delivery_count += 1);
                    let _ = store_root(ctx, p.committed());
                    Reply::Ok
                }
                None => Reply::Err(OmError::NotFound(format!("customer {customer}"))),
            },
            Msg::CustomerGet => {
                Reply::CustomerProfile(part.as_ref().map(|p| p.committed().clone()))
            }
            Msg::TxCustomerPaymentResult {
                tid,
                approved,
                amount,
            } => with_tx(part.as_mut(), tid, |p, tid| {
                p.acquire(tid, LockMode::Write)?;
                p.stage(tid, move |c| c.record_payment(approved, amount))
            }),
            other => not_mine(ctx.id(), &other),
        }
    })
}
