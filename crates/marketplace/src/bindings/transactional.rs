//! The **Orleans Transactions** binding (paper §III): ACID distributed
//! transactions over grains.
//!
//! Checkout runs as a client-coordinated transaction: every state change
//! (stock reservations, order creation, payment, seller entries, customer
//! stats, shipment packages) is staged under per-grain write locks
//! (wait-die) and made visible atomically by two-phase commit. This buys
//! the all-or-nothing criterion at the cost the paper calls
//! "considerable overhead" — measured directly by experiment E5.
//!
//! The client waits once per protocol phase, not once per grain op: each
//! phase is one [`Cluster::call_all`] fan-out, so an approved checkout is
//! nine waits whatever the size of the cart —
//!
//! 1. cart begin;
//! 2. every stock reservation;
//! 3. order creation;
//! 4. payment;
//! 5. order status (`Paid` or `PaymentFailed`), every stock
//!    confirmation (or release), every seller entry, the customer's
//!    payment stats and every shipment;
//! 6. seller and order `InTransit` (approved payments only);
//! 7. every 2PC prepare;
//! 8. every 2PC commit;
//! 9. cart finish.
//!
//! An op answered `Conflict` (wait for a lock held by a younger
//! transaction) is retried alone until it gets the lock; `TxWaitDie`
//! restarts the whole transaction under the same tid. Ops of one phase
//! that reach the same grain therefore either commute (two seller
//! entries) or target a grain the transaction already write-locked, which
//! is why `InTransit` — a status change of the entries phase 5 adds —
//! waits for its own phase.

use om_actor::tx::{Coordinator, Participants};
use om_actor::{Cluster, GrainId};
use om_common::entity::{CartItem, Customer, OrderStatus, Product, Seller, SellerDashboard};
use om_common::ids::*;
use om_common::{Money, OmError, OmResult};
use std::time::Duration;

use super::actor_core::{unexpected, ActorCore, ActorPlatformConfig};
use super::actor_grains::*;
use super::actor_msg::{Msg, Reply};
use crate::api::{
    CheckoutItem, CheckoutOutcome, CheckoutRequest, MarketSnapshot, MarketplacePlatform,
    PlatformKind,
};
use crate::domain::flow::{self, lines_by_seller, to_basis_points};
use crate::domain::order::customer_of_order;

/// How many times a transaction restarts after wait-die kills or lock
/// waits before giving up.
const MAX_TX_RESTARTS: usize = 32;
/// How many times a single lock acquire is retried while waiting.
const MAX_LOCK_RETRIES: usize = 200;
const LOCK_RETRY_SLEEP: Duration = Duration::from_micros(100);

/// The grains of one transaction as its 2PC participants: each protocol
/// message goes to all of them in one fan-out.
struct Grains<'a> {
    cluster: &'a Cluster<Msg, Reply>,
    ids: &'a [GrainId],
}

impl Grains<'_> {
    fn send(&self, msg: Msg) -> Vec<OmResult<Reply>> {
        self.cluster
            .call_all(self.ids.iter().map(|&id| (id, msg.clone())).collect())
    }
}

impl Participants for Grains<'_> {
    fn prepare(&self, tid: TransactionId) -> Vec<OmResult<bool>> {
        self.send(Msg::TxPrepare { tid })
            .into_iter()
            .map(|reply| match reply? {
                Reply::Vote(v) => Ok(v),
                Reply::Err(e) => Err(e),
                other => unexpected(other),
            })
            .collect()
    }

    fn commit(&self, tid: TransactionId) -> Vec<OmResult<()>> {
        self.send(Msg::TxCommit { tid })
            .into_iter()
            .map(|reply| reply?.ok())
            .collect()
    }

    fn abort(&self, tid: TransactionId) -> Vec<OmResult<()>> {
        self.send(Msg::TxAbort { tid })
            .into_iter()
            .map(|reply| reply?.ok())
            .collect()
    }
}

/// Outcome of a transactional Update Delivery.
#[derive(Debug, Clone, Default)]
pub struct DeliveryDetail {
    pub packages: u32,
    /// `(seller, order)` pairs whose packages were delivered.
    pub delivered_orders: Vec<(SellerId, OrderId)>,
}

/// The ACID actor platform.
pub struct TransactionalPlatform {
    core: ActorCore,
    coordinator: Coordinator,
}

impl TransactionalPlatform {
    pub fn new(config: ActorPlatformConfig) -> Self {
        Self {
            core: ActorCore::new(&config),
            coordinator: Coordinator::new(),
        }
    }

    pub fn core(&self) -> &ActorCore {
        &self.core
    }

    /// The 2PC decision log (atomicity auditing).
    pub fn tx_log(&self) -> &om_actor::tx::TxLog {
        self.coordinator.log()
    }

    /// Sends one transactional grain op, waiting out lock conflicts.
    fn tx_call(&self, id: GrainId, msg: Msg) -> OmResult<Reply> {
        let reply = self.core.cluster.call(id, msg.clone());
        self.settle(id, msg, reply)
    }

    /// Sends one phase of transactional grain ops as a single fan-out.
    /// The outcomes come back in call order; an op answered `Conflict` is
    /// retried alone ([`Self::settle`]) when its outcome is taken, so a
    /// caller that stops at the first error waits out no later conflict.
    fn tx_call_all(
        &self,
        calls: Vec<(GrainId, Msg)>,
    ) -> impl Iterator<Item = OmResult<Reply>> + '_ {
        let replies = self.core.cluster.call_all(calls.clone());
        calls
            .into_iter()
            .zip(replies)
            .map(move |((id, msg), reply)| self.settle(id, msg, reply))
    }

    /// Turns the reply to a transactional op into its outcome. A lock
    /// conflict is waited out by retrying the op alone; `Err(TxWaitDie)`
    /// and exhausted waits bubble up to restart the enclosing transaction.
    fn settle(&self, id: GrainId, msg: Msg, reply: OmResult<Reply>) -> OmResult<Reply> {
        let mut reply = reply?;
        let mut attempts = 1;
        loop {
            match reply {
                Reply::Err(OmError::Conflict(_)) if attempts < MAX_LOCK_RETRIES => {
                    self.core.counters.incr("lock_waits");
                    std::thread::sleep(LOCK_RETRY_SLEEP);
                    attempts += 1;
                    reply = self.core.cluster.call(id, msg.clone())?;
                }
                Reply::Err(OmError::Conflict(_)) => {
                    return Err(OmError::TxWaitDie("lock wait exhausted".into()))
                }
                Reply::Err(e) => return Err(e),
                reply => return Ok(reply),
            }
        }
    }

    /// Releases `tid`'s locks on every participant, in one fan-out.
    fn abort_all(&self, tid: TransactionId, participants: &[GrainId]) {
        let _ = Grains {
            cluster: &self.core.cluster,
            ids: participants,
        }
        .abort(tid);
    }

    /// One checkout attempt under `tid`. On success returns the outcome;
    /// on a retryable failure the caller restarts with the same tid
    /// (wait-die keeps its age/priority).
    fn try_checkout(
        &self,
        tid: TransactionId,
        request: &CheckoutRequest,
        items: &[CartItem],
    ) -> OmResult<CheckoutOutcome> {
        // Every grain a phase calls joins the participants before the
        // phase is sent, so a failure anywhere aborts every lock taken.
        let mut participants: Vec<GrainId> = Vec::new();
        let result = self.checkout_phases(tid, request, items, &mut participants);
        if result.is_err() {
            // Whatever failed, no lock may outlive the attempt: leaked
            // write locks would starve every later transaction on the
            // same grains.
            self.abort_all(tid, &participants);
        }
        result
    }

    /// Phases 2–8 of a checkout (see the module docs), one wait each.
    fn checkout_phases(
        &self,
        tid: TransactionId,
        request: &CheckoutRequest,
        items: &[CartItem],
        participants: &mut Vec<GrainId>,
    ) -> OmResult<CheckoutOutcome> {
        // Reserve stock under write locks.
        let reserves: Vec<(GrainId, Msg)> = items
            .iter()
            .map(|item| {
                let qty = item.quantity;
                (stock_grain(item.product), Msg::TxStockReserve { tid, qty })
            })
            .collect();
        join(participants, &reserves);
        let mut reserved: Vec<CartItem> = Vec::new();
        for (item, outcome) in items.iter().zip(self.tx_call_all(reserves)) {
            match outcome {
                Ok(Reply::Ok) => reserved.push(item.clone()),
                Err(OmError::Rejected(_)) => {
                    // Out of stock / deleted: line dropped, lock kept
                    // until the decision (the participant votes yes on
                    // an unchanged staged state).
                    self.core.counters.incr("checkout_lines_rejected");
                }
                Ok(other) => return unexpected(other),
                Err(e) => return Err(e),
            }
        }
        if reserved.is_empty() {
            // Release the write locks the failed reservations still
            // hold before surfacing the rejection.
            self.abort_all(tid, participants);
            return Ok(CheckoutOutcome::Rejected("no line could be reserved".into()));
        }

        // Create the order.
        let order_g = order_grain(request.customer);
        participants.push(order_g);
        let at = om_common::time::EventTime(self.core.cluster.clock().tick().raw());
        let order = match self.tx_call(
            order_g,
            Msg::TxOrderCreate {
                tid,
                items: reserved.clone(),
                at,
            },
        )? {
            Reply::Order(o) => o,
            other => return unexpected(other),
        };

        // Process payment.
        let payment_g = payment_grain(request.customer);
        participants.push(payment_g);
        let payment = match self.tx_call(
            payment_g,
            Msg::TxPaymentProcess {
                tid,
                order: order.id,
                method: request.method,
                amount: order.total_invoice(),
                decline_rate_bp: to_basis_points(self.core.decline_rate),
            },
        )? {
            Reply::Payment(p) => p,
            other => return unexpected(other),
        };
        let status = payment.order_status();

        // One phase for everything the payment decides: the order's
        // status, confirming or releasing the reservations, the seller
        // dashboard entries, the customer's stats and the shipments.
        let order_status = |status| Msg::TxOrderSetStatus {
            tid,
            order: order.id,
            status,
        };
        let mut effects = vec![(order_g, order_status(status))];
        for item in &reserved {
            let qty = item.quantity;
            let msg = if payment.approved {
                Msg::TxStockConfirm { tid, qty }
            } else {
                Msg::TxStockCancel { tid, qty }
            };
            effects.push((stock_grain(item.product), msg));
        }
        for entry in order.entries(status) {
            effects.push((
                seller_grain(entry.seller),
                Msg::TxSellerAddEntry { tid, entry },
            ));
        }
        let lines_by_seller = lines_by_seller(order.lines());
        effects.push((
            customer_grain(request.customer),
            Msg::TxCustomerPaymentResult {
                tid,
                approved: payment.approved,
                amount: payment.amount,
            },
        ));
        if payment.approved {
            for (&seller, lines) in &lines_by_seller {
                effects.push((
                    shipment_grain(seller),
                    Msg::TxShipCreatePackages {
                        tid,
                        shipment: ShipmentId(order.id.0),
                        order: order.id,
                        customer: request.customer,
                        lines: lines.clone(),
                    },
                ));
            }
        }
        join(participants, &effects);
        for outcome in self.tx_call_all(effects) {
            match outcome? {
                Reply::Ok | Reply::Count(_) => {}
                other => return unexpected(other),
            }
        }

        // Paid orders with shipments are in transit. The seller grains
        // are write-locked by now, so the status reaches every entry the
        // previous phase added.
        if payment.approved {
            let status = OrderStatus::InTransit;
            let mut transit: Vec<(GrainId, Msg)> = lines_by_seller
                .keys()
                .map(|&seller| {
                    let msg = Msg::TxSellerApplyStatus {
                        tid,
                        order: order.id,
                        status,
                    };
                    (seller_grain(seller), msg)
                })
                .collect();
            transit.push((order_g, order_status(status)));
            for outcome in self.tx_call_all(transit) {
                match outcome? {
                    Reply::Ok => {}
                    other => return unexpected(other),
                }
            }
        }

        // Two-phase commit: prepare everywhere, then commit everywhere.
        self.coordinator.run_2pc(
            tid,
            &Grains {
                cluster: &self.core.cluster,
                ids: participants,
            },
        )?;

        if payment.approved {
            Ok(CheckoutOutcome::Placed {
                order: Some(order.id),
                total: Some(order.total_invoice()),
            })
        } else {
            Ok(CheckoutOutcome::Rejected("payment declined".into()))
        }
    }
}

/// Adds the grains `calls` reach to `participants`, each once.
fn join(participants: &mut Vec<GrainId>, calls: &[(GrainId, Msg)]) {
    for &(id, _) in calls {
        if !participants.contains(&id) {
            participants.push(id);
        }
    }
}

impl MarketplacePlatform for TransactionalPlatform {
    fn kind(&self) -> PlatformKind {
        PlatformKind::Transactional
    }

    fn backend(&self) -> Option<om_common::config::BackendKind> {
        Some(self.core.backend)
    }

    fn is_wedged(&self) -> bool {
        self.core.cluster.storage().backend().is_wedged()
    }

    fn unwedge(&self) -> Option<OmResult<crate::api::UnwedgeOutcome>> {
        crate::api::unwedge_store(self.core.cluster.storage().backend().as_ref())
    }

    fn ingest_seller(&self, seller: Seller) -> OmResult<()> {
        self.core.ingest_seller(seller)
    }

    fn ingest_customer(&self, customer: Customer) -> OmResult<()> {
        self.core.ingest_customer(customer)
    }

    fn ingest_product(&self, product: Product, initial_stock: u32) -> OmResult<()> {
        self.core.ingest_product(product, initial_stock)
    }

    fn add_to_cart(&self, customer: CustomerId, item: CheckoutItem) -> OmResult<()> {
        self.core.add_to_cart(customer, item)
    }

    fn checkout(&self, request: CheckoutRequest) -> OmResult<CheckoutOutcome> {
        // Seal the cart and take its items.
        let items = match self
            .core
            .cluster
            .call(cart_grain(request.customer), Msg::CartBeginCheckout)?
        {
            Reply::Items(items) => items,
            Reply::Err(e) if e.label() == "rejected" => {
                return Ok(CheckoutOutcome::Rejected(e.to_string()))
            }
            Reply::Err(e) => return Err(e),
            other => return unexpected(other),
        };

        let tid = TransactionId(self.coordinator.begin().0);
        let mut restarts = 0;
        loop {
            match self.try_checkout(tid, &request, &items) {
                Ok(outcome) => {
                    self.core
                        .cluster
                        .call(cart_grain(request.customer), Msg::CartFinishCheckout)?
                        .ok()?;
                    match &outcome {
                        CheckoutOutcome::Placed { .. } => {
                            self.core.counters.incr("checkouts_committed")
                        }
                        CheckoutOutcome::Rejected(_) => {
                            self.core.counters.incr("checkouts_rejected")
                        }
                    }
                    return Ok(outcome);
                }
                Err(e) if e.is_retryable() && restarts < MAX_TX_RESTARTS => {
                    restarts += 1;
                    self.core.counters.incr("tx_restarts");
                    std::thread::sleep(LOCK_RETRY_SLEEP * restarts as u32);
                }
                Err(e) => {
                    self.core
                        .cluster
                        .call(cart_grain(request.customer), Msg::CartAbortCheckout)?
                        .ok()?;
                    self.core.counters.incr("checkouts_failed");
                    return Err(e);
                }
            }
        }
    }

    fn price_update(&self, seller: SellerId, product: ProductId, price: Money) -> OmResult<()> {
        self.core.price_update(seller, product, price)
    }

    fn product_delete(&self, seller: SellerId, product: ProductId) -> OmResult<()> {
        self.core.product_delete(seller, product)
    }

    fn update_delivery(&self, max_sellers: usize) -> OmResult<u32> {
        Ok(self.update_delivery_with_detail(max_sellers)?.packages)
    }

    fn seller_dashboard(&self, seller: SellerId) -> OmResult<SellerDashboard> {
        self.core.seller_dashboard(seller)
    }

    fn quiesce(&self) {
        self.core.quiesce();
    }

    fn snapshot(&self) -> OmResult<MarketSnapshot> {
        self.core.snapshot()
    }

    fn counters(&self) -> std::collections::BTreeMap<String, u64> {
        let mut out = self.core.counters();
        out.insert("tx_commits".into(), self.coordinator.log().commits());
        out.insert("tx_aborts".into(), self.coordinator.log().aborts());
        out
    }
}

impl TransactionalPlatform {
    /// Update Delivery as a transaction across the selected shipment
    /// grains; order/seller status propagation happens post-commit as
    /// events (the paper's tx binding cannot make those causally atomic
    /// either — shipment state is the transactional footprint). Returns
    /// the delivered `(seller, order)` detail for downstream projections
    /// (the customized binding retires MVCC entries from it).
    pub fn update_delivery_with_detail(&self, max_sellers: usize) -> OmResult<DeliveryDetail> {
        let chosen = self.core.sellers_by_oldest_undelivered(max_sellers)?;
        if chosen.is_empty() {
            return Ok(DeliveryDetail::default());
        }

        let tid = TransactionId(self.coordinator.begin().0);
        let participants: Vec<GrainId> = chosen.iter().map(|&s| shipment_grain(s)).collect();
        let calls = participants
            .iter()
            .map(|&g| (g, Msg::TxShipDeliverOldest { tid }))
            .collect();
        let mut delivered: Vec<(SellerId, OrderId, u32)> = Vec::new();
        for (&s, outcome) in chosen.iter().zip(self.tx_call_all(calls)) {
            match outcome {
                Ok(Reply::Delivered {
                    order: Some(order),
                    packages,
                }) => delivered.push((s, order, packages)),
                Ok(Reply::Delivered { order: None, .. }) => {}
                Ok(other) => {
                    self.abort_all(tid, &participants);
                    return unexpected(other);
                }
                Err(e) => {
                    self.abort_all(tid, &participants);
                    return Err(e);
                }
            }
        }
        self.coordinator.run_2pc(
            tid,
            &Grains {
                cluster: &self.core.cluster,
                ids: &participants,
            },
        )?;

        // Post-commit propagation to order and seller views.
        let mut detail = DeliveryDetail::default();
        let at = self.core.cluster.clock().tick();
        for (seller, order, n) in delivered {
            detail.packages += n;
            detail.delivered_orders.push((seller, order));
            self.core.cluster.notify(
                order_grain(customer_of_order(order)),
                Msg::Flow(flow::Msg::PackagesDelivered { order, seller, at }),
            );
            let status = OrderStatus::Delivered;
            self.core.cluster.notify(
                seller_grain(seller),
                Msg::Flow(flow::Msg::ApplyStatus { order, status }),
            );
        }
        self.core.counters.incr("update_deliveries");
        Ok(detail)
    }
}
