//! The **Orleans Transactions** binding (paper §III): ACID distributed
//! transactions over grains.
//!
//! Checkout runs as a client-coordinated transaction: every state change
//! (stock reservations, order creation, payment, seller entries, customer
//! stats, shipment packages) is staged under per-grain locks and made
//! visible atomically by two-phase commit. This buys the all-or-nothing
//! criterion at the cost the paper calls "considerable overhead" —
//! measured directly by experiment E5.
//!
//! Locking is conservative 2PL: before its first phase a transaction
//! declares every grain it may lock — a checkout its customer's order,
//! payment and customer grains and each item's stock, seller and
//! shipment grain; a delivery its chosen sellers' shipment and seller
//! grains — and [`Coordinator::admit`] lets it in once no admitted
//! transaction holds any of them. Its ops then always find their locks
//! free: no op waits, retries or restarts, and no transaction dies.
//!
//! A checkout or delivery takes its 2PC's **last agent**
//! ([`Coordinator::run_2pc`]; the Customized dashboard projection, a
//! no-op here). A delivery applies its sellers' `Delivered` status after
//! the commit, still admitted; its orders' status is still an event.
//!
//! The client waits once per protocol phase, not once per grain op: each
//! phase is one [`Cluster::call_all`] fan-out, so a checkout is eight
//! waits whatever the size of the cart —
//!
//! 1. cart begin;
//! 2. every stock reservation;
//! 3. order creation;
//! 4. payment;
//! 5. order status (`Paid` or `PaymentFailed`), every stock
//!    confirmation (or release), every seller entry, the customer's
//!    payment stats, every shipment, and then seller and order
//!    `InTransit` (approved payments only);
//! 6. every 2PC prepare, then the last agent on the calling thread;
//! 7. every 2PC commit;
//! 8. cart finish.

use om_actor::tx::{Coordinator, Participants};
use om_actor::{Cluster, GrainId};
use om_common::entity::{
    CartItem, Customer, Order, OrderStatus, Product, Seller, SellerDashboard,
};
use om_common::ids::*;
use om_common::{Money, OmError, OmResult};

use super::actor_core::{unexpected, ActorCore};
use super::actor_grains::*;
use super::actor_msg::{Msg, Reply};
use crate::api::{
    CheckoutItem, CheckoutOutcome, CheckoutRequest, MarketSnapshot, MarketplacePlatform,
    PlatformKind,
};
use crate::domain::flow::{self, lines_by_seller, to_basis_points};
use crate::domain::order::customer_of_order;
use crate::PlatformSpec;
use om_storage::StateBackend;
use std::sync::Arc;

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

/// The ACID actor platform.
pub struct TransactionalPlatform {
    core: ActorCore,
    pub(crate) coordinator: Coordinator,
}

impl TransactionalPlatform {
    pub fn new(spec: &PlatformSpec) -> Self {
        Self {
            core: ActorCore::new(spec),
            coordinator: Coordinator::new(),
        }
    }

    pub fn core(&self) -> &ActorCore {
        &self.core
    }

    /// Sends one transactional grain op.
    fn tx_call(&self, id: GrainId, msg: Msg) -> OmResult<Reply> {
        settle(self.core.cluster.call(id, msg))
    }

    /// Sends one phase of transactional grain ops as a single fan-out.
    /// The outcomes come back in call order.
    fn tx_call_all(&self, calls: Vec<(GrainId, Msg)>) -> impl Iterator<Item = OmResult<Reply>> {
        self.core.cluster.call_all(calls).into_iter().map(settle)
    }

    /// `ids` as one transaction's 2PC participants.
    fn grains<'a>(&'a self, ids: &'a [GrainId]) -> Grains<'a> {
        let cluster = &self.core.cluster;
        Grains { cluster, ids }
    }

    /// Releases `tid`'s locks on every participant, in one fan-out.
    fn abort_all(&self, tid: TransactionId, participants: &[GrainId]) {
        let _ = self.grains(participants).abort(tid);
    }

    /// The checkout transaction over the sealed cart's `items`, admitted
    /// over every grain it may lock.
    fn checkout_tx(
        &self,
        request: &CheckoutRequest,
        items: &[CartItem],
        last_agent: impl FnOnce(&Order) -> OmResult<()>,
    ) -> OmResult<CheckoutOutcome> {
        let mut declared = vec![
            order_grain(request.customer),
            payment_grain(request.customer),
            customer_grain(request.customer),
        ];
        for item in items {
            declared.extend([
                stock_grain(item.product),
                seller_grain(item.seller),
                shipment_grain(item.seller),
            ]);
        }
        let _admitted = self.coordinator.admit(&declared);
        let tid = self.coordinator.begin();
        // Every grain a phase calls joins the participants before the
        // phase is sent, so a failure anywhere aborts every lock taken.
        let mut participants: Vec<GrainId> = Vec::new();
        let result = self.checkout_phases(tid, request, items, &mut participants, last_agent);
        if result.is_err() {
            // Whatever failed, no lock may outlive the transaction.
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
        last_agent: impl FnOnce(&Order) -> OmResult<()>,
    ) -> OmResult<CheckoutOutcome> {
        // Reserve stock.
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
        // dashboard entries, the customer's stats, the shipments and, for
        // a paid order, its `InTransit` status at the sellers and the
        // order. `call_all` enqueues every message before it runs a turn,
        // so each grain takes its messages in this order.
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
                let in_transit = Msg::TxSellerApplyStatus {
                    tid,
                    order: order.id,
                    status: OrderStatus::InTransit,
                };
                effects.push((seller_grain(seller), in_transit));
            }
            effects.push((order_g, order_status(OrderStatus::InTransit)));
        }
        join(participants, &effects);
        for outcome in self.tx_call_all(effects) {
            match outcome? {
                Reply::Ok | Reply::Count(_) => {}
                other => return unexpected(other),
            }
        }

        // Two-phase commit: prepare everywhere, then a placed order's last
        // agent, then commit everywhere.
        let grains = self.grains(participants);
        if !payment.approved {
            self.coordinator.run_2pc(tid, &grains, || Ok(()))?;
            return Ok(CheckoutOutcome::Rejected("payment declined".into()));
        }
        self.coordinator.run_2pc(tid, &grains, || last_agent(&order))?;
        Ok(CheckoutOutcome::Placed {
            order: Some(order.id),
            total: Some(order.total_invoice()),
        })
    }

    /// Customer Checkout. `last_agent` is the 2PC's last agent for an
    /// approved payment: it gets the order as phase 3 created it, to be
    /// committed `InTransit` (the Customized binding projects it without
    /// reading it back), while every grain the checkout declared is held.
    pub(crate) fn checkout_with(
        &self,
        request: CheckoutRequest,
        last_agent: impl FnOnce(&Order) -> OmResult<()>,
    ) -> OmResult<CheckoutOutcome> {
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

        let cart = cart_grain(request.customer);
        match self.checkout_tx(&request, &items, last_agent) {
            Ok(outcome) => {
                self.core.cluster.call(cart, Msg::CartFinishCheckout)?.ok()?;
                self.core.counters.incr(match &outcome {
                    CheckoutOutcome::Placed { .. } => "checkouts_committed",
                    CheckoutOutcome::Rejected(_) => "checkouts_rejected",
                });
                Ok(outcome)
            }
            Err(e) => {
                self.core.cluster.call(cart, Msg::CartAbortCheckout)?.ok()?;
                self.core.counters.incr("checkouts_failed");
                Err(e)
            }
        }
    }
}

/// The outcome of a transactional op: its reply, or the error it carries.
fn settle(reply: OmResult<Reply>) -> OmResult<Reply> {
    match reply? {
        Reply::Err(e) => Err(e),
        reply => Ok(reply),
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

    fn store(&self) -> Option<&Arc<dyn StateBackend>> {
        Some(self.core.cluster.storage().backend())
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
        self.checkout_with(request, |_| Ok(()))
    }

    fn price_update(&self, seller: SellerId, product: ProductId, price: Money) -> OmResult<()> {
        self.core.price_update(seller, product, price)
    }

    fn product_delete(&self, seller: SellerId, product: ProductId) -> OmResult<()> {
        self.core.product_delete(seller, product)
    }

    fn update_delivery(&self, max_sellers: usize) -> OmResult<u32> {
        self.deliver(max_sellers, |_| Ok(()))
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
        out.insert("tx_commits".into(), self.coordinator.commits());
        out.insert("tx_aborts".into(), self.coordinator.aborts());
        out.insert("admission_waits".into(), self.coordinator.admission_waits());
        out
    }
}

impl TransactionalPlatform {
    /// Update Delivery as a transaction across the chosen sellers'
    /// shipment grains, admitted over their seller grains too. The 2PC's
    /// `last_agent` gets the delivered `(seller, order)` pairs, one order
    /// per seller (the Customized binding retires their dashboard
    /// entries). After the commit, and still admitted, the sellers apply
    /// the `Delivered` status in one fan-out; each order's
    /// `PackagesDelivered` goes on as an event, which waits at an order
    /// grain a checkout holds until its lock goes. Returns the packages
    /// delivered.
    pub(crate) fn deliver(
        &self,
        max_sellers: usize,
        last_agent: impl FnOnce(&[(SellerId, OrderId)]) -> OmResult<()>,
    ) -> OmResult<u32> {
        let chosen = self.core.sellers_by_oldest_undelivered(max_sellers)?;
        if chosen.is_empty() {
            return Ok(0);
        }

        let participants: Vec<GrainId> = chosen.iter().map(|&s| shipment_grain(s)).collect();
        let mut declared = participants.clone();
        declared.extend(chosen.iter().map(|&s| seller_grain(s)));
        let _admitted = self.coordinator.admit(&declared);
        let tid = self.coordinator.begin();
        let calls = participants
            .iter()
            .map(|&g| (g, Msg::TxShipDeliverOldest { tid }))
            .collect();
        let (mut delivered, mut packages) = (Vec::new(), 0);
        for (&s, outcome) in chosen.iter().zip(self.tx_call_all(calls)) {
            match outcome {
                Ok(Reply::Delivered { order, packages: n }) => {
                    delivered.extend(order.map(|order| (s, order)));
                    packages += n;
                }
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
        self.coordinator
            .run_2pc(tid, &self.grains(&participants), || last_agent(&delivered))?;

        let at = self.core.cluster.clock().tick();
        let status = OrderStatus::Delivered;
        let mut applied = Vec::with_capacity(delivered.len());
        for (seller, order) in delivered {
            self.core.cluster.notify(
                order_grain(customer_of_order(order)),
                Msg::Flow(flow::Msg::PackagesDelivered { order, seller, at }),
            );
            let apply = flow::Msg::ApplyStatus { order, status };
            applied.push((seller_grain(seller), Msg::Flow(apply)));
        }
        self.tx_call_all(applied).try_for_each(|reply| reply.map(drop))?;
        self.core.counters.incr("update_deliveries");
        Ok(packages)
    }
}
