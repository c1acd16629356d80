//! The marketplace workflow, written once: checkout → payment → shipment
//! → delivery, price update and product delete (paper §II).
//!
//! [`Msg`] is the one vocabulary every hop of the choreography speaks,
//! and each service's [`Step::step`] is its one handler: it applies the
//! message to the service and passes the messages it sends on, and the
//! completions it emits to clients, to an [`Outbox`]. The runtimes are
//! adapters over `step` and hold no workflow logic of their own:
//!
//! * a grain runs the step on its committed state, its context the
//!   outbox: sends become grain events (`bindings::actor_grains`);
//! * a dataflow function loads the rows the message names, runs the step
//!   with its effects as the outbox (sends become function messages,
//!   completions egress) and writes the row delta (`bindings::dataflow`).
//!
//! So a difference the benchmark measures between platforms comes from
//! the platform, not from two copies of the logic drifting apart.
//!
//! A step is a pure function of the service and the message: it reads no
//! clock, no rng and no map with a random iteration order, so two runs on
//! equal states send equal messages in the same order. Time travels in
//! the message: the origin stamps `at` once (the client's checkout, the
//! delivery request) and each hop derives its own from it (`at + 1`,
//! `at + 2`), so rows that embed a time — the shipment's open-orders
//! index keys on `shipped_at` — do not depend on how the hops were
//! scheduled. A step that answers `Err` has left its service as it was;
//! its outbox may still hold the rejection it emits.

use om_common::entity::{
    CartItem, Customer, OrderEntry, OrderStatus, PaymentMethod, Product, Seller,
};
use om_common::event::OrderLineRef;
use om_common::ids::*;
use om_common::time::EventTime;
use om_common::{Money, OmError, OmResult};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

use super::order::customer_of_order;
use super::rows::kinds;
use super::{
    CartService, OrderService, PaymentService, ProductReplica, SellerView, ShipmentService,
    StockService,
};

/// The messages of the workflow.
///
/// The dataflow's ingress log holds records of this enum, written with
/// indexed variants: the four ingests, `CartAdd`, `Checkout`,
/// `CustomerDelivery` (the recovery drill's), `PriceUpdate`,
/// `ProductDelete` and `DeliveryRequest` keep their index and fields, or
/// a restarted platform would read an older build's records as other
/// messages (`tests/ingress_records.golden` pins them). A new variant
/// goes at the end.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Msg {
    /// Product ingest; the product sends its replica on.
    IngestProduct(Product),
    /// Stock ingest, or replenishment of an ingested item.
    IngestStock { key: StockKey, qty: u32 },
    /// Seller ingest: a new, empty dashboard.
    IngestSeller(Seller),
    /// Customer ingest.
    IngestCustomer(Customer),
    /// An item added to the cart, priced at the replica's offer.
    CartAdd(CartItem),
    /// Seals the cart and starts the checkout: one stock reservation per
    /// item, collected by the order service.
    Checkout { tid: TransactionId, method: PaymentMethod, decline_rate_bp: u32, at: EventTime },
    /// Reserves one cart item; the stock answers the customer's order
    /// service.
    Reserve {
        tid: TransactionId,
        customer: CustomerId,
        item: CartItem,
        method: PaymentMethod,
        decline_rate_bp: u32,
        at: EventTime,
    },
    /// Opens the assembly of a checkout expecting `expected` answers.
    BeginAssembly { tid: TransactionId, expected: usize, at: EventTime },
    /// One stock answer; the last one places the order of the reserved
    /// items and asks for its payment.
    StockAnswer {
        tid: TransactionId,
        item: CartItem,
        reserved: bool,
        method: PaymentMethod,
        decline_rate_bp: u32,
        at: EventTime,
    },
    /// Pays an order, then settles its stock, its status, the customer's
    /// statistics, the sellers' dashboards and — approved — its shipments.
    ProcessPayment {
        tid: TransactionId,
        order: OrderId,
        method: PaymentMethod,
        amount: Money,
        decline_rate_bp: u32,
        lines: Vec<OrderLineRef>,
        at: EventTime,
    },
    /// Packs one seller's lines of a paid order.
    CreatePackages {
        shipment: ShipmentId,
        order: OrderId,
        customer: CustomerId,
        lines: Vec<OrderLineRef>,
        at: EventTime,
    },
    /// An order's status changed.
    SetStatus { order: OrderId, status: OrderStatus, at: EventTime },
    /// `seller` delivered its packages of `order`.
    PackagesDelivered { order: OrderId, seller: SellerId, at: EventTime },
    /// A new entry of the seller's dashboard.
    AddEntry(OrderEntry),
    /// An order's status, as the seller's dashboard sees it.
    ApplyStatus { order: OrderId, status: OrderStatus },
    /// A payment of the customer was processed.
    PaymentResult { approved: bool, amount: Money },
    /// An order of the customer was delivered.
    CustomerDelivery,
    /// A reservation left the warehouse.
    StockConfirm { qty: u32 },
    /// A reservation was released.
    StockCancel { qty: u32 },
    /// A seller's new price.
    PriceUpdate { price: Money },
    /// A seller deletes the product.
    ProductDelete,
    /// The product's price, replicated to the cart side.
    ReplicaUpdate { price: Money, version: u64 },
    /// The product's deletion, replicated to the cart side.
    ReplicaDelete { version: u64 },
    /// The product's deletion, replicated to its stock.
    StockDelete { version: u64 },
    /// Update Delivery, to the dataflow's delivery coordinator: deliver
    /// the oldest order of the first `max` of `sellers`.
    DeliveryRequest { tid: TransactionId, sellers: Vec<SellerId>, max: u32, at: EventTime },
    /// Coordinator → shipment: when did your oldest open order ship?
    OldestQuery { tid: TransactionId },
    /// Shipment → coordinator: the answer to [`Msg::OldestQuery`].
    OldestReply { tid: TransactionId, seller: SellerId, oldest: Option<EventTime> },
    /// Delivers the seller's oldest open order.
    DeliverOldest { tid: TransactionId, at: EventTime },
    /// Shipment → coordinator: packages [`Msg::DeliverOldest`] delivered.
    DeliverReply { tid: TransactionId, seller: SellerId, packages: u32 },
    /// A completion released to clients.
    Egress(Eg),
    /// The cart side's replica of a product, as ingested.
    ReplicaIngest(ProductReplica),
}

impl Msg {
    /// The order a message changes: the rows an adapter loads and stores
    /// for it.
    pub fn order(&self) -> Option<OrderId> {
        match self {
            Msg::AddEntry(entry) => Some(entry.order),
            Msg::ApplyStatus { order, .. }
            | Msg::SetStatus { order, .. }
            | Msg::PackagesDelivered { order, .. } => Some(*order),
            _ => None,
        }
    }
}

/// Client-visible completions: the dataflow releases them at checkpoint
/// commit; a grain's caller reads its reply instead.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Eg {
    /// A checkout finished: placed and paid, or rejected with a reason.
    CheckoutDone {
        tid: TransactionId,
        order: Option<OrderId>,
        total: Option<Money>,
        accepted: bool,
        reason: String,
    },
    /// An Update Delivery finished.
    DeliveryDone { tid: TransactionId, packages: u32 },
}

impl Eg {
    /// The transaction the completion finishes.
    pub fn tid(&self) -> TransactionId {
        match self {
            Eg::CheckoutDone { tid, .. } | Eg::DeliveryDone { tid, .. } => *tid,
        }
    }
}

/// Where a step sends on to: the grain's context or the dataflow
/// function's effects, so a step's messages go straight to its runtime.
pub trait Outbox {
    /// Sends `msg` to the service `kind` keyed by `key`.
    fn send(&mut self, kind: &'static str, key: u64, msg: Msg);

    /// Emits a completion for clients.
    fn emit(&mut self, completion: Eg);
}

/// Emits the completion of a checkout that placed no paid order.
fn reject(out: &mut impl Outbox, tid: TransactionId, order: Option<OrderId>, reason: String) {
    out.emit(Eg::CheckoutDone {
        tid,
        order,
        total: None,
        accepted: false,
        reason,
    });
}

/// A service's handler of the workflow.
pub trait Step {
    /// Applies `msg`, sending on through `out` what the service sends. The
    /// answer is the count a caller reads — items checked out, the
    /// product's new version, packages packed or delivered, a reservation
    /// made (1) — and 0 where there is none. `Err` leaves the service as
    /// it was.
    fn step(&mut self, msg: Msg, out: &mut impl Outbox) -> OmResult<u64>;
}

fn foreign(kind: &str, msg: &Msg) -> OmError {
    OmError::Internal(format!("{kind} service received foreign message {msg:?}"))
}

/// The entity behind `entity`, or `NotFound` before its ingest.
pub fn ingested<'a, S>(entity: &'a mut Option<S>, kind: &str) -> OmResult<&'a mut S> {
    entity
        .as_mut()
        .ok_or_else(|| OmError::NotFound(format!("{kind} not ingested")))
}

/// An order's lines by seller, in seller order: one shipment each.
pub fn lines_by_seller(lines: Vec<OrderLineRef>) -> BTreeMap<SellerId, Vec<OrderLineRef>> {
    let mut by_seller: BTreeMap<SellerId, Vec<OrderLineRef>> = BTreeMap::new();
    for line in lines {
        by_seller.entry(line.seller).or_default().push(line);
    }
    by_seller
}

/// The driver's decline rate as integer basis points, the form it
/// travels in (no float drift across hops).
pub fn to_basis_points(rate: f64) -> u32 {
    (rate.clamp(0.0, 1.0) * 10_000.0).round() as u32
}

/// Inverse of [`to_basis_points`].
pub fn from_basis_points(bp: u32) -> f64 {
    bp as f64 / 10_000.0
}

impl Step for Option<Product> {
    fn step(&mut self, msg: Msg, out: &mut impl Outbox) -> OmResult<u64> {
        if let Msg::IngestProduct(p) = msg {
            out.send(kinds::REPLICA, p.id.0, Msg::ReplicaIngest(ProductReplica::from(&p)));
            *self = Some(p);
            return Ok(0);
        }
        let p = ingested(self, kinds::PRODUCT)?;
        if !p.active {
            return Err(OmError::Rejected(format!("{} deleted", p.id)));
        }
        match msg {
            Msg::PriceUpdate { price } => {
                p.set_price(price);
                let version = p.version;
                out.send(kinds::REPLICA, p.id.0, Msg::ReplicaUpdate { price, version });
            }
            Msg::ProductDelete => {
                p.delete();
                let version = p.version;
                out.send(kinds::REPLICA, p.id.0, Msg::ReplicaDelete { version });
                out.send(kinds::STOCK, p.id.0, Msg::StockDelete { version });
            }
            other => return Err(foreign(kinds::PRODUCT, &other)),
        }
        Ok(p.version)
    }
}

impl Step for Option<ProductReplica> {
    fn step(&mut self, msg: Msg, _out: &mut impl Outbox) -> OmResult<u64> {
        if let Msg::ReplicaIngest(replica) = msg {
            *self = Some(replica);
            return Ok(0);
        }
        let replica = ingested(self, kinds::REPLICA)?;
        let applied = match msg {
            Msg::ReplicaUpdate { price, version } => replica.apply_update(price, version),
            Msg::ReplicaDelete { version } => replica.apply_delete(version),
            other => return Err(foreign(kinds::REPLICA, &other)),
        };
        if !applied {
            return Err(OmError::Conflict(format!(
                "stale replication event (replica at version {})",
                replica.version
            )));
        }
        Ok(replica.version)
    }
}

impl Step for Option<StockService> {
    fn step(&mut self, msg: Msg, out: &mut impl Outbox) -> OmResult<u64> {
        match msg {
            Msg::IngestStock { key, qty } => self
                .get_or_insert_with(|| StockService::new(key, 0))
                .item
                .replenish(qty)?,
            // No stock, or none to spare, answers `reserved: false`.
            Msg::Reserve {
                tid,
                customer,
                item,
                method,
                decline_rate_bp,
                at,
            } => {
                let reserved = self
                    .as_mut()
                    .is_some_and(|s| s.reserve(item.quantity).is_ok());
                let answer = Msg::StockAnswer {
                    tid,
                    item,
                    reserved,
                    method,
                    decline_rate_bp,
                    at,
                };
                out.send(kinds::ORDER, customer.0, answer);
                return Ok(reserved as u64);
            }
            msg => {
                let stock = ingested(self, kinds::STOCK)?;
                match msg {
                    Msg::StockConfirm { qty } => stock.confirm(qty),
                    Msg::StockCancel { qty } => stock.cancel(qty),
                    Msg::StockDelete { version } => stock.apply_product_delete(version),
                    other => return Err(foreign(kinds::STOCK, &other)),
                }
            }
        }
        Ok(0)
    }
}

impl Step for CartService {
    fn step(&mut self, msg: Msg, out: &mut impl Outbox) -> OmResult<u64> {
        let (tid, method, decline_rate_bp, at) = match msg {
            Msg::CartAdd(item) => return self.add_item(item).map(|()| 0),
            Msg::Checkout {
                tid,
                method,
                decline_rate_bp,
                at,
            } => (tid, method, decline_rate_bp, at),
            other => return Err(foreign(kinds::CART, &other)),
        };
        let items = self
            .begin_checkout()
            .inspect_err(|e| reject(out, tid, None, e.to_string()))?;
        let customer = self.cart.customer;
        let expected = items.len();
        out.send(kinds::ORDER, customer.0, Msg::BeginAssembly { tid, expected, at });
        for item in items {
            let stock = item.product.0;
            let reserve = Msg::Reserve {
                tid,
                customer,
                item,
                method,
                decline_rate_bp,
                at,
            };
            out.send(kinds::STOCK, stock, reserve);
        }
        // Optimistic completion: the cart does not wait for the workflow
        // (paper: Orleans Eventual "does not ensure all actions are
        // complete as part of a business transaction").
        self.finish_checkout();
        Ok(expected as u64)
    }
}

impl Step for OrderService {
    fn step(&mut self, msg: Msg, out: &mut impl Outbox) -> OmResult<u64> {
        let customer = self.customer.0;
        match msg {
            Msg::BeginAssembly { tid, expected, at } => self.begin_assembly(tid, expected, at),
            Msg::StockAnswer {
                tid,
                item,
                reserved,
                method,
                decline_rate_bp,
                at,
            } => {
                let Some(done) = self.record_stock_answer(tid, item, reserved) else {
                    return Ok(0);
                };
                if done.confirmed.is_empty() {
                    reject(out, tid, None, "no line could be reserved".into());
                    return Ok(0);
                }
                let order = match self.create_order(&done.confirmed, EventTime(at.0 + 1)) {
                    Ok(order) => order,
                    Err(e) => {
                        reject(out, tid, None, e.to_string());
                        return Ok(0);
                    }
                };
                for entry in order.entries(OrderStatus::Invoiced) {
                    out.send(kinds::SELLER, entry.seller.0, Msg::AddEntry(entry));
                }
                let payment = Msg::ProcessPayment {
                    tid,
                    order: order.id,
                    method,
                    amount: order.total_invoice(),
                    decline_rate_bp,
                    lines: order.lines(),
                    at: EventTime(at.0 + 2),
                };
                out.send(kinds::PAYMENT, customer, payment);
            }
            Msg::SetStatus { order, status, at } => self.set_status(order, status, at)?,
            Msg::PackagesDelivered { order, seller, at } => {
                if self.record_delivery(order, seller, at)? {
                    out.send(kinds::CUSTOMER, customer, Msg::CustomerDelivery);
                }
            }
            other => return Err(foreign(kinds::ORDER, &other)),
        }
        Ok(0)
    }
}

impl Step for PaymentService {
    fn step(&mut self, msg: Msg, out: &mut impl Outbox) -> OmResult<u64> {
        let Msg::ProcessPayment {
            tid,
            order,
            method,
            amount,
            decline_rate_bp,
            lines,
            at,
        } = msg
        else {
            return Err(foreign(kinds::PAYMENT, &msg));
        };
        let payment = self.process(order, method, amount, from_basis_points(decline_rate_bp), at);
        let status = payment.order_status();
        let customer = self.customer;
        let set_status = Msg::SetStatus {
            order,
            status,
            at: EventTime(at.0 + 1),
        };
        out.send(kinds::ORDER, customer.0, set_status);
        let result = Msg::PaymentResult {
            approved: payment.approved,
            amount: payment.amount,
        };
        out.send(kinds::CUSTOMER, customer.0, result);
        let by_seller = lines_by_seller(lines);
        for seller in by_seller.keys() {
            out.send(kinds::SELLER, seller.0, Msg::ApplyStatus { order, status });
        }
        for line in by_seller.values().flatten() {
            let qty = line.quantity;
            let settle = if payment.approved {
                Msg::StockConfirm { qty }
            } else {
                Msg::StockCancel { qty }
            };
            out.send(kinds::STOCK, line.product.0, settle);
        }
        if !payment.approved {
            reject(out, tid, Some(order), "payment declined".into());
            return Ok(0);
        }
        for (seller, lines) in by_seller {
            let packages = Msg::CreatePackages {
                shipment: ShipmentId(order.0),
                order,
                customer,
                lines,
                at: EventTime(at.0 + 2),
            };
            out.send(kinds::SHIPMENT, seller.0, packages);
        }
        out.emit(Eg::CheckoutDone {
            tid,
            order: Some(order),
            total: Some(payment.amount),
            accepted: true,
            reason: String::new(),
        });
        Ok(0)
    }
}

impl Step for ShipmentService {
    fn step(&mut self, msg: Msg, out: &mut impl Outbox) -> OmResult<u64> {
        let seller = self.seller;
        let (order, status, packages) = match msg {
            Msg::CreatePackages {
                shipment,
                order,
                customer,
                lines,
                at,
            } => {
                let packages = self.create_packages(shipment, order, customer, &lines, at);
                let status = OrderStatus::InTransit;
                let at = EventTime(at.0 + 1);
                out.send(kinds::ORDER, customer.0, Msg::SetStatus { order, status, at });
                (order, status, packages.len())
            }
            Msg::DeliverOldest { at, .. } => {
                let Some((order, packages)) = self.deliver_oldest_order(at) else {
                    return Ok(0);
                };
                let delivered = Msg::PackagesDelivered {
                    order,
                    seller,
                    at: EventTime(at.0 + 1),
                };
                out.send(kinds::ORDER, customer_of_order(order).0, delivered);
                (order, OrderStatus::Delivered, packages.len())
            }
            other => return Err(foreign(kinds::SHIPMENT, &other)),
        };
        out.send(kinds::SELLER, seller.0, Msg::ApplyStatus { order, status });
        Ok(packages as u64)
    }
}

impl Step for Option<SellerView> {
    fn step(&mut self, msg: Msg, _out: &mut impl Outbox) -> OmResult<u64> {
        if let Msg::IngestSeller(seller) = msg {
            *self = Some(SellerView::new(seller));
            return Ok(0);
        }
        let view = ingested(self, kinds::SELLER)?;
        match msg {
            Msg::AddEntry(entry) => view.add_entry(entry),
            Msg::ApplyStatus { order, status } => view.apply_status(order, status),
            other => return Err(foreign(kinds::SELLER, &other)),
        }
        Ok(0)
    }
}

impl Step for Option<Customer> {
    fn step(&mut self, msg: Msg, _out: &mut impl Outbox) -> OmResult<u64> {
        if let Msg::IngestCustomer(customer) = msg {
            *self = Some(customer);
            return Ok(0);
        }
        let customer = ingested(self, kinds::CUSTOMER)?;
        match msg {
            Msg::PaymentResult { approved, amount } => customer.record_payment(approved, amount),
            Msg::CustomerDelivery => customer.delivery_count += 1,
            other => return Err(foreign(kinds::CUSTOMER, &other)),
        }
        Ok(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SELLERS: u64 = 8;

    /// An outbox that keeps what a step sent, in order.
    #[derive(Debug, Default, PartialEq)]
    struct Recorded {
        sends: Vec<(&'static str, u64, Msg)>,
        egress: Vec<Eg>,
    }

    impl Outbox for Recorded {
        fn send(&mut self, kind: &'static str, key: u64, msg: Msg) {
            self.sends.push((kind, key, msg));
        }

        fn emit(&mut self, completion: Eg) {
            self.egress.push(completion);
        }
    }

    /// Runs `msg` on two clones of `state`: the states, the answers and
    /// the outboxes must come out equal, sends in the same order.
    fn deterministic<S: Step + Clone + std::fmt::Debug>(state: S, msg: Msg) -> Recorded {
        let (mut a, mut b) = (state.clone(), state);
        let (mut out_a, mut out_b) = (Recorded::default(), Recorded::default());
        let done_a = a.step(msg.clone(), &mut out_a);
        let done_b = b.step(msg, &mut out_b);
        assert_eq!(format!("{done_a:?}"), format!("{done_b:?}"));
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!(out_a, out_b);
        out_a
    }

    fn product(id: u64) -> Product {
        Product {
            id: ProductId(id),
            seller: SellerId(id % SELLERS + 1),
            name: format!("p{id}"),
            category: "c".into(),
            description: String::new(),
            price: Money::from_cents(100 + id as i64),
            freight_value: Money::from_cents(10),
            version: 0,
            active: true,
        }
    }

    fn item(id: u64) -> CartItem {
        ProductReplica::from(&product(id)).cart_line(&crate::api::CheckoutItem {
            seller: product(id).seller,
            product: ProductId(id),
            quantity: 2,
        })
    }

    /// One line from each of the sellers, so a grouping whose order
    /// depended on a hash seed would differ between the two runs.
    fn lines() -> Vec<OrderLineRef> {
        let mut orders = OrderService::new(CustomerId(3));
        let items: Vec<CartItem> = (1..=SELLERS).rev().map(item).collect();
        orders.create_order(&items, EventTime(1)).unwrap().lines()
    }

    #[test]
    fn every_step_is_a_pure_function_of_state_and_message() {
        let tid = TransactionId(5);
        let (method, decline_rate_bp, at) = (PaymentMethod::CreditCard, 0, EventTime(10));

        let out = deterministic(None::<Product>, Msg::IngestProduct(product(1)));
        assert_eq!(out.sends.len(), 1, "the replica ingest");
        deterministic(Some(product(1)), Msg::PriceUpdate { price: Money::from_cents(7) });
        deterministic(Some(product(1)), Msg::ProductDelete);
        let replica = Some(ProductReplica::from(&product(1)));
        deterministic(replica, Msg::ReplicaUpdate { price: Money::from_cents(7), version: 1 });
        let stock = Some(StockService::new(StockKey::new(SellerId(2), ProductId(1)), 5));
        let reserve = Msg::Reserve { tid, customer: CustomerId(3), item: item(1), method, decline_rate_bp, at };
        deterministic(stock, reserve);

        let mut cart = CartService::new(CustomerId(3));
        for p in 1..=SELLERS {
            cart.add_item(item(p)).unwrap();
        }
        let out = deterministic(cart, Msg::Checkout { tid, method, decline_rate_bp, at });
        assert_eq!(out.sends.len(), 1 + SELLERS as usize);

        let mut orders = OrderService::new(CustomerId(3));
        orders.begin_assembly(tid, 1, at);
        let answer = Msg::StockAnswer { tid, item: item(1), reserved: true, method, decline_rate_bp, at };
        deterministic(orders, answer);

        let payment = Msg::ProcessPayment {
            tid,
            order: OrderId(3_000_000),
            method,
            amount: Money::from_cents(1_000),
            decline_rate_bp,
            lines: lines(),
            at,
        };
        let out = deterministic(PaymentService::new(CustomerId(3)), payment);
        let shipments: Vec<u64> = out
            .sends
            .iter()
            .filter(|(kind, ..)| *kind == kinds::SHIPMENT)
            .map(|&(_, seller, _)| seller)
            .collect();
        assert_eq!(shipments, (1..=SELLERS).collect::<Vec<_>>(), "one per seller, in seller order");

        let mut shipment = ShipmentService::new(SellerId(2));
        let create = Msg::CreatePackages {
            shipment: ShipmentId(3_000_000),
            order: OrderId(3_000_000),
            customer: CustomerId(3),
            lines: lines(),
            at,
        };
        deterministic(shipment.clone(), create.clone());
        shipment.step(create, &mut Recorded::default()).unwrap();
        deterministic(shipment, Msg::DeliverOldest { tid, at });

        let entry = OrderEntry {
            order: OrderId(3_000_000),
            seller: SellerId(2),
            product: ProductId(1),
            quantity: 2,
            total_amount: Money::from_cents(202),
            status: OrderStatus::Invoiced,
        };
        let seller = Some(SellerView::new(Seller::new(SellerId(2), "s".into(), "c".into())));
        deterministic(seller, Msg::AddEntry(entry));
        let customer = Some(Customer::new(CustomerId(3), "c".into(), "a".into()));
        deterministic(customer, Msg::PaymentResult { approved: true, amount: Money::from_cents(5) });
    }

    #[test]
    fn a_payment_sends_one_status_per_seller() {
        // Three lines from two sellers: products 1 and 9 are seller 2's.
        let mut orders = OrderService::new(CustomerId(3));
        let items = [item(1), item(2), item(9)];
        let lines = orders.create_order(&items, EventTime(1)).unwrap().lines();
        for (decline_rate_bp, status) in
            [(0, OrderStatus::Paid), (10_000, OrderStatus::PaymentFailed)]
        {
            let payment = Msg::ProcessPayment {
                tid: TransactionId(5),
                order: OrderId(3_000_000),
                method: PaymentMethod::CreditCard,
                amount: Money::from_cents(1_000),
                decline_rate_bp,
                lines: lines.clone(),
                at: EventTime(10),
            };
            let mut out = Recorded::default();
            PaymentService::new(CustomerId(3)).step(payment, &mut out).unwrap();
            let to = |kind: &str| -> Vec<(u64, &Msg)> {
                out.sends.iter().filter(|s| s.0 == kind).map(|s| (s.1, &s.2)).collect()
            };
            let apply = Msg::ApplyStatus { order: OrderId(3_000_000), status };
            assert_eq!(to(kinds::SELLER), [(2, &apply), (3, &apply)], "{status:?}");
            assert_eq!(to(kinds::STOCK).len(), 3, "one settlement per line");
        }
    }

    #[test]
    fn a_step_that_fails_changes_nothing() {
        let mut deleted = Some(product(1));
        deleted.as_mut().unwrap().delete();
        let before = format!("{deleted:?}");
        let mut out = Recorded::default();
        assert!(deleted.step(Msg::PriceUpdate { price: Money::ZERO }, &mut out).is_err());
        assert_eq!(format!("{deleted:?}"), before);
        assert!(out.sends.is_empty());

        let mut cart = CartService::new(CustomerId(3));
        let checkout = Msg::Checkout {
            tid: TransactionId(5),
            method: PaymentMethod::Boleto,
            decline_rate_bp: 0,
            at: EventTime(1),
        };
        assert_eq!(cart.step(checkout, &mut out).unwrap_err().label(), "rejected");
        assert!(out.sends.is_empty());
        assert!(
            matches!(&out.egress[..], [Eg::CheckoutDone { accepted: false, .. }]),
            "the rejection is emitted: {:?}",
            out.egress
        );
    }

    #[test]
    fn basis_point_roundtrip() {
        for rate in [0.0, 0.05, 0.5, 1.0] {
            assert!((from_basis_points(to_basis_points(rate)) - rate).abs() < 1e-9);
        }
        assert_eq!(to_basis_points(-1.0), 0);
        assert_eq!(to_basis_points(2.0), 10_000);
    }
}
