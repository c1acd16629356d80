//! The actor bindings' row-keyed seller grain, end to end: a seller grain's
//! storage commit costs the order it touched, not the seller's history —
//! and storing the view as a header plus one entry row per order (the
//! order's entry page) changed no dashboard.
//!
//! Each actor binding (Eventual, Transactional, Customized) persists its
//! grains through a recording in-memory backend while one thread
//! drives 2 000 checkouts (Zipf over 100 products of 10 sellers, 200
//! customers, one `update_delivery` per 20 checkouts). The seller half of
//! the same operation stream is applied, one operation after another, to
//! plain `SellerView`s; every seller's dashboard must agree with that model
//! before and after a cold rebuild over the same backend instance.

use om_common::config::BackendKind;
use om_common::entity::{
    CartItem, Customer, OrderEntry, OrderStatus, PaymentMethod, Product, Seller, SellerDashboard,
};
use om_common::ids::{CustomerId, OrderId, ProductId, SellerId, TransactionId};
use om_common::rng::{SplitMix64, Zipfian};
use om_common::time::EventTime;
use om_common::Money;
use om_marketplace::api::*;
use om_marketplace::bindings::actor_core::ActorCore;
use om_marketplace::bindings::actor_grains::seller_grain;
use om_marketplace::bindings::actor_msg::{Msg, Reply};
use om_marketplace::domain::{payment_decision, CartService, OrderService, SellerView};
use om_marketplace::{CustomizedPlatform, EventualPlatform, PlatformSpec, TransactionalPlatform};
use om_storage::{StateBackend, WriteOp};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

mod common;
use common::{commit_totals, RecordingBackend, Write, WritePath};

const SELLERS: u64 = 10;
const PRODUCTS: u64 = 100;
const CUSTOMERS: u64 = 200;
const CHECKOUTS: u64 = 2_000;
const DECLINE_RATE: f64 = 0.05;

const SELLER_PREFIX: &[u8] = b"seller/";
/// `seller/` plus the grain's big-endian key: a longer key is a row.
const SELLER_HEADER_LEN: usize = SELLER_PREFIX.len() + 8;

/// The seller grains' saves among `writes`: a grain's save is one commit
/// over that grain's keys only.
fn seller_commits(writes: &[Write]) -> impl Iterator<Item = &Write> {
    writes.iter().filter(|w| {
        w.path == WritePath::Commit
            && w.ops
                .first()
                .is_some_and(|op| op.key.starts_with(SELLER_PREFIX))
    })
}

/// The entry rows the seller grains' saves among `writes` wrote.
fn seller_rows(writes: &[Write]) -> Vec<WriteOp> {
    seller_commits(writes)
        .flat_map(|w| &w.ops)
        .filter(|op| op.key.len() > SELLER_HEADER_LEN)
        .cloned()
        .collect()
}

/// One of the three actor bindings, with its grain core in reach.
enum Actor {
    Eventual(EventualPlatform),
    Transactional(TransactionalPlatform),
    Customized(CustomizedPlatform),
}

impl Actor {
    fn build(kind: PlatformKind, backend: Arc<RecordingBackend>) -> Self {
        // Parallelism 4: two silos of two workers.
        let spec = PlatformSpec::new(kind, backend.kind())
            .decline_rate(DECLINE_RATE)
            .backend_instance(backend as Arc<dyn StateBackend>);
        match kind {
            PlatformKind::Eventual => Actor::Eventual(EventualPlatform::new(&spec)),
            PlatformKind::Transactional => Actor::Transactional(TransactionalPlatform::new(&spec)),
            PlatformKind::Customized => Actor::Customized(CustomizedPlatform::new(&spec)),
            PlatformKind::Dataflow => unreachable!("not an actor binding"),
        }
    }

    fn platform(&self) -> &dyn MarketplacePlatform {
        match self {
            Actor::Eventual(p) => p,
            Actor::Transactional(p) => p,
            Actor::Customized(p) => p,
        }
    }

    fn core(&self) -> &ActorCore {
        match self {
            Actor::Eventual(p) => p.core(),
            Actor::Transactional(p) => p.core(),
            Actor::Customized(p) => p.inner().core(),
        }
    }

    /// Every seller's dashboard as the seller grain answers it.
    fn grain_dashboards(&self) -> Vec<SellerDashboard> {
        (1..=SELLERS)
            .map(|s| self.core().seller_dashboard(SellerId(s)).unwrap())
            .collect()
    }
}

fn seller_of(product: u64) -> u64 {
    (product - 1) % SELLERS + 1
}

fn product(id: u64) -> Product {
    Product {
        id: ProductId(id),
        seller: SellerId(seller_of(id)),
        name: format!("product-{id}"),
        category: "test".into(),
        description: String::new(),
        price: Money::from_cents(100 + id as i64),
        freight_value: Money::from_cents(10),
        version: 0,
        active: true,
    }
}

fn seller(id: u64) -> Seller {
    Seller::new(SellerId(id), format!("seller-{id}"), "city".into())
}

fn customer(id: u64) -> Customer {
    Customer::new(CustomerId(id), format!("customer-{id}"), "addr".into())
}

fn ingest(platform: &dyn MarketplacePlatform) {
    for s in 1..=SELLERS {
        platform.ingest_seller(seller(s)).unwrap();
    }
    for c in 1..=CUSTOMERS {
        platform.ingest_customer(customer(c)).unwrap();
    }
    for p in 1..=PRODUCTS {
        platform.ingest_product(product(p), 1_000_000).unwrap();
    }
    platform.quiesce();
}

/// One workload operation.
enum Op {
    Checkout {
        customer: u64,
        lines: Vec<(u64, u32)>,
    },
    UpdateDelivery,
}

fn op_stream() -> Vec<Op> {
    let mut rng = SplitMix64::new(34);
    let zipf = Zipfian::new(PRODUCTS, 0.99);
    let mut ops = Vec::new();
    for n in 1..=CHECKOUTS {
        let lines = (0..rng.range_inclusive(1, 5))
            .map(|_| (zipf.sample(&mut rng) + 1, rng.range_inclusive(1, 3) as u32))
            .collect();
        ops.push(Op::Checkout {
            customer: rng.range_inclusive(1, CUSTOMERS),
            lines,
        });
        if n % 20 == 0 {
            ops.push(Op::UpdateDelivery);
        }
    }
    ops
}

/// The seller views the workflow leaves behind, applied one operation
/// after another: each entry is added as invoiced and the payment's
/// outcome applied to it, which retires the entries of a declined order.
/// The transactional bindings stage the entry with the outcome as its
/// status instead, and a view keeps only in-progress entries, so every
/// binding ends at the same view.
struct Model {
    carts: BTreeMap<u64, CartService>,
    orders: BTreeMap<u64, OrderService>,
    sellers: BTreeMap<u64, SellerView>,
    /// Per seller, its shipped orders oldest first.
    shipped: BTreeMap<u64, VecDeque<OrderId>>,
}

impl Model {
    fn new() -> Self {
        Self {
            carts: BTreeMap::new(),
            orders: BTreeMap::new(),
            sellers: (1..=SELLERS)
                .map(|s| (s, SellerView::new(seller(s))))
                .collect(),
            shipped: BTreeMap::new(),
        }
    }

    fn checkout(&mut self, customer: u64, lines: &[(u64, u32)]) {
        let cust = CustomerId(customer);
        let cart = self
            .carts
            .entry(customer)
            .or_insert_with(|| CartService::new(cust));
        for &(p, quantity) in lines {
            let product = product(p);
            cart.add_item(CartItem {
                seller: product.seller,
                product: product.id,
                quantity,
                unit_price: product.price,
                freight_value: product.freight_value,
                product_version: 0,
            })
            .unwrap();
        }
        let items = cart.begin_checkout().unwrap();
        cart.finish_checkout();
        let order = self
            .orders
            .entry(customer)
            .or_insert_with(|| OrderService::new(cust))
            .create_order(&items, EventTime(0))
            .unwrap();
        let approved = payment_decision(order.id, DECLINE_RATE);
        let outcome = if approved {
            OrderStatus::Paid
        } else {
            OrderStatus::PaymentFailed
        };
        for item in &order.items {
            self.sellers
                .get_mut(&item.seller.0)
                .unwrap()
                .add_entry(OrderEntry {
                    order: order.id,
                    seller: item.seller,
                    product: item.product,
                    quantity: item.quantity,
                    total_amount: item.total_amount,
                    status: OrderStatus::Invoiced,
                });
        }
        let sellers: BTreeSet<u64> = order.items.iter().map(|i| i.seller.0).collect();
        for &s in &sellers {
            let view = self.sellers.get_mut(&s).unwrap();
            view.apply_status(order.id, outcome);
            if approved {
                view.apply_status(order.id, OrderStatus::InTransit);
                self.shipped.entry(s).or_default().push_back(order.id);
            }
        }
    }

    /// `update_delivery` over every seller: each delivers its oldest
    /// shipped order.
    fn update_delivery(&mut self) {
        for (s, queue) in &mut self.shipped {
            if let Some(order) = queue.pop_front() {
                self.sellers
                    .get_mut(s)
                    .unwrap()
                    .apply_status(order, OrderStatus::Delivered);
            }
        }
    }

    fn dashboards(&self) -> Vec<SellerDashboard> {
        self.sellers.values().map(SellerView::dashboard).collect()
    }
}

fn seller_commits_cost_the_delta_and_survive_a_cold_rebuild(kind: PlatformKind) {
    let backend_kind = if kind == PlatformKind::Eventual {
        BackendKind::Eventual
    } else {
        BackendKind::SnapshotIsolation
    };
    let backend = RecordingBackend::new(backend_kind);
    let actor = Actor::build(kind, backend.clone());
    let platform = actor.platform();
    ingest(platform);

    let mut model = Model::new();
    let mut placed = 0u64;
    // Length of the write log when the n-th checkout had been placed.
    let mut marks: BTreeMap<u64, usize> = BTreeMap::new();
    for op in op_stream() {
        match op {
            Op::Checkout { customer, lines } => {
                for &(p, quantity) in &lines {
                    platform
                        .add_to_cart(
                            CustomerId(customer),
                            CheckoutItem {
                                seller: SellerId(seller_of(p)),
                                product: ProductId(p),
                                quantity,
                            },
                        )
                        .unwrap();
                }
                platform
                    .checkout(CheckoutRequest {
                        customer: CustomerId(customer),
                        items: vec![],
                        method: PaymentMethod::CreditCard,
                    })
                    .unwrap();
                model.checkout(customer, &lines);
                placed += 1;
                platform.quiesce();
                marks.insert(placed, backend.log().len());
            }
            Op::UpdateDelivery => {
                platform.update_delivery(SELLERS as usize).unwrap();
                model.update_delivery();
                platform.quiesce();
            }
        }
    }

    // O(delta): a seller commit late in the run costs what one early in
    // the run did, although every seller holds ten times the history.
    let mean_commit_bytes = |from: u64, to: u64| {
        let log = backend.log();
        let (commits, bytes) = commit_totals(seller_commits(&log[marks[&from]..marks[&to]]));
        bytes as f64 / commits as f64
    };
    let early = mean_commit_bytes(100, 300);
    let late = mean_commit_bytes(1_800, 2_000);
    assert!(
        (late / early - 1.0).abs() <= 0.20,
        "{kind:?}: bytes per seller commit drifted with accumulated state: {early:.0} B over \
         orders 100-300, {late:.0} B over orders 1800-2000"
    );
    assert!(late < 1_024.0, "{kind:?}: {late:.0} B per seller commit");

    let expected = model.dashboards();
    let before = actor.grain_dashboards();
    assert_eq!(before, expected, "{kind:?}: dashboards against the model");
    let public_before: Vec<SellerDashboard> = (1..=SELLERS)
        .map(|s| platform.seller_dashboard(SellerId(s)).unwrap())
        .collect();

    // Cold rebuild: a new platform over the same backend instance
    // reactivates every seller grain from its header and entry rows.
    drop(actor);
    let rebuilt = Actor::build(kind, backend.clone());
    assert_eq!(
        *rebuilt.core().catalog.sellers.read(),
        (1..=SELLERS).map(SellerId).collect::<Vec<_>>()
    );
    assert_eq!(
        rebuilt.grain_dashboards(),
        before,
        "{kind:?}: dashboards after a cold rebuild"
    );
    let public_after: Vec<SellerDashboard> = (1..=SELLERS)
        .map(|s| rebuilt.platform().seller_dashboard(SellerId(s)).unwrap())
        .collect();
    assert_eq!(
        public_after, public_before,
        "{kind:?}: the platform's own dashboards"
    );
}

#[test]
fn eventual_seller_commits_cost_the_delta_and_survive_a_cold_rebuild() {
    seller_commits_cost_the_delta_and_survive_a_cold_rebuild(PlatformKind::Eventual);
}

#[test]
fn transactional_seller_commits_cost_the_delta_and_survive_a_cold_rebuild() {
    seller_commits_cost_the_delta_and_survive_a_cold_rebuild(PlatformKind::Transactional);
}

#[test]
fn customized_seller_commits_cost_the_delta_and_survive_a_cold_rebuild() {
    seller_commits_cost_the_delta_and_survive_a_cold_rebuild(PlatformKind::Customized);
}

#[test]
fn an_aborted_transaction_writes_no_seller_row() {
    let backend = RecordingBackend::new(BackendKind::SnapshotIsolation);
    let actor = Actor::build(PlatformKind::Transactional, backend.clone());
    ingest(actor.platform());
    let cluster = &actor.core().cluster;
    let grain = seller_grain(SellerId(1));
    let entry = |order: u64| OrderEntry {
        order: OrderId(order),
        seller: SellerId(1),
        product: ProductId(1),
        quantity: 2,
        total_amount: Money::from_cents(500),
        status: OrderStatus::Paid,
    };
    let call = |msg: Msg| -> Reply { cluster.call(grain, msg).unwrap() };
    let rows_before = seller_rows(&backend.log()).len();

    // Staged, then aborted: nothing reaches storage.
    let aborted = TransactionId(1_000_001);
    assert!(matches!(
        call(Msg::TxSellerAddEntry {
            tid: aborted,
            entry: entry(77)
        }),
        Reply::Ok
    ));
    assert!(matches!(call(Msg::TxAbort { tid: aborted }), Reply::Ok));
    actor.platform().quiesce();
    assert_eq!(
        seller_rows(&backend.log()).len(),
        rows_before,
        "an abort stores no row"
    );

    // A later commit stores its own order's row and not the aborted one.
    let committed = TransactionId(1_000_002);
    assert!(matches!(
        call(Msg::TxSellerAddEntry {
            tid: committed,
            entry: entry(78)
        }),
        Reply::Ok
    ));
    assert!(matches!(
        call(Msg::TxPrepare { tid: committed }),
        Reply::Vote(true)
    ));
    assert!(matches!(call(Msg::TxCommit { tid: committed }), Reply::Ok));
    actor.platform().quiesce();
    let rows = seller_rows(&backend.log())[rows_before..].to_vec();
    assert_eq!(rows.len(), 1, "one row: {rows:?}");
    let mut key = SELLER_PREFIX.to_vec();
    key.extend_from_slice(&1u64.to_be_bytes());
    key.push(b'e');
    key.extend_from_slice(&78u64.to_be_bytes());
    assert_eq!(rows[0].key, key);
    assert!(rows[0].value.is_some());

    let dashboard = actor.core().seller_dashboard(SellerId(1)).unwrap();
    assert_eq!(dashboard.entries, vec![entry(78)]);
    drop(actor);
    let rebuilt = Actor::build(PlatformKind::Transactional, backend);
    assert_eq!(
        rebuilt.core().seller_dashboard(SellerId(1)).unwrap(),
        dashboard
    );
}
