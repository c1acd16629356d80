//! The dataflow binding's row-keyed function state, end to end: a
//! checkpoint commit costs what the epoch changed, not what the functions
//! have accumulated — and re-keying the aggregates changed no business
//! outcome.
//!
//! A `DataflowPlatform` checkpoints through a `BackendCheckpointStore`
//! over a byte-counting in-memory backend while one thread drives 2 000
//! checkouts (Zipf over 100 products of 10 sellers, 200 customers, one
//! `update_delivery` per 20 checkouts). The same operation stream is
//! applied, one operation after another, to the plain domain services;
//! `snapshot()` and every seller's dashboard must agree with that model.

use om_common::config::BackendKind;
use om_common::entity::{
    CartItem, Customer, Order, OrderEntry, OrderStatus, PaymentMethod, Product, Seller, SellerDashboard,
};
use om_common::event::OrderLineRef;
use om_common::ids::{CustomerId, ProductId, SellerId, ShipmentId, StockKey};
use om_common::rng::{SplitMix64, Zipfian};
use om_common::time::EventTime;
use om_common::{Money, OmResult};
use om_dataflow::BackendCheckpointStore;
use om_marketplace::api::*;
use om_marketplace::bindings::dataflow::{DataflowPlatform, DataflowPlatformConfig};
use om_marketplace::domain::{
    CartService, OrderService, PaymentService, SellerView, ShipmentService, StockService,
};
use om_storage::{make_backend, StateBackend, StateSession, WriteBatch, WriteOp};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const SELLERS: u64 = 10;
const PRODUCTS: u64 = 100;
const CUSTOMERS: u64 = 200;
const CHECKOUTS: u64 = 2_000;
const DECLINE_RATE: f64 = 0.05;

/// A memory backend that counts the commits it takes and their bytes
/// (keys + values), so the test can read the cost of a window of epochs.
struct CountingBackend {
    inner: Arc<dyn StateBackend>,
    commits: AtomicU64,
    bytes: AtomicU64,
}

impl CountingBackend {
    fn count(&self, ops: &[WriteOp]) {
        let bytes: usize = ops
            .iter()
            .map(|op| op.key.len() + op.value.as_ref().map_or(0, Vec::len))
            .sum();
        self.commits.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    fn totals(&self) -> (u64, u64) {
        (
            self.commits.load(Ordering::Relaxed),
            self.bytes.load(Ordering::Relaxed),
        )
    }
}

impl StateBackend for CountingBackend {
    fn kind(&self) -> BackendKind {
        self.inner.kind()
    }
    fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.inner.get(key)
    }
    fn put(&self, key: &[u8], value: &[u8]) {
        self.inner.put(key, value)
    }
    fn delete(&self, key: &[u8]) {
        self.inner.delete(key)
    }
    fn get_many(&self, keys: &[&[u8]]) -> Vec<Option<Vec<u8>>> {
        self.inner.get_many(keys)
    }
    fn scan_prefix(&self, prefix: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        self.inner.scan_prefix(prefix)
    }
    fn commit(&self, batch: WriteBatch) -> OmResult<usize> {
        self.count(batch.ops());
        self.inner.commit(batch)
    }
    fn commit_ops(&self, ops: &[WriteOp]) -> OmResult<usize> {
        self.count(ops);
        self.inner.commit_ops(ops)
    }
    fn session(&self) -> Box<dyn StateSession + '_> {
        self.inner.session()
    }
    fn quiesce(&self) {
        self.inner.quiesce()
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn counters(&self) -> BTreeMap<String, u64> {
        self.inner.counters()
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

/// One driver operation.
enum Op {
    Checkout {
        customer: u64,
        lines: Vec<(u64, u32)>,
        method: PaymentMethod,
    },
    UpdateDelivery,
}

fn op_stream() -> Vec<Op> {
    let mut rng = SplitMix64::new(18);
    let zipf = Zipfian::new(PRODUCTS, 0.99);
    let mut ops = Vec::new();
    for n in 1..=CHECKOUTS {
        let lines = (0..rng.range_inclusive(1, 5))
            .map(|_| (zipf.sample(&mut rng) + 1, rng.range_inclusive(1, 3) as u32))
            .collect();
        ops.push(Op::Checkout {
            customer: rng.range_inclusive(1, CUSTOMERS),
            lines,
            method: if rng.chance(0.3) {
                PaymentMethod::Voucher
            } else {
                PaymentMethod::CreditCard
            },
        });
        if n % 20 == 0 {
            ops.push(Op::UpdateDelivery);
        }
    }
    ops
}

/// The same workflow on the plain domain services, one operation after
/// another: what any binding must end up with when nothing is lost,
/// duplicated or reordered. Event times follow the dataflow topology's
/// hops (order +1, payment +2, paid +3, shipped +4, in transit +5).
struct Model {
    clock: u64,
    products: BTreeMap<u64, Product>,
    stock: BTreeMap<u64, StockService>,
    carts: BTreeMap<u64, CartService>,
    orders: BTreeMap<u64, OrderService>,
    payments: BTreeMap<u64, PaymentService>,
    customers: BTreeMap<u64, Customer>,
    shipments: BTreeMap<u64, ShipmentService>,
    sellers: BTreeMap<u64, SellerView>,
}

impl Model {
    fn new() -> Self {
        Self {
            clock: 0,
            products: (1..=PRODUCTS).map(|p| (p, product(p))).collect(),
            stock: (1..=PRODUCTS)
                .map(|p| {
                    let key = StockKey::new(SellerId(seller_of(p)), ProductId(p));
                    (p, StockService::new(key, 1_000_000))
                })
                .collect(),
            carts: BTreeMap::new(),
            orders: BTreeMap::new(),
            payments: BTreeMap::new(),
            customers: (1..=CUSTOMERS).map(|c| (c, customer(c))).collect(),
            shipments: (1..=SELLERS)
                .map(|s| (s, ShipmentService::new(SellerId(s))))
                .collect(),
            sellers: (1..=SELLERS)
                .map(|s| (s, SellerView::new(seller(s))))
                .collect(),
        }
    }

    fn checkout(&mut self, customer: u64, lines: &[(u64, u32)], method: PaymentMethod) {
        let cust = CustomerId(customer);
        let cart = self
            .carts
            .entry(customer)
            .or_insert_with(|| CartService::new(cust));
        for &(p, quantity) in lines {
            cart.add_item(CartItem {
                seller: SellerId(seller_of(p)),
                product: ProductId(p),
                quantity,
                unit_price: self.products[&p].price,
                freight_value: self.products[&p].freight_value,
                product_version: 0,
            })
            .unwrap();
        }
        self.clock += 1;
        let at = self.clock;
        let items = cart.begin_checkout().unwrap();
        cart.finish_checkout();
        let orders = self
            .orders
            .entry(customer)
            .or_insert_with(|| OrderService::new(cust));
        let confirmed: Vec<CartItem> = items
            .into_iter()
            .filter(|i| self.stock.get_mut(&i.product.0).unwrap().reserve(i.quantity).is_ok())
            .collect();
        let order = orders.create_order(&confirmed, EventTime(at + 1)).unwrap();
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
        let payment = self
            .payments
            .entry(customer)
            .or_insert_with(|| PaymentService::new(cust))
            .process(
                order.id,
                method,
                order.total_invoice(),
                DECLINE_RATE,
                EventTime(at + 2),
            );
        let status = if payment.approved {
            OrderStatus::Paid
        } else {
            OrderStatus::PaymentFailed
        };
        orders.set_status(order.id, status, EventTime(at + 3)).unwrap();
        let profile = self.customers.get_mut(&customer).unwrap();
        if payment.approved {
            profile.success_payment_count += 1;
            profile.total_spent += payment.amount;
        } else {
            profile.failed_payment_count += 1;
        }
        for item in &order.items {
            self.sellers
                .get_mut(&item.seller.0)
                .unwrap()
                .apply_status(order.id, status);
            let stock = self.stock.get_mut(&item.product.0).unwrap();
            if payment.approved {
                stock.confirm(item.quantity);
            } else {
                stock.cancel(item.quantity);
            }
        }
        if !payment.approved {
            return;
        }
        let lines: Vec<OrderLineRef> = order
            .items
            .iter()
            .map(|i| OrderLineRef {
                seller: i.seller,
                product: i.product,
                quantity: i.quantity,
                total_amount: i.total_amount,
                freight_value: i.freight_value,
            })
            .collect();
        for s in 1..=SELLERS {
            let created = self.shipments.get_mut(&s).unwrap().create_packages(
                ShipmentId(order.id.0),
                order.id,
                cust,
                &lines,
                EventTime(at + 4),
            );
            if !created.is_empty() {
                let _ = orders.set_status(order.id, OrderStatus::InTransit, EventTime(at + 5));
                self.sellers
                    .get_mut(&s)
                    .unwrap()
                    .apply_status(order.id, OrderStatus::InTransit);
            }
        }
    }

    fn update_delivery(&mut self, max_sellers: usize) -> u32 {
        self.clock += 1;
        let at = self.clock;
        let mut ranked: Vec<(EventTime, u64)> = self
            .shipments
            .iter()
            .filter_map(|(s, svc)| svc.oldest_undelivered().map(|t| (t, *s)))
            .collect();
        ranked.sort();
        let mut packages = 0;
        for (_, s) in ranked.into_iter().take(max_sellers) {
            let (order, pkgs) = self
                .shipments
                .get_mut(&s)
                .unwrap()
                .deliver_oldest_order(EventTime(at))
                .unwrap();
            packages += pkgs.len() as u32;
            let customer = order.0 / om_marketplace::domain::order::ORDERS_PER_CUSTOMER;
            let orders = self.orders.get_mut(&customer).unwrap();
            if orders.record_delivery(order, SellerId(s), EventTime(at + 1)).unwrap() {
                self.customers.get_mut(&customer).unwrap().delivery_count += 1;
            }
            self.sellers
                .get_mut(&s)
                .unwrap()
                .apply_status(order, OrderStatus::Delivered);
        }
        packages
    }

    fn dashboard(&self, seller: u64) -> SellerDashboard {
        self.sellers[&seller].dashboard()
    }
}

fn sorted<T, K: Ord>(mut items: Vec<T>, key: impl Fn(&T) -> K) -> Vec<T> {
    items.sort_by_key(key);
    items
}

#[test]
fn checkpoint_commits_cost_the_delta_and_outcomes_match_the_domain_model() {
    let backend = Arc::new(CountingBackend {
        inner: make_backend(BackendKind::SnapshotIsolation, 8),
        commits: AtomicU64::new(0),
        bytes: AtomicU64::new(0),
    });
    let platform = DataflowPlatform::new(DataflowPlatformConfig {
        partitions: 2,
        workers: 1,
        decline_rate: DECLINE_RATE,
        checkpoint_store: Some(Arc::new(BackendCheckpointStore::new(backend.clone()))),
        ..Default::default()
    });
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

    let mut model = Model::new();
    let mut placed = 0u64;
    // (commits, bytes) when the n-th checkout had been placed.
    let mut marks: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    for op in op_stream() {
        match op {
            Op::Checkout {
                customer,
                lines,
                method,
            } => {
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
                        method,
                    })
                    .unwrap();
                model.checkout(customer, &lines, method);
                placed += 1;
                platform.quiesce();
                marks.insert(placed, backend.totals());
            }
            Op::UpdateDelivery => {
                let delivered = platform.update_delivery(10).unwrap();
                assert_eq!(delivered, model.update_delivery(10), "after {placed} checkouts");
            }
        }
    }
    platform.quiesce();

    // O(delta): a commit late in the run costs what one early in the run
    // did, although every function instance holds ten times the history.
    let mean_commit_bytes = |from: u64, to: u64| {
        let (c0, b0) = marks[&from];
        let (c1, b1) = marks[&to];
        (b1 - b0) as f64 / (c1 - c0) as f64
    };
    let early = mean_commit_bytes(100, 300);
    let late = mean_commit_bytes(1_800, 2_000);
    assert!(
        (late / early - 1.0).abs() <= 0.20,
        "bytes per checkpoint commit drifted with accumulated state: {early:.0} B over orders \
         100-300, {late:.0} B over orders 1800-2000"
    );
    assert!(late < 8_192.0, "{late:.0} B per checkpoint commit");

    // Same outcomes as the domain services applied sequentially.
    let snap = platform.snapshot().unwrap();
    assert_eq!(snap.stuck_assemblies, 0);
    // Stock answers reach the order function in partition order, not cart
    // order, so an order's lines are compared as a set.
    let by_product = |mut order: Order| {
        order.items.sort_by_key(|i| i.product);
        order
    };
    assert_eq!(
        sorted(snap.orders.into_iter().map(by_product).collect(), |o| o.id),
        model
            .orders
            .values()
            .flat_map(|svc| svc.orders.values().cloned())
            .map(by_product)
            .collect::<Vec<_>>(),
    );
    assert_eq!(
        sorted(snap.payments, |p| p.id),
        model
            .payments
            .values()
            .flat_map(|svc| svc.payments.values().cloned())
            .collect::<Vec<_>>(),
    );
    assert_eq!(
        sorted(snap.customers, |c| c.id),
        model.customers.values().cloned().collect::<Vec<_>>(),
    );
    assert_eq!(
        sorted(snap.sellers, |s| s.id),
        model
            .sellers
            .values()
            .map(|v| v.seller.clone())
            .collect::<Vec<_>>(),
    );
    assert_eq!(
        sorted(snap.stock, |s| s.item.key.product),
        model
            .stock
            .values()
            .map(|s| StockSnapshot {
                item: s.item.clone(),
                qty_sold: s.qty_sold,
            })
            .collect::<Vec<_>>(),
    );
    let package_key = |p: &PackageSnapshot| (p.seller, p.order, p.product);
    assert_eq!(
        sorted(snap.shipments, package_key),
        sorted(
            model
                .shipments
                .values()
                .flat_map(|svc| svc.packages.iter())
                .map(|p| PackageSnapshot {
                    order: p.order,
                    seller: p.seller,
                    product: p.product,
                    delivered: p.status == om_common::entity::PackageStatus::Delivered,
                    shipped_at: p.shipped_at.raw(),
                })
                .collect(),
            package_key
        ),
    );
    for s in 1..=SELLERS {
        assert_eq!(
            platform.seller_dashboard(SellerId(s)).unwrap(),
            model.dashboard(s),
            "dashboard of seller {s}"
        );
    }
}
