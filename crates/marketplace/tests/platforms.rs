//! Cross-binding integration tests: every platform must pass the same
//! functional scenario, while their *consistency* behaviours are allowed
//! to differ exactly along the axes the paper evaluates.

use om_common::entity::{Customer, OrderStatus, PaymentMethod, Product, Seller};
use om_common::ids::{CustomerId, OrderId, ProductId, SellerId};
use om_common::time::EventTime;
use om_common::Money;
use om_dataflow::Address;
use om_marketplace::api::*;
use om_marketplace::bindings::actor_core::{ActorCore, ActorPlatformConfig};
use om_marketplace::bindings::actor_grains::order_grain;
use om_marketplace::bindings::actor_msg::Msg;
use om_marketplace::bindings::customized::CustomizedConfig;
use om_marketplace::bindings::dataflow::DataflowPlatformConfig;
use om_marketplace::bindings::kinds;
use om_marketplace::domain::flow;
use std::collections::BTreeSet;
use om_marketplace::{
    CustomizedPlatform, DataflowPlatform, EventualPlatform, TransactionalPlatform,
};

fn product(seller: u64, id: u64, cents: i64) -> Product {
    Product {
        id: ProductId(id),
        seller: SellerId(seller),
        name: format!("product-{id}"),
        category: "test".into(),
        description: String::new(),
        price: Money::from_cents(cents),
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

/// Ingests a tiny catalogue: 2 sellers × 3 products, 4 customers.
fn ingest(platform: &dyn MarketplacePlatform) {
    for s in 1..=2u64 {
        platform.ingest_seller(seller(s)).unwrap();
    }
    for c in 1..=4u64 {
        platform.ingest_customer(customer(c)).unwrap();
    }
    let mut pid = 0;
    for s in 1..=2u64 {
        for _ in 0..3 {
            pid += 1;
            platform.ingest_product(product(s, pid, 100 * pid as i64), 1000).unwrap();
        }
    }
    platform.quiesce();
}

fn checkout_items(platform: &dyn MarketplacePlatform, customer: u64, items: &[(u64, u64, u32)]) {
    for &(s, p, q) in items {
        platform
            .add_to_cart(
                CustomerId(customer),
                CheckoutItem {
                    seller: SellerId(s),
                    product: ProductId(p),
                    quantity: q,
                },
            )
            .unwrap();
    }
}

/// Full lifecycle on one platform: ingest → checkout → delivery →
/// dashboard → audit snapshot.
fn exercise(platform: &dyn MarketplacePlatform, expect_sync_order: bool) {
    ingest(platform);

    // Customer 1 buys from both sellers.
    checkout_items(platform, 1, &[(1, 1, 2), (2, 4, 1)]);
    let outcome = platform
        .checkout(CheckoutRequest {
            customer: CustomerId(1),
            items: vec![],
            method: PaymentMethod::CreditCard,
        })
        .unwrap();
    match &outcome {
        CheckoutOutcome::Placed { order, .. } => {
            if expect_sync_order {
                assert!(order.is_some(), "{:?} must return the order id", platform.kind());
            }
        }
        CheckoutOutcome::Rejected(r) => panic!("checkout rejected: {r}"),
    }

    // A second checkout by another customer.
    checkout_items(platform, 2, &[(1, 2, 1)]);
    platform
        .checkout(CheckoutRequest {
            customer: CustomerId(2),
            items: vec![],
            method: PaymentMethod::Boleto,
        })
        .unwrap();

    platform.quiesce();

    // Snapshot after quiescing: orders exist, stock moved, payments made.
    let snap = platform.snapshot().unwrap();
    assert_eq!(snap.products.len(), 6);
    assert!(
        !snap.orders.is_empty(),
        "{:?}: no orders materialized",
        platform.kind()
    );
    assert!(!snap.payments.is_empty(), "{:?}: no payments", platform.kind());
    // Stock conservation: available + reserved + sold == initial.
    for s in &snap.stock {
        assert_eq!(
            s.item.qty_available as u64 + s.item.qty_reserved as u64 + s.qty_sold,
            1000,
            "{:?}: stock conservation broken for {}",
            platform.kind(),
            s.item.key
        );
    }

    // Price update propagates to future cart adds.
    platform
        .price_update(SellerId(1), ProductId(1), Money::from_cents(777))
        .unwrap();
    platform.quiesce();
    checkout_items(platform, 3, &[(1, 1, 1)]);

    // Product delete: subsequent adds are rejected (after propagation).
    platform.product_delete(SellerId(2), ProductId(6)).unwrap();
    platform.quiesce();
    let err = platform
        .add_to_cart(
            CustomerId(4),
            CheckoutItem {
                seller: SellerId(2),
                product: ProductId(6),
                quantity: 1,
            },
        )
        .unwrap_err();
    assert_eq!(err.label(), "rejected", "{:?}", platform.kind());

    // Update delivery moves shipped packages to delivered.
    let delivered = platform.update_delivery(10).unwrap();
    assert!(
        delivered > 0,
        "{:?}: nothing delivered despite paid orders",
        platform.kind()
    );
    platform.quiesce();

    // Dashboards answer for every seller.
    for s in 1..=2u64 {
        let dash = platform.seller_dashboard(SellerId(s)).unwrap();
        assert_eq!(dash.seller, SellerId(s));
    }

    let counters = platform.counters();
    assert!(!counters.is_empty());
}

#[test]
fn eventual_platform_lifecycle() {
    let p = EventualPlatform::new(ActorPlatformConfig {
        decline_rate: 0.0,
        ..Default::default()
    });
    exercise(&p, false);
}

#[test]
fn transactional_platform_lifecycle() {
    let p = TransactionalPlatform::new(ActorPlatformConfig {
        decline_rate: 0.0,
        ..Default::default()
    });
    exercise(&p, true);
    assert!(p.tx_log().is_consistent(), "2PC log must be contradiction-free");
    assert!(p.tx_log().commits() > 0);
}

#[test]
fn dataflow_platform_lifecycle() {
    let p = DataflowPlatform::new(DataflowPlatformConfig {
        decline_rate: 0.0,
        ..Default::default()
    });
    exercise(&p, true);
}

#[test]
fn customized_platform_lifecycle() {
    let p = CustomizedPlatform::new(CustomizedConfig {
        actor: ActorPlatformConfig {
            decline_rate: 0.0,
            ..Default::default()
        },
    });
    exercise(&p, true);
    let counters = p.counters();
    assert!(
        counters.get("storage.backend.commits").copied().unwrap_or(0) > 0,
        "dashboard projection commits must flow through the unified backend"
    );
    assert!(counters.contains_key("audit.records"));
}

#[test]
fn customized_dashboard_is_always_snapshot_consistent() {
    // The consistent-dashboard guarantee is the snapshot-isolation
    // backend's: one prefix scan reads one MVCC snapshot of the aggregate
    // and its entries. (Under `eventual_kv` the same platform exposes
    // torn dashboards — the trade the platform×backend matrix measures.)
    let p = CustomizedPlatform::new(CustomizedConfig {
        actor: ActorPlatformConfig {
            decline_rate: 0.0,
            backend: om_common::config::BackendKind::SnapshotIsolation,
            ..Default::default()
        },
    });
    ingest(&p);
    // Interleave checkouts with dashboard reads from another thread.
    std::thread::scope(|scope| {
        let p = &p;
        let churn = scope.spawn(move || {
            for i in 0..30 {
                let c = (i % 4) + 1;
                checkout_items(p, c, &[(1, 1, 1), (1, 2, 1)]);
                let _ = p.checkout(CheckoutRequest {
                    customer: CustomerId(c),
                    items: vec![],
                    method: PaymentMethod::CreditCard,
                });
                if i % 5 == 0 {
                    let _ = p.update_delivery(10);
                }
            }
        });
        let mut checked = 0;
        while !churn.is_finished() {
            let dash = p.seller_dashboard(SellerId(1)).unwrap();
            assert!(
                dash.is_snapshot_consistent(),
                "customized dashboard torn: amount={} count={} entries={}",
                dash.in_progress_amount,
                dash.in_progress_count,
                dash.entries.len()
            );
            checked += 1;
        }
        churn.join().unwrap();
        assert!(checked > 0);
    });
}

#[test]
fn customized_dashboard_pages_hold_each_entry_once() {
    // The projection keeps a seller's entries in a bounded number of page
    // rows: a dashboard reads those rows however many entries it lists,
    // lists each entry once in (order, product) order, and delivery
    // retires whole orders out of their pages until none is left.
    let p = CustomizedPlatform::new(CustomizedConfig {
        actor: ActorPlatformConfig {
            decline_rate: 0.0,
            backend: om_common::config::BackendKind::SnapshotIsolation,
            ..Default::default()
        },
    });
    ingest(&p);
    for i in 0..40u64 {
        let c = (i % 4) + 1;
        checkout_items(&p, c, &[(1, 1, 1), (1, 2, 2), (2, 4, 1)]);
        p.checkout(CheckoutRequest {
            customer: CustomerId(c),
            items: vec![],
            method: PaymentMethod::CreditCard,
        })
        .unwrap();
    }
    p.quiesce();

    let seller_rows = |seller: u64| {
        let mut prefix = b"cdash!/".to_vec();
        prefix.extend_from_slice(&seller.to_be_bytes());
        p.state_backend().scan_prefix(&prefix).len()
    };
    let dash = p.seller_dashboard(SellerId(1)).unwrap();
    assert_eq!(dash.entries.len(), 80, "40 orders x 2 lines from seller 1");
    assert!(dash.is_snapshot_consistent());
    let keys: Vec<_> = dash.entries.iter().map(|e| (e.order, e.product)).collect();
    assert!(keys.windows(2).all(|w| w[0] < w[1]), "sorted, no duplicate");
    assert!(
        (2..=17).contains(&seller_rows(1)),
        "aggregate + at most 16 pages, got {} rows",
        seller_rows(1)
    );

    let mut left = dash.entries.len();
    for _ in 0..200 {
        if p.update_delivery(10).unwrap() == 0 {
            break;
        }
        p.quiesce();
        let dash = p.seller_dashboard(SellerId(1)).unwrap();
        assert!(dash.is_snapshot_consistent());
        assert!(dash.entries.len() <= left, "delivery only retires entries");
        left = dash.entries.len();
    }
    assert_eq!(left, 0, "every order delivered, every entry retired");
    assert_eq!(seller_rows(1), 1, "empty pages are deleted; the aggregate stays");
    assert_eq!(seller_rows(2), 1);
}

/// Every binding under test, fresh, with no payment declined.
fn all_platforms() -> Vec<Box<dyn MarketplacePlatform>> {
    let actor = || ActorPlatformConfig {
        decline_rate: 0.0,
        ..Default::default()
    };
    vec![
        Box::new(EventualPlatform::new(actor())),
        Box::new(TransactionalPlatform::new(actor())),
        Box::new(DataflowPlatform::new(DataflowPlatformConfig {
            decline_rate: 0.0,
            ..Default::default()
        })),
        Box::new(CustomizedPlatform::new(CustomizedConfig { actor: actor() })),
    ]
}

/// One checkout of two lines, quantity 2 each at 10 ¢ freight a unit, is
/// invoiced alike on every binding: freight included.
#[test]
fn every_binding_invoices_the_freight_of_a_checkout() {
    let invoices: Vec<_> = all_platforms()
        .iter()
        .map(|p| {
            ingest(p.as_ref());
            checkout_items(p.as_ref(), 1, &[(1, 1, 2), (2, 4, 2)]);
            let outcome = p
                .checkout(CheckoutRequest {
                    customer: CustomerId(1),
                    items: vec![],
                    method: PaymentMethod::CreditCard,
                })
                .unwrap();
            assert!(matches!(outcome, CheckoutOutcome::Placed { .. }), "{outcome:?}");
            p.quiesce();
            let snap = p.snapshot().unwrap();
            assert_eq!(snap.orders.len(), 1, "{:?}", p.kind());
            let order = &snap.orders[0];
            (p.kind(), order.total_freight, order.total_invoice())
        })
        .collect();
    for &(kind, freight, invoice) in &invoices {
        assert_eq!(freight, Money::from_cents(40), "{kind:?}: {invoices:?}");
        assert_eq!(invoice, Money::from_cents(2 * 100 + 2 * 400 + 40), "{kind:?}");
    }
}

/// The event reporting that `seller` delivered its packages of `order`.
fn delivered(order: OrderId, seller: SellerId) -> flow::Msg {
    flow::Msg::PackagesDelivered {
        order,
        seller,
        at: EventTime(1_000),
    }
}

/// Delivers customer 1's two-seller order one seller at a time, sending
/// a second copy of each seller's delivered event through `duplicate`:
/// the order completes with the second seller, and the customer's
/// delivery is counted once.
fn delivery_counts_once_per_seller(
    p: &dyn MarketplacePlatform,
    duplicate: impl Fn(OrderId, SellerId),
) {
    ingest(p);
    checkout_items(p, 1, &[(1, 1, 2), (2, 4, 1)]);
    p.checkout(CheckoutRequest {
        customer: CustomerId(1),
        items: vec![],
        method: PaymentMethod::CreditCard,
    })
    .unwrap();
    p.quiesce();
    let snap = p.snapshot().unwrap();
    assert_eq!(snap.orders.len(), 1, "{:?}", p.kind());
    let order = snap.orders[0].id;
    let state = || {
        let snap = p.snapshot().unwrap();
        let status = snap.orders.iter().find(|o| o.id == order).unwrap().status;
        let customer = snap.customers.iter().find(|c| c.id == CustomerId(1)).unwrap();
        (status, customer.delivery_count)
    };
    let delivered_by = || -> BTreeSet<SellerId> {
        let snap = p.snapshot().unwrap();
        snap.shipments
            .iter()
            .filter(|pkg| pkg.order == order && pkg.delivered)
            .map(|pkg| pkg.seller)
            .collect()
    };

    assert!(p.update_delivery(1).unwrap() > 0, "{:?}", p.kind());
    p.quiesce();
    let first = delivered_by();
    assert_eq!(first.len(), 1, "{:?}: {first:?}", p.kind());
    let seller = *first.iter().next().unwrap();
    duplicate(order, seller);
    p.quiesce();
    let (status, deliveries) = state();
    assert_ne!(status, OrderStatus::Delivered, "{:?}: one of two sellers delivered", p.kind());
    assert_eq!(deliveries, 0, "{:?}", p.kind());

    assert!(p.update_delivery(1).unwrap() > 0, "{:?}", p.kind());
    p.quiesce();
    assert_eq!(delivered_by().len(), 2, "{:?}", p.kind());
    assert_eq!(state(), (OrderStatus::Delivered, 1), "{:?}", p.kind());
    duplicate(order, seller);
    p.quiesce();
    assert_eq!(state(), (OrderStatus::Delivered, 1), "{:?}", p.kind());
}

/// A duplicated package-delivered event (the lossy fault model's
/// duplicates) neither completes a two-seller order early nor counts the
/// customer's delivery twice, on every binding with an event path.
#[test]
fn a_duplicated_delivery_event_counts_once_per_seller() {
    let actor = || ActorPlatformConfig {
        decline_rate: 0.0,
        ..Default::default()
    };
    let notify = |core: &ActorCore, order, seller| {
        let event = Msg::Flow(delivered(order, seller));
        core.cluster.notify(order_grain(CustomerId(1)), event);
    };
    let p = EventualPlatform::new(actor());
    delivery_counts_once_per_seller(&p, |o, s| notify(p.core(), o, s));
    let p = TransactionalPlatform::new(actor());
    delivery_counts_once_per_seller(&p, |o, s| notify(p.core(), o, s));
    let p = CustomizedPlatform::new(CustomizedConfig { actor: actor() });
    delivery_counts_once_per_seller(&p, |o, s| notify(p.inner().core(), o, s));
    let p = DataflowPlatform::new(DataflowPlatformConfig {
        decline_rate: 0.0,
        ..Default::default()
    });
    delivery_counts_once_per_seller(&p, |o, s| {
        let to = Address::new(kinds::ORDER, 1);
        p.dataflow().submit(to, delivered(o, s)).unwrap();
    });
}

#[test]
fn transactional_checkout_is_atomic_under_contention() {
    // Many concurrent checkouts on the same hot product: stock must be
    // conserved exactly (no lost updates, no partial effects).
    let p = TransactionalPlatform::new(ActorPlatformConfig {
        decline_rate: 0.0,
        ..Default::default()
    });
    p.ingest_seller(seller(1)).unwrap();
    for c in 1..=8u64 {
        p.ingest_customer(customer(c)).unwrap();
    }
    p.ingest_product(product(1, 1, 100), 100_000).unwrap();
    std::thread::scope(|scope| {
        for c in 1..=8u64 {
            let p = &p;
            scope.spawn(move || {
                for _ in 0..10 {
                    checkout_items(p, c, &[(1, 1, 1)]);
                    let outcome = p
                        .checkout(CheckoutRequest {
                            customer: CustomerId(c),
                            items: vec![],
                            method: PaymentMethod::DebitCard,
                        })
                        .unwrap();
                    assert!(matches!(outcome, CheckoutOutcome::Placed { .. }));
                }
            });
        }
    });
    p.quiesce();
    let snap = p.snapshot().unwrap();
    assert_eq!(snap.orders.len(), 80);
    let stock = &snap.stock[0];
    assert_eq!(stock.qty_sold, 80, "all 80 units sold exactly once");
    assert_eq!(stock.item.qty_available, 100_000 - 80);
    assert_eq!(stock.item.qty_reserved, 0, "no reservation leaks");
    assert!(p.tx_log().is_consistent());
}

#[test]
fn eventual_platform_loses_effects_under_message_drops() {
    use om_actor::FaultConfig;
    let p = EventualPlatform::new(ActorPlatformConfig {
        faults: FaultConfig::lossy(0.15, 0.0, 99),
        decline_rate: 0.0,
        ..Default::default()
    });
    p.ingest_seller(seller(1)).unwrap();
    for c in 1..=4u64 {
        p.ingest_customer(customer(c)).unwrap();
    }
    p.ingest_product(product(1, 1, 100), 100_000).unwrap();
    for round in 0..25 {
        let c = (round % 4) + 1;
        checkout_items(&p, c, &[(1, 1, 1)]);
        let _ = p.checkout(CheckoutRequest {
            customer: CustomerId(c),
            items: vec![],
            method: PaymentMethod::CreditCard,
        });
    }
    p.quiesce();
    let snap = p.snapshot().unwrap();
    // With 15% event drop across a multi-hop cascade, some checkouts must
    // have lost at least one downstream effect.
    let complete = snap.orders.len();
    assert!(
        complete < 25 || snap.stuck_assemblies > 0 || snap.payments.len() < complete,
        "expected partial effects under drops: orders={complete} stuck={} payments={}",
        snap.stuck_assemblies,
        snap.payments.len()
    );
}

#[test]
fn dataflow_survives_crash_with_exactly_once_checkouts() {
    let p = DataflowPlatform::new(DataflowPlatformConfig {
        decline_rate: 0.0,
        ..Default::default()
    });
    p.ingest_seller(seller(1)).unwrap();
    for c in 1..=4u64 {
        p.ingest_customer(customer(c)).unwrap();
    }
    p.ingest_product(product(1, 1, 100), 100_000).unwrap();
    p.quiesce();

    // Inject a crash mid-stream while submitting checkouts.
    for round in 0..20u64 {
        let c = (round % 4) + 1;
        if round == 10 {
            p.dataflow().inject_crash_after(5);
        }
        checkout_items(&p, c, &[(1, 1, 1)]);
        let outcome = p
            .checkout(CheckoutRequest {
                customer: CustomerId(c),
                items: vec![],
                method: PaymentMethod::CreditCard,
            })
            .unwrap();
        assert!(matches!(outcome, CheckoutOutcome::Placed { .. }));
    }
    p.quiesce();
    let snap = p.snapshot().unwrap();
    assert_eq!(snap.orders.len(), 20, "every checkout exactly once");
    assert_eq!(snap.stock[0].qty_sold, 20);
    assert_eq!(snap.stuck_assemblies, 0, "exactly-once leaves nothing stuck");
    let counters = p.counters();
    assert!(counters["df.replays"] >= 1, "the crash actually happened");
}
