//! The transactional checkout's phase fan-out: an approved checkout waits
//! once per protocol phase, and under contention, with deliveries in the
//! mix, admission, the locks and 2PC keep every checkout and delivery
//! atomic on both bindings that run it (Transactional, and Customized
//! over it).

use om_common::entity::{Customer, OrderEntry, OrderStatus, PaymentMethod, Product, Seller};
use om_common::ids::{CustomerId, OrderId, ProductId, SellerId};
use om_common::Money;
use om_marketplace::api::*;
use om_common::config::BackendKind;
use om_marketplace::bindings::actor_grains::seller_grain;
use om_marketplace::bindings::actor_msg::{Msg, Reply};
use om_marketplace::{CustomizedPlatform, PlatformSpec, TransactionalPlatform};
use std::collections::{BTreeMap, BTreeSet};

/// The hot products, `(seller, product)`: two from seller 1, one from
/// seller 2.
const HOT: [(u64, u64); 3] = [(1, 1), (1, 2), (2, 3)];
const STOCK: u32 = 1_000_000;
const THREADS: u64 = 4;
/// Ops per thread; every tenth is a delivery, the rest checkouts.
const OPS: u64 = 200;

/// Cart lines, `(seller, product, qty)`.
type Lines = Vec<(u64, u64, u32)>;

fn ingest(platform: &dyn MarketplacePlatform) {
    for s in 1..=2 {
        platform
            .ingest_seller(Seller::new(SellerId(s), format!("s{s}"), "city".into()))
            .unwrap();
    }
    for c in 1..=THREADS {
        platform
            .ingest_customer(Customer::new(CustomerId(c), format!("c{c}"), "addr".into()))
            .unwrap();
    }
    for (s, p) in HOT {
        let product = Product {
            id: ProductId(p),
            seller: SellerId(s),
            name: format!("p{p}"),
            category: "hot".into(),
            description: String::new(),
            price: Money::from_cents(100 * p as i64),
            freight_value: Money::from_cents(10),
            version: 0,
            active: true,
        };
        platform.ingest_product(product, STOCK).unwrap();
    }
    platform.quiesce();
}

/// Fills `customer`'s cart with `lines`.
fn fill_cart(platform: &dyn MarketplacePlatform, customer: u64, lines: &[(u64, u64, u32)]) {
    for &(s, p, quantity) in lines {
        let item = CheckoutItem {
            seller: SellerId(s),
            product: ProductId(p),
            quantity,
        };
        platform.add_to_cart(CustomerId(customer), item).unwrap();
    }
}

fn checkout(platform: &dyn MarketplacePlatform, customer: u64) -> CheckoutOutcome {
    platform
        .checkout(CheckoutRequest {
            customer: CustomerId(customer),
            items: vec![],
            method: PaymentMethod::CreditCard,
        })
        .unwrap()
}

fn counter(platform: &dyn MarketplacePlatform, name: &str) -> u64 {
    platform.counters().get(name).copied().unwrap_or(0)
}

/// The three hot products, one unit more of every other line.
fn hot_cart(i: u64) -> Lines {
    HOT.iter()
        .enumerate()
        .map(|(j, &(s, p))| (s, p, 1 + ((i + j as u64) % 2) as u32))
        .collect()
}

/// Carts that collide on seller 1 more often than on a stock lock:
/// product 1 or product 2 alone, and every fourth cart all three. Two
/// transactions then hold seller 1's lock in turn while neither waits for
/// the other's stock, so entries wait for the seller lock inside the
/// fanned phase.
fn contended_cart(i: u64) -> Lines {
    match i % 4 {
        3 => hot_cart(i),
        j => {
            let (s, p) = HOT[(j % 2) as usize];
            vec![(s, p, 1 + (i % 3) as u32)]
        }
    }
}

#[test]
fn an_approved_checkout_waits_once_per_phase() {
    // k = 3 distinct products from s = 2 sellers.
    for (decline_rate, waits, calls) in [
        // cart begin, reserves, order, payment, effects (InTransit
        // included), prepare, commit, cart finish; 5k + 6s + 13 calls.
        (0.0, 8, 40),
        // A declined payment skips the shipments and InTransit; 5k + 2s
        // + 12 calls.
        (1.0, 8, 31),
    ] {
        let p = TransactionalPlatform::new(
            &PlatformSpec::new(PlatformKind::Transactional, BackendKind::Eventual)
                .decline_rate(decline_rate),
        );
        ingest(&p);
        fill_cart(&p, 1, &hot_cart(1));
        let (waits_before, calls_before) =
            (counter(&p, "cluster.waits"), counter(&p, "cluster.calls"));
        let outcome = checkout(&p, 1);
        assert_eq!(
            matches!(outcome, CheckoutOutcome::Placed { .. }),
            decline_rate == 0.0,
            "{outcome:?}"
        );
        assert_eq!(
            counter(&p, "cluster.waits") - waits_before,
            waits,
            "decline_rate {decline_rate}"
        );
        assert_eq!(
            counter(&p, "cluster.calls") - calls_before,
            calls,
            "decline_rate {decline_rate}"
        );
    }
}

#[test]
fn an_uncontended_checkout_waits_eight_times_and_never_parks() {
    let p = TransactionalPlatform::new(
        &PlatformSpec::new(PlatformKind::Transactional, BackendKind::Eventual).decline_rate(0.0),
    );
    ingest(&p);
    fill_cart(&p, 1, &hot_cart(1));
    p.quiesce();
    let (waits, parks) = (counter(&p, "cluster.waits"), counter(&p, "cluster.parks"));
    assert!(matches!(checkout(&p, 1), CheckoutOutcome::Placed { .. }));
    assert_eq!(counter(&p, "cluster.waits") - waits, 8);
    // Every grain is idle when its protocol step reaches it, so the
    // calling thread runs each turn itself and never parks.
    assert_eq!(counter(&p, "cluster.parks") - parks, 0);
}

/// 4 threads × 200 ops over the three hot products, as four customers:
/// every tenth op is `update_delivery(10)`, the rest are checkouts. Every
/// op succeeds, and then every invariant of an all-or-nothing checkout
/// and delivery holds. `waits_per_checkout` is what an uncontended
/// checkout of all three costs the platform.
fn contended_checkouts_stay_atomic(
    platform: &dyn MarketplacePlatform,
    tx: &TransactionalPlatform,
    waits_per_checkout: u64,
) {
    ingest(platform);
    let (placed, delivered): (Vec<(OrderId, Lines)>, u64) = std::thread::scope(|scope| {
        let workers: Vec<_> = (1..=THREADS)
            .map(|c| {
                scope.spawn(move || {
                    let (mut placed, mut delivered) = (Vec::new(), 0u64);
                    for i in 0..OPS {
                        if i % 10 == 9 {
                            match platform.update_delivery(10) {
                                Ok(packages) => delivered += packages as u64,
                                Err(e) => panic!("customer {c} delivery {i}: {e}"),
                            }
                            continue;
                        }
                        let lines = contended_cart(i + c);
                        fill_cart(platform, c, &lines);
                        match checkout(platform, c) {
                            CheckoutOutcome::Placed {
                                order: Some(order), ..
                            } => placed.push((order, lines)),
                            other => panic!("customer {c} checkout {i}: {other:?}"),
                        }
                    }
                    (placed, delivered)
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).fold(
            (Vec::new(), 0),
            |(mut placed, delivered), (p, d)| {
                placed.extend(p);
                (placed, delivered + d)
            },
        )
    });
    platform.quiesce();
    let kind = platform.kind();
    assert_eq!(placed.len() as u64, THREADS * (OPS - OPS / 10));

    // Transactions declaring a held grain waited to be admitted.
    let admission_waits = counter(platform, "admission_waits");
    assert!(admission_waits > 0, "{kind:?}: no admission ever waited");

    // Stock is conserved, and sold exactly what the placed orders hold.
    let snap = platform.snapshot().unwrap();
    let mut sold: BTreeMap<u64, u64> = BTreeMap::new();
    for (_, lines) in &placed {
        for &(_, p, q) in lines {
            *sold.entry(p).or_default() += q as u64;
        }
    }
    assert_eq!(snap.stock.len(), HOT.len());
    for s in &snap.stock {
        let p = s.item.key.product.0;
        assert_eq!(
            s.item.qty_reserved, 0,
            "{kind:?}: reservation leaked on {p}"
        );
        assert_eq!(s.qty_sold, sold[&p], "{kind:?}: product {p}");
        assert_eq!(
            s.item.qty_available as u64 + s.qty_sold,
            STOCK as u64,
            "{kind:?}: product {p}"
        );
    }

    // Every placed order, once.
    assert_eq!(snap.orders.len(), placed.len(), "{kind:?}");

    // Every line of every placed order has exactly one package, and the
    // delivered ones are exactly what the deliveries reported.
    let expected: BTreeMap<(u64, u64), u64> = placed
        .iter()
        .flat_map(|(order, lines)| lines.iter().map(move |&(s, p, _)| ((order.0, p), s)))
        .collect();
    let mut shipped: Vec<(u64, u64)> = Vec::new();
    let mut undelivered: Vec<(u64, u64)> = Vec::new();
    for pkg in &snap.shipments {
        let key = (pkg.order.0, pkg.product.0);
        assert_eq!(
            expected.get(&key),
            Some(&pkg.seller.0),
            "{kind:?}: stray package"
        );
        shipped.push(key);
        if !pkg.delivered {
            undelivered.push(key);
        }
    }
    shipped.sort_unstable();
    assert_eq!(
        shipped,
        expected.keys().copied().collect::<Vec<_>>(),
        "{kind:?}: shipments"
    );
    assert_eq!(
        (shipped.len() - undelivered.len()) as u64,
        delivered,
        "{kind:?}: delivered packages"
    );
    assert!(delivered > 0, "{kind:?}: no delivery delivered anything");

    // An order reads `Delivered` once all its packages are, in transit
    // before, and each customer counts its delivered orders.
    let open: BTreeSet<u64> = undelivered.iter().map(|&(order, _)| order).collect();
    let mut delivered_orders: BTreeMap<u64, u64> = BTreeMap::new();
    for o in &snap.orders {
        let status = if open.contains(&o.id.0) {
            OrderStatus::InTransit
        } else {
            *delivered_orders.entry(o.customer.0).or_default() += 1;
            OrderStatus::Delivered
        };
        assert_eq!(o.status, status, "{kind:?}: order {}", o.id);
    }
    assert_eq!(snap.customers.len() as u64, THREADS);
    for c in &snap.customers {
        let count = delivered_orders.get(&c.id.0).copied().unwrap_or(0);
        assert_eq!(c.delivery_count, count, "{kind:?}: customer {}", c.id);
    }

    // Every undelivered line in its seller's grain entries and dashboard
    // once, in transit, and nothing else: no delivered line stays.
    let mut entries: Vec<OrderEntry> = Vec::new();
    let mut dashboard_keys: Vec<(u64, u64)> = Vec::new();
    for s in 1..=2 {
        match tx
            .core()
            .cluster
            .call(seller_grain(SellerId(s)), Msg::SellerGetEntries)
            .unwrap()
        {
            Reply::Entries(list) => entries.extend(list),
            other => panic!("{other:?}"),
        }
        let dash = platform.seller_dashboard(SellerId(s)).unwrap();
        dashboard_keys.extend(dash.entries.iter().map(|e| (e.order.0, e.product.0)));
    }
    let mut entry_keys: Vec<(u64, u64)> = Vec::new();
    for e in &entries {
        let key = (e.order.0, e.product.0);
        assert_eq!(
            expected.get(&key),
            Some(&e.seller.0),
            "{kind:?}: stray entry {e:?}"
        );
        assert_eq!(e.status, OrderStatus::InTransit, "{kind:?}: entry {e:?}");
        entry_keys.push(key);
    }
    for (what, mut keys) in [("entries", entry_keys), ("dashboard", dashboard_keys)] {
        keys.sort_unstable();
        let listed = keys.len();
        keys.dedup();
        assert_eq!(keys.len(), listed, "{kind:?}: a line listed twice in {what}");
        assert!(
            keys.iter().all(|k| expected.contains_key(k)),
            "{kind:?}: stray line in {what}"
        );
        assert!(
            undelivered.iter().all(|k| keys.binary_search(k).is_ok()),
            "{kind:?}: an undelivered line missing from {what}"
        );
        assert_eq!(
            keys.len(),
            undelivered.len(),
            "{kind:?}: delivered lines still in {what}"
        );
    }

    // No grain is left held: a checkout by every customer over every hot
    // grain is admitted at once and costs exactly its phases.
    for c in 1..=THREADS {
        fill_cart(platform, c, &hot_cart(0));
        let waits = counter(platform, "cluster.waits");
        let outcome = checkout(platform, c);
        assert!(
            matches!(outcome, CheckoutOutcome::Placed { .. }),
            "{outcome:?}"
        );
        assert_eq!(
            counter(platform, "cluster.waits") - waits,
            waits_per_checkout,
            "{kind:?}"
        );
    }
    assert_eq!(
        counter(platform, "admission_waits"),
        admission_waits,
        "{kind:?}: a grain was left held"
    );
}

#[test]
fn fanned_transactional_checkout_is_atomic_under_contention() {
    let p = TransactionalPlatform::new(
        &PlatformSpec::new(PlatformKind::Transactional, BackendKind::Eventual).decline_rate(0.0),
    );
    contended_checkouts_stay_atomic(&p, &p, 8);
}

#[test]
fn fanned_customized_checkout_is_atomic_under_contention() {
    let p = CustomizedPlatform::new(
        &PlatformSpec::new(PlatformKind::Customized, BackendKind::Eventual).decline_rate(0.0),
    );
    // As many waits as Transactional: the dashboard projects the order
    // the transaction placed, without reading it back.
    contended_checkouts_stay_atomic(&p, p.inner(), 8);
}
