//! Edge-case and property tests for the domain layer shared by all
//! bindings: checkout reconciliation, order assembly and conservation
//! invariants under randomized operation sequences.

use om_common::entity::CartItem;
use om_common::ids::{CustomerId, ProductId, SellerId, StockKey, TransactionId};
use om_common::time::EventTime;
use om_common::Money;
use om_marketplace::domain::{reconcile_prices, OrderService, PriceSource, StockService};
use proptest::prelude::*;

fn item(product: u64, qty: u32, cents: i64, version: u64) -> CartItem {
    CartItem {
        seller: SellerId(1),
        product: ProductId(product),
        quantity: qty,
        unit_price: Money::from_cents(cents),
        freight_value: Money::from_cents(5),
        product_version: version,
    }
}

#[test]
fn reconciliation_handles_mixed_outcomes_in_one_cart() {
    let items = vec![item(1, 1, 100, 5), item(2, 1, 100, 5), item(3, 1, 100, 5)];
    let (out, sources) = reconcile_prices(items, |p| match p.0 {
        1 => Some((Money::from_cents(150), 7, true)),  // fresh, newer
        2 => Some((Money::from_cents(80), 3, true)),   // stale replica
        _ => None,                                     // deleted
    });
    assert_eq!(out.len(), 2);
    assert_eq!(out[0].unit_price, Money::from_cents(150));
    assert_eq!(out[1].unit_price, Money::from_cents(100), "stale keeps cart price");
    assert_eq!(
        sources.iter().map(|(_, s)| *s).collect::<Vec<_>>(),
        vec![PriceSource::Fresh, PriceSource::Stale, PriceSource::Missing]
    );
}

#[test]
fn order_assembly_tolerates_out_of_order_and_duplicate_answers() {
    let mut svc = OrderService::new(CustomerId(1));
    let tid = TransactionId(5);
    svc.begin_assembly(tid, 2, EventTime(1));
    let done = {
        assert!(svc.record_stock_answer(tid, item(1, 1, 100, 0), true).is_none());
        // Duplicate answer for the same line (at-least-once delivery):
        // completes the expected count — assembly treats answers as
        // opaque; dedup is the transport's job, and eventual mode
        // deliberately lacks it.
        svc.record_stock_answer(tid, item(1, 1, 100, 0), true)
    };
    assert!(done.is_some(), "expected-count completion");
}

#[test]
fn orders_per_customer_namespace_cannot_collide_within_bounds() {
    use om_marketplace::domain::order::ORDERS_PER_CUSTOMER;
    let mut a = OrderService::new(CustomerId(0));
    let mut b = OrderService::new(CustomerId(1));
    let mut ids = std::collections::HashSet::new();
    for _ in 0..100 {
        ids.insert(a.create_order(&[item(1, 1, 10, 0)], EventTime(1)).unwrap().id);
        ids.insert(b.create_order(&[item(1, 1, 10, 0)], EventTime(1)).unwrap().id);
    }
    assert_eq!(ids.len(), 200);
    assert!(u64::from(ids.len() as u32) < ORDERS_PER_CUSTOMER);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Stock conservation holds under any interleaving of reserve /
    /// confirm / cancel / replenish / delete, including nonsensical ones.
    #[test]
    fn prop_stock_units_conserved(ops in proptest::collection::vec((0u8..5, 1u32..50), 1..100)) {
        let mut svc = StockService::new(StockKey::new(SellerId(1), ProductId(1)), 1000);
        let mut expected_total: u64 = 1000;
        for (op, qty) in ops {
            match op {
                0 => { let _ = svc.reserve(qty); }
                1 => svc.confirm(qty),
                2 => svc.cancel(qty),
                3 => {
                    svc.item.replenish(qty).unwrap();
                    expected_total += qty as u64;
                }
                _ => svc.apply_product_delete(99),
            }
            prop_assert_eq!(
                svc.accounted_units(),
                expected_total,
                "units not conserved after op {} qty {}", op, qty
            );
        }
    }

    /// Reconciliation never raises the charged price above the replica's
    /// offer nor resurrects deleted products.
    #[test]
    fn prop_reconciliation_bounds(
        cart_version in 0u64..10,
        replica_version in 0u64..10,
        cart_cents in 1i64..10_000,
        replica_cents in 1i64..10_000,
        active in any::<bool>(),
    ) {
        let (out, sources) = reconcile_prices(
            vec![item(1, 1, cart_cents, cart_version)],
            |_| Some((Money::from_cents(replica_cents), replica_version, active)),
        );
        if !active {
            prop_assert!(out.is_empty());
            prop_assert_eq!(sources[0].1, PriceSource::Missing);
        } else {
            prop_assert_eq!(out.len(), 1);
            let final_price = out[0].unit_price.cents();
            if replica_version > cart_version {
                prop_assert_eq!(final_price, replica_cents, "newer replica price applies");
            } else {
                prop_assert_eq!(final_price, cart_cents, "older replica never overrides");
            }
            prop_assert_eq!(
                sources[0].1,
                if replica_version >= cart_version { PriceSource::Fresh } else { PriceSource::Stale }
            );
        }
    }

    /// Order totals always equal the sum of their line totals.
    #[test]
    fn prop_order_totals_add_up(lines in proptest::collection::vec((1u64..50, 1u32..5, 1i64..10_000), 1..8)) {
        let mut svc = OrderService::new(CustomerId(3));
        let items: Vec<CartItem> = lines
            .iter()
            .enumerate()
            .map(|(i, (p, q, c))| item(*p + i as u64 * 100, *q, *c, 0))
            .collect();
        let order = svc.create_order(&items, EventTime(1)).unwrap();
        let amount: i64 = order.items.iter().map(|i| i.total_amount.cents()).sum();
        let freight: i64 = order
            .items
            .iter()
            .map(|i| i.freight_value.cents() * i.quantity as i64)
            .sum();
        prop_assert_eq!(order.total_amount.cents(), amount);
        prop_assert_eq!(order.total_freight.cents(), freight);
        prop_assert_eq!(order.total_invoice().cents(), amount + freight);
    }
}
