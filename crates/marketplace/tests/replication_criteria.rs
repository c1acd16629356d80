//! Replication-criterion focused tests (paper §II: eventual vs causal
//! Product→Cart replication): the plain actor bindings exhibit stale
//! reads under lossy replication events, while the customized binding's
//! replica reads — backend sessions kept monotonic per customer — stay
//! anomaly-free.

use om_actor::FaultConfig;
use om_common::config::BackendKind;
use om_common::entity::{Customer, Product, Seller};
use om_common::ids::{CustomerId, ProductId, SellerId};
use om_common::Money;
use om_marketplace::api::{CheckoutItem, MarketplacePlatform, PlatformKind};
use om_marketplace::{CustomizedPlatform, EventualPlatform, PlatformSpec};

fn seed(platform: &dyn MarketplacePlatform) {
    platform
        .ingest_seller(Seller::new(SellerId(1), "s".into(), "c".into()))
        .unwrap();
    platform
        .ingest_customer(Customer::new(CustomerId(1), "c".into(), "a".into()))
        .unwrap();
    platform
        .ingest_product(
            Product {
                id: ProductId(1),
                seller: SellerId(1),
                name: "p".into(),
                category: "c".into(),
                description: String::new(),
                price: Money::from_cents(100),
                freight_value: Money::ZERO,
                version: 0,
                active: true,
            },
            1_000_000,
        )
        .unwrap();
    platform.quiesce();
}

#[test]
fn eventual_binding_counts_stale_reads_when_replication_events_drop() {
    // 60% of grain-to-grain events (including ReplicaApplyUpdate) drop:
    // cart adds right after a price update read a stale replica.
    let p = EventualPlatform::new(
        &PlatformSpec::new(PlatformKind::Eventual, BackendKind::Eventual)
            .faults(FaultConfig::lossy(0.6, 0.0, 31))
            .decline_rate(0.0),
    );
    seed(&p);
    for round in 1..=50i64 {
        p.price_update(SellerId(1), ProductId(1), Money::from_cents(100 + round))
            .unwrap();
        p.quiesce();
        let _ = p.add_to_cart(
            CustomerId(1),
            CheckoutItem {
                seller: SellerId(1),
                product: ProductId(1),
                quantity: 1,
            },
        );
    }
    let stale = p.counters().get("stale_price_reads").copied().unwrap_or(0);
    assert!(
        stale > 0,
        "dropped replication events must surface as stale reads"
    );
}

#[test]
fn eventual_binding_with_reliable_events_converges() {
    let p = EventualPlatform::new(
        &PlatformSpec::new(PlatformKind::Eventual, BackendKind::Eventual).decline_rate(0.0),
    );
    seed(&p);
    for round in 1..=20i64 {
        p.price_update(SellerId(1), ProductId(1), Money::from_cents(100 + round))
            .unwrap();
        p.quiesce(); // replication drains before the next read
        p.add_to_cart(
            CustomerId(1),
            CheckoutItem {
                seller: SellerId(1),
                product: ProductId(1),
                quantity: 1,
            },
        )
        .unwrap();
    }
    assert_eq!(
        p.counters().get("stale_price_reads").copied().unwrap_or(0),
        0,
        "reliable + quiesced replication cannot be stale"
    );
}

#[test]
fn customized_replica_cache_survives_an_update_storm_without_stale_final_state() {
    let p = CustomizedPlatform::new(
        &PlatformSpec::new(PlatformKind::Customized, BackendKind::Eventual).decline_rate(0.0),
    );
    seed(&p);
    p.ingest_customer(Customer::new(CustomerId(2), "c2".into(), "a".into()))
        .unwrap();
    for round in 1..=200i64 {
        p.price_update(SellerId(1), ProductId(1), Money::from_cents(100 + round))
            .unwrap();
        if round % 5 == 0 {
            let _ = p.add_to_cart(
                CustomerId(1),
                CheckoutItem {
                    seller: SellerId(1),
                    product: ProductId(1),
                    quantity: 1,
                },
            );
        }
    }
    p.quiesce();
    // After quiesce every replica of the unified backend agrees, so a
    // fresh cart add must price at the storm's final update.
    p.add_to_cart(
        CustomerId(2),
        CheckoutItem {
            seller: SellerId(1),
            product: ProductId(1),
            quantity: 1,
        },
    )
    .unwrap();
    let outcome = p
        .checkout(om_marketplace::api::CheckoutRequest {
            customer: CustomerId(2),
            items: vec![],
            method: om_common::entity::PaymentMethod::CreditCard,
        })
        .unwrap();
    match outcome {
        om_marketplace::api::CheckoutOutcome::Placed { total, .. } => {
            assert_eq!(
                total,
                Some(Money::from_cents(300)),
                "the replica cache must converge on the final price"
            );
        }
        other => panic!("unexpected outcome {other:?}"),
    }
}

#[test]
fn customized_cart_reads_eventually_see_every_price_update() {
    let p = CustomizedPlatform::new(
        &PlatformSpec::new(PlatformKind::Customized, BackendKind::Eventual).decline_rate(0.0),
    );
    seed(&p);
    p.price_update(SellerId(1), ProductId(1), Money::from_cents(777))
        .unwrap();
    p.quiesce();
    // The cart add prices from the (now caught-up) secondary.
    p.add_to_cart(
        CustomerId(1),
        CheckoutItem {
            seller: SellerId(1),
            product: ProductId(1),
            quantity: 1,
        },
    )
    .unwrap();
    let outcome = p
        .checkout(om_marketplace::api::CheckoutRequest {
            customer: CustomerId(1),
            items: vec![],
            method: om_common::entity::PaymentMethod::CreditCard,
        })
        .unwrap();
    match outcome {
        om_marketplace::api::CheckoutOutcome::Placed { total, .. } => {
            assert_eq!(
                total,
                Some(Money::from_cents(777)),
                "checkout must charge the replicated updated price"
            );
        }
        other => panic!("unexpected outcome {other:?}"),
    }
}
