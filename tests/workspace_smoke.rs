//! Workspace bootstrap smoke test: the umbrella crate's re-exports
//! resolve, and a minimal end-to-end checkout flows through a platform
//! binding. This is the canary for PR-level wiring mistakes (missing
//! member crates, broken re-exports, serde shims that stopped
//! round-tripping) — it exercises one thin path through every layer
//! rather than re-testing domain logic.

use online_marketplace::common::entity::{Customer, PaymentMethod, Product, Seller};
use online_marketplace::common::ids::{CustomerId, ProductId, SellerId};
use online_marketplace::common::Money;
use online_marketplace::common::config::BackendKind;
use online_marketplace::marketplace::api::{
    CheckoutItem, CheckoutOutcome, CheckoutRequest, MarketplacePlatform, PlatformKind,
};
use online_marketplace::marketplace::{PlatformSpec, TransactionalPlatform};

/// Every umbrella module path must resolve; referencing one type from
/// each member keeps the re-export list honest as crates are added.
#[test]
fn umbrella_reexports_resolve() {
    let _ = std::any::type_name::<online_marketplace::common::Money>();
    let _ = std::any::type_name::<online_marketplace::storage::SnapshotBackend>();
    let _ = std::any::type_name::<online_marketplace::log::Topic<u64>>();
    let _ = std::any::type_name::<online_marketplace::actor::GrainId>();
    let _ = std::any::type_name::<online_marketplace::dataflow::Dataflow<()>>();
    let _ = std::any::type_name::<online_marketplace::marketplace::TransactionalPlatform>();
    let _ = std::any::type_name::<online_marketplace::driver::RunReport>();
    let _ = std::any::type_name::<online_marketplace::http::MarketplaceGateway>();
}

#[test]
fn minimal_checkout_flows_end_to_end() {
    let platform = TransactionalPlatform::new(
        &PlatformSpec::new(PlatformKind::Transactional, BackendKind::Eventual).decline_rate(0.0),
    );

    platform
        .ingest_seller(Seller::new(SellerId(1), "acme".into(), "copenhagen".into()))
        .expect("seller ingests");
    platform
        .ingest_customer(Customer::new(CustomerId(1), "ada".into(), "street 1".into()))
        .expect("customer ingests");
    platform
        .ingest_product(
            Product {
                id: ProductId(1),
                seller: SellerId(1),
                name: "widget".into(),
                category: "widgets".into(),
                description: "a fine widget".into(),
                price: Money::from_cents(19_99),
                freight_value: Money::from_cents(1_00),
                version: 0,
                active: true,
            },
            100,
        )
        .expect("product ingests");

    platform
        .add_to_cart(
            CustomerId(1),
            CheckoutItem {
                seller: SellerId(1),
                product: ProductId(1),
                quantity: 2,
            },
        )
        .expect("cart accepts item");

    let outcome = platform
        .checkout(CheckoutRequest {
            customer: CustomerId(1),
            items: vec![],
            method: PaymentMethod::CreditCard,
        })
        .expect("checkout executes");

    let CheckoutOutcome::Placed { order, total } = outcome else {
        panic!("zero-decline checkout with stock must place the order, got {outcome:?}");
    };
    assert!(order.is_some(), "transactional checkout returns an order id");
    let total = total.expect("placed checkout carries a total");
    // 2 × 19.99 + freight 1.00 per unit.
    assert!(
        total >= Money::from_cents(2 * 19_99),
        "total {total} must cover the two units"
    );

    platform.quiesce();
    let snapshot = platform.snapshot().expect("snapshot readable");
    assert_eq!(snapshot.orders.len(), 1, "exactly one order placed");
    assert!(
        !snapshot.payments.is_empty(),
        "payment recorded for the order"
    );
}
