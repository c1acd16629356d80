//! Quickstart: stand up a marketplace platform, load a tiny catalogue,
//! place an order and watch it flow through the services.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use online_marketplace::common::entity::{Customer, OrderStatus, PaymentMethod, Product, Seller};
use online_marketplace::common::ids::{CustomerId, ProductId, SellerId};
use online_marketplace::common::Money;
use online_marketplace::common::config::BackendKind;
use online_marketplace::marketplace::api::{
    CheckoutItem, CheckoutOutcome, CheckoutRequest, MarketplacePlatform, PlatformKind,
};
use online_marketplace::marketplace::{PlatformSpec, TransactionalPlatform};

fn main() {
    // 1. A transactional (ACID) marketplace on an in-process actor
    //    cluster: 2 silos, 2 workers each (parallelism 4).
    let platform = TransactionalPlatform::new(
        &PlatformSpec::new(PlatformKind::Transactional, BackendKind::Eventual).decline_rate(0.0),
    );

    // 2. Ingest one seller, one customer and two products with stock.
    platform
        .ingest_seller(Seller::new(SellerId(1), "acme".into(), "copenhagen".into()))
        .unwrap();
    platform
        .ingest_customer(Customer::new(CustomerId(1), "ada".into(), "street 1".into()))
        .unwrap();
    for (id, cents) in [(1u64, 19_99), (2, 5_49)] {
        platform
            .ingest_product(
                Product {
                    id: ProductId(id),
                    seller: SellerId(1),
                    name: format!("widget-{id}"),
                    category: "widgets".into(),
                    description: "a fine widget".into(),
                    price: Money::from_cents(cents),
                    freight_value: Money::from_cents(100),
                    version: 0,
                    active: true,
                },
                100,
            )
            .unwrap();
    }

    // 3. Fill the cart and check out — this runs a distributed ACID
    //    transaction across stock, order, payment, seller, customer and
    //    shipment grains (2PL + two-phase commit).
    for (product, qty) in [(1u64, 2), (2, 1)] {
        platform
            .add_to_cart(
                CustomerId(1),
                CheckoutItem {
                    seller: SellerId(1),
                    product: ProductId(product),
                    quantity: qty,
                },
            )
            .unwrap();
    }
    let outcome = platform
        .checkout(CheckoutRequest {
            customer: CustomerId(1),
            items: vec![],
            method: PaymentMethod::CreditCard,
        })
        .unwrap();
    let CheckoutOutcome::Placed { order, total } = outcome else {
        panic!("checkout rejected: {outcome:?}");
    };
    let order = order.expect("transactional checkout returns the id");
    println!("order placed: {order} total {}", total.unwrap());

    // 4. Deliver the packages (one per cart line) and read the seller
    //    dashboard: delivered orders leave its in-progress list.
    let delivered = platform.update_delivery(10).unwrap();
    platform.quiesce();
    assert_eq!(delivered, 2, "one package per cart line");
    let dashboard = platform.seller_dashboard(SellerId(1)).unwrap();
    assert_eq!(dashboard.in_progress_count, 0, "{dashboard:?}");
    println!("packages delivered: {delivered}; seller dashboard: 0 in-progress entries");

    // 5. Inspect the final state.
    let snapshot = platform.snapshot().unwrap();
    assert_eq!(snapshot.orders.len(), 1);
    assert_eq!(snapshot.orders[0].status, OrderStatus::Delivered);
    assert_eq!(snapshot.payments.len(), 1);
    assert_eq!(snapshot.shipments.len(), 2);
    println!(
        "final state: {} orders, {} payments, {} packages, stock sold: {:?}",
        snapshot.orders.len(),
        snapshot.payments.len(),
        snapshot.shipments.len(),
        snapshot
            .stock
            .iter()
            .map(|s| (s.item.key.to_string(), s.qty_sold))
            .collect::<Vec<_>>()
    );
    let counters = platform.counters();
    let (commits, aborts) = (counters["tx_commits"], counters["tx_aborts"]);
    assert!(commits > 0 && aborts == 0);
    println!("2PC decisions: {commits} commits, {aborts} aborts");
}
