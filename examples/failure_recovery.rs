//! Failure recovery demo: exactly-once on the Statefun-like binding vs
//! lost effects on the eventual binding.
//!
//! * The dataflow platform takes an injected crash mid-epoch, restores
//!   the last checkpoint and replays — every checkout lands exactly
//!   once.
//! * With the **file-durable backend + persistent ingress log** the same
//!   recovery survives losing the *entire process image*: the platform
//!   is dropped wholesale and rebuilt from its `data_dir` files alone
//!   (recovered epochs vs lost epochs printed below) — the `kill -9`
//!   walkthrough in the README is this section against a live gateway.
//! * The eventual actor platform with lossy event delivery (the
//!   at-most-once semantics of raw one-way messages) strands workflows.
//!
//! ```text
//! cargo run --release --example failure_recovery
//! ```

use online_marketplace::actor::FaultConfig;
use online_marketplace::common::config::BackendKind;
use online_marketplace::common::entity::{Customer, PaymentMethod, Product, Seller};
use online_marketplace::common::ids::{CustomerId, ProductId, SellerId};
use online_marketplace::common::Money;
use online_marketplace::marketplace::api::{
    CheckoutItem, CheckoutRequest, MarketplacePlatform, PlatformKind,
};
use online_marketplace::marketplace::bindings::dataflow::DataflowPlatformConfig;
use online_marketplace::marketplace::{DataflowPlatform, EventualPlatform, PlatformSpec};

fn ingest(platform: &dyn MarketplacePlatform) {
    platform
        .ingest_seller(Seller::new(SellerId(1), "acme".into(), "odense".into()))
        .unwrap();
    for c in 1..=4u64 {
        platform
            .ingest_customer(Customer::new(CustomerId(c), format!("c{c}"), "addr".into()))
            .unwrap();
    }
    platform
        .ingest_product(
            Product {
                id: ProductId(1),
                seller: SellerId(1),
                name: "widget".into(),
                category: "cat".into(),
                description: String::new(),
                price: Money::from_cents(999),
                freight_value: Money::ZERO,
                version: 0,
                active: true,
            },
            1_000_000,
        )
        .unwrap();
    platform.quiesce();
}

fn run_checkouts(platform: &dyn MarketplacePlatform, n: u64) {
    for i in 0..n {
        let customer = CustomerId((i % 4) + 1);
        let _ = platform.add_to_cart(
            customer,
            CheckoutItem {
                seller: SellerId(1),
                product: ProductId(1),
                quantity: 1,
            },
        );
        let _ = platform.checkout(CheckoutRequest {
            customer,
            items: vec![],
            method: PaymentMethod::CreditCard,
        });
    }
    platform.quiesce();
}

fn main() {
    const CHECKOUTS: u64 = 40;

    // --- exactly-once dataflow with injected crashes --------------------
    let dataflow = DataflowPlatform::new(DataflowPlatformConfig {
        decline_rate: 0.0,
        ..Default::default()
    });
    ingest(&dataflow);
    dataflow.dataflow().inject_crash_after(30);
    run_checkouts(&dataflow, CHECKOUTS);
    let snap = dataflow.snapshot().unwrap();
    let counters = dataflow.counters();
    println!("statefun (crash injected mid-run):");
    println!(
        "  orders={} payments={} stock_sold={} stuck_workflows={} replays={}",
        snap.orders.len(),
        snap.payments.len(),
        snap.stock[0].qty_sold,
        snap.stuck_assemblies,
        counters["df.replays"],
    );
    assert_eq!(snap.orders.len() as u64, CHECKOUTS, "exactly once, even across a crash");

    // --- disk-backed durability: crash mid-epoch, drop EVERYTHING, then
    // --- rebuild the whole platform from the data_dir files alone -------
    use online_marketplace::dataflow::BackendCheckpointStore;
    use online_marketplace::marketplace::bindings::dataflow::persistent_ingress;
    use std::sync::Arc;

    let data_dir = std::env::temp_dir().join(format!(
        "om-failure-recovery-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&data_dir);
    let build_durable = || {
        let backend = online_marketplace::storage::make_backend_at(
            BackendKind::FileDurable,
            16,
            Some(&data_dir.join("state")),
        )
        .expect("open durable state backend");
        DataflowPlatform::new(DataflowPlatformConfig {
            partitions: 4,
            max_batch: 64,
            workers: 0,
            decline_rate: 0.0,
            checkpoint_store: Some(Arc::new(BackendCheckpointStore::new(backend))),
            ingress: Some(
                persistent_ingress(data_dir.join("ingress"), 4)
                    .expect("open persistent ingress topic"),
            ),
        })
    };

    let durable = build_durable();
    ingest(&durable);
    durable.dataflow().inject_crash_after(25); // crash mid-epoch
    run_checkouts(&durable, CHECKOUTS);
    let epochs_before = durable.dataflow().committed_epoch();
    let (recoveries, recovery_us) = durable.dataflow().recovery_stats();
    let snap = durable.snapshot().unwrap();
    println!("\nstatefun + file_durable backend + persistent ingress (crash mid-epoch):");
    println!(
        "  orders={} committed_epoch={} recoveries={} last_recovery={}us data_dir={}",
        snap.orders.len(),
        epochs_before,
        recoveries,
        recovery_us,
        data_dir.display(),
    );
    assert_eq!(snap.orders.len() as u64, CHECKOUTS);
    drop(durable); // the whole platform dies — nothing in memory survives

    // Rebuild a brand-new platform from the directory alone: WAL +
    // snapshot recovery restores the checkpoints, the segment files
    // restore the ingress log, and the runtime restarts from the last
    // committed epoch instead of empty state.
    let reborn = build_durable();
    let recovered_epoch = reborn.dataflow().committed_epoch();
    let recovery = reborn
        .dataflow()
        .last_recovery()
        .expect("rebuild restores from the files");
    println!("  after rebuild from files: recovered_epochs={recovered_epoch} lost_epochs={} restored_keys={} ({}us)",
        epochs_before - recovered_epoch,
        recovery.restored_keys,
        recovery.duration.as_micros(),
    );
    assert_eq!(recovered_epoch, epochs_before, "no committed epoch is lost");
    // The stock function's state survived: all sold quantity is still
    // accounted for in the rebuilt platform.
    let dash = reborn
        .seller_dashboard(SellerId(1))
        .expect("seller state survives the rebuild");
    assert_eq!(dash.seller, SellerId(1));
    drop(reborn);
    let _ = std::fs::remove_dir_all(&data_dir);

    // --- eventual actors with lossy events -------------------------------
    let eventual = EventualPlatform::new(
        &PlatformSpec::new(PlatformKind::Eventual, BackendKind::Eventual)
            .faults(FaultConfig::lossy(0.10, 0.0, 42))
            .decline_rate(0.0),
    );
    ingest(&eventual);
    run_checkouts(&eventual, CHECKOUTS);
    let snap = eventual.snapshot().unwrap();
    println!("\norleans_eventual (10% event drop — at-most-once messaging):");
    println!(
        "  orders={} payments={} stock_sold={} stuck_workflows={} reserved_leak={}",
        snap.orders.len(),
        snap.payments.len(),
        snap.stock[0].qty_sold,
        snap.stuck_assemblies,
        snap.stock[0].item.qty_reserved,
    );
    println!("\nexactly-once recovers everything; eventual messaging strands partial work.");
}
