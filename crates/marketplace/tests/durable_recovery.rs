//! E2E: a platform built with `BackendKind::FileDurable` and a
//! `data_dir` can be **fully dropped and rebuilt from the directory
//! alone** — no shared backend instance, no shared ingress `Arc`, the
//! same situation a fresh process image faces after `kill -9`. Zero
//! committed epochs are lost and none are replayed (every checkout
//! lands exactly once), and in-flight ingress records persisted before
//! the crash are replayed by the rebuilt platform.

use om_common::config::BackendKind;
use om_common::entity::{Customer, PaymentMethod, Product, Seller};
use om_common::ids::{CustomerId, OrderId, ProductId, SellerId};
use om_common::Money;
use om_marketplace::api::{CheckoutItem, CheckoutOutcome, CheckoutRequest, MarketplacePlatform};
use om_marketplace::{build_platform, PlatformKind, PlatformSpec};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn scratch(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "om-durable-e2e-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

struct DirGuard(PathBuf);
impl Drop for DirGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

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
                price: Money::from_cents(500),
                freight_value: Money::ZERO,
                version: 0,
                active: true,
            },
            100_000,
        )
        .unwrap();
    platform.quiesce();
}

fn checkout(platform: &dyn MarketplacePlatform, customer: u64) {
    platform
        .add_to_cart(
            CustomerId(customer),
            CheckoutItem {
                seller: SellerId(1),
                product: ProductId(1),
                quantity: 2,
            },
        )
        .unwrap();
    let outcome = platform
        .checkout(CheckoutRequest {
            customer: CustomerId(customer),
            items: vec![],
            method: PaymentMethod::CreditCard,
        })
        .unwrap();
    assert!(matches!(outcome, CheckoutOutcome::Placed { .. }));
}

#[test]
fn dataflow_platform_rebuilds_cold_from_data_dir_alone() {
    const CHECKOUTS: u64 = 12;
    let dir = scratch("dataflow");
    let _guard = DirGuard(dir.clone());
    let spec = PlatformSpec::new(PlatformKind::Dataflow, BackendKind::FileDurable)
        .parallelism(2)
        .decline_rate(0.0)
        .data_dir(&dir);

    // First life: ingest, run committed work, then leave one record in
    // flight (fire-and-forget price update, no quiesce) and die.
    let (orders_before, sold_before) = {
        let platform = build_platform(&spec);
        ingest(platform.as_ref());
        for i in 0..CHECKOUTS {
            checkout(platform.as_ref(), (i % 4) + 1);
        }
        platform.quiesce();
        let snap = platform.snapshot().unwrap();
        assert_eq!(snap.orders.len() as u64, CHECKOUTS);
        platform
            .price_update(SellerId(1), ProductId(1), Money::from_cents(999))
            .unwrap();
        platform
            .ingest_customer(Customer::new(CustomerId(99), "late".into(), "addr".into()))
            .unwrap();
        // No quiesce: the update and the late ingest may still be in the
        // persistent ingress log when the platform drops — the crash
        // window.
        (snap.orders.len(), snap.stock[0].qty_sold)
    };

    // Second life: nothing shared but the directory.
    let reborn = build_platform(&spec);
    assert_eq!(reborn.backend(), Some(BackendKind::FileDurable));
    reborn.quiesce(); // drain any replayed in-flight records
    let snap = reborn.snapshot().unwrap();
    assert_eq!(
        snap.orders.len(),
        orders_before,
        "zero committed checkouts lost, none replayed"
    );
    assert_eq!(snap.stock[0].qty_sold, sold_before, "stock accounting survives");
    assert_eq!(snap.sellers.len(), 1, "catalog rebuilt from recovered state");
    assert_eq!(
        snap.customers.len(),
        5,
        "catalog covers checkpointed entities AND the in-flight ingest"
    );
    assert!(snap.customers.iter().any(|c| c.id == CustomerId(99)));
    // The in-flight price update was replayed exactly once from the
    // persistent ingress log (or had already landed pre-crash — either
    // way the final price is the updated one).
    assert_eq!(
        snap.products[0].price,
        Money::from_cents(999),
        "in-flight ingress records replay from disk"
    );
    let dash = reborn.seller_dashboard(SellerId(1)).unwrap();
    assert_eq!(dash.seller, SellerId(1));

    // The rebuilt platform keeps serving traffic.
    checkout(reborn.as_ref(), 1);
    reborn.quiesce();
    assert_eq!(reborn.snapshot().unwrap().orders.len(), orders_before + 1);
}

#[test]
fn actor_platforms_rebuild_catalog_and_entity_state_cold_from_data_dir_alone() {
    const CHECKOUTS: u64 = 8;
    for kind in [
        PlatformKind::Eventual,
        PlatformKind::Transactional,
        PlatformKind::Customized,
    ] {
        let dir = scratch("actor-catalog");
        let _guard = DirGuard(dir.clone());
        let spec = PlatformSpec::new(kind, BackendKind::FileDurable)
            .parallelism(2)
            .decline_rate(0.0)
            .data_dir(&dir);

        // First life: ingest the catalog, run committed checkouts, die.
        let (sold_before, paid_before) = {
            let platform = build_platform(&spec);
            ingest(platform.as_ref());
            for i in 0..CHECKOUTS {
                checkout(platform.as_ref(), (i % 4) + 1);
            }
            platform.quiesce();
            let snap = platform.snapshot().unwrap();
            let paid: u64 = snap.customers.iter().map(|c| c.success_payment_count).sum();
            assert!(paid > 0, "{kind:?}: checkouts paid in the first life");
            (snap.stock[0].qty_sold, paid)
        };

        // Second life: nothing shared but the directory. The catalog must
        // be rebuilt from the grain snapshots on disk — without it the
        // platform would report an empty marketplace even though every
        // entity's state is recoverable.
        let reborn = build_platform(&spec);
        let snap = reborn.snapshot().unwrap();
        assert_eq!(snap.sellers.len(), 1, "{kind:?}: seller catalog rebuilt");
        assert_eq!(snap.customers.len(), 4, "{kind:?}: customer catalog rebuilt");
        assert_eq!(snap.products.len(), 1, "{kind:?}: product catalog rebuilt");
        assert_eq!(snap.products[0].price, Money::from_cents(500));
        assert_eq!(
            snap.stock[0].qty_sold, sold_before,
            "{kind:?}: stock accounting survives the rebuild"
        );
        assert_eq!(
            snap.customers
                .iter()
                .map(|c| c.success_payment_count)
                .sum::<u64>(),
            paid_before,
            "{kind:?}: customer payment counters survive the rebuild"
        );

        // Re-ingesting a recovered entity must not double-count it.
        reborn
            .ingest_seller(Seller::new(SellerId(1), "acme".into(), "odense".into()))
            .unwrap();
        reborn.quiesce();
        assert_eq!(
            reborn.snapshot().unwrap().sellers.len(),
            1,
            "{kind:?}: catalog dedups re-ingestion after recovery"
        );

        // And the rebuilt platform keeps serving committed work.
        checkout(reborn.as_ref(), 1);
        reborn.quiesce();
        assert!(
            reborn.snapshot().unwrap().stock[0].qty_sold > sold_before,
            "{kind:?}: post-rebuild checkouts keep landing"
        );
    }
}

#[test]
fn cold_rebuild_loses_no_committed_epoch_and_replays_none() {
    use om_marketplace::bindings::dataflow::{
        persistent_ingress, DataflowPlatform, DataflowPlatformConfig,
    };
    use om_dataflow::BackendCheckpointStore;
    use std::sync::Arc;

    let dir = scratch("epochs");
    let _guard = DirGuard(dir.clone());
    let build = || {
        let backend =
            om_storage::make_backend_at(BackendKind::FileDurable, 8, Some(&dir.join("state")))
                .unwrap();
        DataflowPlatform::new(DataflowPlatformConfig {
            partitions: 2,
            max_batch: 8,
            workers: 0,
            decline_rate: 0.0,
            checkpoint_store: Some(Arc::new(BackendCheckpointStore::new(backend))),
            ingress: Some(persistent_ingress(dir.join("ingress"), 2).unwrap()),
        })
    };

    let epoch_before = {
        let platform = build();
        ingest(&platform);
        for i in 0..8u64 {
            checkout(&platform, (i % 4) + 1);
        }
        platform.quiesce();
        platform.dataflow().committed_epoch()
    };
    assert!(epoch_before > 0);

    let reborn = build();
    assert_eq!(
        reborn.dataflow().committed_epoch(),
        epoch_before,
        "the cold restart resumes from exactly the last committed epoch"
    );
    let recovery = reborn.dataflow().last_recovery().expect("build-time restore");
    assert_eq!(recovery.epoch, epoch_before);
    assert!(recovery.restored_keys > 0, "keyed state restored from disk");
    assert_eq!(
        reborn.dataflow().pending_ingress(),
        0,
        "everything committed pre-crash stays committed — nothing replays"
    );
    // New work advances from the recovered epoch, not from zero.
    checkout(&reborn, 1);
    reborn.quiesce();
    assert!(reborn.dataflow().committed_epoch() > epoch_before);
}

/// A failed segment write wedges the persistent ingress log; from then
/// on every dataflow operation that appends to it returns the typed
/// `Wedged` error (which the gateway maps to 503) instead of panicking,
/// an awaited one returns at once instead of waiting out its deadline,
/// and reads of committed state still work.
#[test]
fn wedged_ingress_log_fails_dataflow_writes_with_a_typed_error() {
    use om_marketplace::bindings::dataflow::{
        persistent_ingress_with_vfs, DataflowPlatform, DataflowPlatformConfig,
    };
    use om_storage::vfs::FaultVfs;
    use std::sync::Arc;

    let dir = scratch("wedged-ingress");
    let _guard = DirGuard(dir.clone());
    let vfs = FaultVfs::new(0x1D6E);
    let platform = DataflowPlatform::new(DataflowPlatformConfig {
        partitions: 2,
        decline_rate: 0.0,
        ingress: Some(
            persistent_ingress_with_vfs(&dir, 2, Default::default(), Arc::new(vfs.clone()))
                .unwrap(),
        ),
        ..Default::default()
    });
    ingest(&platform);
    checkout(&platform, 1);
    platform.quiesce();

    // Clones share one fault schedule: the disk is full from here on.
    let _ = vfs.clone().disk_full_after(0);
    let item = CheckoutItem {
        seller: SellerId(1),
        product: ProductId(1),
        quantity: 1,
    };
    let started = std::time::Instant::now();
    let results = [
        (
            "add_to_cart",
            platform.add_to_cart(CustomerId(2), item).err(),
        ),
        (
            "checkout",
            platform
                .checkout(CheckoutRequest {
                    customer: CustomerId(2),
                    items: vec![],
                    method: PaymentMethod::CreditCard,
                })
                .err(),
        ),
        (
            "price_update",
            platform
                .price_update(SellerId(1), ProductId(1), Money::from_cents(1))
                .err(),
        ),
        (
            "product_delete",
            platform.product_delete(SellerId(1), ProductId(1)).err(),
        ),
        ("update_delivery", platform.update_delivery(10).err()),
        (
            "ingest_seller",
            platform
                .ingest_seller(Seller::new(SellerId(2), "b".into(), "c".into()))
                .err(),
        ),
    ];
    for (op, err) in results {
        let err = err.unwrap_or_else(|| panic!("{op} acknowledged a write the log refused"));
        assert_eq!(err.label(), "wedged", "{op}: {err}");
    }
    assert!(
        started.elapsed() < std::time::Duration::from_secs(10),
        "awaited ops fail at submit, not at their completion deadline"
    );
    assert!(
        vfs.fired().iter().any(|f| f.contains("disk full")),
        "{:?}",
        vfs.fired()
    );
    assert!(
        platform.crash_and_recover().is_none(),
        "no drill wave fits a wedged log"
    );
    let dash = platform.seller_dashboard(SellerId(1)).unwrap();
    assert_eq!(dash.in_progress_count, 1, "committed state still reads");
    assert_eq!(platform.snapshot().unwrap().orders.len(), 1);
}

/// Every binding's `unwedge` repairs the store it commits to: a failed
/// fsync wedges a `file_durable` backend under each of the four bindings,
/// the binding reports it, and one `unwedge` makes the store healthy
/// again. Over a memory backend there is nothing to repair.
#[test]
fn every_binding_unwedges_the_store_it_commits_to() {
    use om_marketplace::UnwedgeOutcome;
    use om_storage::{FaultVfs, FileBackend, FileBackendOptions, StateBackend, WriteBatch};
    use std::sync::Arc;

    for kind in [
        PlatformKind::Dataflow,
        PlatformKind::Eventual,
        PlatformKind::Transactional,
        PlatformKind::Customized,
    ] {
        let dir = scratch("unwedge");
        let _guard = DirGuard(dir.clone());
        let vfs = FaultVfs::new(0x0DD);
        let options = FileBackendOptions {
            sync_commits: true,
            snapshot_every: 0,
            ..Default::default()
        };
        let backend =
            Arc::new(FileBackend::open_with_vfs(&dir, options, Arc::new(vfs.clone())).unwrap());
        let spec = PlatformSpec::new(kind, BackendKind::FileDurable).parallelism(2);
        let platform = build_platform(&spec.backend_instance(backend.clone()));
        assert!(!platform.is_wedged(), "{kind:?}");
        // The next fsync fails, wedging the store under the commit that
        // takes it.
        let _ = vfs.clone().fail_nth_sync(vfs.syncs_seen() + 1);
        let probe = WriteBatch::new().put(b"probe".to_vec(), b"x".to_vec());
        assert_eq!(
            backend.commit(probe).unwrap_err().label(),
            "wedged",
            "{kind:?}"
        );
        assert!(platform.is_wedged(), "{kind:?}");
        assert!(
            matches!(
                platform.unwedge(),
                Some(Ok(UnwedgeOutcome {
                    was_wedged: true,
                    healthy: true,
                    ..
                }))
            ),
            "{kind:?}"
        );
        assert!(!platform.is_wedged(), "{kind:?}");
        let memory = build_platform(&PlatformSpec::new(kind, BackendKind::SnapshotIsolation));
        assert!(memory.unwedge().is_none(), "{kind:?}");
    }
}

/// A dataflow platform over `<dir>/state` and `<dir>/ingress`, built the
/// way a cold process builds it.
fn dataflow_over(dir: &std::path::Path) -> om_marketplace::DataflowPlatform {
    use om_dataflow::BackendCheckpointStore;
    use om_marketplace::bindings::dataflow::{persistent_ingress, DataflowPlatformConfig};
    let backend =
        om_storage::make_backend_at(BackendKind::FileDurable, 8, Some(&dir.join("state"))).unwrap();
    om_marketplace::DataflowPlatform::new(DataflowPlatformConfig {
        partitions: 2,
        max_batch: 8,
        workers: 0,
        decline_rate: 0.0,
        checkpoint_store: Some(std::sync::Arc::new(BackendCheckpointStore::new(backend))),
        ingress: Some(persistent_ingress(dir.join("ingress"), 2).unwrap()),
    })
}

/// Appends `msg` for `(fn_type, key)` to the ingress log at `<dir>/ingress`
/// with no platform running: a record a crashed process had submitted but
/// no epoch had committed.
fn append_in_flight(
    dir: &std::path::Path,
    fn_type: &'static str,
    key: u64,
    msg: om_marketplace::domain::flow::Msg,
) {
    use om_dataflow::{Address, Dataflow};
    let ingress =
        om_marketplace::bindings::dataflow::persistent_ingress(dir.join("ingress"), 2).unwrap();
    let submitter: Dataflow<om_marketplace::domain::flow::Msg> = Dataflow::builder()
        .partitions(2)
        .ingress_topic(ingress)
        .build();
    submitter.submit(Address::new(fn_type, key), msg).unwrap();
}

/// A rebuilt platform mints transaction ids past every id in its ingress
/// log: a checkout in flight at the crash replays with its own tid, and
/// the first checkout of the new life gets its own outcome, not the
/// replayed one's.
#[test]
fn rebuilt_dataflow_checkout_never_takes_a_replayed_outcome() {
    use om_common::ids::TransactionId;
    use om_common::time::EventTime;
    use om_marketplace::bindings::kinds;
    use om_marketplace::domain::flow::Msg;

    let dir = scratch("tid-checkout");
    let _guard = DirGuard(dir.clone());
    ingest(&dataflow_over(&dir));
    // The first life's first checkout, of customer 3's empty cart, was
    // appended but never committed.
    append_in_flight(
        &dir,
        kinds::CART,
        3,
        Msg::Checkout {
            tid: TransactionId(1),
            method: PaymentMethod::CreditCard,
            decline_rate_bp: 0,
            at: EventTime(1),
        },
    );
    let reborn = dataflow_over(&dir);
    reborn.quiesce(); // the in-flight checkout replays and is rejected
    reborn
        .add_to_cart(
            CustomerId(1),
            CheckoutItem {
                seller: SellerId(1),
                product: ProductId(1),
                quantity: 2,
            },
        )
        .unwrap();
    let outcome = reborn
        .checkout(CheckoutRequest {
            customer: CustomerId(1),
            items: vec![],
            method: PaymentMethod::CreditCard,
        })
        .unwrap();
    assert!(
        matches!(outcome, CheckoutOutcome::Placed { .. }),
        "customer 1's checkout answered {outcome:?}"
    );
}

/// A rebuilt platform's first Update Delivery gets its own answer, not
/// the one of a delivery that was in flight at the crash.
#[test]
fn rebuilt_dataflow_delivery_never_takes_a_replayed_answer() {
    use om_common::ids::TransactionId;
    use om_common::time::EventTime;
    use om_marketplace::domain::flow::Msg;

    let dir = scratch("tid-delivery");
    let _guard = DirGuard(dir.clone());
    {
        let platform = dataflow_over(&dir);
        ingest(&platform);
        checkout(&platform, 1); // tid 1
        platform.quiesce();
    }
    // The first life's second transaction, a delivery round with no
    // sellers to deliver, was appended but never committed.
    append_in_flight(
        &dir,
        "delivery",
        2,
        Msg::DeliveryRequest {
            tid: TransactionId(2),
            sellers: vec![SellerId(1)],
            max: 0,
            at: EventTime(2),
        },
    );
    let reborn = dataflow_over(&dir);
    reborn.quiesce(); // the in-flight round replays and delivers nothing
    checkout(&reborn, 2);
    assert_eq!(
        reborn.update_delivery(10).unwrap(),
        1,
        "the round delivers seller 1's oldest order"
    );
}

/// The origin time a rebuilt platform stamps is above every time its
/// first life stamped, so Update Delivery still takes the oldest order
/// first.
#[test]
fn rebuilt_dataflow_stamps_times_past_the_first_life() {
    let dir = scratch("at-rebuild");
    let _guard = DirGuard(dir.clone());
    let shipped_before: Vec<(OrderId, u64)> = {
        let platform = dataflow_over(&dir);
        ingest(&platform);
        for i in 0..6u64 {
            checkout(&platform, (i % 4) + 1);
        }
        platform.quiesce();
        let snap = platform.snapshot().unwrap();
        snap.shipments
            .iter()
            .map(|p| (p.order, p.shipped_at))
            .collect()
    };
    assert_eq!(shipped_before.len(), 6);
    let reborn = dataflow_over(&dir);
    checkout(&reborn, 1);
    reborn.quiesce();
    let snap = reborn.snapshot().unwrap();
    let new_order: Vec<u64> = snap
        .shipments
        .iter()
        .filter(|p| !shipped_before.iter().any(|&(order, _)| order == p.order))
        .map(|p| p.shipped_at)
        .collect();
    assert_eq!(new_order.len(), 1, "{:?}", snap.shipments);
    assert!(
        shipped_before.iter().all(|&(_, at)| at < new_order[0]),
        "the new order shipped at {}, the first life's at {shipped_before:?}",
        new_order[0]
    );
}

/// A `file_durable` dataflow platform over `FaultVfs` whose next fsync
/// fails, with the catalog ingested and customer 1's cart filled.
fn dataflow_about_to_wedge(dir: &std::path::Path) -> Box<dyn MarketplacePlatform> {
    use om_storage::{FaultVfs, FileBackend, FileBackendOptions};
    use std::sync::Arc;
    let vfs = FaultVfs::new(0x5EED);
    let options = FileBackendOptions {
        sync_commits: true,
        snapshot_every: 0,
        ..Default::default()
    };
    let backend =
        Arc::new(FileBackend::open_with_vfs(dir, options, Arc::new(vfs.clone())).unwrap());
    let spec = PlatformSpec::new(PlatformKind::Dataflow, BackendKind::FileDurable)
        .parallelism(2)
        .decline_rate(0.0);
    let platform = build_platform(&spec.backend_instance(backend));
    ingest(platform.as_ref());
    platform
        .add_to_cart(
            CustomerId(1),
            CheckoutItem {
                seller: SellerId(1),
                product: ProductId(1),
                quantity: 1,
            },
        )
        .unwrap();
    platform.quiesce();
    let _ = vfs.clone().fail_nth_sync(vfs.syncs_seen() + 1);
    platform
}

/// A checkout whose epoch cannot commit on a wedged store returns the
/// typed `wedged` error at once instead of re-running the failing epoch
/// until its 30 s deadline.
#[test]
fn awaited_dataflow_checkout_on_a_wedged_store_fails_at_once() {
    let dir = scratch("wedged-checkout");
    let _guard = DirGuard(dir.clone());
    let platform = dataflow_about_to_wedge(&dir);
    let started = std::time::Instant::now();
    let err = platform
        .checkout(CheckoutRequest {
            customer: CustomerId(1),
            items: vec![],
            method: PaymentMethod::CreditCard,
        })
        .unwrap_err();
    let took = started.elapsed();
    assert_eq!(err.label(), "wedged", "{err}");
    assert!(took < std::time::Duration::from_secs(1), "took {took:?}");
    assert!(platform.is_wedged());
}

/// `quiesce` on a wedged store stops at the first failed epoch instead of
/// waiting out its 30 s deadline, and drains once the store is repaired.
#[test]
fn dataflow_quiesce_on_a_wedged_store_returns_at_once() {
    let dir = scratch("wedged-quiesce");
    let _guard = DirGuard(dir.clone());
    let platform = dataflow_about_to_wedge(&dir);
    platform
        .price_update(SellerId(1), ProductId(1), Money::from_cents(700))
        .unwrap();
    let started = std::time::Instant::now();
    platform.quiesce();
    let took = started.elapsed();
    assert!(took < std::time::Duration::from_secs(1), "took {took:?}");
    assert!(platform.is_wedged());
    assert!(matches!(platform.unwedge(), Some(Ok(_))));
    platform.quiesce();
    assert_eq!(
        platform.snapshot().unwrap().products[0].price,
        Money::from_cents(700),
        "the update commits once the store is repaired"
    );
}
