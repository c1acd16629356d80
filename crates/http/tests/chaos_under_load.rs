//! Chaos under load at the HTTP layer: flash-sale traffic (every client
//! hammering ONE product) through real HTTP/1.1 bytes while
//! `POST /admin/recovery-drill` fires the crash path mid-sale.
//!
//! The contract under chaos: the drill restarts from a committed epoch
//! and loses none (`final_epoch >= recovered_epoch`), concurrent
//! checkouts map only to well-defined statuses (success, business
//! rejection, conflict, or explicit shed — never a 500), and traffic
//! keeps succeeding *after* recovery.

use om_http::{EventConfig, HttpServer, MarketplaceGateway, Method};
use serde_json::json;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

fn seller_json(id: u64) -> serde_json::Value {
    json!({
        "id": id,
        "name": format!("seller-{id}"),
        "city": "copenhagen",
        "order_entry_count": 0,
        "delivered_package_count": 0,
        "revenue": 0,
    })
}

fn customer_json(id: u64) -> serde_json::Value {
    json!({
        "id": id,
        "name": format!("customer-{id}"),
        "address": "universitetsparken 1",
        "success_payment_count": 0,
        "failed_payment_count": 0,
        "delivery_count": 0,
        "abandoned_cart_count": 0,
        "total_spent": 0,
    })
}

fn product_json(id: u64, seller: u64, stock: u32) -> serde_json::Value {
    json!({
        "product": {
            "id": id,
            "seller": seller,
            "name": format!("product-{id}"),
            "category": "books",
            "description": "the flash-sale item",
            "price": 2_500,
            "freight_value": 100,
            "version": 0,
            "active": true,
        },
        "initial_stock": stock,
    })
}

/// The disk-fault drill over live HTTP: a scheduled fsync failure
/// wedges the durable store mid-flash-sale. The gateway must degrade
/// gracefully — every affected mutation sheds with **503 + a
/// `retry-after` hint** (never a 500, never a silent ack over lost
/// bytes), `/health` reports the wedge, and `POST /admin/unwedge`
/// repairs the store under the still-running sale: checkouts resume and
/// the conservation audit stays clean.
#[test]
fn disk_fault_mid_flash_sale_sheds_503_and_unwedge_resumes_checkouts() {
    use om_common::config::{BackendKind, GroupCommitPolicy, SnapshotMode};
    use om_marketplace::{build_platform, MarketplacePlatform, PlatformKind, PlatformSpec};
    use om_storage::vfs::FaultVfs;
    use om_storage::{FileBackend, FileBackendOptions, StateBackend};

    const SEED: u64 = 0x0503_FA17;
    const INITIAL_STOCK: u32 = 100_000;
    const CUSTOMERS: u64 = 4;

    fn scratch() -> std::path::PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "om-http-disk-fault-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }
    struct DirGuard(std::path::PathBuf);
    impl Drop for DirGuard {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn start_server(dir: &std::path::Path, vfs: FaultVfs) -> HttpServer {
        let backend: Arc<dyn StateBackend> = Arc::new(
            FileBackend::open_with_vfs(
                dir.join("state"),
                FileBackendOptions {
                    shards: 2,
                    snapshot_every: 0,
                    segment_bytes: 1 << 20,
                    sync_commits: true,
                    group_commit: GroupCommitPolicy::Off,
                    snapshot_mode: SnapshotMode::Full,
                    compact_max_deltas: 4,
                    compact_ratio_pct: 100,
                    recovery_threads: 1,
                },
                Arc::new(vfs),
            )
            .unwrap(),
        );
        let platform: Arc<dyn MarketplacePlatform> = Arc::from(build_platform(
            &PlatformSpec::new(PlatformKind::Customized, BackendKind::FileDurable)
                .parallelism(2)
                .decline_rate(0.0)
                .backend_instance(backend),
        ));
        HttpServer::start_event_driven(
            Arc::new(MarketplaceGateway::new(platform)),
            EventConfig::default(),
        )
    }

    fn ingest_over_http(server: &HttpServer) {
        let mut client = server.connect();
        assert_eq!(
            client
                .request(Method::Post, "/ingest/sellers", Some(&seller_json(1)))
                .unwrap()
                .status,
            201
        );
        for c in 1..=CUSTOMERS {
            assert_eq!(
                client
                    .request(Method::Post, "/ingest/customers", Some(&customer_json(c)))
                    .unwrap()
                    .status,
                201
            );
        }
        assert_eq!(
            client
                .request(
                    Method::Post,
                    "/ingest/products",
                    Some(&product_json(1, 1, INITIAL_STOCK)),
                )
                .unwrap()
                .status,
            201
        );
        server.gateway().platform().quiesce();
        client.close();
    }

    // Calibrate: how many fsyncs a clean HTTP ingest costs, so the
    // fault lands squarely inside the sale.
    let ingest_syncs = {
        let dir = scratch();
        let _g = DirGuard(dir.clone());
        let probe = FaultVfs::new(SEED).recording();
        let server = start_server(&dir, probe.clone());
        ingest_over_http(&server);
        server.shutdown();
        probe.syncs_seen()
    };

    let dir = scratch();
    let _g = DirGuard(dir.clone());
    let vfs = FaultVfs::new(SEED).fail_nth_sync(ingest_syncs + 40);
    let server = start_server(&dir, vfs.clone());
    ingest_over_http(&server);

    let stop = AtomicBool::new(false);
    let unwedged = AtomicBool::new(false);
    let placed_before = AtomicU64::new(0);
    let placed_after = AtomicU64::new(0);
    let shed = AtomicU64::new(0);
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for c in 1..=CUSTOMERS {
            let (server, stop, unwedged, placed_before, placed_after, shed) =
                (&server, &stop, &unwedged, &placed_before, &placed_after, &shed);
            handles.push(scope.spawn(move || {
                let mut client = server.connect();
                let item = json!({"seller": 1, "product": 1, "quantity": 1});
                let checkout = json!({
                    "items": [{"seller": 1, "product": 1, "quantity": 1}],
                    "method": "CreditCard",
                });
                while !stop.load(Ordering::Relaxed) {
                    let add = client
                        .request(
                            Method::Post,
                            &format!("/customers/{c}/cart/items"),
                            Some(&item),
                        )
                        .unwrap();
                    if add.status == 503 {
                        // The wedge must shed with an explicit retry
                        // hint, not a bare refusal.
                        assert_eq!(
                            add.headers.get("retry-after"),
                            Some("1"),
                            "503 without a retry-after hint"
                        );
                        shed.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    assert_ne!(add.status, 500, "internal error on add-to-cart");
                    let resp = client
                        .request(
                            Method::Post,
                            &format!("/customers/{c}/checkout"),
                            Some(&checkout),
                        )
                        .unwrap();
                    // 200 placed; 409/422 business conflict/rejection;
                    // 408/503 explicit shed. A 500 is the one status the
                    // disk fault must never produce.
                    match resp.status {
                        200 => {
                            if unwedged.load(Ordering::Relaxed) {
                                placed_after.fetch_add(1, Ordering::Relaxed);
                            } else {
                                placed_before.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        503 => {
                            assert_eq!(
                                resp.headers.get("retry-after"),
                                Some("1"),
                                "503 without a retry-after hint"
                            );
                            shed.fetch_add(1, Ordering::Relaxed);
                        }
                        409 | 422 | 408 => {}
                        other => panic!(
                            "unexpected checkout status {other} under a disk fault: {}",
                            String::from_utf8_lossy(&resp.body)
                        ),
                    }
                }
                client.close();
            }));
        }

        // Ramp, then wait for the scheduled fsync failure to wedge the
        // store under live traffic.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
        while (placed_before.load(Ordering::Relaxed) < 5 || shed.load(Ordering::Relaxed) == 0)
            && std::time::Instant::now() < deadline
        {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(placed_before.load(Ordering::Relaxed) >= 5, "sale never ramped");
        assert!(shed.load(Ordering::Relaxed) > 0, "the fsync fault never shed a request");
        assert!(!vfs.fired().is_empty(), "fault schedule did not fire");

        // The wedge is visible on the health surface while reads stay up.
        let mut admin = server.connect();
        let health = admin.request(Method::Get, "/health", None).unwrap();
        assert_eq!(health.status, 200, "health must stay up while wedged");
        let health: serde_json::Value = health.json_body().unwrap();
        assert_eq!(health["wedged"], serde_json::Value::from(true));

        // Repair under the still-running sale.
        let repair = admin.request(Method::Post, "/admin/unwedge", None).unwrap();
        assert_eq!(
            repair.status,
            200,
            "{}",
            String::from_utf8_lossy(&repair.body)
        );
        let outcome: serde_json::Value = repair.json_body().unwrap();
        assert_eq!(outcome["healthy"], serde_json::Value::from(true), "{outcome}");
        unwedged.store(true, Ordering::Relaxed);

        // Checkouts must resume against the repaired store.
        let resume_deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while placed_after.load(Ordering::Relaxed) < 5
            && std::time::Instant::now() < resume_deadline
        {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().expect("load thread panicked");
        }

        let health = admin.request(Method::Get, "/health", None).unwrap();
        let health: serde_json::Value = health.json_body().unwrap();
        assert_eq!(health["wedged"], serde_json::Value::from(false));
        admin.close();
    });
    assert!(
        placed_after.load(Ordering::Relaxed) >= 5,
        "checkouts did not resume after the unwedge"
    );

    // Conservation audit over the quiesced platform: the wedge window
    // must not have created or destroyed stock units, leaked
    // reservations, or double-charged a checkout.
    let platform = server.gateway().platform();
    platform.quiesce();
    let snap = platform.snapshot().unwrap();
    for stock in &snap.stock {
        assert_eq!(
            stock.item.qty_available as u64 + stock.item.qty_reserved as u64 + stock.qty_sold,
            INITIAL_STOCK as u64,
            "units created or destroyed across the wedge: {stock:?}"
        );
        assert_eq!(stock.item.qty_reserved, 0, "reservation leaked across the wedge");
    }
    let distinct_orders: std::collections::BTreeSet<_> =
        snap.payments.iter().map(|p| p.order).collect();
    assert_eq!(
        distinct_orders.len(),
        snap.payments.len(),
        "a checkout was double-charged across the wedge"
    );
    assert!(
        snap.orders.len() as u64
            >= placed_before.load(Ordering::Relaxed) + placed_after.load(Ordering::Relaxed),
        "an acked checkout vanished across the wedge"
    );
    server.shutdown();
}

/// Flash-sale checkouts racing the recovery drill over the durable
/// dataflow cell.
#[test]
fn recovery_drill_mid_flash_sale_over_http() {
    use om_common::config::BackendKind;
    use om_marketplace::{PlatformKind, PlatformSpec};

    let spec = PlatformSpec::new(PlatformKind::Dataflow, BackendKind::FileDurable)
        .parallelism(2)
        .decline_rate(0.0);
    let server = HttpServer::start_event_driven(
        Arc::new(MarketplaceGateway::for_spec(&spec)),
        EventConfig::default(),
    );

    // Catalogue over the HTTP surface: one seller, one hot product
    // with deep stock, a pool of customers.
    const CUSTOMERS: u64 = 6;
    let mut client = server.connect();
    assert_eq!(
        client
            .request(Method::Post, "/ingest/sellers", Some(&seller_json(1)))
            .unwrap()
            .status,
        201
    );
    for c in 1..=CUSTOMERS {
        assert_eq!(
            client
                .request(Method::Post, "/ingest/customers", Some(&customer_json(c)))
                .unwrap()
                .status,
            201
        );
    }
    assert_eq!(
        client
            .request(
                Method::Post,
                "/ingest/products",
                Some(&product_json(1, 1, 10_000)),
            )
            .unwrap()
            .status,
        201
    );
    // Dataflow ingestion is asynchronous; drain before the sale opens.
    server.gateway().platform().quiesce();
    client.close();

    // Flash sale: every client thread checks out the same product in
    // a loop while the main thread pulls the crash lever.
    let stop = AtomicBool::new(false);
    let drill_fired = AtomicBool::new(false);
    let placed_before_drill = AtomicU64::new(0);
    let placed_after_drill = AtomicU64::new(0);
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for c in 1..=CUSTOMERS {
            let server = &server;
            let stop = &stop;
            let drill_fired = &drill_fired;
            let placed_before_drill = &placed_before_drill;
            let placed_after_drill = &placed_after_drill;
            handles.push(scope.spawn(move || {
                let mut client = server.connect();
                let item = json!({"seller": 1, "product": 1, "quantity": 1});
                let checkout = json!({
                    "items": [{"seller": 1, "product": 1, "quantity": 1}],
                    "method": "CreditCard",
                });
                while !stop.load(Ordering::Relaxed) {
                    let add = client
                        .request(
                            Method::Post,
                            &format!("/customers/{c}/cart/items"),
                            Some(&item),
                        )
                        .unwrap();
                    assert_ne!(add.status, 500, "internal error on add-to-cart");
                    let resp = client
                        .request(
                            Method::Post,
                            &format!("/customers/{c}/checkout"),
                            Some(&checkout),
                        )
                        .unwrap();
                    // 200 placed; 409/422 business conflict/rejection;
                    // 408/503 explicit shed while the crash lands. A
                    // 500 is the one status chaos must never produce.
                    match resp.status {
                        200 => {
                            if drill_fired.load(Ordering::Relaxed) {
                                placed_after_drill.fetch_add(1, Ordering::Relaxed);
                            } else {
                                placed_before_drill.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        409 | 422 | 408 | 503 => {}
                        other => panic!(
                            "unexpected checkout status {other} under chaos: {}",
                            String::from_utf8_lossy(&resp.body)
                        ),
                    }
                }
                client.close();
            }));
        }

        // Let the sale ramp, then crash it mid-flight.
        let mut admin = server.connect();
        while placed_before_drill.load(Ordering::Relaxed) < 10 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let drill = admin
            .request(Method::Post, "/admin/recovery-drill", None)
            .unwrap();
        drill_fired.store(true, Ordering::Relaxed);
        assert_eq!(
            drill.status,
            200,
            "{}",
            String::from_utf8_lossy(&drill.body)
        );
        let outcome: serde_json::Value = drill.json_body().unwrap();
        let recovered = outcome["recovered_epoch"].as_u64().unwrap();
        let final_epoch = outcome["final_epoch"].as_u64().unwrap();
        assert!(
            recovered >= 1,
            "drill must restart from a committed epoch: {outcome}"
        );
        assert!(
            final_epoch >= recovered,
            "a committed epoch was lost: {outcome}"
        );
        assert_eq!(outcome["store"], serde_json::Value::from("file_durable"));

        // The sale keeps selling after recovery.
        let resume_deadline =
            std::time::Instant::now() + std::time::Duration::from_secs(10);
        while placed_after_drill.load(Ordering::Relaxed) < 5
            && std::time::Instant::now() < resume_deadline
        {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().expect("load thread panicked");
        }
        admin.close();
    });

    assert!(
        placed_before_drill.load(Ordering::Relaxed) >= 10,
        "sale never ramped"
    );
    assert!(
        placed_after_drill.load(Ordering::Relaxed) >= 5,
        "checkouts did not resume after the drill"
    );

    // The platform still answers health and counters after the crash.
    server.gateway().platform().quiesce();
    let mut client = server.connect();
    let health = client.request(Method::Get, "/health", None).unwrap();
    assert_eq!(health.status, 200);
    let health: serde_json::Value = health.json_body().unwrap();
    assert_eq!(health["status"], "ok");
    assert_eq!(health["durable"], serde_json::Value::from(true));
    client.close();
    server.shutdown();
}
