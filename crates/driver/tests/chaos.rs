//! Chaos-under-load regression tests: the crash-recovery drill fired
//! *mid-flash-sale* (not against a quiesced platform) must recover with
//! zero lost committed epochs and a clean audit — no negative stock, no
//! partial checkout, no double charge.
//!
//! Wired into `tests/` so tier-1 catches a regression; `experiments --
//! a7` sweeps the same cells for numbers.

use om_common::config::{BackendKind, RunConfig, ScaleConfig, ScenarioConfig, WorkloadMix};
use om_common::OmError;
use om_driver::run_matrix_cell;
use om_marketplace::PlatformKind;

fn chaos_config(backend: BackendKind) -> RunConfig {
    RunConfig {
        scale: ScaleConfig {
            sellers: 2,
            products_per_seller: 10,
            customers: 24,
            initial_stock: 2_000,
        },
        mix: WorkloadMix {
            product_delete: 0,
            ..Default::default()
        },
        workers: 4,
        ops_per_worker: 150,
        warmup_ops_per_worker: 0,
        backend,
        scenario: Some(ScenarioConfig::flash_sale()),
        chaos_drill: true,
        ..RunConfig::smoke()
    }
}

fn assert_chaos_invariants(backend: BackendKind) {
    let config = chaos_config(backend);
    let report = run_matrix_cell(PlatformKind::Dataflow, &config);
    assert!(report.operations > 0, "{backend:?}: no operations completed");

    // The drill fired and recovered.
    let recovery = report
        .recovery
        .as_ref()
        .unwrap_or_else(|| panic!("{backend:?}: chaos drill must fire on the dataflow cell"));
    assert_eq!(recovery.store, backend.label(), "{backend:?}");
    assert!(
        recovery.recovered_epoch > 0,
        "{backend:?}: restart must come from a committed epoch"
    );
    assert!(
        recovery.final_epoch >= recovery.recovered_epoch,
        "{backend:?}: a committed epoch was lost ({} -> {})",
        recovery.recovered_epoch,
        recovery.final_epoch
    );

    // The audited invariants survive the crash landing mid-sale:
    // conservation == 0 pins every stock row to
    // qty_available + qty_reserved + qty_sold == initial_stock (no
    // negative stock, no oversell); atomicity == 0 covers partial
    // checkouts AND duplicate payments (double charges).
    assert_eq!(
        report.criteria.conservation_violations, 0,
        "{backend:?}: stock corrupted across recovery: {:?}",
        report.criteria
    );
    assert_eq!(
        report.criteria.atomicity_violations, 0,
        "{backend:?}: partial or double-charged checkout across recovery: {:?}",
        report.criteria
    );
    assert_eq!(
        report.criteria.ordering_violations, 0,
        "{backend:?}: payment/shipment order broke across recovery"
    );
}

/// The ISSUE's headline case: FileDurable recovers mid-flash-sale.
#[test]
fn chaos_drill_mid_flash_sale_on_file_durable_recovers_cleanly() {
    assert_chaos_invariants(BackendKind::FileDurable);
}

/// Every other recovery-capable cell (the dataflow binding over each
/// checkpoint backend) passes the same bar.
#[test]
fn chaos_drill_mid_flash_sale_on_memory_backends_recovers_cleanly() {
    assert_chaos_invariants(BackendKind::Eventual);
    assert_chaos_invariants(BackendKind::SnapshotIsolation);
}

/// Platforms without a crash path ignore the chaos knob instead of
/// wedging the window.
#[test]
fn chaos_drill_is_inert_on_platforms_without_a_crash_path() {
    let config = chaos_config(BackendKind::Eventual);
    let report = run_matrix_cell(PlatformKind::Transactional, &config);
    assert!(report.operations > 0);
    assert!(report.recovery.is_none());
    assert_eq!(report.criteria.conservation_violations, 0);
}

/// The disk-fault drill: a scheduled fsync failure wedges the durable
/// store *mid-flash-sale*. Degradation must be graceful — every error a
/// client sees is a typed [`OmError::Wedged`] (shed, retryable), never a
/// panic or a silent success over lost bytes — and `unwedge()` repairs
/// the store in place, after which checkouts succeed again and the
/// audit (conservation, atomicity, ordering) is clean.
#[test]
fn disk_fault_drill_mid_flash_sale_wedges_then_unwedge_restores_a_clean_audit() {
    use om_common::config::{GroupCommitPolicy, SnapshotMode};
    use om_common::entity::{Customer, PaymentMethod, Product, Seller};
    use om_common::ids::{CustomerId, ProductId, SellerId};
    use om_common::Money;
    use om_driver::audit::{audit, RuntimeObservations};
    use om_marketplace::api::{
        CheckoutItem, CheckoutOutcome, CheckoutRequest, MarketplacePlatform,
    };
    use om_marketplace::{build_platform, PlatformSpec};
    use om_storage::vfs::FaultVfs;
    use om_storage::{FileBackend, FileBackendOptions, StateBackend};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;

    const SEED: u64 = 0xFA_0175;
    const INITIAL_STOCK: u32 = 100_000;

    fn scratch() -> std::path::PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "om-disk-fault-drill-{}-{}",
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

    fn options() -> FileBackendOptions {
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
        }
    }

    fn build(dir: &std::path::Path, vfs: FaultVfs) -> Box<dyn MarketplacePlatform> {
        let backend: Arc<dyn StateBackend> = Arc::new(
            FileBackend::open_with_vfs(dir.join("state"), options(), Arc::new(vfs)).unwrap(),
        );
        build_platform(
            &PlatformSpec::new(PlatformKind::Customized, BackendKind::FileDurable)
                .parallelism(2)
                .decline_rate(0.0)
                .backend_instance(backend),
        )
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
                INITIAL_STOCK,
            )
            .unwrap();
        platform.quiesce();
    }

    fn try_checkout(platform: &dyn MarketplacePlatform, customer: u64) -> Result<bool, OmError> {
        platform.add_to_cart(
            CustomerId(customer),
            CheckoutItem {
                seller: SellerId(1),
                product: ProductId(1),
                quantity: 1,
            },
        )?;
        let outcome = platform.checkout(CheckoutRequest {
            customer: CustomerId(customer),
            items: vec![],
            method: PaymentMethod::CreditCard,
        })?;
        Ok(matches!(outcome, CheckoutOutcome::Placed { .. }))
    }

    // Calibrate: count how many fsyncs a clean ingest needs, so the
    // fault can be scheduled to land squarely inside the sale.
    let ingest_syncs = {
        let dir = scratch();
        let _g = DirGuard(dir.clone());
        let probe = FaultVfs::new(SEED).recording();
        let platform = build(&dir, probe.clone());
        ingest(platform.as_ref());
        probe.syncs_seen()
    };

    let dir = scratch();
    let _g = DirGuard(dir.clone());
    let vfs = FaultVfs::new(SEED).fail_nth_sync(ingest_syncs + 25);
    let platform = build(&dir, vfs.clone());
    ingest(platform.as_ref());

    // Flash sale: four workers hammer checkouts until the fault fires
    // and every one of them has seen the wedge shed at least once.
    let shed = AtomicU64::new(0);
    let placed = AtomicU64::new(0);
    let non_wedged_error = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for w in 0..4u64 {
            let (platform, shed, placed, non_wedged_error) =
                (platform.as_ref(), &shed, &placed, &non_wedged_error);
            scope.spawn(move || {
                for _ in 0..200 {
                    match try_checkout(platform, w + 1) {
                        Ok(true) => {
                            placed.fetch_add(1, Ordering::Relaxed);
                        }
                        Ok(false) => {}
                        Err(OmError::Wedged(_)) => {
                            if shed.fetch_add(1, Ordering::Relaxed) >= 8 {
                                break;
                            }
                        }
                        Err(_) => {
                            non_wedged_error.store(true, Ordering::Relaxed);
                            break;
                        }
                    }
                }
            });
        }
    });
    assert!(
        !vfs.fired().is_empty(),
        "the scheduled fsync fault must fire mid-sale (fired: {:?})",
        vfs.fired()
    );
    assert!(placed.load(Ordering::Relaxed) > 0, "checkouts landed before the fault");
    assert!(shed.load(Ordering::Relaxed) > 0, "the wedge shed load");
    assert!(
        !non_wedged_error.load(Ordering::Relaxed),
        "every degraded response is a typed Wedged error — no panic, no mystery failure"
    );
    assert!(platform.is_wedged(), "the platform reports the wedge");
    assert!(
        matches!(try_checkout(platform.as_ref(), 1), Err(OmError::Wedged(_))),
        "while wedged, checkouts shed with the typed error"
    );

    // Repair in place and resume the sale.
    let outcome = platform
        .unwedge()
        .expect("a durable backend has a wedge concept")
        .expect("unwedge repairs the store");
    assert!(outcome.was_wedged && outcome.healthy, "{outcome:?}");
    assert!(!platform.is_wedged());
    for k in 0..8u64 {
        assert_eq!(
            try_checkout(platform.as_ref(), (k % 4) + 1).ok(),
            Some(true),
            "post-unwedge checkout {k} succeeds"
        );
    }

    platform.quiesce();
    let snap = platform.snapshot().unwrap();
    let report = audit(
        &snap,
        &platform.counters(),
        &RuntimeObservations::default(),
        INITIAL_STOCK,
    );
    assert_eq!(
        report.conservation_violations, 0,
        "units conserved across the wedge: {:?}",
        report
    );
    assert_eq!(
        report.atomicity_violations, 0,
        "no partial or double-charged checkout across the wedge: {:?}",
        report
    );
    assert_eq!(report.ordering_violations, 0, "payment/shipment order held");
}

/// Chaos composes with the open loop: the drill fires while the arrival
/// schedule keeps firing, and the SLO row still closes its accounting.
#[test]
fn chaos_drill_under_open_loop_keeps_slo_accounting_closed() {
    let config = RunConfig {
        open_loop: Some(om_common::config::OpenLoopConfig::at_rate(2_000.0, 600)),
        ..chaos_config(BackendKind::FileDurable)
    };
    let report = run_matrix_cell(PlatformKind::Dataflow, &config);
    let slo = report.slo.as_ref().expect("open-loop run carries an SLO row");
    assert_eq!(
        slo.completed + slo.failed + slo.dropped,
        slo.arrivals,
        "every arrival must be accounted: {slo:?}"
    );
    assert!(report.recovery.is_some(), "drill fired");
    assert_eq!(report.criteria.conservation_violations, 0);
}
