//! End-to-end driver tests: the full benchmark lifecycle against real
//! platforms at smoke scale.

use om_common::config::{BackendKind, RunConfig, ScaleConfig, WorkloadMix};
use om_driver::{run_benchmark, DataGenerator};
use om_marketplace::api::{MarketplacePlatform, PlatformKind};
use om_marketplace::bindings::dataflow::DataflowPlatformConfig;
use om_marketplace::{
    CustomizedPlatform, DataflowPlatform, EventualPlatform, PlatformSpec, TransactionalPlatform,
};

/// The eventual binding over the eventual backend, 5 % of payments
/// declined.
fn eventual() -> EventualPlatform {
    EventualPlatform::new(&PlatformSpec::new(PlatformKind::Eventual, BackendKind::Eventual))
}

fn smoke_config() -> RunConfig {
    RunConfig {
        scale: ScaleConfig {
            sellers: 3,
            products_per_seller: 8,
            customers: 12,
            initial_stock: 5_000,
        },
        workers: 3,
        ops_per_worker: 40,
        warmup_ops_per_worker: 5,
        payment_decline_rate: 0.05,
        ..RunConfig::default()
    }
}

#[test]
fn benchmark_runs_on_eventual_platform() {
    let platform = eventual();
    let config = smoke_config();
    let report = run_benchmark(&platform, &config, true);
    assert!(report.operations > 0, "no operations completed");
    assert_eq!(
        report.operations + report.failed_operations,
        config.total_measured_ops()
    );
    assert!(report.throughput_per_sec > 0.0);
    assert!(
        report.latency.contains_key("checkout"),
        "checkout latencies missing: {:?}",
        report.latency.keys().collect::<Vec<_>>()
    );
    // Conservation must hold on every platform, reliable or not.
    assert_eq!(report.criteria.conservation_violations, 0);
}

#[test]
fn benchmark_runs_on_transactional_platform_and_satisfies_atomicity() {
    let platform = TransactionalPlatform::new(&PlatformSpec::new(
        PlatformKind::Transactional,
        BackendKind::Eventual,
    ));
    let report = run_benchmark(&platform, &smoke_config(), true);
    assert!(report.operations > 0);
    assert_eq!(
        report.criteria.atomicity_violations, 0,
        "ACID checkout must be all-or-nothing: {:?}",
        report.criteria
    );
    assert_eq!(report.criteria.conservation_violations, 0);
}

#[test]
fn benchmark_runs_on_dataflow_platform() {
    let platform = DataflowPlatform::new(DataflowPlatformConfig {
        decline_rate: 0.05,
        ..Default::default()
    });
    let report = run_benchmark(&platform, &smoke_config(), true);
    assert!(report.operations > 0);
    assert_eq!(report.criteria.conservation_violations, 0);
    assert_eq!(
        report.criteria.atomicity_violations, 0,
        "exactly-once processing leaves no partial workflows: {:?}",
        report.criteria
    );
}

#[test]
fn benchmark_runs_on_customized_platform_and_satisfies_all_criteria() {
    // The all-criteria cell is customized+snapshot_isolation: since the
    // dashboard projection lives in the unified backend, the consistent-
    // querying guarantee is the snapshot backend's (under eventual_kv the
    // same binding can serve torn dashboards — by design).
    let platform = CustomizedPlatform::new(&PlatformSpec::new(
        PlatformKind::Customized,
        BackendKind::SnapshotIsolation,
    ));
    let mut config = smoke_config();
    config.mix = WorkloadMix::anomaly_hunting();
    let report = run_benchmark(&platform, &config, true);
    assert!(report.operations > 0);
    assert!(
        report.criteria.all_satisfied(),
        "the customized stack must satisfy every criterion: {:?}",
        report.criteria
    );
}

#[test]
fn reports_are_deterministic_in_shape_and_serializable() {
    let platform = eventual();
    let report = run_benchmark(&platform, &smoke_config(), true);
    let json = report.to_json();
    let back: om_driver::RunReport = serde_json::from_str(&json).unwrap();
    assert_eq!(back.platform, "orleans_eventual");
    assert_eq!(back.backend, "eventual_kv");
    assert!(!report.throughput_row().is_empty());
    assert!(!report.criteria_row().is_empty());
}

#[test]
fn recovery_cells_report_restart_from_backend_checkpoints() {
    use om_common::config::BackendKind;
    use om_marketplace::PlatformKind;

    for backend in BackendKind::ALL {
        let config = RunConfig {
            backend,
            recovery_drill: true,
            ..smoke_config()
        };
        let report = om_driver::run_matrix_cell(PlatformKind::Dataflow, &config);
        assert!(report.operations > 0, "{backend:?}");
        assert_eq!(report.backend, backend.label(), "{backend:?}");
        let recovery = report
            .recovery
            .as_ref()
            .expect("the dataflow cell runs the recovery drill");
        assert_eq!(recovery.store, backend.label(), "{backend:?}");
        assert!(
            recovery.recovered_epoch > 0,
            "{backend:?}: the drill restarts from a committed epoch"
        );
        assert!(
            recovery.final_epoch >= recovery.recovered_epoch,
            "{backend:?}: recovery never loses a committed epoch"
        );
        assert!(!report.recovery_row().is_empty());
        // The drilled report still serializes round-trip.
        let back: om_driver::RunReport = serde_json::from_str(&report.to_json()).unwrap();
        assert_eq!(back.recovery, report.recovery);
    }

    // Platforms without a crash path ignore the drill.
    let config = RunConfig {
        recovery_drill: true,
        ..smoke_config()
    };
    let report = om_driver::run_matrix_cell(PlatformKind::Eventual, &config);
    assert!(report.recovery.is_none());
    assert!(report.recovery_row().contains("no recovery drill"));
}

#[test]
fn backend_is_selectable_from_run_config_and_labeled_in_reports() {
    use om_common::config::BackendKind;
    use om_marketplace::PlatformKind;

    // Same platform, both backends — selected purely through RunConfig.
    for backend in BackendKind::ALL {
        let config = RunConfig {
            backend,
            ..smoke_config()
        };
        let report = om_driver::run_matrix_cell(PlatformKind::Transactional, &config);
        assert!(report.operations > 0, "{backend:?}");
        assert_eq!(report.backend, backend.label(), "{backend:?}");
        assert_eq!(
            report.cell_label(),
            format!(
                "orleans_transactions+{}+{}",
                backend.label(),
                if backend.is_durable() { "disk" } else { "memory" }
            )
        );
        assert_eq!(report.criteria.atomicity_violations, 0, "{backend:?}");
        assert!(
            report.counters.get("storage.saves").copied().unwrap_or(0) > 0,
            "grain snapshots must flow through the backend ({backend:?}): {:?}",
            report.counters
        );
    }
}

/// Every completed measured operation lands in exactly one latency
/// histogram; warm-up operations land in none.
#[test]
fn latency_histograms_count_exactly_the_completed_operations() {
    let platform = eventual();
    let config = smoke_config();
    let report = run_benchmark(&platform, &config, true);
    let recorded: u64 = report.latency.values().map(|s| s.count).sum();
    assert_eq!(recorded, report.operations);
    assert_eq!(
        report.operations + report.failed_operations,
        config.total_measured_ops(),
        "warm-up operations are not measured"
    );
    let kinds: Vec<&str> = om_common::config::TransactionKind::ALL
        .iter()
        .map(|k| k.label())
        .collect();
    assert!(
        report.latency.keys().all(|k| kinds.contains(&k.as_str())),
        "{:?}",
        report.latency.keys().collect::<Vec<_>>()
    );
}

/// `ingest = false` runs against whatever the platform already holds:
/// nothing on an empty platform, the generated catalogue on one loaded
/// beforehand.
#[test]
fn ingest_flag_decides_who_loads_the_catalogue() {
    let config = smoke_config();
    let empty = eventual();
    run_benchmark(&empty, &config, false);
    empty.quiesce();
    let snap = empty.snapshot().unwrap();
    assert!(
        snap.products.is_empty() && snap.orders.is_empty(),
        "nothing was ingested"
    );

    let loaded = eventual();
    DataGenerator::new(config.scale, config.seed)
        .ingest_all(&loaded)
        .unwrap();
    let report = run_benchmark(&loaded, &config, false);
    assert!(report.operations > 0);
    assert_eq!(report.criteria.conservation_violations, 0);
    loaded.quiesce();
    let snap = loaded.snapshot().unwrap();
    assert_eq!(snap.products.len() as u64, config.scale.total_products());
    assert!(
        !snap.orders.is_empty(),
        "checkouts ran over the preloaded catalogue"
    );
}
