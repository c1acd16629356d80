//! Workspace-level integration tests: drive the full stack through the
//! umbrella crate exactly the way a downstream user would.

use online_marketplace::common::config::{RunConfig, ScaleConfig, WorkloadMix};
use online_marketplace::driver::{run_benchmark, RunReport};
use online_marketplace::marketplace::api::{MarketplacePlatform, PlatformKind};
use online_marketplace::common::config::BackendKind;
use online_marketplace::marketplace::bindings::dataflow::DataflowPlatformConfig;
use online_marketplace::marketplace::{
    CustomizedPlatform, DataflowPlatform, EventualPlatform, PlatformSpec, TransactionalPlatform,
};

fn tiny_config() -> RunConfig {
    RunConfig {
        scale: ScaleConfig {
            sellers: 3,
            products_per_seller: 6,
            customers: 12,
            initial_stock: 10_000,
        },
        workers: 2,
        ops_per_worker: 60,
        warmup_ops_per_worker: 5,
        ..RunConfig::default()
    }
}

fn run(kind: PlatformKind, config: &RunConfig) -> RunReport {
    let spec = PlatformSpec::new(kind, config.backend).decline_rate(config.payment_decline_rate);
    match kind {
        PlatformKind::Eventual => run_benchmark(&EventualPlatform::new(&spec), config, true),
        PlatformKind::Transactional => {
            run_benchmark(&TransactionalPlatform::new(&spec), config, true)
        }
        PlatformKind::Dataflow => run_benchmark(
            &DataflowPlatform::new(DataflowPlatformConfig {
                decline_rate: config.payment_decline_rate,
                ..Default::default()
            }),
            config,
            true,
        ),
        PlatformKind::Customized => run_benchmark(&CustomizedPlatform::new(&spec), config, true),
    }
}

#[test]
fn full_stack_smoke_on_all_four_platforms() {
    let config = tiny_config();
    for kind in [
        PlatformKind::Eventual,
        PlatformKind::Transactional,
        PlatformKind::Dataflow,
        PlatformKind::Customized,
    ] {
        let report = run(kind, &config);
        assert!(report.operations > 0, "{kind:?} did nothing");
        assert_eq!(
            report.criteria.conservation_violations, 0,
            "{kind:?} lost stock units"
        );
        assert!(report.throughput_per_sec > 0.0);
    }
}

#[test]
fn acid_platforms_have_zero_atomicity_violations() {
    let config = tiny_config();
    for kind in [PlatformKind::Transactional, PlatformKind::Customized] {
        let report = run(kind, &config);
        assert_eq!(
            report.criteria.atomicity_violations, 0,
            "{kind:?} violated all-or-nothing: {:?}",
            report.criteria
        );
    }
}

#[test]
fn customized_platform_is_fully_criteria_clean() {
    let mut config = tiny_config();
    config.mix = WorkloadMix::anomaly_hunting();
    // The all-criteria cell: with the dashboard projection living in the
    // unified StateBackend, the consistent-querying criterion is the
    // snapshot-isolation backend's guarantee (under eventual_kv the same
    // binding may serve torn dashboards — the trade the matrix measures).
    config.backend = online_marketplace::common::config::BackendKind::SnapshotIsolation;
    let report = run(PlatformKind::Customized, &config);
    assert!(
        report.criteria.all_satisfied(),
        "customized stack must satisfy every criterion: {:?}",
        report.criteria
    );
}

#[test]
fn umbrella_reexports_compose() {
    // Substrate types are reachable through the umbrella crate and
    // interoperate (storage + log in one program).
    use online_marketplace::log::Topic;
    use online_marketplace::storage::{SnapshotBackend, StateBackend, WriteBatch};

    let backend = SnapshotBackend::new();
    backend
        .commit(WriteBatch::new().put(b"t/1".to_vec(), b"42".to_vec()))
        .unwrap();
    assert_eq!(backend.get(b"t/1"), Some(b"42".to_vec()));

    let topic: Topic<u64> = Topic::new("t", 2);
    topic.append_raw(0, 1, 1, 7).unwrap();
    assert_eq!(topic.len(), 1);
}

#[test]
fn deterministic_workload_generation_across_runs() {
    use online_marketplace::common::rng::SplitMix64;
    use online_marketplace::driver::DataGenerator;

    let config = tiny_config();
    // Same seed => same generated catalogue (probe via two generators).
    let mut a = DataGenerator::new(config.scale, config.seed);
    let mut b = DataGenerator::new(config.scale, config.seed);
    let spec = PlatformSpec::new(PlatformKind::Eventual, BackendKind::Eventual);
    let pa = EventualPlatform::new(&spec);
    let pb = EventualPlatform::new(&spec);
    a.ingest_all(&pa).unwrap();
    b.ingest_all(&pb).unwrap();
    let sa = pa.snapshot().unwrap();
    let sb = pb.snapshot().unwrap();
    assert_eq!(sa.products, sb.products, "generation must be deterministic");

    let mut r1 = SplitMix64::new(9);
    let mut r2 = SplitMix64::new(9);
    assert_eq!(
        (0..100).map(|_| r1.next_u64()).collect::<Vec<_>>(),
        (0..100).map(|_| r2.next_u64()).collect::<Vec<_>>()
    );
}
