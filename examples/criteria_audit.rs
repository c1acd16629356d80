//! Criteria audit demo: runs the anomaly-hunting workload mix on every
//! platform and prints the measured data-management criteria matrix —
//! the paper's core finding ("no single data platform supports all the
//! core data management requirements") made quantitative.
//!
//! ```text
//! cargo run --release --example criteria_audit
//! ```
//!
//! It exits non-zero unless the customized cell satisfies every
//! criterion, so CI can run it as a smoke test of the whole choreography
//! on all four bindings.

use online_marketplace::actor::FaultConfig;
use online_marketplace::common::config::{RunConfig, ScaleConfig, WorkloadMix};
use online_marketplace::driver::run_benchmark;
use online_marketplace::marketplace::bindings::actor_core::ActorPlatformConfig;
use online_marketplace::marketplace::bindings::customized::CustomizedConfig;
use online_marketplace::marketplace::bindings::dataflow::DataflowPlatformConfig;
use online_marketplace::marketplace::{
    CustomizedPlatform, DataflowPlatform, EventualPlatform, TransactionalPlatform,
};

fn main() {
    let config = RunConfig {
        scale: ScaleConfig {
            sellers: 8,
            products_per_seller: 10,
            customers: 80,
            initial_stock: 100_000,
        },
        mix: WorkloadMix::anomaly_hunting(),
        workers: 4,
        ops_per_worker: 150,
        warmup_ops_per_worker: 10,
        ..RunConfig::default()
    };

    // Raw actor one-way events are at-most-once: model with a lossy
    // channel on the two plain Orleans bindings.
    let lossy = FaultConfig::lossy(0.02, 0.01, 7);
    let lossy_actor = ActorPlatformConfig {
        faults: lossy,
        decline_rate: config.payment_decline_rate,
        ..Default::default()
    };
    // The customized stack's consistent-dashboard criterion is the
    // snapshot-isolation backend's guarantee (the paper's PostgreSQL
    // offload); run its cell over that backend.
    let reliable_actor = ActorPlatformConfig {
        decline_rate: config.payment_decline_rate,
        backend: online_marketplace::common::config::BackendKind::SnapshotIsolation,
        ..Default::default()
    };

    println!("criteria matrix under the anomaly-hunting mix (paper §II criteria):\n");
    let eventual = EventualPlatform::new(lossy_actor.clone());
    let report = run_benchmark(&eventual, &config, true);
    println!("{}", report.criteria_row());

    let transactional = TransactionalPlatform::new(lossy_actor);
    let report = run_benchmark(&transactional, &config, true);
    println!("{}", report.criteria_row());

    let dataflow = DataflowPlatform::new(DataflowPlatformConfig {
        decline_rate: config.payment_decline_rate,
        ..Default::default()
    });
    let report = run_benchmark(&dataflow, &config, true);
    println!("{}", report.criteria_row());

    let customized = CustomizedPlatform::new(CustomizedConfig {
        actor: reliable_actor,
    });
    let report = run_benchmark(&customized, &config, true);
    println!("{}", report.criteria_row());
    let all = report.criteria.all_satisfied();
    println!(
        "\ncustomized stack satisfies all criteria: {all} — the paper's full-featured Fig. 1 design"
    );
    if !all {
        eprintln!("the customized stack violated a criterion: {:?}", report.criteria);
        std::process::exit(1);
    }
}
