//! Platform comparison: the paper's headline experiment in miniature —
//! runs the same checkout-heavy workload on all four implementations and
//! prints the E1-style throughput table plus criteria verdicts.
//!
//! ```text
//! cargo run --release --example platform_comparison
//! ```

use online_marketplace::common::config::{BackendKind, RunConfig, ScaleConfig};
use online_marketplace::driver::run_benchmark;
use online_marketplace::marketplace::api::PlatformKind;
use online_marketplace::marketplace::bindings::dataflow::DataflowPlatformConfig;
use online_marketplace::marketplace::{
    CustomizedPlatform, DataflowPlatform, EventualPlatform, PlatformSpec, TransactionalPlatform,
};

fn main() {
    let config = RunConfig {
        scale: ScaleConfig {
            sellers: 10,
            products_per_seller: 10,
            customers: 100,
            initial_stock: 100_000,
        },
        workers: 4,
        ops_per_worker: 200,
        warmup_ops_per_worker: 20,
        ..RunConfig::default()
    };

    println!("running the four Online Marketplace implementations (paper §III)...\n");
    let mut rows = Vec::new();
    for kind in [
        PlatformKind::Eventual,
        PlatformKind::Transactional,
        PlatformKind::Dataflow,
        PlatformKind::Customized,
    ] {
        let spec = PlatformSpec::new(kind, BackendKind::Eventual)
            .decline_rate(config.payment_decline_rate);
        let report = match kind {
            PlatformKind::Eventual => run_benchmark(&EventualPlatform::new(&spec), &config, true),
            PlatformKind::Transactional => {
                run_benchmark(&TransactionalPlatform::new(&spec), &config, true)
            }
            PlatformKind::Dataflow => run_benchmark(
                &DataflowPlatform::new(DataflowPlatformConfig::default()),
                &config,
                true,
            ),
            PlatformKind::Customized => {
                run_benchmark(&CustomizedPlatform::new(&spec), &config, true)
            }
        };
        println!("{}", report.throughput_row());
        println!("  {}", report.criteria_row());
        if let Some(checkout) = report.latency_of(online_marketplace::common::config::TransactionKind::Checkout) {
            println!("  checkout latency: {checkout}");
        }
        println!();
        rows.push((report.platform.clone(), report.throughput_per_sec));
    }

    let get = |name: &str| rows.iter().find(|(n, _)| n == name).map(|(_, t)| *t).unwrap_or(0.0);
    println!("paper-shape checks:");
    println!(
        "  eventual {:.1}x transactions (paper: eventual highest, tx 'considerable overhead')",
        get("orleans_eventual") / get("orleans_transactions")
    );
    println!(
        "  statefun {:.1}x transactions (paper: ~2x)",
        get("statefun") / get("orleans_transactions")
    );
    println!(
        "  customized {:.1}x transactions (paper: comparable, low overhead)",
        get("customized_orleans") / get("orleans_transactions")
    );
}
