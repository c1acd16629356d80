//! Paper-shape regression tests: tiny-scale versions of the qualitative
//! claims the reproduction must preserve (§III of the paper). These are
//! deliberately generous — they assert orderings and existence, not
//! absolute numbers — so they hold on any machine.

use online_marketplace::common::config::{BackendKind, RunConfig, ScaleConfig, WorkloadMix};
use online_marketplace::driver::run_benchmark;
use online_marketplace::marketplace::api::{MarketplacePlatform, PlatformKind};
use online_marketplace::marketplace::{
    CustomizedPlatform, EventualPlatform, PlatformSpec, TransactionalPlatform,
};

fn config() -> RunConfig {
    RunConfig {
        scale: ScaleConfig {
            sellers: 4,
            products_per_seller: 10,
            customers: 24,
            initial_stock: 50_000,
        },
        mix: WorkloadMix::checkout_only(),
        workers: 2,
        ops_per_worker: 80,
        warmup_ops_per_worker: 10,
        zipf_theta: 0.5,
        ..RunConfig::default()
    }
}

/// The binding's spec over the eventual backend, 5 % of payments
/// declined.
fn spec(kind: PlatformKind) -> PlatformSpec {
    PlatformSpec::new(kind, BackendKind::Eventual)
}

fn throughput(platform: &dyn MarketplacePlatform) -> f64 {
    run_benchmark(platform, &config(), true).throughput_per_sec
}

/// E1/E5 shape: the eventual binding out-runs the transactional one
/// (paper: transactions come "at a considerable overhead").
#[test]
fn eventual_outperforms_transactions() {
    let eventual = throughput(&EventualPlatform::new(&spec(PlatformKind::Eventual)));
    let transactional =
        throughput(&TransactionalPlatform::new(&spec(PlatformKind::Transactional)));
    println!("eventual / transactional: {:.2}", eventual / transactional);
    assert!(
        eventual > transactional,
        "paper shape violated: eventual {eventual:.0} ops/s <= transactions {transactional:.0} ops/s"
    );
}

/// E7 shape: the customized stack stays within a small factor of the
/// plain transactional binding (paper: "low overhead ... comparable").
#[test]
fn customized_overhead_is_bounded() {
    let transactional =
        throughput(&TransactionalPlatform::new(&spec(PlatformKind::Transactional)));
    let customized = throughput(&CustomizedPlatform::new(&spec(PlatformKind::Customized)));
    let ratio = customized / transactional;
    assert!(
        ratio > 0.3,
        "customized should be comparable to transactions, got {ratio:.2}x \
         (customized {customized:.0} vs transactional {transactional:.0})"
    );
}
