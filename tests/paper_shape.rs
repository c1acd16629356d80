//! Paper-shape regression tests: tiny-scale versions of the qualitative
//! claims the reproduction must preserve (§III of the paper). These are
//! deliberately generous — they assert orderings and existence, not
//! absolute numbers — so they hold on any machine.

use online_marketplace::common::config::{BackendKind, RunConfig, ScaleConfig, WorkloadMix};
use online_marketplace::driver::run_benchmark;
use online_marketplace::marketplace::api::PlatformKind;
use online_marketplace::marketplace::{build_platform, PlatformSpec};
use std::sync::Mutex;

/// Held by each test while it measures, so one test's benchmarks never
/// share the host with the other's.
static SERIAL: Mutex<()> = Mutex::new(());

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

fn throughput(kind: PlatformKind) -> f64 {
    run_benchmark(build_platform(&spec(kind)).as_ref(), &config(), true).throughput_per_sec
}

/// The median throughput of each of `kinds` over three runs on fresh
/// platforms, taken in turn (a, b, a, b, a, b) so a slow spell of a
/// shared host lands on both sides rather than deciding the order.
fn median_throughputs<const N: usize>(kinds: [PlatformKind; N]) -> [f64; N] {
    let _serial = SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let mut runs = kinds.map(|_| Vec::new());
    for _ in 0..3 {
        for (&kind, runs) in kinds.iter().zip(&mut runs) {
            runs.push(throughput(kind));
        }
    }
    runs.map(|mut runs| {
        runs.sort_by(f64::total_cmp);
        runs[1]
    })
}

/// E1/E5 shape: the eventual binding out-runs the transactional one
/// (paper: transactions come "at a considerable overhead").
#[test]
fn eventual_outperforms_transactions() {
    let [eventual, transactional] =
        median_throughputs([PlatformKind::Eventual, PlatformKind::Transactional]);
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
    let [transactional, customized] =
        median_throughputs([PlatformKind::Transactional, PlatformKind::Customized]);
    let ratio = customized / transactional;
    assert!(
        ratio > 0.3,
        "customized should be comparable to transactions, got {ratio:.2}x \
         (customized {customized:.0} vs transactional {transactional:.0})"
    );
}
