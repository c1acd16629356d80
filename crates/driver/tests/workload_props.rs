//! Property tests for workload invariants.

use om_common::config::{RunConfig, ScaleConfig};
use om_common::rng::SplitMix64;
use om_driver::run_benchmark;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Customer leasing never double-leases nor loses customers, under
    /// any interleaving of lease/return.
    #[test]
    fn prop_customer_pool_conserved(ops in proptest::collection::vec(any::<bool>(), 1..200), seed in 0u64..1000) {
        let config = RunConfig {
            scale: ScaleConfig { sellers: 2, products_per_seller: 5, customers: 10, initial_stock: 10 },
            ..RunConfig::smoke()
        };
        let state = om_driver::workload::WorkloadState::new(&config);
        let mut rng = SplitMix64::new(seed);
        let mut held = Vec::new();
        for lease in ops {
            if lease {
                if let Some(c) = state.lease_customer(&mut rng) {
                    prop_assert!(!held.contains(&c), "double lease of {c}");
                    held.push(c);
                }
            } else if let Some(c) = held.pop() {
                state.return_customer(c);
            }
        }
        // Return everything; pool must hold all 10 again.
        for c in held.drain(..) {
            state.return_customer(c);
        }
        let mut count = 0;
        while state.lease_customer(&mut rng).is_some() {
            count += 1;
        }
        prop_assert_eq!(count, 10);
    }

    /// Deleted products never reappear in Zipfian samples, and sampling
    /// always returns a product from the original catalogue.
    #[test]
    fn prop_deleted_products_unsampleable(deletes in 1usize..10, seed in 0u64..1000) {
        let config = RunConfig {
            scale: ScaleConfig { sellers: 2, products_per_seller: 25, customers: 4, initial_stock: 10 },
            ..RunConfig::smoke()
        };
        let state = om_driver::workload::WorkloadState::new(&config);
        let mut rng = SplitMix64::new(seed);
        let mut gone = Vec::new();
        for _ in 0..deletes {
            if let Some(p) = state.pick_for_delete(&mut rng) {
                gone.push(p);
            }
        }
        for _ in 0..2000 {
            let p = state.sample_product(&mut rng);
            prop_assert!(p.0 < 50, "sampled {p} outside catalogue");
            prop_assert!(!gone.contains(&p), "sampled deleted product {p}");
        }
    }
}

/// Two identical runs on identical platforms produce identical operation
/// mixes (the latencies differ; the op streams must not).
#[test]
fn identical_seeds_give_identical_workloads() {
    use om_common::config::TransactionKind;
    use om_driver::workload::{next_op, WorkloadState};

    let config = RunConfig::smoke();
    let mut kinds_a: Vec<TransactionKind> = Vec::new();
    let mut kinds_b: Vec<TransactionKind> = Vec::new();
    for out in [&mut kinds_a, &mut kinds_b] {
        let state = WorkloadState::new(&config);
        let mut rng = SplitMix64::new(config.seed);
        for _ in 0..200 {
            if let Some(op) = next_op(&state, &config, &mut rng) {
                out.push(op.kind());
                if let om_driver::workload::Op::Checkout { customer, .. } = op {
                    state.return_customer(customer);
                }
            }
        }
    }
    assert_eq!(kinds_a, kinds_b);
}

/// Failed-vs-completed accounting always adds up.
#[test]
fn report_accounting_adds_up() {
    use om_common::config::BackendKind;
    use om_marketplace::{EventualPlatform, PlatformKind, PlatformSpec};
    let config = RunConfig {
        scale: ScaleConfig {
            sellers: 2,
            products_per_seller: 4,
            customers: 8,
            initial_stock: 1000,
        },
        workers: 2,
        ops_per_worker: 30,
        warmup_ops_per_worker: 2,
        ..RunConfig::default()
    };
    let platform = EventualPlatform::new(&PlatformSpec::new(
        PlatformKind::Eventual,
        BackendKind::Eventual,
    ));
    let report = run_benchmark(&platform, &config, true);
    assert_eq!(
        report.operations + report.failed_operations,
        config.total_measured_ops()
    );
}
