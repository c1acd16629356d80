//! Shared harness code for the experiment binaries and Criterion benches.
//!
//! Every table and figure of the paper's evaluation has a regeneration
//! path here; see `docs/ARCHITECTURE.md` for the mapping to modules.

use om_actor::FaultConfig;
use om_common::config::{BackendKind, DurableOptions, RunConfig, ScaleConfig, WorkloadMix};
use om_dataflow::BackendCheckpointStore;
use om_driver::{run_benchmark, RunReport};
use om_marketplace::api::{MarketplacePlatform, PlatformKind};
use om_marketplace::{build_platform, PlatformSpec};
use std::sync::Arc;

/// The four platforms in paper order.
pub const PLATFORMS: [PlatformKind; 4] = [
    PlatformKind::Eventual,
    PlatformKind::Transactional,
    PlatformKind::Dataflow,
    PlatformKind::Customized,
];

/// The pluggable storage backends, the matrix's second axis.
pub const BACKENDS: [BackendKind; 3] = BackendKind::ALL;

/// A dataflow checkpoint store over a fresh backend of `kind`, as the
/// A2/B2 store sweeps build them.
pub fn make_checkpoint_store(kind: BackendKind) -> Arc<BackendCheckpointStore> {
    Arc::new(BackendCheckpointStore::new(om_storage::make_backend(
        kind, 16,
    )))
}

/// Builds a platform with `parallelism` internal execution slots over the
/// selected storage backend.
///
/// Actor bindings split slots across two silos (Orleans-style multi-host);
/// the dataflow binding maps slots to partitions. `faulty` arms the
/// at-most-once event semantics of raw actor messaging (drop 2%,
/// duplicate 1%) — only meaningful for the two plain actor bindings; the
/// customized stack reads its replicated prices through backend sessions
/// and runs its workflow through calls, and the dataflow runtime is
/// exactly-once by construction.
pub fn make_platform(
    kind: PlatformKind,
    backend: BackendKind,
    parallelism: usize,
    decline_rate: f64,
    faulty: bool,
) -> Box<dyn MarketplacePlatform> {
    let faults = if faulty {
        FaultConfig::lossy(0.02, 0.01, 0xFA17)
    } else {
        FaultConfig::reliable()
    };
    build_platform(
        &PlatformSpec::new(kind, backend)
            .parallelism(parallelism)
            .decline_rate(decline_rate)
            .faults(faults),
    )
}

/// The standard evaluation scale (kept modest so the full matrix runs in
/// minutes; scale up via `scale_factor`).
pub fn standard_config(scale_factor: u64) -> RunConfig {
    RunConfig {
        seed: 0xBEEF,
        scale: ScaleConfig {
            sellers: 10 * scale_factor,
            products_per_seller: 10,
            customers: 100 * scale_factor,
            initial_stock: 100_000,
        },
        mix: WorkloadMix::default(),
        zipf_theta: 0.99,
        workers: 4,
        ops_per_worker: 250,
        warmup_ops_per_worker: 25,
        max_cart_items: 5,
        payment_decline_rate: 0.05,
        backend: BackendKind::Eventual,
        checkpoint_interval: 64,
        df_workers: 0,
        recovery_drill: false,
        data_dir: None,
        durable: DurableOptions::default(),
        scenario: None,
        open_loop: None,
        chaos_drill: false,
    }
}

/// Runs one platform under `config` (which selects the storage backend),
/// returning the report.
pub fn run_platform(
    kind: PlatformKind,
    config: &RunConfig,
    parallelism: usize,
    faulty: bool,
) -> RunReport {
    let platform = make_platform(
        kind,
        config.backend,
        parallelism,
        config.payment_decline_rate,
        faulty,
    );
    run_benchmark(platform.as_ref(), config, true)
}

/// Formats a ratio as the "NxM" factors the paper quotes.
pub fn factor(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        f64::INFINITY
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factory_builds_every_matrix_cell() {
        for kind in PLATFORMS {
            for backend in BACKENDS {
                let p = make_platform(kind, backend, 2, 0.0, false);
                assert_eq!(p.kind(), kind);
            }
        }
    }

    #[test]
    fn factor_math() {
        assert_eq!(factor(10.0, 5.0), 2.0);
        assert!(factor(1.0, 0.0).is_infinite());
    }
}
