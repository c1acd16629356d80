//! The benchmark runner: experiment lifecycle management.
//!
//! Phases (paper §II, *Driver*): data generation → ingestion → warm-up →
//! measured submission → statistics collection → quiesce → audit.
//!
//! The measured window is a **closed loop**: each of `RunConfig::workers`
//! threads issues its next operation only after the previous one
//! completes. That makes the runner an in-process criteria harness, not a
//! capacity measurement — a slowing system silently throttles its own
//! offered load. Throughput and latency of record come from the
//! open-loop, through-HTTP `marketbench` (`BENCHMARK.json`).
//!
//! `RunConfig::chaos_drill` additionally fires the platform's
//! crash-recovery drill *mid-window* (once a quarter of the measured
//! operations have completed), where the post-run `recovery_drill` waits
//! for quiescence.

use crate::audit::{audit, RuntimeObservations};
use crate::datagen::DataGenerator;
use crate::report::RunReport;
use crate::scenario::{next_scenario_op, ScenarioState};
use crate::workload::{next_op, Op, WorkloadState};
use om_common::config::RunConfig;
use om_common::rng::SplitMix64;
use om_common::stats::{Histogram, Throughput};
use om_marketplace::api::{
    CheckoutItem, CheckoutRequest, MarketplacePlatform, PlatformKind, RecoveryOutcome,
};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-worker measurement buffers, merged after the run.
struct WorkerStats {
    latency: BTreeMap<&'static str, Histogram>,
    completed: u64,
    failed: u64,
    torn_dashboards: u64,
}

impl WorkerStats {
    fn new() -> Self {
        Self {
            latency: BTreeMap::new(),
            completed: 0,
            failed: 0,
            torn_dashboards: 0,
        }
    }
}

/// Generates the next operation, honoring the active scenario shape.
fn gen_op(
    state: &WorkloadState,
    scenario: Option<&ScenarioState>,
    config: &RunConfig,
    rng: &mut SplitMix64,
) -> Option<Op> {
    match scenario {
        Some(sc) => next_scenario_op(state, sc, config, rng),
        None => next_op(state, config, rng),
    }
}

/// Executes one operation against the platform; returns `Ok(())` if it
/// counts as completed (rejections count — they are valid business
/// outcomes); torn-dashboard bookkeeping goes through `stats`.
fn execute(
    platform: &dyn MarketplacePlatform,
    state: &WorkloadState,
    op: &Op,
    stats: &mut WorkerStats,
) -> Result<(), om_common::OmError> {
    match op {
        Op::Checkout {
            customer,
            items,
            method,
        } => {
            let mut added = 0;
            for &(seller, product, quantity) in items {
                match platform.add_to_cart(
                    *customer,
                    CheckoutItem {
                        seller,
                        product,
                        quantity,
                    },
                ) {
                    Ok(()) => added += 1,
                    Err(e) if e.label() == "rejected" || e.label() == "not_found" => {
                        // Deleted product raced the checkout: fine.
                    }
                    Err(e) => {
                        state.return_customer(*customer);
                        return Err(e);
                    }
                }
            }
            let result = if added > 0 {
                platform
                    .checkout(CheckoutRequest {
                        customer: *customer,
                        items: vec![],
                        method: *method,
                    })
                    .map(|_| ())
            } else {
                Ok(())
            };
            state.return_customer(*customer);
            result
        }
        Op::AbandonCart { customer, items } => {
            // Fill the cart, then walk away: no checkout, no cleanup. The
            // customer (and their loaded cart) goes straight back to the
            // pool.
            for &(seller, product, quantity) in items {
                match platform.add_to_cart(
                    *customer,
                    CheckoutItem {
                        seller,
                        product,
                        quantity,
                    },
                ) {
                    Ok(()) => {}
                    Err(e) if e.label() == "rejected" || e.label() == "not_found" => {}
                    Err(e) => {
                        state.return_customer(*customer);
                        return Err(e);
                    }
                }
            }
            state.return_customer(*customer);
            Ok(())
        }
        Op::PriceUpdate {
            seller,
            product,
            price,
        } => match platform.price_update(*seller, *product, *price) {
            Ok(()) => Ok(()),
            // The product may have been deleted concurrently.
            Err(e) if e.label() == "rejected" || e.label() == "not_found" => Ok(()),
            Err(e) => Err(e),
        },
        Op::ProductDelete { seller, product } => {
            match platform.product_delete(*seller, *product) {
                Ok(()) => Ok(()),
                Err(e) if e.label() == "rejected" || e.label() == "not_found" => Ok(()),
                Err(e) => Err(e),
            }
        }
        Op::UpdateDelivery => platform.update_delivery(10).map(|_| ()),
        Op::SellerDashboard { seller } => {
            let dashboard = platform.seller_dashboard(*seller)?;
            if !dashboard.is_snapshot_consistent() {
                stats.torn_dashboards += 1;
            }
            Ok(())
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn worker_loop(
    platform: &dyn MarketplacePlatform,
    state: &WorkloadState,
    scenario: Option<&ScenarioState>,
    config: &RunConfig,
    mut rng: SplitMix64,
    measured_ops: u64,
    warmup_ops: u64,
    progress: &AtomicU64,
) -> WorkerStats {
    let mut stats = WorkerStats::new();
    let mut done = 0u64;
    let total = warmup_ops + measured_ops;
    let mut dry_spins = 0;
    while done < total {
        let Some(op) = gen_op(state, scenario, config, &mut rng) else {
            // No leasable input right now; try a different op soon.
            dry_spins += 1;
            if dry_spins > 1_000_000 {
                break; // pathological config; avoid livelock
            }
            std::thread::yield_now();
            continue;
        };
        dry_spins = 0;
        let measuring = done >= warmup_ops;
        let started = Instant::now();
        let result = execute(platform, state, &op, &mut stats);
        if measuring {
            match result {
                Ok(()) => {
                    stats.completed += 1;
                    stats
                        .latency
                        .entry(op.kind().label())
                        .or_default()
                        .record_duration(started.elapsed());
                }
                Err(_) => stats.failed += 1,
            }
            progress.fetch_add(1, Ordering::Relaxed);
        }
        done += 1;
    }
    stats
}

/// Builds the platform for the `(kind, config.backend)` matrix cell
/// through the factory and runs the full lifecycle on it. This is the
/// `RunConfig`-driven entry point: selecting a different backend — or a
/// scenario, a chaos drill — is a config change, never a code change.
pub fn run_matrix_cell(kind: PlatformKind, config: &RunConfig) -> RunReport {
    let mut spec = om_marketplace::PlatformSpec::new(kind, config.backend)
        .parallelism(config.workers.max(1))
        .decline_rate(config.payment_decline_rate)
        .checkpoint_interval(config.checkpoint_interval)
        .df_workers(config.df_workers)
        .durable_options(config.durable);
    if let Some(dir) = &config.data_dir {
        spec = spec.data_dir(dir);
    }
    let platform = om_marketplace::build_platform(&spec);
    run_benchmark(platform.as_ref(), config, true)
}

/// Runs the full benchmark lifecycle on `platform` and returns the
/// report. `ingest` controls whether the runner generates and loads data
/// (pass `false` if the platform is pre-loaded).
pub fn run_benchmark(
    platform: &dyn MarketplacePlatform,
    config: &RunConfig,
    ingest: bool,
) -> RunReport {
    // 1. Data generation + ingestion.
    if ingest {
        DataGenerator::new(config.scale, config.seed)
            .ingest_all(platform)
            .expect("ingestion succeeds");
    }

    let state = Arc::new(WorkloadState::new(config));
    let scenario = config.scenario.map(|sc| ScenarioState::new(sc, &state));
    let mut seeder = SplitMix64::new(config.seed ^ 0x5EED);

    // Chaos coordination: the drill thread fires once a quarter of the
    // measured operations have completed (or when the window ends first),
    // so the crash lands mid-load, not on an idle platform.
    let progress = AtomicU64::new(0);
    let window_over = AtomicBool::new(false);
    let chaos_outcome: parking_lot::Mutex<Option<RecoveryOutcome>> = parking_lot::Mutex::new(None);
    let chaos_target = (config.total_measured_ops() / 4).max(1);

    // 2 + 3. Warm-up and measured submission.
    let measured_window = Instant::now();
    let (worker_stats, window_secs): (Vec<WorkerStats>, f64) = std::thread::scope(|scope| {
        if config.chaos_drill {
            let progress_ref = &progress;
            let over_ref = &window_over;
            let outcome_ref = &chaos_outcome;
            let platform_ref: &dyn MarketplacePlatform = platform;
            scope.spawn(move || {
                while progress_ref.load(Ordering::Relaxed) < chaos_target
                    && !over_ref.load(Ordering::Relaxed)
                {
                    std::thread::sleep(Duration::from_millis(1));
                }
                *outcome_ref.lock() = platform_ref.crash_and_recover();
            });
        }

        let handles: Vec<_> = (0..config.workers)
            .map(|_| {
                let rng = seeder.fork();
                let state = state.clone();
                let scenario_ref = scenario.as_ref();
                let progress_ref = &progress;
                scope.spawn(move || {
                    worker_loop(
                        platform,
                        &state,
                        scenario_ref,
                        config,
                        rng,
                        config.ops_per_worker,
                        config.warmup_ops_per_worker,
                        progress_ref,
                    )
                })
            })
            .collect();
        let stats = handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect();
        let window_secs = measured_window.elapsed().as_secs_f64();
        // Unblock a chaos thread still waiting on its progress target; it
        // fires against the drained platform, degenerating to a post-run
        // drill rather than hanging the scope.
        window_over.store(true, Ordering::Relaxed);
        (stats, window_secs)
    });

    // 4. Statistics collection.
    let mut latency: BTreeMap<String, Histogram> = BTreeMap::new();
    let mut completed = 0;
    let mut failed = 0;
    let mut observations = RuntimeObservations::default();
    for stats in worker_stats {
        completed += stats.completed;
        failed += stats.failed;
        observations.torn_dashboards += stats.torn_dashboards;
        for (kind, hist) in stats.latency {
            latency.entry(kind.to_string()).or_default().merge(&hist);
        }
    }

    // 5. Quiesce + audit.
    platform.quiesce();
    let counters = platform.counters();
    let snapshot = platform.snapshot().unwrap_or_default();
    let criteria = audit(&snapshot, &counters, &observations, config.scale.initial_stock);

    // 6. Recovery outcome: the mid-window chaos drill if one fired,
    // otherwise the optional post-run drill on the quiesced platform.
    let recovery = chaos_outcome.lock().take().or_else(|| {
        if config.recovery_drill {
            platform.crash_and_recover()
        } else {
            None
        }
    });

    let throughput = Throughput {
        operations: completed,
        window_secs,
    };
    RunReport {
        platform: platform.kind().label().to_string(),
        backend: platform
            .backend()
            .map(|b| b.label().to_string())
            .unwrap_or_else(|| "native".to_string()),
        durability: match platform.backend() {
            Some(kind) if kind.is_durable() => "disk",
            Some(_) => "memory",
            None => "ephemeral",
        }
        .to_string(),
        config: config.clone(),
        operations: completed,
        failed_operations: failed,
        window_secs,
        throughput_per_sec: throughput.per_sec(),
        latency: latency
            .into_iter()
            .map(|(k, h)| (k, h.summary()))
            .collect(),
        counters,
        criteria,
        recovery,
    }
}
