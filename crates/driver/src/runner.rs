//! The benchmark runner: experiment lifecycle management.
//!
//! Phases (paper §II, *Driver*): data generation → ingestion → warm-up →
//! measured submission → statistics collection → quiesce → audit.
//!
//! The measured window runs in one of two modes:
//!
//! * **closed loop** (default): each worker issues its next operation
//!   only after the previous one completes — throughput-oriented, but a
//!   slowing system silently throttles its own offered load;
//! * **open loop** (`RunConfig::open_loop`): requests fire on a
//!   deterministic arrival schedule regardless of completions, with a
//!   bounded in-flight ledger and drop/late accounting, and latency
//!   measured from the *scheduled* arrival — queueing delay included.
//!   The report gains an [`SloRow`].
//!
//! `RunConfig::chaos_drill` additionally fires the platform's
//! crash-recovery drill *mid-window* (once a quarter of the measured
//! operations have completed), where the post-run `recovery_drill` waits
//! for quiescence.

use crate::audit::{audit, RuntimeObservations};
use crate::datagen::DataGenerator;
use crate::openloop::{ArrivalSchedule, SloAccumulator, SloRow, LATE_SLACK_US};
use crate::report::RunReport;
use crate::scenario::{next_scenario_op, ScenarioState};
use crate::workload::{next_op, Op, WorkloadState};
use om_common::config::{OpenLoopConfig, RunConfig};
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

/// One open-loop executor: drains the dispatch queue, measuring each
/// completion from its *scheduled* arrival instant.
fn open_loop_worker(
    platform: &dyn MarketplacePlatform,
    state: &WorkloadState,
    rx: crossbeam::channel::Receiver<(Op, Instant)>,
    progress: &AtomicU64,
) -> (WorkerStats, SloAccumulator) {
    let mut stats = WorkerStats::new();
    let mut acc = SloAccumulator::new();
    while let Ok((op, scheduled)) = rx.recv() {
        let kind = op.kind().label();
        let result = execute(platform, state, &op, &mut stats);
        // Queueing delay (time spent in the ledger behind other arrivals)
        // is part of the customer-visible latency — the whole point of
        // the open loop.
        let latency = scheduled.elapsed();
        match result {
            Ok(()) => {
                stats.completed += 1;
                stats
                    .latency
                    .entry(kind)
                    .or_default()
                    .record_duration(latency);
                acc.complete(latency.as_micros() as u64);
            }
            Err(_) => {
                stats.failed += 1;
                acc.failed += 1;
            }
        }
        progress.fetch_add(1, Ordering::Relaxed);
    }
    (stats, acc)
}

/// Sleeps (coarsely) then spins (precisely) until `target`.
fn wait_until(target: Instant) {
    const SPIN_SLACK: Duration = Duration::from_micros(200);
    let now = Instant::now();
    if let Some(gap) = target.checked_duration_since(now) {
        if gap > SPIN_SLACK {
            std::thread::sleep(gap - SPIN_SLACK);
        }
        while Instant::now() < target {
            std::hint::spin_loop();
        }
    }
}

/// The open-loop measured window: a dispatcher fires the arrival schedule
/// into a bounded queue (the in-flight ledger) that `workers` executors
/// drain. Returns the merged worker stats, the SLO row and the window
/// length in seconds.
fn open_loop_window(
    platform: &dyn MarketplacePlatform,
    state: &WorkloadState,
    scenario: Option<&ScenarioState>,
    config: &RunConfig,
    ol: &OpenLoopConfig,
    seeder: &mut SplitMix64,
    progress: &AtomicU64,
) -> (Vec<WorkerStats>, SloRow, f64) {
    let schedule = ArrivalSchedule::generate(ol, config.seed);
    let workers = if ol.workers == 0 {
        config.workers.max(1)
    } else {
        ol.workers
    };
    // The ledger: queued arrivals are bounded by `max_in_flight`; each
    // executor holds at most one more, so in-flight <= cap + workers.
    let (tx, rx) = crossbeam::channel::bounded::<(Op, Instant)>(ol.max_in_flight.max(1));
    let mut gen_rng = seeder.fork();
    let mut dispatch = SloAccumulator::new();
    let mut worker_stats = Vec::new();
    let mut worker_accs = Vec::new();
    let start = Instant::now();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for _ in 0..workers {
            let rx = rx.clone();
            let platform_ref: &dyn MarketplacePlatform = platform;
            let progress_ref = &*progress;
            handles.push(
                scope.spawn(move || open_loop_worker(platform_ref, state, rx, progress_ref)),
            );
        }
        for &offset in &schedule.offsets_us {
            let target = start + Duration::from_micros(offset);
            wait_until(target);
            dispatch.arrivals += 1;
            // A handful of retries tolerates transient lease starvation;
            // a persistently dry generator sheds the arrival instead of
            // stalling the schedule.
            let mut op = None;
            for _ in 0..8 {
                op = gen_op(state, scenario, config, &mut gen_rng);
                if op.is_some() {
                    break;
                }
            }
            let Some(op) = op else {
                dispatch.dropped += 1;
                continue;
            };
            if Instant::now().duration_since(target).as_micros() as u64 > LATE_SLACK_US {
                dispatch.late += 1;
            }
            if let Err(crossbeam::channel::TrySendError::Full((op, _)))
            | Err(crossbeam::channel::TrySendError::Disconnected((op, _))) =
                tx.try_send((op, target))
            {
                // Ledger full: shed the arrival, release its inputs.
                if let Some(c) = op.leased_customer() {
                    state.return_customer(c);
                }
                dispatch.dropped += 1;
            }
        }
        drop(tx); // close the ledger; workers drain and exit
        for h in handles {
            let (stats, acc) = h.join().expect("open-loop worker panicked");
            worker_stats.push(stats);
            worker_accs.push(acc);
        }
    });
    let window_secs = start.elapsed().as_secs_f64();
    for acc in &worker_accs {
        dispatch.merge(acc);
    }
    let row = dispatch.into_row(ol.offered_rate, window_secs);
    (worker_stats, row, window_secs)
}

/// Builds the platform for the `(kind, config.backend)` matrix cell
/// through the factory and runs the full lifecycle on it. This is the
/// `RunConfig`-driven entry point: selecting a different backend — or a
/// scenario, an open-loop rate, a chaos drill — is a config change,
/// never a code change.
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
    let total_measured = match &config.open_loop {
        Some(ol) => ol.arrivals,
        None => config.ops_per_worker * config.workers as u64,
    };
    let chaos_target = (total_measured / 4).max(1);

    // 2 + 3. Warm-up and measured submission.
    let mut worker_stats: Vec<WorkerStats> = Vec::new();
    let mut slo: Option<SloRow> = None;
    let measured_window = Instant::now();
    let mut window_secs = 0.0f64;
    std::thread::scope(|scope| {
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

        if let Some(ol) = &config.open_loop {
            // Closed-loop warm-up, then the open-loop measured window.
            if config.warmup_ops_per_worker > 0 {
                let mut warm_handles = Vec::new();
                for _ in 0..config.workers.max(1) {
                    let rng = seeder.fork();
                    let state = state.clone();
                    let scenario_ref = scenario.as_ref();
                    let platform_ref: &dyn MarketplacePlatform = platform;
                    let progress_ref = &progress;
                    warm_handles.push(scope.spawn(move || {
                        worker_loop(
                            platform_ref,
                            &state,
                            scenario_ref,
                            config,
                            rng,
                            0,
                            config.warmup_ops_per_worker,
                            progress_ref,
                        )
                    }));
                }
                for h in warm_handles {
                    h.join().expect("warmup worker panicked");
                }
            }
            let (stats, row, secs) = open_loop_window(
                platform,
                &state,
                scenario.as_ref(),
                config,
                ol,
                &mut seeder,
                &progress,
            );
            worker_stats = stats;
            slo = Some(row);
            window_secs = secs;
        } else {
            let mut handles = Vec::new();
            for _ in 0..config.workers {
                let rng = seeder.fork();
                let state = state.clone();
                let scenario_ref = scenario.as_ref();
                let platform_ref: &dyn MarketplacePlatform = platform;
                let progress_ref = &progress;
                handles.push(scope.spawn(move || {
                    worker_loop(
                        platform_ref,
                        &state,
                        scenario_ref,
                        config,
                        rng,
                        config.ops_per_worker,
                        config.warmup_ops_per_worker,
                        progress_ref,
                    )
                }));
            }
            for h in handles {
                worker_stats.push(h.join().expect("worker panicked"));
            }
            window_secs = measured_window.elapsed().as_secs_f64();
        }
        // Unblock a chaos thread still waiting on its progress target; it
        // fires against the drained platform, degenerating to a post-run
        // drill rather than hanging the scope.
        window_over.store(true, Ordering::Relaxed);
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
        slo,
    }
}
