//! Experiment driver regenerating every table/figure of the paper's
//! evaluation (§III) plus ablations of the substrates under it.
//!
//! ```text
//! cargo run --release -p om-bench --bin experiments -- all
//! cargo run --release -p om-bench --bin experiments -- e1 e4
//! cargo run --release -p om-bench --bin experiments -- --scale 2 e2
//! ```
//!
//! Output: human-readable tables on stdout and JSON blobs under
//! `results/`.

use om_bench::{factor, make_platform, run_platform, standard_config, PLATFORMS};
use om_common::config::{RunConfig, WorkloadMix};
use om_driver::{run_benchmark, RunReport};
use om_marketplace::api::PlatformKind;
use std::collections::BTreeMap;

fn save_json(name: &str, reports: &[RunReport]) {
    let _ = std::fs::create_dir_all("results");
    let path = format!("results/{name}.json");
    let body = serde_json::to_string_pretty(reports).expect("serializable");
    if std::fs::write(&path, body).is_ok() {
        println!("  [saved {path}]");
    }
}

fn banner(name: &str, caption: &str) {
    println!("\n=== {name}: {caption} ===");
}

/// E1 — headline throughput comparison across the four implementations.
fn e1(config: &RunConfig) -> Vec<RunReport> {
    banner("E1", "throughput of the four implementations (paper §III)");
    let mut reports = Vec::new();
    for kind in PLATFORMS {
        let report = run_platform(kind, config, 4, kind_is_faulty(kind));
        println!("  {}", report.throughput_row());
        reports.push(report);
    }
    let tput: BTreeMap<&str, f64> = reports
        .iter()
        .map(|r| (r.platform.as_str(), r.throughput_per_sec))
        .collect();
    println!(
        "  factors: eventual/transactions = {:.2}x, statefun/transactions = {:.2}x, customized/transactions = {:.2}x",
        factor(tput["orleans_eventual"], tput["orleans_transactions"]),
        factor(tput["statefun"], tput["orleans_transactions"]),
        factor(tput["customized_orleans"], tput["orleans_transactions"]),
    );
    save_json("e1_throughput", &reports);
    reports
}

fn kind_is_faulty(kind: PlatformKind) -> bool {
    // Raw actor messaging is at-most-once: the two plain Orleans bindings
    // run with the lossy event channel; see om_bench::make_platform.
    matches!(kind, PlatformKind::Eventual | PlatformKind::Transactional)
}

/// E2 — scalability: throughput vs parallelism (figure series).
fn e2(config: &RunConfig) {
    banner("E2", "throughput vs parallelism 1..8 (scalability figure)");
    let mut reports = Vec::new();
    println!(
        "  {:<22} {:>8} {:>8} {:>8} {:>8}",
        "platform", "p=1", "p=2", "p=4", "p=8"
    );
    for kind in PLATFORMS {
        let mut row = format!("  {:<22}", kind.label());
        for p in [1usize, 2, 4, 8] {
            let mut cfg = config.clone();
            cfg.workers = p;
            let report = run_platform(kind, &cfg, p, kind_is_faulty(kind));
            row.push_str(&format!(" {:>8.0}", report.throughput_per_sec));
            reports.push(report);
        }
        println!("{row}");
    }
    save_json("e2_scalability", &reports);
}

/// E3 — latency percentiles per transaction type per implementation.
fn e3(config: &RunConfig) {
    banner("E3", "latency percentiles per transaction type");
    let mut reports = Vec::new();
    for kind in PLATFORMS {
        let report = run_platform(kind, config, 4, kind_is_faulty(kind));
        println!("  -- {}", report.platform);
        for line in report.latency_table().lines() {
            println!("     {line}");
        }
        reports.push(report);
    }
    save_json("e3_latency", &reports);
}

/// E4 — the criteria compliance matrix ("no single platform supports all
/// core data management requirements" — except the customized stack).
fn e4(config: &RunConfig) {
    banner("E4", "data-management criteria compliance matrix");
    let mut cfg = config.clone();
    cfg.mix = WorkloadMix::anomaly_hunting();
    let mut reports = Vec::new();
    for kind in PLATFORMS {
        let report = run_platform(kind, &cfg, 4, kind_is_faulty(kind));
        println!("  {}", report.criteria_row());
        reports.push(report);
    }
    let all_ok = reports
        .iter()
        .filter(|r| r.criteria.all_satisfied())
        .map(|r| r.platform.clone())
        .collect::<Vec<_>>();
    println!("  platforms satisfying ALL criteria: {all_ok:?}");
    save_json("e4_criteria", &reports);
}

/// E5/E6/E7 — the pairwise factors the paper quotes, measured head to
/// head with a checkout-only mix (the business transaction under study).
fn e567(config: &RunConfig) {
    banner(
        "E5/E6/E7",
        "pairwise overhead factors (checkout-only mix)",
    );
    let mut cfg = config.clone();
    cfg.mix = WorkloadMix::checkout_only();
    let mut tput = BTreeMap::new();
    let mut reports = Vec::new();
    for kind in PLATFORMS {
        let report = run_platform(kind, &cfg, 4, kind_is_faulty(kind));
        println!("  {}", report.throughput_row());
        tput.insert(report.platform.clone(), report.throughput_per_sec);
        reports.push(report);
    }
    println!(
        "  E5 transactions overhead: eventual is {:.2}x the throughput of transactions (paper: 'considerable overhead')",
        factor(tput["orleans_eventual"], tput["orleans_transactions"]),
    );
    println!(
        "  E6 statefun factor: statefun is {:.2}x transactions (paper: 'outperforms Orleans Transactions by 2 times')",
        factor(tput["statefun"], tput["orleans_transactions"]),
    );
    println!(
        "  E7 customized overhead: customized is {:.2}x transactions (paper: 'low overhead, comparable')",
        factor(tput["customized_orleans"], tput["orleans_transactions"]),
    );
    save_json("e567_factors", &reports);
}

/// A2 — ablation: dataflow checkpoint interval vs throughput.
fn a2(config: &RunConfig) {
    banner("A2", "statefun checkpoint-interval (max_batch) ablation");
    use om_marketplace::bindings::dataflow::{DataflowPlatform, DataflowPlatformConfig};
    let mut cfg = config.clone();
    cfg.mix = WorkloadMix::checkout_only();
    for max_batch in [8usize, 64, 512] {
        let platform = DataflowPlatform::new(DataflowPlatformConfig {
            partitions: 4,
            max_batch,
            decline_rate: cfg.payment_decline_rate,
            ..Default::default()
        });
        let report = run_benchmark(&platform, &cfg, true);
        println!(
            "  max_batch={max_batch:>4}: {:>8.0} ops/s, p99 checkout = {}us, epochs={}",
            report.throughput_per_sec,
            report
                .latency_of(om_common::config::TransactionKind::Checkout)
                .map(|l| l.p99_us)
                .unwrap_or(0),
            report.counters.get("df.epochs").copied().unwrap_or(0),
        );
    }
    // Second axis: the backend checkpoints persist through, at the
    // default interval.
    println!("  -- checkpoint store (max_batch=64) --");
    for kind in om_bench::BACKENDS {
        let platform = DataflowPlatform::new(DataflowPlatformConfig {
            partitions: 4,
            max_batch: 64,
            decline_rate: cfg.payment_decline_rate,
            checkpoint_store: Some(om_bench::make_checkpoint_store(kind)),
            ..Default::default()
        });
        let report = run_benchmark(&platform, &cfg, true);
        println!(
            "  store={:<18}: {:>8.0} ops/s, checkpoint_commits={}",
            kind.label(),
            report.throughput_per_sec,
            report
                .counters
                .get("df.checkpoint_commits")
                .copied()
                .unwrap_or(0),
        );
    }
}

/// A6 — recovery cells of the platform×backend matrix: run each dataflow
/// cell with the post-run crash drill armed and report restart cost.
fn a6(config: &RunConfig) {
    banner("A6", "crash-recovery cells (durable checkpoint restart per backend)");
    let mut reports = Vec::new();
    for backend in om_common::config::BackendKind::ALL {
        let mut cfg = config.clone();
        cfg.backend = backend;
        cfg.recovery_drill = true;
        let report = om_driver::run_matrix_cell(PlatformKind::Dataflow, &cfg);
        println!("  {}", report.recovery_row());
        reports.push(report);
    }
    save_json("a6_recovery", &reports);
}

/// A3 — ablation: lock contention (hot vs uniform keys) on the
/// transactional binding.
fn a3(config: &RunConfig) {
    banner("A3", "wait-die contention ablation (hot vs uniform products)");
    for (label, theta, products_per_seller) in
        [("hot (zipf 0.99, tiny catalogue)", 0.99, 2u64), ("uniform (large catalogue)", 0.0, 10)]
    {
        let mut cfg = config.clone();
        cfg.mix = WorkloadMix::checkout_only();
        cfg.zipf_theta = theta;
        cfg.scale.products_per_seller = products_per_seller;
        let platform =
            make_platform(PlatformKind::Transactional, cfg.backend, 4, cfg.payment_decline_rate, false);
        let report = run_benchmark(platform.as_ref(), &cfg, true);
        println!(
            "  {label:<32} {:>8.0} ops/s, tx_restarts={}, lock_waits={}",
            report.throughput_per_sec,
            report.counters.get("tx_restarts").copied().unwrap_or(0),
            report.counters.get("lock_waits").copied().unwrap_or(0),
        );
    }
}

/// A4 — ablation: MVCC garbage collection under an update-heavy load.
///
/// The customized stack's dashboard reads scan MVCC version chains; this
/// quantifies how chain growth degrades scans and what GC buys back.
fn a4() {
    banner("A4", "MVCC version-chain GC ablation (update-heavy table)");
    use om_mvcc::{IsolationLevel, TxManager};
    const KEYS: u64 = 1_000;
    const ROUNDS: usize = 50;
    for gc_every in [0usize, 10, 1] {
        let mgr = TxManager::new();
        let table = mgr.create_table::<u64, u64>("orders");
        {
            let tx = mgr.begin(IsolationLevel::Snapshot);
            for k in 0..KEYS {
                table.put(&tx, k, 0);
            }
            mgr.commit(tx).unwrap();
        }
        let started = std::time::Instant::now();
        let mut scan_us_total = 0u128;
        for round in 0..ROUNDS {
            let tx = mgr.begin(IsolationLevel::Snapshot);
            for k in 0..KEYS {
                table.put(&tx, k, round as u64);
            }
            mgr.commit(tx).unwrap();
            let scan_started = std::time::Instant::now();
            let tx = mgr.begin(IsolationLevel::Snapshot);
            let n = table.count(&tx);
            mgr.abort(tx);
            assert_eq!(n, KEYS as usize);
            scan_us_total += scan_started.elapsed().as_micros();
            if gc_every > 0 && (round + 1) % gc_every == 0 {
                mgr.gc();
            }
        }
        let label = match gc_every {
            0 => "gc: never".to_string(),
            1 => "gc: every commit round".to_string(),
            n => format!("gc: every {n} rounds"),
        };
        println!(
            "  {label:<24} total={:.0}ms avg_scan={}us final_versions={}",
            started.elapsed().as_secs_f64() * 1e3,
            scan_us_total / ROUNDS as u128,
            table.total_versions(),
        );
    }
}

/// A5 — ablation: what the HTTP front tier (paper Fig. 1) adds on top of
/// direct platform calls.
fn a5() {
    banner("A5", "HTTP layer overhead (direct call vs parse+route+dispatch)");
    use bytes::BytesMut;
    use om_http::gateway::MarketplaceGateway;
    use om_http::request::{parse_request, ParserConfig};
    use om_marketplace::api::MarketplacePlatform;
    use om_common::ids::SellerId;
    use std::sync::Arc;

    let platform = make_platform(PlatformKind::Eventual, om_common::config::BackendKind::Eventual, 4, 0.0, false);
    let platform: Arc<dyn MarketplacePlatform> = Arc::from(platform);
    // Minimal catalogue so dashboards have something to aggregate.
    platform
        .ingest_seller(om_common::entity::Seller::new(
            SellerId(1),
            "s".into(),
            "cph".into(),
        ))
        .unwrap();
    let gateway = MarketplaceGateway::new(platform.clone());
    const OPS: usize = 50_000;

    let started = std::time::Instant::now();
    for _ in 0..OPS {
        platform.seller_dashboard(SellerId(1)).unwrap();
    }
    let direct = started.elapsed();

    let wire = b"GET /sellers/1/dashboard HTTP/1.1\r\nhost: om\r\n\r\n";
    let cfg = ParserConfig::default();
    let started = std::time::Instant::now();
    for _ in 0..OPS {
        let mut buf = BytesMut::from(&wire[..]);
        let req = parse_request(&mut buf, &cfg).unwrap().unwrap();
        let resp = gateway.handle(&req);
        assert_eq!(resp.status, 200);
    }
    let gatewayed = started.elapsed();

    let direct_us = direct.as_secs_f64() * 1e6 / OPS as f64;
    let gw_us = gatewayed.as_secs_f64() * 1e6 / OPS as f64;
    println!("  direct platform call:      {direct_us:>8.2} us/op");
    println!("  via parse+route+dispatch:  {gw_us:>8.2} us/op");
    println!(
        "  HTTP layer adds {:.2} us/op ({:.1}% overhead) — the 'low overhead' front of Fig. 1",
        gw_us - direct_us,
        (gw_us / direct_us - 1.0) * 100.0
    );
}

/// A5b — the same comparison end to end: the benchmark driver submitting
/// the full workload either directly to the customized platform or
/// through its complete Fig. 1 stack (driver → wire → parser → router →
/// gateway → platform).
fn a5_full_stack(config: &RunConfig) {
    banner("A5b", "full-stack throughput: customized direct vs behind HTTP");
    use om_http::HttpPlatform;
    use std::sync::Arc;

    let direct = run_platform(PlatformKind::Customized, config, 4, false);
    println!("  {}", direct.throughput_row());

    let inner = make_platform(
        PlatformKind::Customized,
        config.backend,
        4,
        config.payment_decline_rate,
        false,
    );
    let fronted = HttpPlatform::front(Arc::from(inner), 2);
    let mut report = run_benchmark(&fronted, config, true);
    report.platform = "customized_behind_http".into();
    println!("  {}", report.throughput_row());
    println!(
        "  full-stack factor: {:.2}x direct (HTTP front should cost little)",
        factor(report.throughput_per_sec, direct.throughput_per_sec)
    );
    save_json("a5_full_stack", &[direct, report]);
}

/// A7 — adversarial traffic: every named scenario closed-loop across
/// the four platforms, the open-loop flash-sale SLO sweep (offered-rate
/// ladder, saturation point, queueing collapse vs the closed-loop view
/// of the same cell), and the chaos drill fired mid-flash-sale.
fn a7(config: &RunConfig) {
    use om_common::config::{BackendKind, OpenLoopConfig, ScenarioConfig, ScenarioKind};

    banner("A7", "adversarial scenarios, open-loop SLO sweep, chaos under load");
    let scenario_base = |scenario: ScenarioKind| RunConfig {
        backend: BackendKind::SnapshotIsolation,
        // No deletes: the hot product must survive the whole storm.
        mix: WorkloadMix {
            product_delete: 0,
            ..config.mix
        },
        scenario: Some(ScenarioConfig::named(scenario)),
        ..config.clone()
    };

    // Closed-loop scenario × platform table.
    let mut reports = Vec::new();
    println!(
        "  {:<22} {:>16} {:>10} {:>12} {:>12}",
        "platform", "scenario", "ops/s", "checkout p99", "conservation"
    );
    for kind in PLATFORMS {
        for scenario in ScenarioKind::ALL {
            let cfg = scenario_base(scenario);
            let report = run_platform(kind, &cfg, 4, kind_is_faulty(kind));
            println!(
                "  {:<22} {:>16} {:>10.0} {:>10}us {:>12}",
                report.platform,
                scenario.label(),
                report.throughput_per_sec,
                report
                    .latency
                    .get("checkout")
                    .map(|l| l.p99_us)
                    .unwrap_or(0),
                report.criteria.conservation_violations,
            );
            reports.push(report);
        }
    }

    // Open-loop SLO sweep on the transactional flash-sale cell: offer
    // fractions of the measured closed-loop capacity on a deterministic
    // schedule. The closed-loop row above reports a healthy p99 at ANY
    // load (it throttles itself); the open-loop rows expose where the
    // cell actually saturates and how the tail collapses past it.
    let calib = run_platform(PlatformKind::Transactional, &scenario_base(ScenarioKind::FlashSale), 4, false);
    let capacity = calib.throughput_per_sec.max(500.0);
    println!("  -- open-loop flash-sale sweep (closed-loop capacity {capacity:.0}/s) --");
    let mut rows = Vec::new();
    for fraction in [0.25, 0.5, 1.0, 1.5, 2.0] {
        let rate = capacity * fraction;
        let cfg = RunConfig {
            open_loop: Some(OpenLoopConfig::at_rate(rate, ((rate * 2.0) as u64).max(200))),
            ..scenario_base(ScenarioKind::FlashSale)
        };
        let report = run_platform(PlatformKind::Transactional, &cfg, 4, false);
        println!("  x{fraction:<4} {}", report.slo_row());
        if let Some(slo) = report.slo.clone() {
            rows.push(slo);
        }
        reports.push(report);
    }
    match om_driver::saturation_point(&rows, 0.9) {
        Some(sat) => println!("  saturation point (>=90% achieved): {sat:.0}/s"),
        None => println!("  saturation point: below the lowest offered rate"),
    }

    // Chaos under load: the recovery drill fired mid-flash-sale on the
    // durable dataflow cell.
    let chaos_cfg = RunConfig {
        backend: BackendKind::FileDurable,
        chaos_drill: true,
        ..scenario_base(ScenarioKind::FlashSale)
    };
    let report = om_driver::run_matrix_cell(PlatformKind::Dataflow, &chaos_cfg);
    println!("  -- chaos drill mid-flash-sale --");
    println!("  {}", report.recovery_row());
    println!(
        "  audit: conservation={} atomicity={} ordering={}",
        report.criteria.conservation_violations,
        report.criteria.atomicity_violations,
        report.criteria.ordering_violations,
    );
    reports.push(report);
    save_json("a7_scenarios", &reports);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale_factor = 1u64;
    let mut ops_per_worker: Option<u64> = None;
    let mut selected: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale_factor = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .expect("--scale <n>");
            }
            "--ops" => {
                i += 1;
                ops_per_worker = Some(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .expect("--ops <n>"),
                );
            }
            other => selected.push(other.to_lowercase()),
        }
        i += 1;
    }
    if selected.is_empty() || selected.iter().any(|s| s == "all") {
        selected = [
            "e1", "e2", "e3", "e4", "e567", "a2", "a3", "a4", "a5", "a6", "a7",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
    }
    let mut config = standard_config(scale_factor);
    if let Some(ops) = ops_per_worker {
        config.ops_per_worker = ops;
        config.warmup_ops_per_worker = (ops / 10).max(1);
    }
    println!(
        "Online Marketplace experiments (scale x{scale_factor}: {} sellers, {} products, {} customers)",
        config.scale.sellers,
        config.scale.total_products(),
        config.scale.customers
    );
    for exp in selected {
        match exp.as_str() {
            "e1" => {
                e1(&config);
            }
            "e2" => e2(&config),
            "e3" => e3(&config),
            "e4" => e4(&config),
            "e5" | "e6" | "e7" | "e567" => e567(&config),
            "a2" => a2(&config),
            "a3" => a3(&config),
            "a4" => a4(),
            "a5" => {
                a5();
                a5_full_stack(&config);
            }
            "a6" => a6(&config),
            "a7" => a7(&config),
            other => eprintln!("unknown experiment '{other}'"),
        }
    }
}
