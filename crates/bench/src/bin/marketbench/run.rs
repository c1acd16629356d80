//! One run of one workload: per cell the set-up, the timed phases and
//! the audit, and the metrics they yield. [`measure`] is the untraced run
//! behind every end-to-end metric; the traced run lives in
//! [`crate::layers`].

use crate::audit::{self, Ledger};
use crate::cell::{self, phase, Workload, CELLS, CLIENTS};
use crate::load::{run_phase, Client, PhaseResult, Sample, Spans};
use crate::placement::Placement;
use crate::stats::{self, Better, Percentile};
use crate::stream::{self, ClientStream, Op};
use om_http::HttpServer;
use om_marketplace::{MarketplacePlatform, PlatformKind};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Share of requests that may miss the limit before a ladder step is
/// missed (and, in the traced run, leave late before its loaded pass is
/// called invalid).
pub const MAX_BAD_SHARE: f64 = 0.01;

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    /// Tiny rates, no minimum tail behind a percentile: a code-path
    /// check, not a measurement.
    pub smoke: bool,
}

impl Args {
    pub fn min_beyond(&self) -> usize {
        if self.smoke {
            0
        } else {
            10
        }
    }
}

/// What a run reports.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    /// Why the run is invalid or its outputs incorrect; empty if neither.
    pub problems: Vec<String>,
    /// Human-readable evidence printed above the result line.
    pub notes: Vec<String>,
}

/// A built cell behind the event engine, with its clients connected.
pub struct Cell {
    pub platform: Arc<dyn MarketplacePlatform>,
    pub server: HttpServer,
    pub clients: Vec<Client>,
    pub data_dir: Option<PathBuf>,
}

impl Cell {
    /// Places the calling thread (before anything is built, so that every
    /// thread of the system under test inherits its core), builds the
    /// workload's cell in a fresh data directory, ingests the catalogue
    /// and connects one client per stream.
    pub fn start(
        w: &Workload,
        streams: Vec<ClientStream>,
        traced: bool,
        placement: Placement,
    ) -> Cell {
        let client_core = placement.apply();
        let data_dir = w.disk.then(|| cell::fresh_data_dir(w.name));
        let platform = if traced {
            w.build_traced(data_dir.as_deref())
        } else {
            w.build_plain(data_dir.as_deref())
        };
        cell::ingest(platform.as_ref());
        let server = cell::serve(platform.clone());
        let clients = streams
            .into_iter()
            .enumerate()
            .map(|(i, stream)| Client::connect(&server, i, stream, client_core))
            .collect();
        Cell {
            platform,
            server,
            clients,
            data_dir,
        }
    }

    /// Pre-places orders and warms up, closed loop.
    pub fn prepare(&mut self) -> Vec<Sample> {
        let mut samples = run_phase(&mut self.clients, phase::PREPLACE, Spans::Off).samples;
        samples.extend(run_phase(&mut self.clients, phase::WARMUP, Spans::Off).samples);
        samples
    }

    /// Whether the system under test has a core to itself, apart from the
    /// clients' (see [`crate::placement`]).
    pub fn is_split(&self) -> bool {
        self.clients.iter().all(|c| c.core().is_some())
    }

    /// Runs one timed phase from a settled platform: work the phase
    /// before left behind must not be charged to this one.
    pub fn timed(&mut self, phase: usize) -> PhaseResult {
        self.platform.quiesce();
        run_phase(&mut self.clients, phase, Spans::Off)
    }

    /// Stops the engine and drops the platform; the data directory (if
    /// any) is left for the caller.
    pub fn stop(self) -> Option<PathBuf> {
        for client in self.clients {
            client.close();
        }
        self.server.shutdown();
        drop(self.platform);
        self.data_dir
    }
}

pub fn remove_dir(dir: Option<PathBuf>) {
    if let Some(dir) = dir {
        let _ = std::fs::remove_dir_all(dir);
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// `status x count` of every status seen, 0 standing for a transport error.
fn status_counts(samples: &[Sample]) -> String {
    let mut counts = std::collections::BTreeMap::<u16, usize>::new();
    for s in samples {
        *counts.entry(s.status).or_default() += 1;
    }
    let parts: Vec<String> = counts.iter().map(|(s, n)| format!("{s} x {n}")).collect();
    parts.join(", ")
}

pub fn failed_count(samples: &[Sample]) -> u64 {
    samples.iter().filter(|s| s.failed()).count() as u64
}

/// Latencies of the samples `keep` selects, in nanoseconds.
pub fn latencies(samples: &[Sample], keep: impl Fn(&Sample) -> bool) -> Vec<u64> {
    samples
        .iter()
        .filter(|s| keep(s))
        .map(Sample::latency_ns)
        .collect()
}

/// How many requests left later than the workload's latency limit: they
/// missed it before the system saw them.
pub fn late_count(samples: &[Sample], limit_ms: f64) -> usize {
    samples
        .iter()
        .filter(|s| ms(s.lateness_ns()) > limit_ms)
        .count()
}

fn share(part: usize, whole: usize) -> f64 {
    part as f64 / whole.max(1) as f64
}

/// A percentile in milliseconds with its evidence as text, or why it
/// was refused.
fn percentile_ms(
    mut latencies: Vec<u64>,
    p: f64,
    min_beyond: usize,
) -> Result<(f64, String), String> {
    let Percentile {
        value,
        samples,
        beyond,
    } = stats::percentile(&mut latencies, p, min_beyond)?;
    Ok((
        ms(value),
        format!("{:.4} ms (n {samples}, {beyond} beyond)", ms(value)),
    ))
}

/// Whether an open-loop ladder step met the workload's limit: at most
/// one request in a hundred failed or took longer than the limit (time
/// spent waiting to be sent included, since latency counts from the due
/// instant), and no backlog was still standing at the end.
fn step_passes(w: &Workload, rps: f64, step: &PhaseResult, notes: &mut Vec<String>) -> bool {
    let samples = &step.samples;
    let missed = samples
        .iter()
        .filter(|s| s.failed() || ms(s.latency_ns()) > w.p99_limit_ms)
        .count();
    let missed_share = share(missed, samples.len());
    // How late each client's last twenty requests left, at the median.
    let final_lateness_ms = (0..CLIENTS)
        .map(|client| {
            let tail: Vec<f64> = samples
                .iter()
                .rev()
                .filter(|s| s.client == client)
                .take(20)
                .map(|s| ms(s.lateness_ns()))
                .collect();
            stats::median(&tail)
        })
        .fold(0.0, f64::max);
    let pass = missed_share <= MAX_BAD_SHARE && final_lateness_ms < w.p99_limit_ms;
    let p99 = stats::percentile(&mut latencies(samples, |_| true), 99.0, 0);
    notes.push(format!(
        "  ladder {rps:.0} req/s offered: {} requests answered in {:.2} s, p99 {:.3} ms, failed or over {} ms {missed_share:.4}, final lateness {final_lateness_ms:.3} ms -> {} [{}]",
        samples.len(),
        step.elapsed_ns as f64 / 1e9,
        p99.map_or(f64::NAN, |p| ms(p.value)),
        w.p99_limit_ms,
        if pass { "pass" } else { "miss" },
        status_counts(samples)
    ));
    pass
}

/// Clock ticks (10 ms) the hypervisor kept this machine's CPUs from
/// running while they had work, from the `steal` column of `/proc/stat`;
/// 0 where that cannot be read.
pub fn stolen_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| stat.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set of this process, from `VmHWM`.
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Requests per second of a closed-loop peak phase over the time every
/// caller was calling (once the first has sent its share the others run
/// uncontended), and the instant that time ended.
pub fn peak_rate(peak: &PhaseResult) -> (f64, u64) {
    let all_until = (0..CLIENTS)
        .filter_map(|client| {
            let done = peak.samples.iter().filter(|s| s.client == client);
            done.map(|s| s.done_ns).max()
        })
        .min()
        .unwrap_or(peak.start_ns);
    let answered = peak
        .samples
        .iter()
        .filter(|s| s.done_ns <= all_until)
        .count();
    let rps = answered as f64 / ((all_until - peak.start_ns) as f64 / 1e9);
    (rps, all_until)
}

/// The untraced run: every end-to-end metric, and the audit.
pub fn measure(args: &Args) -> Report {
    let w = &args.workload;
    let mb = args.min_beyond();
    let mut report = Report::default();
    let check_dashboards = w.kind == PlatformKind::Customized;
    let is_checkout = |s: &Sample| s.op == Op::Checkout;

    // One value per cell of everything reported over cells.
    let (mut setups, mut peaks) = (Vec::new(), Vec::new());
    let (mut req_p50s, mut req_p99s, mut checkout_p50s) = (Vec::new(), Vec::new(), Vec::new());
    let mut steps_passed = Vec::new();
    let mut lowest_step_rps = f64::NAN;
    let mut split = true;

    for (index, seed) in stream::cell_seeds(args.seed, CELLS).into_iter().enumerate() {
        // The last cells run the ladder, the overload step last of all:
        // what its backlog leaves on the heap slows no later cell.
        let step_rps = (index + w.ladder_rps.len())
            .checked_sub(CELLS)
            .map(|step| w.ladder_rps[step]);
        let streams = stream::generate(seed, CLIENTS, &w.cell_phases(args.seconds, step_rps));

        let started = Instant::now();
        let mut cell = Cell::start(w, streams, false, Placement::Split);
        let prepared = cell.prepare();
        let setup_s = started.elapsed().as_secs_f64();
        setups.push(setup_s);
        split &= cell.is_split();
        if failed_count(&prepared) > 0 {
            report.problems.push(format!(
                "cell {index}: {} set-up requests failed [{}]",
                failed_count(&prepared),
                status_counts(&prepared)
            ));
        }

        // Peak: closed loop, a fixed count of requests, the system kept
        // busy by two callers. Measured while both are calling.
        let stolen_before = stolen_ticks();
        let peak = cell.timed(phase::PEAK);
        let stolen = stolen_ticks().saturating_sub(stolen_before);
        let (peak_rps, both_until) = peak_rate(&peak);
        let busy = |s: &Sample| s.done_ns <= both_until;
        // A reported percentile that is refused fails the run and reads NaN.
        let mut required = |what: &str, latencies: Vec<u64>, p: f64| {
            percentile_ms(latencies, p, mb).unwrap_or_else(|why| {
                report
                    .problems
                    .push(format!("cell {index} {what} refused: {why}"));
                (f64::NAN, "refused".into())
            })
        };
        let all = latencies(&peak.samples, busy);
        let answered = all.len();
        let (p50, p50_note) = required("req p50", all.clone(), 50.0);
        let (p99, p99_note) = required("req p99", all, 99.0);
        let checkouts = latencies(&peak.samples, |s| busy(s) && is_checkout(s));
        let (c50, c50_note) = required("checkout p50", checkouts, 50.0);
        peaks.push(peak_rps);
        req_p50s.push(p50);
        req_p99s.push(p99);
        checkout_p50s.push(c50);
        report.notes.push(format!(
            "cell {index}: setup {setup_s:.4} s; peak {} requests closed-loop over {CLIENTS} callers, {} failed, {answered} answered while both called at {peak_rps:.1} req/s, {stolen} ticks stolen; req p50 {p50_note}, p99 {p99_note}; checkout p50 {c50_note}",
            peak.samples.len(),
            failed_count(&peak.samples),
        ));

        // This cell's step of the ladder, if it runs one.
        let mut timed = vec![peak];
        if let Some(rps) = step_rps {
            let step = cell.timed(phase::STEP);
            if steps_passed.is_empty() {
                lowest_step_rps = step.samples.len() as f64 / (step.elapsed_ns as f64 / 1e9);
            }
            steps_passed.push(step_passes(w, rps, &step, &mut report.notes));
            timed.push(step);
        }

        // Audit, and for the last cell once more on the platform rebuilt
        // cold from disk.
        let mut ledger = Ledger::new();
        ledger.add(
            &prepared,
            &cell.clients,
            check_dashboards,
            &mut report.problems,
        );
        for result in &timed {
            report.attempted += result.samples.len() as u64;
            report.failed += failed_count(&result.samples);
            ledger.add(
                &result.samples,
                &cell.clients,
                check_dashboards,
                &mut report.problems,
            );
        }
        let which = format!("cell {index}, live platform");
        audit::check(
            cell.platform.as_ref(),
            &ledger,
            &which,
            &mut report.problems,
        );
        let data_dir = cell.stop();
        if let (Some(dir), true) = (&data_dir, index + 1 == CELLS) {
            let started = Instant::now();
            let rebuilt = w.build_plain(Some(dir));
            report.notes.push(format!(
                "  cold rebuild from the data directory took {:.1} ms",
                started.elapsed().as_secs_f64() * 1e3
            ));
            let which = format!("cell {index}, platform rebuilt cold");
            audit::check(rebuilt.as_ref(), &ledger, &which, &mut report.problems);
        }
        remove_dir(data_dir);
        report.notes.push(format!(
            "  audit: {} acknowledged checkouts, {} order ids, {} dashboards checked",
            ledger.acked_checkouts,
            ledger.acked_orders.len(),
            ledger.dashboards_checked
        ));
    }

    // The highest pinned rate that met the limit, with every rate below
    // it; if not even the lowest did, the rate that step got through.
    let held = steps_passed.iter().take_while(|pass| **pass).count();
    let max_rate = match held {
        0 => lowest_step_rps.min(w.ladder_rps[0]),
        n => w.ladder_rps[n - 1],
    };

    for (name, how, values) in [
        ("setup_s", "median", &setups),
        ("peak_rps", "best", &peaks),
        ("peak_req_p50_ms", "best", &req_p50s),
        ("peak_req_p99_ms", "best", &req_p99s),
        ("peak_checkout_p50_ms", "best", &checkout_p50s),
    ] {
        report
            .notes
            .push(format!("{name} = {how} over cells of {values:.4?}"));
    }
    report.notes.push(if split {
        "every cell: system under test pinned to one core, clients to another".into()
    } else {
        "threads left to the scheduler (one core, or pinning refused)".into()
    });
    report.metrics = vec![
        ("setup_s", stats::median(&setups)),
        ("peak_rps", stats::best(&peaks, Better::Higher)),
        ("peak_req_p50_ms", stats::best(&req_p50s, Better::Lower)),
        ("peak_req_p99_ms", stats::best(&req_p99s, Better::Lower)),
        (
            "peak_checkout_p50_ms",
            stats::best(&checkout_p50s, Better::Lower),
        ),
        ("max_rate_rps", max_rate),
        (
            "ok_share",
            1.0 - report.failed as f64 / report.attempted.max(1) as f64,
        ),
    ];
    report
}
