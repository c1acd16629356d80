//! The traced run behind every per-layer metric.
//!
//! Two passes over a cell built with a decorator at each public seam:
//!
//! * `attrib` — one request in flight, named to the span recorder, the
//!   platform settled between requests. Each instant of a request's
//!   client span is owned by the deepest layer with a span open then, so
//!   the layers' self times partition the span exactly.
//! * `loaded` — the base rate with both clients, span recording switched
//!   on and off in alternating quarter-second slices. The traced slices
//!   give counts, ratios, cohort sizes, durations under load and busy
//!   shares; the untraced slices, which see the same state and drift,
//!   are the reference for the tracing overhead.
//!
//! Isolated probes then time public functions of `om_http` and
//! `serde_json` on the run's recorded bytes.

use crate::audit::{self, Ledger};
use crate::cell::{phase, CLIENTS};
use crate::load::{run_one_in_flight, run_phase, Sample, Spans, SLICE_NS};
use crate::placement::Placement;
use crate::run::{
    failed_count, late_count, latencies, peak_rate, remove_dir, rss_peak_mb, Args, Cell, Report,
    MAX_BAD_SHARE,
};
use crate::stats;
use crate::stream::{self, ClientStream, Op};
use crate::trace::{self, now_ns, Span};
use bytes::BytesMut;
use om_common::entity::SellerDashboard;
use om_http::gateway::CheckoutBody;
use om_http::{parse_request, ParserConfig};
use om_marketplace::api::CheckoutOutcome;
use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

/// Layers from the outside in; a span's depth is its layer's position.
/// `om_http` owns whatever no decorator covers: it has no seam of its
/// own, so its time is the client span minus the platform span.
const LAYERS: [&str; 5] = ["om_http", "om_marketplace", "om_log", "om_storage", "vfs"];

/// Mean self time of each layer per request of the `attrib` pass.
struct Attribution {
    requests: usize,
    client_ns: f64,
    self_ns: [f64; LAYERS.len()],
}

fn attribute(spans: &[Span]) -> Attribution {
    let mut by_request: HashMap<u64, Vec<&Span>> = HashMap::new();
    for span in spans.iter().filter(|s| s.request != 0) {
        by_request.entry(span.request).or_default().push(span);
    }
    let mut total = Attribution {
        requests: 0,
        client_ns: 0.0,
        self_ns: [0.0; LAYERS.len()],
    };
    for group in by_request.values() {
        let Some(client) = group.iter().find(|s| s.layer() == "client") else {
            continue;
        };
        // +1 / -1 per layer depth at each span boundary, clipped to the
        // client span (work outlasting the response delayed no one).
        let mut edges: Vec<(u64, usize, i32)> = Vec::new();
        for span in group {
            let Some(depth) = LAYERS.iter().position(|l| *l == span.layer()) else {
                continue;
            };
            let start = span.start_ns.max(client.start_ns);
            let end = span.end_ns.min(client.end_ns);
            if start < end {
                edges.push((start, depth, 1));
                edges.push((end, depth, -1));
            }
        }
        edges.sort_unstable();
        let mut open = [0i32; LAYERS.len()];
        let mut at = client.start_ns;
        for (t, depth, delta) in edges.into_iter().chain([(client.end_ns, 0, 0)]) {
            let owner = open.iter().rposition(|n| *n > 0).unwrap_or(0);
            total.self_ns[owner] += (t - at) as f64;
            open[depth] += delta;
            at = t;
        }
        total.client_ns += client.ns() as f64;
        total.requests += 1;
    }
    let n = total.requests.max(1) as f64;
    total.client_ns /= n;
    total.self_ns.iter_mut().for_each(|ns| *ns /= n);
    total
}

/// Totals over the spans of one name (or name prefix) in a window.
#[derive(Default)]
struct Totals {
    count: u64,
    ns: u64,
    units: u64,
    bytes: u64,
    errors: u64,
    durations: Vec<u64>,
    intervals: Vec<(u64, u64)>,
}

impl Totals {
    fn of(spans: &[Span], prefix: &str) -> Totals {
        let mut t = Totals::default();
        for s in spans.iter().filter(|s| s.name.starts_with(prefix)) {
            t.count += 1;
            t.ns += s.ns();
            t.units += s.units;
            t.bytes += s.bytes;
            t.errors += !s.ok as u64;
            t.durations.push(s.ns());
            t.intervals.push((s.start_ns, s.end_ns));
        }
        t
    }

    fn mean_ns(&self) -> f64 {
        ratio(self.ns as f64, self.count as f64)
    }

    fn p99_ns(&mut self, min_beyond: usize) -> f64 {
        stats::percentile(&mut self.durations, 99.0, min_beyond).map_or(0.0, |p| p.value as f64)
    }

    /// Share of `window_ns` during which at least one of the spans was open.
    fn busy_share(&mut self, window_ns: u64) -> f64 {
        self.intervals.sort_unstable();
        let (mut covered, mut end) = (0u64, 0u64);
        for &(s, e) in &self.intervals {
            if e > end {
                covered += e - s.max(end);
                end = e;
            }
        }
        ratio(covered as f64, window_ns as f64)
    }
}

/// `a / b`, or 0 where there is nothing to divide by: a layer the
/// workload bypasses reads 0, not NaN.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Median over `rounds` of the mean nanoseconds `work` takes per item.
fn probe<T>(items: &[T], rounds: usize, mut work: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let means: Vec<f64> = (0..rounds)
        .map(|_| {
            let started = Instant::now();
            items.iter().for_each(&mut work);
            started.elapsed().as_nanos() as f64 / items.len() as f64
        })
        .collect();
    stats::median(&means)
}

/// The isolated probes: public functions of `om_http` and `serde_json`
/// timed on bytes this run sent and received.
struct Probes {
    parse_ns: f64,
    encode_ns: f64,
    serde_decode_ns: f64,
    serde_encode_ns: f64,
    handle_floor_us: f64,
    roundtrip_floor_us: f64,
}

fn run_probes(cell: &Cell, stream: &ClientStream, loaded: &[Sample]) -> Probes {
    const ROUNDS: usize = 5;
    let cfg = ParserConfig::default();
    let sent: Vec<&stream::Request> = stream.phases[phase::LOADED].iter().take(2000).collect();

    let wire: Vec<&[u8]> = sent.iter().map(|r| stream.bytes(r)).collect();
    let parse_ns = probe(&wire, ROUNDS, |bytes| {
        let mut buf = BytesMut::from(*bytes);
        let parsed = parse_request(&mut buf, &cfg);
        assert!(matches!(std::hint::black_box(parsed), Ok(Some(_))));
    });

    let responses: Vec<_> = loaded.iter().filter_map(|s| s.response.as_ref()).collect();
    let mut out = BytesMut::with_capacity(1 << 16);
    let encode_ns = probe(&responses, ROUNDS, |response| {
        out.clear();
        response.write_to(&mut out);
        std::hint::black_box(out.len());
    });

    let checkout_bodies: Vec<&[u8]> = sent
        .iter()
        .filter(|r| r.op == Op::Checkout)
        .map(|r| {
            let bytes = stream.bytes(r);
            let head_end = bytes
                .windows(4)
                .position(|w| w == b"\r\n\r\n")
                .expect("a head");
            &bytes[head_end + 4..]
        })
        .collect();
    let serde_decode_ns = probe(&checkout_bodies, ROUNDS, |body| {
        let decoded: Result<CheckoutBody, _> = serde_json::from_slice(body);
        assert!(std::hint::black_box(decoded).is_ok());
    });

    // Response payloads as the gateway encodes them: typed, not as `Value`.
    let dashboards: Vec<SellerDashboard> = loaded
        .iter()
        .filter(|s| s.op == Op::Dashboard && s.status == 200)
        .filter_map(|s| s.response.as_ref()?.json_body().ok())
        .collect();
    let outcomes: Vec<CheckoutOutcome> = loaded
        .iter()
        .filter(|s| s.op == Op::Checkout && s.status == 200)
        .filter_map(|s| s.response.as_ref()?.json_body().ok())
        .collect();
    let payloads = dashboards.len() + outcomes.len();
    let serde_encode_ns = ratio(
        probe(&dashboards, ROUNDS, |d| {
            std::hint::black_box(serde_json::to_vec(d).expect("encode a dashboard"));
        }) * dashboards.len() as f64
            + probe(&outcomes, ROUNDS, |o| {
                std::hint::black_box(serde_json::to_vec(o).expect("encode an outcome"));
            }) * outcomes.len() as f64,
        payloads as f64,
    );

    // The smallest request there is, through the gateway alone and
    // through the whole engine.
    let health = b"GET /health HTTP/1.1\r\n\r\n";
    let request = parse_request(&mut BytesMut::from(&health[..]), &cfg)
        .expect("a well-formed request")
        .expect("a whole request");
    let gateway = cell.server.gateway();
    let rounds: Vec<()> = vec![(); 1000];
    let handle_floor_us = probe(&rounds, ROUNDS, |_| {
        assert_eq!(std::hint::black_box(gateway.handle(&request)).status, 200);
    }) / 1e3;
    let mut client = cell.server.connect();
    let roundtrip_floor_us = probe(&rounds, ROUNDS, |_| {
        client.send_raw(health);
        assert_eq!(client.read_response().expect("a response").status, 200);
    }) / 1e3;
    client.close();

    Probes {
        parse_ns,
        encode_ns,
        serde_decode_ns,
        serde_encode_ns,
        handle_floor_us,
        roundtrip_floor_us,
    }
}

/// Plain cells of the one-core-against-two comparison, half of them each
/// way.
const CORES_CELLS: usize = 6;

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

/// The traced run: every per-layer metric, `trace-<workload>.json`, and
/// the audit.
pub fn measure(args: &Args) -> Report {
    let w = &args.workload;
    let mb = args.min_beyond();
    let mut report = Report::default();
    let streams = stream::generate(args.seed, CLIENTS, &w.trace_phases(args.seconds));

    // -- the decorated cell: attrib, then loaded --------------------------
    let mut cell = Cell::start(w, streams, true, Placement::Split);
    let prepared = cell.prepare();
    let platform = cell.platform.clone();
    let attrib_start = now_ns();
    let attrib = run_one_in_flight(&mut cell.clients, phase::ATTRIB, || platform.quiesce());
    let loaded = run_phase(&mut cell.clients, phase::LOADED, Spans::Alternate);
    let loaded_end = now_ns();
    let started = Instant::now();
    platform.quiesce();
    let quiesce_ms = started.elapsed().as_secs_f64() * 1e3;
    drop(platform);
    let probes = run_probes(&cell, &cell.clients[0].stream, &loaded.samples);

    let mut ledger = Ledger::new();
    let check_dashboards = w.kind == om_marketplace::PlatformKind::Customized;
    for samples in [&prepared, &attrib, &loaded.samples] {
        ledger.add(
            samples,
            &cell.clients,
            check_dashboards,
            &mut report.problems,
        );
    }
    audit::check(
        cell.platform.as_ref(),
        &ledger,
        "traced platform",
        &mut report.problems,
    );
    let data_dir = cell.stop();
    let (mut disk_bytes, mut cold_recovery_ms) = (0, 0.0);
    if let Some(dir) = &data_dir {
        disk_bytes = dir_bytes(dir);
        let started = Instant::now();
        let rebuilt = w.build_plain(Some(dir));
        cold_recovery_ms = started.elapsed().as_secs_f64() * 1e3;
        audit::check(
            rebuilt.as_ref(),
            &ledger,
            "platform rebuilt cold",
            &mut report.problems,
        );
    }
    remove_dir(data_dir);

    let (spans, threads) = trace::drain();
    let trace_path = crate::out_dir().join(format!("trace-{}.json", w.name));
    match trace::write_json(&trace_path, &spans, &threads) {
        Ok(()) => report.notes.push(format!(
            "{} spans written to {}",
            spans.len(),
            trace_path.display()
        )),
        Err(e) => report
            .problems
            .push(format!("writing {}: {e}", trace_path.display())),
    }

    // -- the client's own view, loaded pass -----------------------------
    report.attempted = (attrib.len() + loaded.samples.len()) as u64;
    report.failed = failed_count(&attrib) + failed_count(&loaded.samples);
    let (traced, untraced): (Vec<&Sample>, Vec<&Sample>) =
        loaded.samples.iter().partition(|s| s.traced);
    // Per-request ratios count the requests whose spans were recorded.
    let requests = traced.len() as f64;
    let sent = loaded.samples.len() as f64;
    let mut m: Vec<(&'static str, f64)> = Vec::new();
    // The open-loop view at the base rate, every request timed from its
    // due instant: all requests, then each operation.
    for (op, p50_name, p99_name) in [
        (None, "client.req.p50_ms", "client.req.p99_ms"),
        (
            Some(Op::Checkout),
            "client.checkout.p50_ms",
            "client.checkout.p99_ms",
        ),
        (
            Some(Op::CartAdd),
            "client.cart_add.p50_ms",
            "client.cart_add.p99_ms",
        ),
        (
            Some(Op::PriceUpdate),
            "client.price_update.p50_ms",
            "client.price_update.p99_ms",
        ),
        (
            Some(Op::Dashboard),
            "client.dashboard.p50_ms",
            "client.dashboard.p99_ms",
        ),
        (
            Some(Op::Delivery),
            "client.delivery.p50_ms",
            "client.delivery.p99_ms",
        ),
    ] {
        for (name, p) in [(p50_name, 50.0), (p99_name, 99.0)] {
            let mut of_op = latencies(&loaded.samples, |s| op.is_none_or(|op| s.op == op));
            // An op the mix sends too rarely for the percentile reads 0.
            let value = match stats::percentile(&mut of_op, p, mb) {
                Ok(pct) => {
                    report.notes.push(format!(
                        "{name}: p{p} of {} samples, {} beyond",
                        pct.samples, pct.beyond
                    ));
                    ms(pct.value as f64)
                }
                Err(why) => {
                    report.notes.push(format!("{name} not measured: {why}"));
                    0.0
                }
            };
            m.push((name, value));
        }
    }
    let share_of_status = |status: u16| {
        ratio(
            loaded.samples.iter().filter(|s| s.status == status).count() as f64,
            sent,
        )
    };
    let mean_of =
        |f: fn(&Sample) -> usize| ratio(loaded.samples.iter().map(|s| f(s) as f64).sum(), sent);
    let late_share = ratio(late_count(&loaded.samples, w.p99_limit_ms) as f64, sent);
    m.push(("client.late_share", late_share));
    // Said, not failed: with one request in flight per client a request
    // leaves late when the system, or the host under it, stalls, and on the
    // shared reference host that happens to one traced run in four. The
    // outputs are still correct and every run has to exit 0.
    if late_share > MAX_BAD_SHARE {
        report.notes.push(format!(
            "INVALID loaded pass: client.late_share {late_share:.4} exceeds {MAX_BAD_SHARE}; its numbers describe a stall, run the trace again"
        ));
    }
    m.push(("client.conflict_share", share_of_status(409)));

    // -- attribution, attrib pass ------------------------------------------
    let in_attrib: Vec<Span> = spans
        .iter()
        .filter(|s| (attrib_start..loaded.start_ns).contains(&s.start_ns))
        .copied()
        .collect();
    let a = attribute(&in_attrib);
    report.notes.push(format!(
        "attrib pass: {} requests, one in flight, mean client span {:.1} us",
        a.requests,
        us(a.client_ns)
    ));
    for (layer, self_ns) in LAYERS.iter().zip(a.self_ns) {
        report.notes.push(format!(
            "  {layer:<16} self {:>9.1} us  share {:.4}",
            us(self_ns),
            ratio(self_ns, a.client_ns)
        ));
    }
    m.push(("om_http.overhead_us", us(a.self_ns[0])));
    m.push(("om_http.overhead_share", ratio(a.self_ns[0], a.client_ns)));
    m.push(("om_http.parse_ns", probes.parse_ns));
    m.push(("om_http.encode_ns", probes.encode_ns));
    m.push(("om_http.handle_floor_us", probes.handle_floor_us));
    m.push(("om_http.roundtrip_floor_us", probes.roundtrip_floor_us));
    m.push(("om_http.shed_503", share_of_status(503) * sent));
    m.push(("om_http.request_bytes", mean_of(|s| s.request_bytes)));
    m.push(("om_http.response_bytes", mean_of(|s| s.response_bytes)));
    m.push(("serde_json.decode_ns", probes.serde_decode_ns));
    m.push(("serde_json.encode_ns", probes.serde_encode_ns));

    // -- counts, durations and busy shares, loaded pass ----------------------
    let in_loaded: Vec<Span> = spans
        .iter()
        .filter(|s| (loaded.start_ns..loaded_end).contains(&s.start_ns))
        .copied()
        .collect();
    // Time spans were recorded for: the even slices of the phase.
    let window_ns: u64 = (0..loaded.elapsed_ns)
        .step_by(2 * SLICE_NS as usize)
        .map(|slice| SLICE_NS.min(loaded.elapsed_ns - slice))
        .sum();
    let of = |prefix: &str| Totals::of(&in_loaded, prefix);
    for (name, span) in [
        ("om_marketplace.checkout_us", "om_marketplace.checkout"),
        ("om_marketplace.cart_add_us", "om_marketplace.cart_add"),
        (
            "om_marketplace.price_update_us",
            "om_marketplace.price_update",
        ),
        ("om_marketplace.dashboard_us", "om_marketplace.dashboard"),
        ("om_marketplace.delivery_us", "om_marketplace.delivery"),
    ] {
        m.push((name, us(of(span).mean_ns())));
    }
    let platform_calls = of("om_marketplace.");
    let checkouts = of("om_marketplace.checkout");
    m.push(("om_marketplace.self_us", us(a.self_ns[1])));
    m.push((
        "om_marketplace.self_share",
        ratio(a.self_ns[1], a.client_ns),
    ));
    m.push((
        "om_marketplace.error_share",
        ratio(platform_calls.errors as f64, platform_calls.count as f64),
    ));
    m.push((
        "om_marketplace.rejected_share",
        ratio(checkouts.units as f64, checkouts.count as f64),
    ));
    m.push(("om_marketplace.quiesce_ms", quiesce_ms));

    let mut commits = of("om_storage.commit");
    let gets = of("om_storage.get");
    let scans = of("om_storage.scan");
    m.push(("om_storage.commit_us", us(commits.mean_ns())));
    m.push(("om_storage.commit_p99_us", us(commits.p99_ns(mb))));
    m.push((
        "om_storage.commits_per_req",
        ratio(commits.count as f64, requests),
    ));
    m.push((
        "om_storage.keys_per_commit",
        ratio(commits.units as f64, commits.count as f64),
    ));
    m.push((
        "om_storage.bytes_per_commit",
        ratio(commits.bytes as f64, commits.count as f64),
    ));
    m.push((
        "om_storage.get_ns",
        ratio(gets.ns as f64, gets.units as f64),
    ));
    m.push((
        "om_storage.gets_per_req",
        ratio(gets.units as f64, requests),
    ));
    m.push(("om_storage.scan_us", us(scans.mean_ns())));
    m.push((
        "om_storage.scans_per_req",
        ratio(scans.count as f64, requests),
    ));
    m.push((
        "om_storage.commit_err_share",
        ratio(commits.errors as f64, commits.count as f64),
    ));
    m.push((
        "om_storage.busy_share",
        of("om_storage.").busy_share(window_ns),
    ));
    m.push(("om_storage.cold_recovery_ms", cold_recovery_ms));
    m.push((
        "om_storage.disk_bytes_per_req",
        ratio(
            disk_bytes as f64,
            report.attempted as f64 + prepared.len() as f64,
        ),
    ));

    let writes = of("vfs.write.");
    let mut fsyncs = of("vfs.fsync.");
    let state_bytes = of("vfs.write.wal").bytes + of("vfs.write.maintenance").bytes;
    m.push(("vfs.write_us", us(writes.mean_ns())));
    m.push(("vfs.writes_per_req", ratio(writes.count as f64, requests)));
    m.push((
        "vfs.write_bytes_per_req",
        ratio(writes.bytes as f64, requests),
    ));
    m.push(("vfs.fsync_us", us(fsyncs.mean_ns())));
    m.push(("vfs.fsync_p99_us", us(fsyncs.p99_ns(mb))));
    m.push(("vfs.fsyncs_per_req", ratio(fsyncs.count as f64, requests)));
    m.push((
        "vfs.commits_per_fsync",
        ratio(commits.count as f64, of("vfs.fsync.wal").count as f64),
    ));
    m.push((
        "vfs.write_amp",
        ratio(state_bytes as f64, commits.bytes as f64),
    ));
    m.push((
        "vfs.maintenance_bytes_per_req",
        ratio(of("vfs.write.maintenance").bytes as f64, requests),
    ));
    m.push(("vfs.busy_share", of("vfs.").busy_share(window_ns)));

    let appends = of("om_log.append");
    m.push(("om_log.append_us", us(appends.mean_ns())));
    m.push((
        "om_log.appends_per_req",
        ratio(appends.count as f64, requests),
    ));

    m.push(("process.rss_peak_mb", rss_peak_mb()));

    // -- one core against two: plain cells, closed-loop peak ---------------
    let mut peak_by_cores = [Vec::new(), Vec::new()];
    let seeds = stream::cell_seeds(args.seed, CORES_CELLS);
    for (i, seed) in seeds.into_iter().enumerate() {
        // Alternating, so that a slow stretch of the host hits both.
        let (slot, placement) = [(0, Placement::Split), (1, Placement::Shared)][i % 2];
        // An untraced cell's set-up and peak, without a ladder step.
        let streams = stream::generate(seed, CLIENTS, &w.cell_phases(args.seconds, None));
        let mut cell = Cell::start(w, streams, false, placement);
        let prepared = cell.prepare();
        let peak = cell.timed(phase::PEAK);
        report.attempted += peak.samples.len() as u64;
        report.failed += failed_count(&prepared) + failed_count(&peak.samples);
        peak_by_cores[slot].push(peak_rate(&peak).0);
        remove_dir(cell.stop());
    }
    report.notes.push(format!(
        "closed-loop peak, plain cells: system on one core {:.0?} req/s, system and clients on all cores {:.0?} req/s",
        peak_by_cores[0], peak_by_cores[1]
    ));
    let [one_core, two_cores] = peak_by_cores.map(|v| stats::best(&v, stats::Better::Higher));
    m.push(("process.peak_rps_1core", one_core));
    m.push(("process.peak_rps_2core", two_cores));

    // -- what tracing cost, and what no layer explains ---------------------
    let p50 = |samples: &[&Sample]| {
        let mut ns: Vec<u64> = samples.iter().map(|s| s.latency_ns()).collect();
        stats::percentile(&mut ns, 50.0, mb).map_or(f64::NAN, |p| p.value as f64)
    };
    let (traced_p50, untraced_p50) = (p50(&traced), p50(&untraced));
    report.notes.push(format!(
        "loaded pass: {} requests traced (req p50 {:.4} ms), {} untraced (req p50 {:.4} ms)",
        traced.len(),
        ms(traced_p50),
        untraced.len(),
        ms(untraced_p50)
    ));
    m.push((
        "trace.overhead_share",
        ratio(traced_p50 - untraced_p50, untraced_p50),
    ));
    // om_http has no seam, so its self time is a remainder; the part of
    // it that the engine's floor for an empty request plus this mix's
    // parse, decode and encode work does not explain is unattributed.
    let http_explained_ns = (probes.roundtrip_floor_us - probes.handle_floor_us).max(0.0) * 1e3
        + probes.parse_ns
        + probes.encode_ns;
    m.push((
        "trace.unattributed_share",
        ratio((a.self_ns[0] - http_explained_ns).max(0.0), a.client_ns),
    ));
    if ratio((a.self_ns[0] - http_explained_ns).max(0.0), a.client_ns) > 0.10 {
        report.notes.push(
            "NOTE: layer self times and the om_http probes cover < 90 % of the client span".into(),
        );
    }

    report.metrics = m;
    report
}
