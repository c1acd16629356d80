//! The declared metrics: every name the benchmark may print, with its
//! unit and direction. `BENCHMARK.json` declares the same sets; a unit
//! test holds the two together.

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// Measured with tracing off, on every workload.
pub const END_TO_END: [EndToEnd; 7] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("peak_rps", "req/s", "higher", 0.25),
    e2e("peak_req_p50_ms", "ms", "lower", 0.25),
    e2e("peak_req_p99_ms", "ms", "lower", 0.25),
    e2e("peak_checkout_p50_ms", "ms", "lower", 0.25),
    e2e("max_rate_rps", "req/s", "higher", 0.25),
    e2e("ok_share", "ratio", "higher", 0.005),
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// The end-to-end metric × workload this metric should move.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

const DF: &str = "peak_checkout_p50_ms, peak_rps, max_rate_rps on checkout_df_disk";
const DF_TAIL: &str = "peak_req_p99_ms, then max_rate_rps, on checkout_df_disk";
const TX: &str = "peak_checkout_p50_ms, peak_rps on checkout_tx_mem";
const CU: &str = "peak_req_p50_ms, peak_rps on dashboard_cu_mem";
const EV: &str = "peak_req_p50_ms, peak_rps on cart_ev_http";
const ANY_P50: &str = "peak_req_p50_ms on the workload it is read on";
const ANY_P99: &str =
    "peak_req_p99_ms, then max_rate_rps, on the workload it is read on: the tail grows before the rate falls";
const TAIL: &str = "peak_req_p99_ms, then max_rate_rps, as it nears 1";
const VALIDITY: &str = "none: validity of the run";
const CORES: &str =
    "none: every end-to-end metric has the system on one core; a change that moves only the 2-core reading is outside them";

/// From the traced run (`--trace 1`). The layer is the part of the name
/// before the first dot.
pub const PER_LAYER: [PerLayer; 65] = [
    layer("client.req.p50_ms", "ms", "lower", ANY_P50),
    layer("client.req.p99_ms", "ms", "lower", ANY_P99),
    layer(
        "client.checkout.p50_ms",
        "ms",
        "lower",
        "peak_checkout_p50_ms on every workload",
    ),
    layer("client.checkout.p99_ms", "ms", "lower", ANY_P99),
    layer("client.cart_add.p50_ms", "ms", "lower", ANY_P50),
    layer("client.cart_add.p99_ms", "ms", "lower", ANY_P99),
    layer("client.price_update.p50_ms", "ms", "lower", ANY_P50),
    layer("client.price_update.p99_ms", "ms", "lower", ANY_P99),
    layer("client.dashboard.p50_ms", "ms", "lower", CU),
    layer(
        "client.dashboard.p99_ms",
        "ms",
        "lower",
        "peak_req_p99_ms, then max_rate_rps, on dashboard_cu_mem",
    ),
    layer(
        "client.delivery.p50_ms",
        "ms",
        "lower",
        "peak_req_p50_ms on checkout_df_disk",
    ),
    layer(
        "client.delivery.p99_ms",
        "ms",
        "lower",
        "peak_req_p99_ms, then max_rate_rps, on checkout_df_disk",
    ),
    layer("client.late_share", "ratio", "lower", VALIDITY),
    layer("client.conflict_share", "ratio", "lower", TX),
    layer("om_http.overhead_us", "us", "lower", EV),
    layer("om_http.overhead_share", "ratio", "lower", EV),
    layer("om_http.parse_ns", "ns", "lower", EV),
    layer("om_http.encode_ns", "ns", "lower", EV),
    layer("om_http.handle_floor_us", "us", "lower", EV),
    layer("om_http.roundtrip_floor_us", "us", "lower", EV),
    layer(
        "om_http.shed_503",
        "count",
        "lower",
        "ok_share on every workload",
    ),
    layer("om_http.request_bytes", "B", "lower", EV),
    layer("om_http.response_bytes", "B", "lower", CU),
    layer("serde_json.decode_ns", "ns", "lower", EV),
    layer("serde_json.encode_ns", "ns", "lower", CU),
    layer(
        "om_marketplace.checkout_us",
        "us",
        "lower",
        "peak_checkout_p50_ms on every workload",
    ),
    layer("om_marketplace.cart_add_us", "us", "lower", ANY_P50),
    layer("om_marketplace.price_update_us", "us", "lower", ANY_P50),
    layer("om_marketplace.dashboard_us", "us", "lower", CU),
    layer(
        "om_marketplace.delivery_us",
        "us",
        "lower",
        "peak_req_p50_ms on checkout_df_disk",
    ),
    layer("om_marketplace.self_us", "us", "lower", TX),
    layer("om_marketplace.self_share", "ratio", "lower", TX),
    layer(
        "om_marketplace.error_share",
        "ratio",
        "lower",
        "ok_share on every workload",
    ),
    layer("om_marketplace.rejected_share", "ratio", "lower", VALIDITY),
    layer(
        "om_marketplace.quiesce_ms",
        "ms",
        "lower",
        "none: work the responses did not wait for",
    ),
    layer("om_storage.commit_us", "us", "lower", DF),
    layer("om_storage.commit_p99_us", "us", "lower", DF_TAIL),
    layer("om_storage.commits_per_req", "1/req", "lower", DF),
    layer("om_storage.keys_per_commit", "count", "higher", DF),
    layer("om_storage.bytes_per_commit", "B", "lower", DF),
    layer("om_storage.get_ns", "ns", "lower", CU),
    layer("om_storage.gets_per_req", "1/req", "lower", CU),
    layer("om_storage.scan_us", "us", "lower", CU),
    layer("om_storage.scans_per_req", "1/req", "lower", CU),
    layer(
        "om_storage.commit_err_share",
        "ratio",
        "lower",
        "ok_share on every workload",
    ),
    layer("om_storage.busy_share", "ratio", "lower", TAIL),
    layer(
        "om_storage.cold_recovery_ms",
        "ms",
        "lower",
        "none: restart cost of checkout_df_disk",
    ),
    layer(
        "om_storage.disk_bytes_per_req",
        "B/req",
        "lower",
        "none: space cost of checkout_df_disk",
    ),
    layer("vfs.write_us", "us", "lower", DF),
    layer("vfs.writes_per_req", "1/req", "lower", DF),
    layer("vfs.write_bytes_per_req", "B/req", "lower", DF),
    layer("vfs.fsync_us", "us", "lower", DF),
    layer("vfs.fsync_p99_us", "us", "lower", DF_TAIL),
    layer("vfs.fsyncs_per_req", "1/req", "lower", DF),
    layer("vfs.commits_per_fsync", "count", "higher", DF),
    layer("vfs.write_amp", "ratio", "lower", DF),
    layer(
        "vfs.maintenance_bytes_per_req",
        "B/req",
        "lower",
        "peak_req_p99_ms (compaction stalls), then max_rate_rps, on checkout_df_disk",
    ),
    layer("vfs.busy_share", "ratio", "lower", TAIL),
    layer("om_log.append_us", "us", "lower", DF),
    layer("om_log.appends_per_req", "1/req", "lower", DF),
    layer(
        "process.rss_peak_mb",
        "MB",
        "lower",
        "none: memory cost of the traced run",
    ),
    layer("process.peak_rps_1core", "req/s", "higher", CORES),
    layer("process.peak_rps_2core", "req/s", "higher", CORES),
    layer("trace.overhead_share", "ratio", "lower", VALIDITY),
    layer("trace.unattributed_share", "ratio", "lower", VALIDITY),
];
