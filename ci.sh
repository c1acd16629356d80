#!/usr/bin/env bash
# CI entry point for the online-marketplace workspace.
#
# Mirrors the tier-1 verify (`cargo build --release && cargo test -q`)
# and adds the guards that keep non-test targets from rotting:
#   * clippy runs deny-warnings over every target so refactors cannot
#     silently accrue dead code (falls back to a -D warnings build if the
#     toolchain ships without clippy),
#   * benches must keep compiling (`cargo bench --no-run`; full numbers
#     come from dedicated perf runs),
#   * a short b2_durability slice RUNS as a perf smoke
#     (`OM_BENCH_SMOKE=1`): the contended durable-commit cell is
#     compared against the checked-in floor in results/b2_floor.json and
#     CI fails on a >3x regression (bench_guard) — coarse on purpose,
#     the shim stats are medians over a handful of samples. The floor's
#     `checks` array additionally gates the adaptive group-commit policy
#     against Fixed(0) at 1 and 16 writers, parallel vs serial cold
#     recovery (the >=2x speedup check is core-aware and skips on small
#     hosts), and indexed vs full-scan cold point-gets. The smoke run
#     also prints informational drift lines against the PR 7 reference
#     medians in BENCH_PR7.json (OM_BENCH_BASELINE),
#   * a short b3_gateway slice RUNS the same way: the event-driven HTTP
#     engine's 64-connection cell is held to 3x of results/b3_floor.json
#     and its single-connection cost to 1.5x of the threaded baseline,
#   * a short a2_checkpoint slice RUNS the same way: the serial dataflow
#     epoch cell (a2_workers/w1) is held to 3x of results/a2_floor.json,
#     and on hosts with >= 4 cores the 4-worker pool must be
#     parallel-not-slower and >= 1.5x faster than serial (core-aware
#     checks; single-core CI prints SKIP),
#   * a short b5_scenarios slice RUNS the same way: the closed-loop
#     flash-sale cell is held to 3x of results/b5_floor.json, and the
#     open-loop SLO sweep (results/b5_slo.json) must keep
#     achieved/offered >= 0.75 below saturation, p99 <= 100ms there,
#     and show >= 2x p99 divergence at 2x capacity — the
#     queueing-collapse signal the open-loop harness exists to measure,
#   * the benchmark of record is built and RUN the way BENCHMARK.json
#     declares it (its own package under crates/bench/src/bin/marketbench,
#     which no other stanza builds): `run --smoke` on the durable
#     dataflow workload, on one memory workload and on the dashboard
#     workload (bounded snapshot scan, streaming JSON encode, the "no
#     torn dashboard" audit) must end in a result line with
#     "correct":true and "failed":0 — a code-path check, not a
#     measurement,
#   * all examples must keep compiling, and failure_recovery *runs* as a
#     smoke step (it asserts zero lost epochs across a disk-backed
#     platform rebuild),
#   * the shim crates' own unit tests run via --workspace,
#   * rustdoc must build warning-free (om_storage, om_dataflow, om_log
#     and om_kv additionally deny missing docs at the crate level),
#   * the crash-consistency torture slice (docs/FAULTS.md) runs inside
#     `cargo test --workspace` — the storage/log/driver `torture`
#     targets sweep power loss over recorded write boundaries with a
#     seeded FaultVfs; failures print their seed/boundary coordinates
#     and replay with OM_TORTURE_SEED=<n>. Setting OM_TORTURE_FULL=1 on
#     this script (nightly-depth runs) re-runs the harness sweeping
#     EVERY boundary with wider workloads and more seeds.
#
# The environment is fully offline; --offline makes that explicit so a
# mis-edited manifest fails fast instead of hanging on the network.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release --offline

echo "==> cargo test -q --workspace (functional crates + shim self-tests + torture slice)"
cargo test -q --offline --workspace

if [[ "${OM_TORTURE_FULL:-}" ]]; then
    echo "==> torture: FULL boundary sweep (OM_TORTURE_FULL=1; failures replay with OM_TORTURE_SEED=<n>)"
    OM_TORTURE_FULL=1 cargo test -q --offline -p om_storage -p om_log -p om_driver --test torture
fi

if cargo clippy --version >/dev/null 2>&1; then
    echo "==> cargo clippy --workspace --all-targets -- -D warnings"
    cargo clippy --offline --workspace --all-targets -- -D warnings
else
    echo "==> clippy unavailable; building with RUSTFLAGS=-Dwarnings instead"
    RUSTFLAGS="-D warnings" cargo build --offline --workspace --all-targets
fi

echo "==> RUSTDOCFLAGS=-Dwarnings cargo doc --workspace --no-deps"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps

echo "==> cargo bench --no-run"
cargo bench --no-run --offline

echo "==> bench smoke: b2 durability slice + regression guard (3x floor + policy/recovery/index checks)"
# (the criterion shim resolves results/ against the workspace root)
OM_BENCH_SMOKE=1 OM_BENCH_BASELINE=BENCH_PR7.json cargo bench --offline --bench b2_durability
cargo run --release --offline -p om_bench --bin bench_guard

echo "==> bench smoke: b3 gateway slice + regression guard (3x floor, event_c1 <= 1.5x threaded_c1)"
OM_BENCH_SMOKE=1 cargo bench --offline --bench b3_gateway
cargo run --release --offline -p om_bench --bin bench_guard -- results/bench_b3_gateway.json results/b3_floor.json

echo "==> bench smoke: a2 dataflow worker slice + regression guard (3x serial floor, core-aware parallel checks)"
OM_BENCH_SMOKE=1 cargo bench --offline --bench a2_checkpoint
cargo run --release --offline -p om_bench --bin bench_guard -- results/bench_a2_workers.json results/a2_floor.json

echo "==> bench smoke: b5 scenario slice + SLO guard (3x flash-sale floor, open-loop achieved/offered + collapse checks)"
OM_BENCH_SMOKE=1 OM_BENCH_BASELINE=BENCH_PR9.json cargo bench --offline --bench b5_scenarios
cargo run --release --offline -p om_bench --bin bench_guard -- results/bench_b5_scenarios.json results/b5_floor.json

echo "==> benchmark of record: marketbench --smoke via the BENCHMARK.json command (outputs correct, nothing failed)"
mapfile -t MARKETBENCH < <(python3 -c 'import json; print("\n".join(json.load(open("BENCHMARK.json"))["command"]))')
for workload in checkout_df_disk checkout_tx_mem dashboard_cu_mem; do
    verdict=$("${MARKETBENCH[@]}" run --smoke --workload "$workload" | tail -n 1)
    if [[ ! $verdict =~ \"correct\":true || ! $verdict =~ \"failed\":0[,}] ]]; then
        echo "marketbench run --smoke --workload $workload ended with: $verdict" >&2
        exit 1
    fi
done

echo "==> cargo build --examples"
cargo build --examples --offline

echo "==> smoke: failure_recovery example (disk-backed recovery, asserts 0 lost epochs)"
cargo run --release --offline --example failure_recovery >/dev/null

echo "CI OK"
