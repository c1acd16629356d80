#!/usr/bin/env bash
# CI entry point for the online-marketplace workspace.
#
# Mirrors the tier-1 verify (`cargo build --release && cargo test -q`)
# and adds the guards that keep non-test targets from rotting:
#   * clippy runs deny-warnings over every target so refactors cannot
#     silently accrue dead code (falls back to a -D warnings build if the
#     toolchain ships without clippy),
#   * tier-1 covers every functional crate: each `crates/*` workspace
#     member must also be listed in `default-members` (and `cargo
#     metadata` fails when either list names a path that is gone),
#   * the knob census (`scripts/knobs.sh`, the public fields of the
#     option structs) must not exceed the number written below, 43:
#     adding an option is then a visible edit of this file,
#   * the thread census: outside tests (the lines before a file's
#     `#[cfg(test)]`, as `scripts/loc.sh` counts them), only
#     `om_common::pool` (`WorkerPool`, every background thread the
#     platforms start) and the HTTP event loops (`om_http::conn`) call
#     `thread::Builder::new`; any other long-lived thread is a pool job,
#   * the benchmark of record is built and RUN the way BENCHMARK.json
#     declares it (its own package under crates/bench/src/bin/marketbench,
#     which no other stanza builds): `run --smoke` on every workload —
#     the durable dataflow cell, the memory checkout cell, the dashboard
#     cell (bounded snapshot scan, streaming JSON encode, the "no torn
#     dashboard" audit) and the HTTP-bound cart cell — must end in a
#     result line with "correct":true and "failed":0 — a code-path
#     check, not a measurement,
#   * all examples must keep compiling; failure_recovery *runs* as a
#     smoke step (it asserts zero lost epochs across a disk-backed
#     platform rebuild), and so do http_gateway (it asserts the
#     status of every endpoint through the HTTP engine) and quickstart
#     (it asserts a 2PL + 2PC checkout end to end: placed, delivered,
#     and a consistent decision log with no aborts), and so does
#     criteria_audit (the anomaly-hunting mix on all four bindings; it
#     asserts the customized cell satisfies every criterion),
#   * the shim crates' own unit tests run via --workspace,
#   * rustdoc must build warning-free (om_storage, om_dataflow, om_log,
#     om_actor and om_http additionally deny missing docs at the crate
#     level),
#   * the crash-consistency torture slice (docs/FAULTS.md) runs inside
#     `cargo test --workspace` — the storage/log/driver `torture`
#     targets sweep power loss over recorded write boundaries with a
#     seeded FaultVfs; failures print their seed/boundary coordinates
#     and replay with OM_TORTURE_SEED=<n>. Setting OM_TORTURE_FULL=1 on
#     this script (nightly-depth runs) re-runs the harness sweeping
#     EVERY boundary with wider workloads and more seeds,
#   * a stress slice: `scripts/stress.sh` runs the HTTP engine's
#     `event_engine` and `large_requests` suites, the contended
#     transactional checkout and delivery (`tx_fanout`), the admission
#     suites (`lock_props`, `tx_integration`), the actor runtime's
#     scheduling and silo-kill suites (`runtime`, `failure_modes`) and the
#     storage contract's
#     `backend_props` 3 times each in 2 loops side by side, where a lost
#     ready-list mark, a grain admitted twice or a commit published
#     before its last version (`si_backend_never_exposes_torn_commits`
#     holds only under the snapshot backend's commit lock) shows far more
#     often than in the one workspace run; the `backend_props` step takes
#     about 0.5 s once its binary is built,
#   * `om_http`'s tests run once more pinned to the first allowed CPU
#     (`taskset`), where the engine starts one event loop whatever
#     `workers` asks for: the shape every marketbench cell measures,
#     which the unpinned run on a multi-core host never takes. It skips
#     only the two tests whose premise is a second loop (a wedged handler
#     on one loop, placement across two); they run in the workspace run.
#     About 4 s once the workspace tests have built everything.
#
# The environment is fully offline; --offline makes that explicit so a
# mis-edited manifest fails fast instead of hanging on the network.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> workspace guard: every crates/* member is a default member (cargo metadata fails on a listed path that is gone)"
metadata=$(cargo metadata --offline --no-deps --format-version 1)
python3 -c '
import json, os, sys
meta = json.load(sys.stdin)
crates = os.path.join(meta["workspace_root"], "crates", "")
sys.exit("\n".join(
    p["name"] + " is a crates/* member missing from default-members"
    for p in meta["packages"]
    if p["manifest_path"].startswith(crates) and p["id"] not in meta["workspace_default_members"]
) or None)
' <<<"$metadata"

max_knobs=43
echo "==> knob census: at most $max_knobs public option fields (scripts/knobs.sh)"
knobs=$(scripts/knobs.sh | awk '$1 == "total" { print $2 }')
if (( knobs > max_knobs )); then
    scripts/knobs.sh >&2
    echo "the option structs carry $knobs public fields, more than $max_knobs" >&2
    exit 1
fi

echo "==> thread census: outside tests, only crates/common/src/pool.rs and crates/http/src/conn.rs start threads by name"
spawners=$(find crates/*/src -name target -prune -o -name '*.rs' -print | sort | xargs awk '
    FNR == 1 { done = 0 }
    /^#\[cfg\(test\)\]/ { done = 1 }
    !done && /thread::Builder::new/ { print FILENAME ":" FNR ": " $0 }
' | grep -v -e '^crates/common/src/pool\.rs:' -e '^crates/http/src/conn\.rs:' || true)
if [[ -n $spawners ]]; then
    echo "$spawners" >&2
    echo "a thread is started outside WorkerPool and the HTTP loops: make it a WorkerPool job" >&2
    exit 1
fi

echo "==> cargo build --release"
cargo build --release --offline

echo "==> cargo test -q --workspace (functional crates + shim self-tests + torture slice)"
cargo test -q --offline --workspace

echo "==> stress slice: om_http event_engine + large_requests, om_marketplace tx_fanout, om_actor lock_props + tx_integration + runtime + failure_modes, om_storage backend_props; 3 runs x 2 loops side by side"
scripts/stress.sh om_http 3 2 event_engine large_requests
scripts/stress.sh om_marketplace 3 2 tx_fanout
scripts/stress.sh om_actor 3 2 lock_props tx_integration runtime failure_modes
scripts/stress.sh om_storage 3 2 backend_props

cpu=$(python3 -c 'import os; print(min(os.sched_getaffinity(0)))')
echo "==> om_http on one core (taskset -c $cpu): one event loop, as in every marketbench cell"
taskset -c "$cpu" cargo test -q --offline -p om_http -- \
    --skip a_wedged_handler_does_not_delay_requests_on_the_other_loop \
    --skip connections_go_to_the_loop_with_the_fewest_live_connections

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

echo "==> benchmark of record: marketbench --smoke via the BENCHMARK.json command (outputs correct, nothing failed)"
mapfile -t MARKETBENCH < <(python3 -c 'import json; print("\n".join(json.load(open("BENCHMARK.json"))["command"]))')
for workload in checkout_df_disk checkout_tx_mem dashboard_cu_mem cart_ev_http; do
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

echo "==> smoke: http_gateway example (asserts every endpoint's status through the engine)"
cargo run --release --offline --example http_gateway >/dev/null

echo "==> smoke: quickstart example (asserts a 2PL + 2PC checkout, its delivery and the decision log)"
cargo run --release --offline --example quickstart >/dev/null

echo "==> smoke: criteria_audit example (the whole choreography on all four bindings; asserts the customized cell meets every criterion)"
cargo run --release --offline --example criteria_audit >/dev/null

echo "CI OK"
