#!/usr/bin/env bash
# Repeated runs of a package's test binaries, to shake out races.
#
#   scripts/stress.sh <package> <runs> <loops> <test>...
#
# Builds the release binaries of <package>'s integration test targets
# named <test> (`tests/<test>.rs`), then starts <loops> loops side by
# side; each loop runs every named binary <runs> times. A race shows up
# far more often with a few loops running at once than with one. Prints
# every failing run with its binary, loop and run index and the tail of
# its output, then a summary; exits non-zero if any run failed.
set -euo pipefail
[[ $# -ge 4 ]] || { sed -n 4p "$0" >&2; exit 2; }
pkg=$1 runs=$2 loops=$3
shift 3
cd "$(dirname "$0")/.."
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

targets=()
for t in "$@"; do targets+=(--test "$t"); done
echo "==> cargo test --release -p $pkg ${targets[*]} --no-run" >&2
mapfile -t bins < <(
    cargo test --release --offline -q -p "$pkg" "${targets[@]}" --no-run --message-format=json |
        python3 -c '
import json, sys
for line in sys.stdin:
    m = json.loads(line)
    if m.get("reason") == "compiler-artifact" and m.get("executable") and m["profile"]["test"]:
        print(m["executable"])'
)
[[ ${#bins[@]} -eq $# ]] || { echo "expected $# test binaries, built ${#bins[@]}" >&2; exit 2; }

loop() { # <loop index>
    for ((r = 1; r <= runs; r++)); do
        for bin in "${bins[@]}"; do
            log=$work/$1-$r-$(basename "$bin").log
            if "$bin" -q >"$log" 2>&1; then
                rm "$log"
            else
                { echo "FAIL $bin loop $1 run $r"; tail -n 30 "$log"; } >&2
            fi
        done
    done
}
echo "==> $loops loop(s) x $runs run(s) of: $*" >&2
for ((l = 1; l <= loops; l++)); do loop "$l" & done
wait

failed=$(find "$work" -name '*.log' | wc -l)
echo "$((runs * loops * ${#bins[@]})) runs, $failed failed"
[[ $failed -eq 0 ]]
