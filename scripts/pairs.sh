#!/usr/bin/env bash
# Paired marketbench runs of a parent revision against this checkout.
#
#   scripts/pairs.sh <parent-rev> <workload> <seed>...
#
# Exports <parent-rev> with `git archive` into a directory under $TMPDIR
# (kept, so a second call reuses its build), builds marketbench in both trees with the command BENCHMARK.json
# declares, then runs one pair per seed, alternating which side runs
# first. Prints every run's result, then per end-to-end metric both
# medians, how many pairs the change did better on, and the parent's
# interquartile range. It reports only; it gates nothing.
set -euo pipefail
[[ $# -ge 3 ]] || { sed -n 3,4p "$0" >&2; exit 2; }
rev=$1 workload=$2
shift 2
change=$(cd "$(dirname "$0")/.." && pwd)
# The parent tree is kept per commit, so a later call reuses its build.
parent=${TMPDIR:-/tmp}/marketbench-pairs-$(git -C "$change" rev-parse "$rev^{commit}")
if [[ ! -d $parent ]]; then
    mkdir -p "$parent.tmp"
    git -C "$change" archive "$rev" | tar x -C "$parent.tmp"
    mv "$parent.tmp" "$parent"
fi
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

mapfile -t cmd < <(python3 -c 'import json,sys; print("\n".join(json.load(open(sys.argv[1]))["command"]))' "$change/BENCHMARK.json")
# The same command with `build` for `run` and without the trailing `--`.
build=("${cmd[0]}" build "${cmd[@]:2:${#cmd[@]}-3}")
for side in "$parent" "$change"; do
    echo "==> ${build[*]} in $side" >&2
    (cd "$side" && "${build[@]}")
done

run() { # <side dir> <label> <seed>
    (cd "$1" && "${cmd[@]}" run --workload "$workload" --seed "$3" | tail -n 1) >"$work/$2-$3.json"
    echo "$2 seed=$3 $(cat "$work/$2-$3.json")"
}
i=0
for seed in "$@"; do
    if (( i++ % 2 == 0 )); then
        run "$parent" parent "$seed"; run "$change" change "$seed"
    else
        run "$change" change "$seed"; run "$parent" parent "$seed"
    fi
done

python3 - "$change/BENCHMARK.json" "$work" "$@" <<'EOF'
import json, statistics, sys
spec, work, seeds = json.load(open(sys.argv[1])), sys.argv[2], sys.argv[3:]
load = lambda side, s: json.load(open(f"{work}/{side}-{s}.json"))
runs = {side: [load(side, s) for s in seeds] for side in ("parent", "change")}
for side, rs in runs.items():
    ok = sum(r["correct"] and r["failed"] == 0 for r in rs)
    print(f"{side}: {ok}/{len(rs)} runs correct with 0 failed")
print(f"{'metric':<22} {'parent':>12} {'change':>12} {'delta':>8} {'better':>7} {'parent IQR':>11}")
for m in spec["end_to_end"]:
    name, lower = m["name"], m["better"] == "lower"
    p = [r["metrics"][name]["value"] for r in runs["parent"]]
    c = [r["metrics"][name]["value"] for r in runs["change"]]
    better = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
    mp, mc = statistics.median(p), statistics.median(c)
    q = statistics.quantiles(p, n=4) if len(p) > 1 else [p[0]] * 3
    delta = (mc - mp) / mp * 100 if mp else 0.0
    print(f"{name:<22} {mp:>12.4g} {mc:>12.4g} {delta:>+7.1f}% {better:>3}/{len(p):<3} {q[2] - q[0]:>11.4g}")
EOF
