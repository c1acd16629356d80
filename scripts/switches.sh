#!/usr/bin/env bash
# Context switches per attempted request, by thread, over one marketbench run.
#
#   scripts/switches.sh <workload> [seed]
#
# Builds marketbench with the command BENCHMARK.json declares, runs
# `run --workload <workload> --seed <seed>` (seed 1 by default) and, while
# it runs, samples /proc/<pid>/task/*/status every 100 ms. A thread that
# exits keeps its last sample. Prints, per thread name with every number
# folded into `*` (so `om-actor-1` counts under `om-actor-*`), the number of
# threads and their voluntary and non-voluntary context switches divided
# by the run's `attempted` requests. Linux only; it reports, it gates
# nothing.
set -euo pipefail
[[ $# -ge 1 ]] || { sed -n 3,4p "$0" >&2; exit 2; }
workload=$1 seed=${2:-1}
cd "$(dirname "$0")/.."

mapfile -t cmd < <(python3 -c 'import json,sys; print("\n".join(json.load(open(sys.argv[1]))["command"]))' BENCHMARK.json)
# The same command with `build` for `run`, without the trailing `--`, and
# asking cargo where it put the binary: the sampled pid must be
# marketbench's own, not cargo's.
build=("${cmd[0]}" build "${cmd[@]:2:${#cmd[@]}-3}" --message-format=json)
exe=$("${build[@]}" | python3 -c '
import json, sys
for line in sys.stdin:
    msg = json.loads(line)
    if msg.get("reason") == "compiler-artifact" and msg.get("executable"):
        exe = msg["executable"]
print(exe)')

python3 - "$exe" "$workload" "$seed" <<'EOF'
import json, os, re, subprocess, sys, tempfile, time
from collections import defaultdict

exe, workload, seed = sys.argv[1:]
out = tempfile.TemporaryFile(mode="w+")
proc = subprocess.Popen([exe, "run", "--workload", workload, "--seed", seed], stdout=out)
last = {}  # tid -> (name, voluntary, nonvoluntary)

def sample():
    task = f"/proc/{proc.pid}/task"
    try:
        tids = os.listdir(task)
    except FileNotFoundError:
        return
    for tid in tids:
        try:
            with open(f"{task}/{tid}/status") as f:
                fields = dict(l.split(":", 1) for l in f if ":" in l)
        except (FileNotFoundError, ProcessLookupError):
            continue
        last[tid] = (
            fields["Name"].strip(),
            int(fields["voluntary_ctxt_switches"]),
            int(fields["nonvoluntary_ctxt_switches"]),
        )

while proc.poll() is None:
    sample()
    time.sleep(0.1)
out.seek(0)
lines = out.read().splitlines()
result = json.loads(lines[-1])
attempted = result["attempted"]
print(f"{workload} seed={seed}: correct={result['correct']} attempted={attempted} failed={result['failed']}")
if not attempted:
    sys.exit("no request was attempted")

groups = defaultdict(lambda: [0, 0, 0])
for name, vol, nonvol in last.values():
    g = groups[re.sub(r"\d+", "*", name)]
    g[0] += 1
    g[1] += vol
    g[2] += nonvol
print(f"{'thread':<18} {'threads':>7} {'vol/req':>9} {'nonvol/req':>10}")
total = [0, 0, 0]
for name, (n, vol, nonvol) in sorted(groups.items(), key=lambda kv: -(kv[1][1] + kv[1][2])):
    print(f"{name:<18} {n:>7} {vol / attempted:>9.3f} {nonvol / attempted:>10.3f}")
    total = [total[0] + n, total[1] + vol, total[2] + nonvol]
print(f"{'all':<18} {total[0]:>7} {total[1] / attempted:>9.3f} {total[2] / attempted:>10.3f}")
EOF
