#!/usr/bin/env bash
# A CPU profile of one marketbench run, by thread group.
#
#   scripts/profile.sh <workload> [seed]
#
# Compiles scripts/profile_sampler.c with the system `cc` into an
# LD_PRELOAD library (every thread samples itself on a perf_event_open
# task-clock counter, one sample per 50 us of its CPU time, with a
# frame-pointer walk), builds marketbench with `-C force-frame-pointers=yes`
# into target/profile (the benchmark's own build is left alone), runs
# `run --workload <workload> --seed <seed>` (seed 1 by default) under the
# sampler from a temporary directory, and symbolizes the samples with
# `nm` and `readelf`.
#
# The profile covers the WHOLE run: setup, the closed-loop peak phase and
# the open-loop ladder together, so its shares are not those of any one
# phase. Per thread group (thread names with every number folded into
# `*`, as scripts/switches.sh groups them) it prints the group's share of
# all samples, then the functions with the largest self share (samples
# whose interrupted instruction is in the function) and inclusive share
# (samples with the function anywhere on the walked stack). Code built
# without frame pointers — the precompiled standard library, libc — cuts
# a walk short, so inclusive shares are lower bounds. Linux x86-64 only;
# it reports, it gates nothing.
set -euo pipefail
[[ $# -ge 1 ]] || { sed -n 3,4p "$0" >&2; exit 2; }
workload=$1 seed=${2:-1}
cd "$(dirname "$0")/.."
repo=$(pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

cc -O2 -shared -fPIC -o "$work/sampler.so" scripts/profile_sampler.c -ldl -lpthread

# The sampler needs perf_event_open on the process's own threads; try it
# on a trivial process before building anything.
probe=$(cd "$work" && LD_PRELOAD="$work/sampler.so" /bin/true 2>&1 >/dev/null || true)
rm -f "$work"/sampler.*.samples "$work"/sampler.*.maps
if [[ ! $probe =~ ^sampler:\ [1-9] ]]; then
    echo "profile.sh: perf_event_open failed for a task-clock counter (kernel.perf_event_paranoid=$(cat /proc/sys/kernel/perf_event_paranoid 2>/dev/null || echo '?'); the sampler said: ${probe:-nothing})" >&2
    exit 1
fi

mapfile -t cmd < <(python3 -c 'import json,sys; print("\n".join(json.load(open(sys.argv[1]))["command"]))' BENCHMARK.json)
# The same command with `build` for `run`, without the trailing `--`, and
# asking cargo where it put the binary.
build=("${cmd[0]}" build "${cmd[@]:2:${#cmd[@]}-3}" --message-format=json)
exe=$(RUSTFLAGS="-C force-frame-pointers=yes" CARGO_TARGET_DIR="$repo/target/profile" "${build[@]}" | python3 -c '
import json, sys
for line in sys.stdin:
    msg = json.loads(line)
    if msg.get("reason") == "compiler-artifact" and msg.get("executable"):
        exe = msg["executable"]
print(exe)')

echo "==> $workload seed=$seed under the sampler (whole run: setup, peak and ladder)" >&2
(cd "$work" && LD_PRELOAD="$work/sampler.so" "$exe" run --workload "$workload" --seed "$seed" | tail -n 1) >"$work/result.json"

python3 - "$work" "$exe" <<'EOF'
import bisect, collections, glob, json, re, struct, subprocess, sys

work, exe = sys.argv[1:]
result = json.load(open(f"{work}/result.json"))
print(f"correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")

class Elf:
    """The PT_LOAD segments and the function symbols of one file."""
    def __init__(self, path):
        self.loads = []
        for line in subprocess.run(["readelf", "-lW", path], capture_output=True, text=True).stdout.splitlines():
            f = line.split()
            if f and f[0] == "LOAD":
                self.loads.append((int(f[1], 16), int(f[2], 16), int(f[4], 16)))  # offset, vaddr, filesz
        # A stripped file (libc) has only its exported symbols; a pc past
        # the end of the nearest one is in an unnamed local function.
        syms = {}
        for dynamic in ([], ["-D"]):
            out = subprocess.run(["nm", "-n", "-S", "-C", "--defined-only", *dynamic, path], capture_output=True, text=True).stdout
            for line in out.splitlines():
                f = line.split(" ", 3)
                if len(f) == 4 and f[2] in "tTwWiI":
                    name = re.sub(r"::h[0-9a-f]{16}$", "", f[3])
                    syms.setdefault(int(f[0], 16), (int(f[1], 16), name))
            if syms:
                break
        self.addrs = sorted(syms)
        self.syms = [syms[a] for a in self.addrs]

    def symbol(self, offset):
        for off, vaddr, size in self.loads:
            if off <= offset < off + size:
                addr = offset - off + vaddr
                i = bisect.bisect_right(self.addrs, addr) - 1
                if i >= 0 and addr < self.addrs[i] + max(self.syms[i][0], 1):
                    return self.syms[i][1]
                return None
        return None

elves = {}

class Process:
    """One sampled process's file mappings, from its copy of /proc/self/maps."""
    def __init__(self, maps_path):
        self.maps = []  # (start, end, file offset, path)
        for line in open(maps_path):
            parts = line.split()
            if len(parts) >= 6 and parts[5].startswith("/"):
                lo, hi = (int(x, 16) for x in parts[0].split("-"))
                self.maps.append((lo, hi, int(parts[2], 16), parts[5]))
        self.maps.sort()
        self.starts = [m[0] for m in self.maps]
        self.cache = {}

    def runs(self, path):
        return any(m[3] == path for m in self.maps)

    def symbol(self, pc):
        if pc not in self.cache:
            i = bisect.bisect_right(self.starts, pc) - 1
            name = None
            if i >= 0 and pc < self.maps[i][1]:
                lo, _, offset, path = self.maps[i]
                if path not in elves:
                    elves[path] = Elf(path)
                name = elves[path].symbol(pc - lo + offset)
                name = name or f"?? {path.rsplit('/', 1)[-1]}"
            self.cache[pc] = name or "??"
        return self.cache[pc]

groups = collections.defaultdict(lambda: [0, collections.Counter(), collections.Counter()])
total = 0
# marketbench's own process (the children it starts, such as `rustc
# --version`, are sampled too and left out).
for samples_path in sorted(glob.glob(f"{work}/sampler.*.samples")):
    proc = Process(samples_path.replace(".samples", ".maps"))
    if not proc.runs(exe):
        continue
    data = open(samples_path, "rb").read()
    words = struct.unpack(f"<{len(data) // 8}Q", data)
    at = 0
    while at < len(words):
        n = words[at]
        name = struct.pack("<2Q", *words[at + 1:at + 3]).split(b"\0")[0].decode(errors="replace")
        pcs = words[at + 3:at + 3 + n]
        at += 3 + n
        if not n:
            continue
        g = groups[re.sub(r"\d+", "*", name)]
        frames = [proc.symbol(pcs[0])] + [proc.symbol(pc - 1) for pc in pcs[1:]]
        g[0] += 1
        g[1][frames[0]] += 1
        g[2].update(set(frames))
        total += 1

print(f"{total} samples (one per 50 us of a thread's CPU time)")
for name, (count, self_, incl) in sorted(groups.items(), key=lambda kv: -kv[1][0]):
    if count < total / 100:
        continue
    print(f"\n== {name}: {count} samples, {100 * count / total:.1f} % of all")
    print(f"   {'self %':>7} {'incl %':>7}  function")
    shown = sorted(set(f for f, _ in self_.most_common(15)) | set(f for f, _ in incl.most_common(15)),
                   key=lambda f: (-incl[f], -self_[f]))
    for f in shown:
        print(f"   {100 * self_[f] / count:>7.1f} {100 * incl[f] / count:>7.1f}  {f[:150]}")
EOF
