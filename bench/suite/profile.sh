#!/usr/bin/env bash
# Host-time split of one benchmark workload by simulator layer.
#
#   bench/suite/profile.sh <workload> [seed]
#
# Builds the suite with -pg into build/suite-pg (BS_SUITE_GPROF=ON), runs
# exactly one pass of the workload there (--seconds 0), and sums gprof's
# flat-profile self time by namespace: bs::<layer>:: for sim, net, dht,
# blob, bsfs, hdfs, mr, kv, obs, fs, fault and the suite itself (its
# calibration kernel and bookkeeping); other bs:: code is "common". A
# std:: or __gnu_cxx:: template counts for the first layer named in its
# arguments (std::priority_queue<bs::sim::...> is sim), else for "std".
#
# host_share.<layer> is the layer's share of the gprof-sampled time.
# host_share.unattributed = 1 - sampled / wall is what gprof cannot see:
# libc (malloc/free of coroutine frames, memcpy, its own mcount calls) and
# the kernel. Function-level splits are not reported: inlining moves time
# between functions of one layer (the flow solve is inlined into
# compact_dead_classes), but rarely across namespaces.
set -euo pipefail

workload=${1:?usage: profile.sh <workload> [seed]}
seed=${2:-1}
root=$(cd "$(dirname "$0")/../.." && pwd)
build="$root/build/suite-pg"

cmake -S "$root/bench/suite" -B "$build" -DBS_SUITE_GPROF=ON \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2
cmake --build "$build" --target bs_suite -j "$(nproc)" >&2

cd "$build"
rm -f gmon.out
start=$(date +%s.%N)
./bs_suite --workload "$workload" --seed "$seed" --seconds 0 > "$workload.suite.json"
end=$(date +%s.%N)
gprof -b -p ./bs_suite gmon.out > "$workload.gprof.txt"

python3 - "$workload" "$start" "$end" "$workload.gprof.txt" <<'EOF'
import json, re, sys

workload, start, end, flat = sys.argv[1], float(sys.argv[2]), float(sys.argv[3]), sys.argv[4]
layers = ["sim", "net", "dht", "blob", "bsfs", "hdfs", "mr", "kv", "obs",
          "fs", "fault", "suite"]
row = re.compile(r"^\s*[\d.]+\s+[\d.]+\s+([\d.]+)\s+(?:\d+\s+[\d.]+\s+[\d.]+\s+)?(\S.*)$")

def layer_of(name):
    if name.startswith(("std::", "__gnu_cxx::")):
        for m in re.finditer(r"bs::(\w+)::", name):
            if m.group(1) in layers:
                return m.group(1)
        return "std"
    m = re.match(r"bs::(\w+)::", name)
    if m and m.group(1) in layers:
        return m.group(1)
    return "common" if name.startswith("bs::") else "other"

self_s = {}
with open(flat) as f:
    for line in f:
        m = row.match(line)
        if m:
            layer = layer_of(m.group(2))
            self_s[layer] = self_s.get(layer, 0.0) + float(m.group(1))
wall = end - start
sampled = sum(self_s.values())
share = {f"host_share.{k}": v / sampled for k, v in sorted(self_s.items())}
share["host_share.unattributed"] = 1 - sampled / wall
for k, v in sorted(share.items(), key=lambda kv: -kv[1]):
    print(f"  {k:28s} {v:6.3f}", file=sys.stderr)
print(json.dumps({"workload": workload, "wall_s": wall, "sampled_s": sampled,
                  "metrics": share}))
EOF
