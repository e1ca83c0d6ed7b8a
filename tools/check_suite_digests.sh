#!/usr/bin/env bash
# Runs one seed-1 full-scale pass of each bench/suite workload and fails
# unless its sim_digest equals the pin below, so a change under src/ that
# moves the simulated schedule fails here. Re-pin only in a change that
# means to move the schedule, and say so in CHANGES.md.
#
# Usage: tools/check_suite_digests.sh <path to bs_suite>
# Each pass's JSON is printed and kept as <workload>.json beside bs_suite.
set -euo pipefail

bs_suite=$1
out_dir=$(dirname "$bs_suite")
declare -A pinned=(
  [read_shared]=fe6efa4c5cd779b2-c4cc598418dff0ad
  [write_append]=f2b072fee24dcad6-7280255178da45a2
  [meta_storm]=68675f2f285ea200-60afd1bd25dd825e
  [mr_mix]=7601214df63a360c-9ef4842d3916bf9d
)
for w in read_shared write_append meta_storm mr_mix; do
  "$bs_suite" --workload "$w" --seed 1 --seconds 0 > "$out_dir/$w.json"
  cat "$out_dir/$w.json"
  digest=$(tail -n 1 "$out_dir/$w.json" |
    python3 -c 'import json, sys; print(json.load(sys.stdin)["sim_digest"])')
  if [ "$digest" != "${pinned[$w]}" ]; then
    echo "::error::$w sim_digest $digest, pinned ${pinned[$w]}"
    exit 1
  fi
done
