#!/usr/bin/env bash
# Run every bench binary's --quick scenarios and collect what they write.
#
# Usage: tools/quick_csvs.sh BUILD_DIR OUT_DIR
#
# BUILD_DIR is a configured and built CMake tree (its bench/ holds the
# binaries). Each run executes inside OUT_DIR with MDSIM_RESULTS_DIR=., so
# its CSVs land there and the paths it prints are the same whatever
# OUT_DIR is; its console output goes to OUT_DIR/<run>.out and its exit
# code to OUT_DIR/status.txt. Runs: fig2-7, every abl_*, availability
# (crash and --scenario=partition), overload --scenario=all, gray_failure
# --scenario=all and latency_breakdown.
#
# Byte-identity probe for a refactor: build the parent commit and the
# change the same way, run this script once per build into two empty
# directories, then `diff -r` them. Every simulated output is a pure
# function of its seed, so any difference is a behaviour change.
#
# Exits 1 if any run exited non-zero (some benches gate a verdict), after
# running all of them; 2 on bad arguments.
set -u

if [ $# -ne 2 ]; then
  echo "usage: $0 BUILD_DIR OUT_DIR" >&2
  exit 2
fi
bench_dir="$(cd "$1" && pwd)/bench"
if [ ! -x "$bench_dir/fig2_scaling" ]; then
  echo "$0: no bench binaries in $bench_dir" >&2
  exit 2
fi
mkdir -p "$2"
out="$(cd "$2" && pwd)"
: > "$out/status.txt"

failed=0
# run NAME BINARY ARGS...: one bench invocation, logged under NAME.
run() {
  local name=$1 bin=$2
  shift 2
  (cd "$out" && MDSIM_RESULTS_DIR=. "$bench_dir/$bin" "$@" \
       > "$out/$name.out" 2>&1)
  local rc=$?
  echo "$name $rc" >> "$out/status.txt"
  echo "$name: exit $rc"
  [ "$rc" -eq 0 ] || failed=1
}

for fig in fig2_scaling fig3_prefix_cache fig4_cache_hit fig5_adaptation \
           fig6_forwarding fig7_flash_crowd; do
  run "$fig" "$fig" --quick
done
for abl in "$bench_dir"/abl_*; do
  name=$(basename "$abl")
  run "$name" "$name" --quick
done
run availability availability --quick
run availability_partition availability --quick --scenario=partition
run overload overload --quick --scenario=all
run gray_failure gray_failure --quick --scenario=all
run latency_breakdown latency_breakdown --quick

exit "$failed"
