#!/usr/bin/env sh
# Runs the built figure benchmarks and writes BENCH_figNN.json trajectory
# files (one JSON document per figure, see JsonReporter in bench_util.h),
# then the schema checks (bench/check_schema.sh) on every document written.
#
# Usage: bench/run_figs.sh [build-dir] [out-dir] [--smoke]
#   build-dir  where the bench_* binaries live (default: build)
#   out-dir    where the BENCH_*.json files go   (default: .)
#   --smoke    forward smoke mode (tiny request counts) to every benchmark
#
# The simulated figures are deterministic single-process runs, so they run
# side by side, one process per figure and as many at a time as the host has
# cores (nproc); each one's output is printed when it finishes. The benches
# that time the host (the shared-memory plane, shard scaling, the engine)
# then run alone, one after another. Any failing bench fails the script.
set -eu

build_dir=""
out_dir=""
smoke=""
for arg in "$@"; do
  case "$arg" in
    --smoke) smoke="--smoke" ;;
    -*) echo "unknown flag: $arg" >&2; exit 2 ;;
    *) if [ -z "$build_dir" ]; then build_dir="$arg"
       elif [ -z "$out_dir" ]; then out_dir="$arg"
       else echo "too many arguments" >&2; exit 2
       fi ;;
  esac
done
build_dir=${build_dir:-build}
out_dir=${out_dir:-.}
mkdir -p "$out_dir"

# "<binary> <json>" for every built bench: bench_fig03_http_single_file ->
# BENCH_fig03.json; five unnumbered figures drop their fig_ prefix; the
# other figures and the sweeps keep their full stem; the engine is "engine".
list_benches() {
  for bin in "$build_dir"/bench_fig* "$build_dir"/bench_sweep_* \
             "$build_dir"/bench_ablation_* "$build_dir"/bench_micro_engine; do
    [ -x "$bin" ] || continue
    name=$(basename "$bin")
    case "$name" in
      bench_fig[0-9]*)
        short=$(echo "$name" | sed 's/^bench_\(fig[0-9][0-9]*\).*/\1/') ;;
      bench_fig_ipc_plane|bench_fig_shard_scaling|bench_fig_tenant_isolation|\
      bench_fig_fault_tolerance|bench_fig_cdn_hierarchy)
        short=${name#bench_fig_} ;;
      bench_micro_engine)
        short="engine" ;;
      *)
        short=${name#bench_} ;;
    esac
    echo "$bin $out_dir/BENCH_${short}.json"
  done
}

# Runs one bench ($1) writing $2, holding its output until it exits.
run_one='log=$(mktemp); status=0; "$1" '"$smoke"' --json "$2" > "$log" 2>&1 || status=$?
echo "== $(basename "$1") -> $2"; cat "$log"; rm -f "$log"; exit "$status"'

wall_clock='bench_fig_ipc_plane|bench_fig_shard_scaling|bench_micro_engine'
# The subtrace sweeps (fig10-12) take longest, so they start first and the
# short figures fill the remaining slots.
longest='bench_fig1[0-2]_'
benches=$(list_benches)
if [ -z "$benches" ]; then
  echo "no bench binaries found under $build_dir (configure + build first)" >&2
  exit 1
fi
{ echo "$benches" | grep -E "/$longest" || true
  echo "$benches" | grep -Ev "/($longest|($wall_clock) )" || true; } |
  xargs -n 2 -P "$(nproc)" sh -c "$run_one" sh || exit 1
echo "$benches" | grep -E "/($wall_clock) " | while read -r bin out; do
  sh -c "$run_one" sh "$bin" "$out" || exit 1
done

for fig in fig_latency_load sweep_fleet fig_proxy_tier ipc_plane tenant_isolation \
           shard_scaling fault_tolerance cdn_hierarchy engine; do
  f="$out_dir/BENCH_${fig}.json"
  [ -f "$f" ] || continue
  sh "$(dirname "$0")/check_schema.sh" "$fig" "$f"
done
