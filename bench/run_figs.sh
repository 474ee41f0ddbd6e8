#!/usr/bin/env sh
# Runs the built figure benchmarks and writes BENCH_figNN.json trajectory
# files (one JSON document per figure, see JsonReporter in bench_util.h).
#
# Usage: bench/run_figs.sh [build-dir] [out-dir] [--smoke]
#   build-dir  where the bench_* binaries live (default: build)
#   out-dir    where the BENCH_*.json files go   (default: .)
#   --smoke    forward smoke mode (tiny request counts) to every benchmark
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
found=0
for bin in "$build_dir"/bench_fig* "$build_dir"/bench_sweep_* "$build_dir"/bench_ablation_*; do
  [ -x "$bin" ] || continue
  found=1
  name=$(basename "$bin")
  # bench_fig03_http_single_file -> BENCH_fig03.json; unnumbered figures
  # (bench_fig_latency_load) and sweeps keep their full stem.
  case "$name" in
    bench_fig[0-9]*)
      short=$(echo "$name" | sed 's/^bench_\(fig[0-9][0-9]*\).*/\1/') ;;
    bench_fig_ipc_plane)
      short="ipc_plane" ;;
    bench_fig_shard_scaling)
      short="shard_scaling" ;;
    bench_fig_tenant_isolation)
      short="tenant_isolation" ;;
    bench_fig_fault_tolerance)
      short="fault_tolerance" ;;
    bench_fig_cdn_hierarchy)
      short="cdn_hierarchy" ;;
    *)
      short=${name#bench_} ;;
  esac
  out="$out_dir/BENCH_${short}.json"
  echo "== $name -> $out"
  "$bin" $smoke --json "$out"
done

if [ "$found" = 0 ]; then
  echo "no bench binaries found under $build_dir (configure + build first)" >&2
  exit 1
fi

# Engine wall-clock trajectory (host-time, not simulated; see
# bench/micro_engine.cc). Recorded alongside the figures so every run of
# this script leaves a BENCH_engine.json to compare across commits.
if [ -x "$build_dir/bench_micro_engine" ]; then
  echo "== bench_micro_engine -> $out_dir/BENCH_engine.json"
  "$build_dir/bench_micro_engine" $smoke --json "$out_dir/BENCH_engine.json"
fi

# Schema smoke check: the latency-aware benches must emit non-zero p99
# fields (a zeroed histogram means telemetry silently broke).
for f in "$out_dir/BENCH_fig_latency_load.json" "$out_dir/BENCH_sweep_fleet.json"; do
  [ -f "$f" ] || continue
  if ! grep -q '"p99_ms": ' "$f"; then
    echo "schema check failed: no p99_ms fields in $f" >&2
    exit 1
  fi
  if ! grep '"p99_ms": ' "$f" | grep -qv '"p99_ms": 0[,}]'; then
    echo "schema check failed: every p99_ms is zero in $f" >&2
    exit 1
  fi
  echo "== schema check ok: $f has non-zero p99_ms"
done

# Per-figure schema checks, shared with CI (bench/check_schema.sh).
for fig in proxy_tier ipc_plane tenant_isolation shard_scaling fault_tolerance cdn_hierarchy; do
  f="$out_dir/BENCH_${fig}.json"
  [ "$fig" = proxy_tier ] && f="$out_dir/BENCH_fig_proxy_tier.json"
  [ -f "$f" ] || continue
  sh "$(dirname "$0")/check_schema.sh" "$fig" "$f"
done
