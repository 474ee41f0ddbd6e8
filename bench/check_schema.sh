#!/usr/bin/env sh
# Schema checks for one figure's BENCH_*.json: the fields, series and
# invariants every row of that figure must carry. bench/run_figs.sh runs
# these on every document it writes, so the checks live in one place.
#
# Usage: bench/check_schema.sh <figure> <json>
#   figure  fig_latency_load | sweep_fleet | fig_proxy_tier | ipc_plane |
#           tenant_isolation | shard_scaling | fault_tolerance |
#           cdn_hierarchy | engine
set -eu

[ $# -eq 2 ] || { echo "usage: $0 <figure> <json>" >&2; exit 2; }
fig=$1
f=$2

fail() {
  echo "schema check failed: $* in $f" >&2
  exit 1
}

# Every named field appears on some row.
need_fields() {
  for field in "$@"; do
    grep -q "\"$field\": " "$f" || fail "no $field fields"
  done
}

# Every named series is present.
need_series() {
  for series in "$@"; do
    grep -q "\"series\": \"$series\"" "$f" || fail "missing series $series"
  done
}

# Some row carries a non-zero value of the field.
need_nonzero() {
  grep "\"$1\": " "$f" | grep -qv "\"$1\": 0[,}]" || fail "every $1 is zero"
}

case "$fig" in
  fig_latency_load|sweep_fleet)
    # The latency-aware benches must emit non-zero p99 fields (a zeroed
    # histogram means telemetry silently broke).
    need_fields p99_ms
    need_nonzero p99_ms
    ;;
  fig_proxy_tier)
    # Every row carries the per-tier fields; the proxy fig must report real
    # proxy hit rates and zero backhaul copies on its IO-Lite series.
    grep -q '"figure": "fig_proxy_tier"' "$f" || fail "wrong figure"
    need_fields proxy_hit_rate origin_hit_rate bytes_copied_backhaul
    need_nonzero proxy_hit_rate
    if grep '"series": "IOL-' "$f" | grep -qv '"bytes_copied_backhaul": 0[,}]'; then
      fail "an IO-Lite series row copied backhaul bytes"
    fi
    ;;
  ipc_plane)
    # Every row carries the cross-process copy counter, byte-identity
    # verdict and per-role CPU; zero-copy process rows copy nothing,
    # copy-mode rows do, and the forked rows measured their client's CPU.
    grep -q '"figure": "ipc_plane"' "$f" || fail "wrong figure"
    need_fields bytes_copied_cross_process byte_identical checksum wall_ms \
      client_cpu_s proxy_cpu_s origin_cpu_s cgi_cpu_s
    need_nonzero proxy_cpu_s
    if grep -q '"byte_identical": false' "$f"; then
      fail "a plane row was not byte-identical"
    fi
    if grep '"series": "plane-processes"' "$f" | grep -qv '"bytes_copied_cross_process": 0[,}]'; then
      fail "the zero-copy plane copied payload bytes"
    fi
    if grep '"series": "plane-processes-copy"' "$f" | grep -q '"bytes_copied_cross_process": 0[,}]'; then
      fail "the copy-mode contrast row copied nothing"
    fi
    ;;
  tenant_isolation)
    # Multi-tenant rows carry the per-tenant breakdown, both tenants of the
    # adversarial mix appear, and the wfq+partition cell is present.
    grep -q '"figure": "fig_tenant_isolation"' "$f" || fail "wrong figure"
    need_fields tenants tenant_id cache_hit_rate
    for tenant in hot-zipf scan; do
      grep -q "\"name\": \"$tenant\"" "$f" || fail "missing tenant $tenant"
    done
    need_series wfq+partition
    ;;
  shard_scaling)
    # Every cell carries the host-side engine throughput and a real latency
    # distribution, and all three shard series are present. (The bench
    # itself exits non-zero if shard counts diverge.)
    grep -q '"figure": "fig_shard_scaling"' "$f" || fail "wrong figure"
    need_fields events_per_sec p99_ms wall_ms
    need_series shards-1 shards-2 shards-4
    need_nonzero events_per_sec
    ;;
  fault_tolerance)
    # Every row carries the recovery accounting, the policy lattice is
    # complete, and the fault-free baseline reports 100% availability.
    grep -q '"figure": "fig_fault_tolerance"' "$f" || fail "wrong figure"
    need_fields availability error_rate retries goodput_mbps
    need_series fault-free unprotected retry retry+hedge retry+hedge+health
    if grep '"series": "fault-free"' "$f" | grep -qv '"availability": 1[,}]'; then
      fail "the fault-free baseline lost requests"
    fi
    ;;
  cdn_hierarchy)
    # Every row carries the staleness accounting, tree rows the per-level
    # breakdown, and all three consistency protocols plus the flat baseline
    # appear.
    grep -q '"figure": "fig_cdn_hierarchy"' "$f" || fail "wrong figure"
    need_fields staleness_p99_ms stale_serves cdn_writes origin_fleet_fetches corrupt_responses
    need_fields levels hit_rate backhaul_bytes invalidations_sent revalidation_bytes
    need_series flat tree-edge-heavy invalidate/edge-heavy revalidate/edge-heavy stale/edge-heavy
    ;;
  engine)
    # The engine's host-time trajectory: every row carries its events/s.
    need_fields events_per_sec
    ;;
  *)
    echo "unknown figure: $fig" >&2
    exit 2
    ;;
esac
echo "== schema check ok: $f ($fig)"
