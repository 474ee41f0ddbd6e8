// Per-run operation counters.
//
// Every subsystem increments these as it performs work, so tests can assert
// structural properties ("Flash-Lite performed zero data copies on the static
// path") and EXPERIMENTS.md can report the mechanism behind each result.

#ifndef SRC_SIMOS_STATS_H_
#define SRC_SIMOS_STATS_H_

#include <cstdint>

namespace iolsim {

// The per-level CDN counters that results report one by one, declared once:
// SimStats::CdnLevelStats, ExperimentResult's per-level deltas and the JSON
// `levels` objects are all generated from this list, in this order. A level's
// hits and misses sit outside it (results report them as a hit rate).
#define IOLSIM_CDN_LEVEL_COUNTERS(X)                                      \
  X(backhaul_bytes)        /* Payload fetched from the parent. */         \
  X(stale_serves)          /* Served bytes older than the origin's. */    \
  X(invalidations_sent)    /* Invalidation messages delivered here. */    \
  X(invalidations_applied) /* ...that actually dropped an entry. */       \
  X(revalidations)         /* Conditional checks issued upward. */        \
  X(revalidation_bytes)    /* Header bytes those checks moved. */         \
  X(fetch_races)           /* In-flight fetches beaten by a write. */

struct SimStats {
  // Data-touching operations.
  uint64_t bytes_copied = 0;
  uint64_t bytes_checksummed = 0;
  uint64_t checksum_ops = 0;
  uint64_t checksum_cache_hits = 0;
  uint64_t checksum_cache_misses = 0;

  // VM activity.
  uint64_t pages_mapped = 0;
  uint64_t page_protect_ops = 0;
  uint64_t chunk_map_ops = 0;

  // Buffer lifecycle.
  uint64_t buffers_allocated = 0;
  uint64_t buffers_recycled = 0;
  uint64_t buffers_freed = 0;

  // File cache.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;

  // Disk.
  uint64_t disk_reads = 0;
  uint64_t disk_bytes_read = 0;
  uint64_t disk_writes = 0;

  // Network.
  uint64_t tcp_connections = 0;
  uint64_t packets_sent = 0;

  // Syscall boundary crossings.
  uint64_t syscalls = 0;

  // Responses whose body was not the content the server meant to send
  // (the IO-Lite send path's delivery check, src/httpd). Always 0 in a
  // correct run.
  uint64_t corrupt_responses = 0;

  // Discrete-event engine: callbacks dispatched by the EventQueue. The
  // wall-clock benchmarks divide this by elapsed host time to report
  // events_per_sec; simulated results must not depend on it.
  uint64_t events_dispatched = 0;

  // Proxy-cache tier (src/proxy). The front cache's own hit/miss/eviction
  // counters are kept apart from the machine's unified-cache counters
  // (cache_hits/cache_misses above) so per-tier hit rates stay separable:
  // in a proxy experiment the unified-cache counters describe the origin
  // tier, these describe the proxy tier.
  uint64_t proxy_cache_hits = 0;
  uint64_t proxy_cache_misses = 0;
  uint64_t proxy_cache_evictions = 0;
  // Backhaul payload that a copy-based proxy memcpy'd into its private
  // cache on arrival. The payload itself counts per level, in
  // cdn[level].backhaul_bytes; a warm co-located IO-Lite proxy moves none
  // and copies none.
  uint64_t backhaul_bytes_copied = 0;

  // CDN hierarchy (src/cdn): per-level consistency and backhaul traffic.
  // Level 0 is the edge tier, higher indices sit closer to the origin.
  // Every counter here describes the proxies *at* that level: hits/misses
  // of their caches, payload they pulled from their parents, consistency
  // control traffic addressed to them, and the stale serves they performed.
  static constexpr int kMaxCdnLevels = 4;
  struct CdnLevelStats {
    uint64_t hits = 0;
    uint64_t misses = 0;
#define IOLSIM_CDN_LEVEL_FIELD(name) uint64_t name = 0;
    IOLSIM_CDN_LEVEL_COUNTERS(IOLSIM_CDN_LEVEL_FIELD)
#undef IOLSIM_CDN_LEVEL_FIELD
  };
  CdnLevelStats cdn[kMaxCdnLevels];
  uint64_t cdn_writes = 0;  // Origin WriteExtents applied by the write plan.

  // Descriptor IPC between the proxy and its origin. `ipc_bytes_transferred`
  // counts payload moved purely by reference (never touched by the
  // transport).
  uint64_t ipc_frames_sent = 0;
  uint64_t ipc_bytes_transferred = 0;
};

// One reported CDN level counter: its JSON key and its CdnLevelStats field.
struct CdnLevelCounter {
  const char* name;
  uint64_t SimStats::CdnLevelStats::*field;
};

inline constexpr CdnLevelCounter kCdnLevelCounters[] = {
#define IOLSIM_CDN_LEVEL_ENTRY(name) {#name, &SimStats::CdnLevelStats::name},
    IOLSIM_CDN_LEVEL_COUNTERS(IOLSIM_CDN_LEVEL_ENTRY)
#undef IOLSIM_CDN_LEVEL_ENTRY
};

}  // namespace iolsim

#endif  // SRC_SIMOS_STATS_H_
