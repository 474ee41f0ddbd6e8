// Shared harness for the figure-reproduction benchmarks.
//
// Each bench binary reproduces one table/figure from the paper's Section 5:
// it builds a fresh simulated machine per data point, runs the closed-loop
// client population, and prints the same series the paper plots, plus the
// paper's qualitative anchors for comparison.

#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/driver/experiment.h"
#include "src/driver/fleet.h"
#include "src/driver/workload.h"
#include "src/httpd/cgi.h"
#include "src/httpd/http_server.h"
#include "src/system/system.h"
#include "src/workload/trace.h"

namespace iolbench {

// Command-line options shared by every figure benchmark:
//   --json <path>  write the plotted series as machine-readable JSON
//   --smoke        tiny request counts (CI rot check, not a measurement)
struct BenchOptions {
  std::string json_path;
  bool smoke = false;

  // Scale a full-run request/warmup/client count down in smoke mode.
  uint64_t Requests(uint64_t full) const { return smoke && full > 120 ? 120 : full; }
  uint64_t Warmup(uint64_t full) const { return smoke && full > 20 ? 20 : full; }
  int Clients(int full) const { return smoke && full > 8 ? 8 : full; }
};

inline BenchOptions ParseBenchOptions(int argc, char** argv) {
  BenchOptions opts;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      opts.smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      opts.json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--json <path>]\n", argv[0]);
      std::exit(2);
    }
  }
  return opts;
}

// CMake defines IOLITE_BUILD_TYPE for the bench targets.
#ifndef IOLITE_BUILD_TYPE
#define IOLITE_BUILD_TYPE "unknown"
#endif

// The build that produced a BENCH_*.json document, as a JSON object:
//   {"type": "Release", "compiler": "gcc 12.2.0", "host_cores": 4}
// A wall-clock number means little without it: a Debug and a Release build
// of one commit can differ several-fold.
inline std::string BuildProvenanceJson() {
#if defined(__clang__)
  const char* compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  const char* compiler = "gcc " __VERSION__;
#else
  const char* compiler = "unknown";
#endif
  return std::string("{\"type\": \"") + IOLITE_BUILD_TYPE + "\", \"compiler\": \"" + compiler +
         "\", \"host_cores\": " + std::to_string(std::thread::hardware_concurrency()) + "}";
}

// Accumulates (series, x, value) rows and writes them as one JSON document:
//   {"figure": "...", "smoke": false, "build": {...}, "rows": [{"series":
//    ..., "x": ..., "value": ...}, ...]}
// Rows added via AddExperiment carry the full structured result — latency
// percentiles alongside the throughput value, plus the host-side wall clock
// of the run:
//   {"series": ..., "x": ..., "value": <Mb/s>, "requests": ...,
//    "cache_hit_rate": ..., "p50_ms": ..., "p90_ms": ..., "p99_ms": ...,
//    "max_ms": ..., "wall_ms": ..., "events_per_sec": ...}
// wall_ms / events_per_sec describe the simulator, not the simulated
// machine: they are the wall-clock trajectory CI records per commit, and
// vary run to run — everything else in the document is deterministic.
// A reporter with an empty path is a no-op, so benchmarks can call Add
// unconditionally.
class JsonReporter {
 public:
  JsonReporter(std::string figure, const BenchOptions& opts)
      : figure_(std::move(figure)), path_(opts.json_path), smoke_(opts.smoke) {}

  ~JsonReporter() { Flush(); }

  void Add(const std::string& series, double x, double value) {
    if (!path_.empty()) {
      Row row;
      row.series = series;
      row.x = x;
      row.value = value;
      rows_.push_back(std::move(row));
    }
  }

  // A host-performance row without experiment telemetry (micro benches).
  void AddPerf(const std::string& series, double x, double value, double wall_ms,
               double events_per_sec) {
    if (!path_.empty()) {
      Row row;
      row.series = series;
      row.x = x;
      row.value = value;
      row.has_perf = true;
      row.wall_ms = wall_ms;
      row.events_per_sec = events_per_sec;
      rows_.push_back(std::move(row));
    }
  }

  // Serializes the structured result: `value` is throughput (Mb/s), the
  // latency summary, per-tier proxy fields and wall-clock performance ride
  // along as explicit fields.
  void AddExperiment(const std::string& series, double x,
                     const ioldrv::ExperimentResult& result) {
    if (!path_.empty()) {
      Row row;
      row.series = series;
      row.x = x;
      row.value = result.megabits_per_sec;
      row.has_latency = true;
      row.has_perf = true;
      row.latency = result.latency;
      row.requests = result.requests;
      row.cache_hit_rate = result.cache_hit_rate;
      row.proxy_hit_rate = result.proxy_hit_rate;
      row.origin_hit_rate = result.origin_hit_rate;
      row.bytes_copied_backhaul = result.bytes_copied_backhaul;
      row.origin_p99_ms = result.origin_latency.p99_ms;
      row.wall_ms = result.wall_ms;
      row.events_per_sec =
          result.wall_ms > 0 ? result.events_dispatched / (result.wall_ms / 1000.0) : 0;
      row.availability = result.availability;
      row.error_rate = result.error_rate;
      row.retries = result.retries;
      row.goodput_mbps = result.goodput_mbps;
      row.tenants = result.tenants;
      row.staleness_p99_ms = result.staleness.p99_ms;
      row.stale_serves = result.stale_serves;
      row.cdn_writes = result.cdn_writes;
      row.origin_fleet_fetches = result.origin_fleet_fetches;
      row.cdn_levels = result.cdn_levels;
      rows_.push_back(std::move(row));
    }
  }

  bool Flush() {
    if (path_.empty()) {
      return true;
    }
    if (attempted_) {
      return ok_;  // One write, one diagnostic — the destructor re-calls us.
    }
    attempted_ = true;
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "JsonReporter: cannot open %s\n", path_.c_str());
      return ok_ = false;
    }
    std::fprintf(f, "{\"figure\": \"%s\", \"smoke\": %s, \"build\": %s, \"rows\": [",
                 figure_.c_str(), smoke_ ? "true" : "false", BuildProvenanceJson().c_str());
    for (size_t i = 0; i < rows_.size(); ++i) {
      const Row& r = rows_[i];
      // The per-tier proxy fields and the fault-plane fields appear on
      // every row (zeros / 1.0 outside their experiments) so one schema
      // covers every BENCH_*.json.
      std::fprintf(f,
                   "%s\n  {\"series\": \"%s\", \"x\": %.6g, \"value\": %.6g, "
                   "\"proxy_hit_rate\": %.6g, \"origin_hit_rate\": %.6g, "
                   "\"bytes_copied_backhaul\": %llu, "
                   "\"availability\": %.8g, \"error_rate\": %.8g, "
                   "\"retries\": %llu, \"goodput_mbps\": %.6g, "
                   "\"staleness_p99_ms\": %.6g, \"stale_serves\": %llu, "
                   "\"cdn_writes\": %llu, \"origin_fleet_fetches\": %llu",
                   i == 0 ? "" : ",", r.series.c_str(), r.x, r.value, r.proxy_hit_rate,
                   r.origin_hit_rate,
                   static_cast<unsigned long long>(r.bytes_copied_backhaul),
                   r.availability, r.error_rate,
                   static_cast<unsigned long long>(r.retries), r.goodput_mbps,
                   r.staleness_p99_ms, static_cast<unsigned long long>(r.stale_serves),
                   static_cast<unsigned long long>(r.cdn_writes),
                   static_cast<unsigned long long>(r.origin_fleet_fetches));
      if (r.has_latency) {
        std::fprintf(f,
                     ", \"requests\": %llu, \"cache_hit_rate\": %.6g, \"p50_ms\": %.6g, "
                     "\"p90_ms\": %.6g, \"p99_ms\": %.6g, \"max_ms\": %.6g, "
                     "\"origin_p99_ms\": %.6g",
                     static_cast<unsigned long long>(r.requests), r.cache_hit_rate,
                     r.latency.p50_ms, r.latency.p90_ms, r.latency.p99_ms,
                     r.latency.max_ms, r.origin_p99_ms);
      }
      if (r.has_perf) {
        std::fprintf(f, ", \"wall_ms\": %.6g, \"events_per_sec\": %.6g", r.wall_ms,
                     r.events_per_sec);
      }
      // Multi-tenant rows carry a per-tenant breakdown; single-tenant rows
      // omit the key entirely, so every pre-QoS BENCH_*.json is unchanged.
      if (!r.tenants.empty()) {
        std::fprintf(f, ", \"tenants\": [");
        for (size_t t = 0; t < r.tenants.size(); ++t) {
          const ioldrv::TenantBreakdown& b = r.tenants[t];
          std::fprintf(f,
                       "%s{\"tenant_id\": %u, \"name\": \"%s\", \"requests\": %llu, "
                       "\"p50_ms\": %.6g, \"p99_ms\": %.6g, \"cache_hit_rate\": %.6g, "
                       "\"cache_hit_fraction\": %.6g}",
                       t == 0 ? "" : ", ", static_cast<unsigned>(b.tenant),
                       b.name.c_str(), static_cast<unsigned long long>(b.requests),
                       b.latency.p50_ms, b.latency.p99_ms, b.cache_hit_rate,
                       b.cache_hit_fraction);
        }
        std::fprintf(f, "]");
      }
      // CDN hierarchy rows carry a per-level breakdown (level 0 = edges);
      // non-CDN rows omit the key, like the tenants array above.
      if (!r.cdn_levels.empty()) {
        std::fprintf(f, ", \"levels\": [");
        for (size_t l = 0; l < r.cdn_levels.size(); ++l) {
          const ioldrv::ExperimentResult::CdnLevelResult& c = r.cdn_levels[l];
          std::fprintf(
              f,
              "%s{\"level\": %zu, \"proxies\": %d, \"hit_rate\": %.6g, "
              "\"backhaul_bytes\": %llu, \"stale_serves\": %llu, "
              "\"invalidations_sent\": %llu, \"invalidations_applied\": %llu, "
              "\"revalidations\": %llu, \"revalidation_bytes\": %llu, "
              "\"fetch_races\": %llu, \"shaper_holds\": %llu}",
              l == 0 ? "" : ", ", l, c.proxies, c.hit_rate,
              static_cast<unsigned long long>(c.backhaul_bytes),
              static_cast<unsigned long long>(c.stale_serves),
              static_cast<unsigned long long>(c.invalidations_sent),
              static_cast<unsigned long long>(c.invalidations_applied),
              static_cast<unsigned long long>(c.revalidations),
              static_cast<unsigned long long>(c.revalidation_bytes),
              static_cast<unsigned long long>(c.fetch_races),
              static_cast<unsigned long long>(c.shaper_holds));
        }
        std::fprintf(f, "]");
      }
      std::fprintf(f, "}");
    }
    std::fprintf(f, "\n]}\n");
    std::fclose(f);
    return ok_ = true;
  }

 private:
  struct Row {
    std::string series;
    double x = 0;
    double value = 0;
    bool has_latency = false;
    bool has_perf = false;
    ioldrv::LatencySummary latency;
    uint64_t requests = 0;
    double cache_hit_rate = 0;
    double proxy_hit_rate = 0;
    double origin_hit_rate = 0;
    uint64_t bytes_copied_backhaul = 0;
    double origin_p99_ms = 0;
    double wall_ms = 0;
    double events_per_sec = 0;
    double availability = 1.0;
    double error_rate = 0;
    uint64_t retries = 0;
    double goodput_mbps = 0;
    std::vector<ioldrv::TenantBreakdown> tenants;
    double staleness_p99_ms = 0;
    uint64_t stale_serves = 0;
    uint64_t cdn_writes = 0;
    uint64_t origin_fleet_fetches = 0;
    std::vector<ioldrv::ExperimentResult::CdnLevelResult> cdn_levels;
  };
  std::string figure_;
  std::string path_;
  bool smoke_;
  bool attempted_ = false;
  bool ok_ = false;
  std::vector<Row> rows_;
};

// The server configurations of Figures 3-12.
enum class ServerKind {
  kFlash,
  kApache,
  kFlashLite,             // GDS policy + checksum cache.
  kFlashLiteLru,          // Figure 11 ablation: LRU instead of GDS.
  kFlashLiteNoCksum,      // Figure 11 ablation: checksum cache off.
  kFlashLiteLruNoCksum,   // Figure 11 ablation: both off.
};

inline const char* Name(ServerKind kind) {
  switch (kind) {
    case ServerKind::kFlash:
      return "Flash";
    case ServerKind::kApache:
      return "Apache";
    case ServerKind::kFlashLite:
      return "Flash-Lite";
    case ServerKind::kFlashLiteLru:
      return "Flash-Lite-LRU";
    case ServerKind::kFlashLiteNoCksum:
      return "Flash-Lite-nocksum";
    case ServerKind::kFlashLiteLruNoCksum:
      return "Flash-Lite-LRU-nocksum";
  }
  return "?";
}

inline bool IsLite(ServerKind kind) {
  return kind != ServerKind::kFlash && kind != ServerKind::kApache;
}

// A fully assembled machine + server pair for one run.
struct Bench {
  std::unique_ptr<iolsys::System> sys;
  std::unique_ptr<iolhttp::HttpServer> server;
};

// Overwrites the cache-policy and checksum-cache fields `kind` determines;
// everything else (cpu_count, disk_count, RAM) stays as the caller set it.
inline void ApplyKindOptions(ServerKind kind, iolsys::SystemOptions* options) {
  switch (kind) {
    case ServerKind::kFlashLite:
      options->policy = iolsys::SystemOptions::Policy::kGds;
      options->checksum_cache = true;
      break;
    case ServerKind::kFlashLiteLru:
      options->policy = iolsys::SystemOptions::Policy::kPlainLru;
      options->checksum_cache = true;
      break;
    case ServerKind::kFlashLiteNoCksum:
      options->policy = iolsys::SystemOptions::Policy::kGds;
      options->checksum_cache = false;
      break;
    case ServerKind::kFlashLiteLruNoCksum:
      options->policy = iolsys::SystemOptions::Policy::kPlainLru;
      options->checksum_cache = false;
      break;
    default:
      // The copy-based servers use the kernel's default cache policy.
      options->policy = iolsys::SystemOptions::Policy::kPaperLru;
      options->checksum_cache = false;  // No identity to key a cache on.
      break;
  }
}

// One server instance of `kind` on an existing machine. Fleets call this N
// times over one System.
inline std::unique_ptr<iolhttp::HttpServer> MakeServer(ServerKind kind,
                                                       iolsys::System* sys) {
  switch (kind) {
    case ServerKind::kFlash:
      return std::make_unique<iolhttp::FlashServer>(&sys->ctx(), &sys->net(), &sys->io());
    case ServerKind::kApache:
      return std::make_unique<iolhttp::ApacheServer>(&sys->ctx(), &sys->net(), &sys->io());
    default:
      return std::make_unique<iolhttp::FlashLiteServer>(&sys->ctx(), &sys->net(),
                                                        &sys->io(), &sys->runtime());
  }
}

// Builds the machine + server for `kind`. `options` seeds everything the
// kind does not determine (e.g. cost.cpu_count for SMP sweeps); the cache
// policy and checksum-cache fields are derived from the kind and overwrite
// whatever the caller set.
inline Bench MakeBench(ServerKind kind, iolsys::SystemOptions options = {}) {
  ApplyKindOptions(kind, &options);
  Bench b;
  b.sys = std::make_unique<iolsys::System>(options);
  b.server = MakeServer(kind, b.sys.get());
  return b;
}

// Single-file experiment (Figures 3 and 4): all clients request one file.
inline ioldrv::ExperimentResult RunSingleFile(ServerKind kind, size_t file_bytes,
                                              bool persistent, int clients = 40,
                                              uint64_t requests = 4000,
                                              uint64_t warmup = 200) {
  Bench b = MakeBench(kind);
  iolfs::FileId f = b.sys->fs().CreateFile("doc", file_bytes);
  ioldrv::ExperimentConfig config;
  config.persistent_connections = persistent;
  config.max_requests = requests;
  config.warmup_requests = warmup;
  ioldrv::ClosedLoop workload(clients);
  ioldrv::Experiment experiment(&b.sys->ctx(), &b.sys->net(), &b.sys->cache(),
                                b.server.get(), config);
  return experiment.Run(&workload, [f] { return f; });
}

// CGI experiment (Figures 5 and 6).
inline ioldrv::ExperimentResult RunCgi(
    ServerKind kind, size_t doc_bytes, bool persistent, int clients = 40,
    uint64_t requests = 4000, uint64_t warmup = 200) {
  iolsys::SystemOptions options;
  options.checksum_cache = IsLite(kind);
  auto sys = std::make_unique<iolsys::System>(options);
  sys->fs().CreateFile("unused", 16);
  std::unique_ptr<iolhttp::HttpServer> server;
  if (IsLite(kind)) {
    server = std::make_unique<iolhttp::LiteCgiServer>(&sys->ctx(), &sys->net(), &sys->io(),
                                                      &sys->runtime(), doc_bytes);
  } else {
    server = std::make_unique<iolhttp::CopyCgiServer>(&sys->ctx(), &sys->net(), &sys->io(),
                                                      doc_bytes, kind == ServerKind::kApache);
  }
  ioldrv::ExperimentConfig config;
  config.persistent_connections = persistent;
  config.max_requests = requests;
  config.warmup_requests = warmup;
  ioldrv::ClosedLoop workload(clients);
  ioldrv::Experiment experiment(&sys->ctx(), &sys->net(), &sys->cache(), server.get(),
                                config);
  return experiment.Run(&workload, [] { return iolfs::FileId{1}; });
}

// Trace replay (Figures 8, 10, 11, 12). `sequential` replays the log in
// order with a shared cursor (Figure 8); otherwise clients pick random
// entries, SpecWeb96-style (Figures 10-12).
inline ioldrv::ExperimentResult RunTrace(ServerKind kind, const iolwl::Trace& trace,
                                         int clients, uint64_t requests, bool sequential,
                                         iolsim::SimTime round_trip_delay = 0,
                                         uint64_t warmup = 2000) {
  Bench b = MakeBench(kind);
  std::vector<iolfs::FileId> ids = trace.Materialize(&b.sys->fs());

  ioldrv::ExperimentConfig config;
  config.persistent_connections = false;
  config.max_requests = requests;
  config.warmup_requests = warmup;
  config.enforce_cache_budget = true;
  config.delay.one_way_delay = round_trip_delay / 2;
  if (kind == ServerKind::kApache) {
    config.max_concurrent = 150;  // Apache 1.3's default MaxClients.
  }
  ioldrv::ClosedLoop workload(clients);
  ioldrv::Experiment experiment(&b.sys->ctx(), &b.sys->net(), &b.sys->cache(),
                                b.server.get(), config);

  size_t cursor = 0;
  iolsim::Rng rng(7777);
  const std::vector<uint32_t>& reqs = trace.requests();
  return experiment.Run(&workload, [&]() -> iolfs::FileId {
    uint32_t rank;
    if (sequential) {
      rank = reqs[cursor++ % reqs.size()];
    } else {
      rank = reqs[rng.NextBelow(reqs.size())];
    }
    return ids[rank];
  });
}

// Formatting helpers.
inline void PrintHeader(const std::string& title, const std::string& columns) {
  std::printf("# %s\n", title.c_str());
  std::printf("%s\n", columns.c_str());
}

}  // namespace iolbench

#endif  // BENCH_BENCH_UTIL_H_
