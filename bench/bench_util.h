// Shared harness for the figure-reproduction benchmarks.
//
// Each bench binary reproduces one table/figure from the paper's Section 5:
// it describes each data point as a Cell (a machine, the fleet on it, its
// documents and its run), runs every cell on a fresh simulated machine with
// RunCell, and prints the same series the paper plots, plus the paper's
// qualitative anchors for comparison. A Figure owns the command line, the
// header, the JSON document and the closing claim; a sweep figure declares
// its series x points table once and Figure::Run runs and prints it.

#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/cdn/cdn_topology.h"
#include "src/cdn/write_plan.h"
#include "src/driver/cdn_tier.h"
#include "src/driver/experiment.h"
#include "src/driver/fleet.h"
#include "src/driver/telemetry.h"
#include "src/driver/workload.h"
#include "src/httpd/cgi.h"
#include "src/httpd/http_server.h"
#include "src/system/system.h"
#include "src/workload/trace.h"

namespace iolbench {

// printf into a std::string (table labels, JSON rows).
inline std::string Fmt(const char* format, ...) {
  char buf[1024];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  return buf;
}

// The server configurations of Figures 3-12.
enum class ServerKind {
  kFlash,
  kApache,
  kFlashLite,             // GDS policy + checksum cache.
  kFlashLiteLru,          // Figure 11 ablation: LRU instead of GDS.
  kFlashLiteNoCksum,      // Figure 11 ablation: checksum cache off.
  kFlashLiteLruNoCksum,   // Figure 11 ablation: both off.
};

// Each kind's name and the cache policy and checksum cache its machine runs
// (indexed by ServerKind). The copy-based servers use the kernel's default
// policy and have no buffer identity to key a checksum cache on.
struct KindSpec {
  const char* name;
  iolsys::SystemOptions::Policy policy;
  bool checksum_cache;
};
inline constexpr KindSpec kKinds[] = {
    {"Flash", iolsys::SystemOptions::Policy::kPaperLru, false},
    {"Apache", iolsys::SystemOptions::Policy::kPaperLru, false},
    {"Flash-Lite", iolsys::SystemOptions::Policy::kGds, true},
    {"Flash-Lite-LRU", iolsys::SystemOptions::Policy::kPlainLru, true},
    {"Flash-Lite-nocksum", iolsys::SystemOptions::Policy::kGds, false},
    {"Flash-Lite-LRU-nocksum", iolsys::SystemOptions::Policy::kPlainLru, false},
};

inline const char* Name(ServerKind kind) { return kKinds[static_cast<int>(kind)].name; }

inline bool IsLite(ServerKind kind) {
  return kind != ServerKind::kFlash && kind != ServerKind::kApache;
}

// A fully assembled machine + server pair (one member of a sharded fleet).
struct Bench {
  std::unique_ptr<iolsys::System> sys;
  std::unique_ptr<iolhttp::HttpServer> server;
};

// Overwrites the cache-policy and checksum-cache fields `kind` determines;
// everything else (cpu_count, disk_count, RAM) stays as the caller set it.
inline void ApplyKindOptions(ServerKind kind, iolsys::SystemOptions* options) {
  options->policy = kKinds[static_cast<int>(kind)].policy;
  options->checksum_cache = kKinds[static_cast<int>(kind)].checksum_cache;
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
// kind does not determine (e.g. cost.cpu_count for SMP machines); the cache
// policy and checksum-cache fields are derived from the kind.
inline Bench MakeBench(ServerKind kind, iolsys::SystemOptions options = {}) {
  ApplyKindOptions(kind, &options);
  Bench b;
  b.sys = std::make_unique<iolsys::System>(options);
  b.server = MakeServer(kind, b.sys.get());
  return b;
}

// What a Cell's setup hook sees: the built machine, its documents and the
// run's config, which the hook may amend.
struct Machine {
  iolsys::System* sys;
  const std::vector<iolfs::FileId>& ids;
  ioldrv::ExperimentConfig& config;
};

// One data point: a machine, the fleet on it, its documents and its run.
struct Cell {
  // The fleet: `members` servers of `kind` on one machine, behind a
  // round-robin or least-connections balancer. `options` describe one
  // member's machine: a fleet multiplies its CPUs and disk arms and shares
  // its front link. `kind` sets the cache policy and checksum cache unless
  // `server` builds the members, in which case `options` hold as given.
  ServerKind kind = ServerKind::kFlash;
  std::function<std::unique_ptr<iolhttp::HttpServer>(iolsys::System*)> server;
  int members = 1;
  bool least_connections = false;
  iolsys::SystemOptions options;

  // The documents: `trace` materialized, else `docs` files of `file_bytes`.
  // Requests draw them in the trace's log order through one shared cursor
  // (`sequential`), else uniformly (from the log, or over the documents)
  // with an Rng seeded `draw_seed`.
  const iolwl::Trace* trace = nullptr;
  int docs = 1;
  size_t file_bytes = 0;
  bool sequential = false;
  uint64_t draw_seed = 7777;

  // The run: a closed loop of `clients` unless `setup` returns a workload.
  int clients = 0;
  ioldrv::ExperimentConfig config;

  // A proxy tier in front of the fleet (ioldrv::CdnTier), with an optional
  // origin write plan.
  const iolcdn::CdnTopology* cdn = nullptr;
  iolproxy::ProxyConfig proxy;
  const iolcdn::WritePlanSpec* writes = nullptr;

  // Runs on the built machine before the run (prewarm, QoS, an open-loop
  // or replayed workload). A workload it returns replaces the closed loop
  // and is destroyed before the machine, so it may own state the machine
  // points at (a QoS policy).
  std::function<std::unique_ptr<ioldrv::Workload>(Machine&)> setup;
};

// What a cell's run left behind: its result, the machine's counters and
// final clock, and the per-request records.
struct CellRun {
  ioldrv::ExperimentResult result;
  iolsim::SimStats stats;
  iolsim::SimTime final_clock = 0;
  ioldrv::Telemetry telemetry;
  double cpu_utilization = 0;
};

inline CellRun RunCell(const Cell& cell) {
  iolsys::SystemOptions options = cell.options;
  if (!cell.server) {
    ApplyKindOptions(cell.kind, &options);
  }
  options.cost.cpu_count *= cell.members;
  options.cost.disk_count *= cell.members;
  iolsys::System sys(options);

  std::vector<iolfs::FileId> ids;
  if (cell.trace != nullptr) {
    ids = cell.trace->Materialize(&sys.fs());
  } else {
    for (int i = 0; i < cell.docs; ++i) {
      ids.push_back(sys.fs().CreateFile("doc" + std::to_string(i), cell.file_bytes));
    }
  }

  std::vector<std::unique_ptr<iolhttp::HttpServer>> servers;
  std::vector<iolhttp::HttpServer*> members;
  for (int i = 0; i < cell.members; ++i) {
    servers.push_back(cell.server ? cell.server(&sys) : MakeServer(cell.kind, &sys));
    members.push_back(servers.back().get());
  }
  std::unique_ptr<ioldrv::LoadBalancer> balancer;
  if (cell.least_connections) {
    balancer = std::make_unique<ioldrv::LeastConnectionsBalancer>();
  }
  ioldrv::Fleet fleet(members, std::move(balancer));

  ioldrv::ExperimentConfig config = cell.config;
  Machine machine{&sys, ids, config};
  std::unique_ptr<ioldrv::Workload> workload = cell.setup ? cell.setup(machine) : nullptr;
  if (workload == nullptr) {
    workload = std::make_unique<ioldrv::ClosedLoop>(cell.clients);
  }

  size_t cursor = 0;
  iolsim::Rng rng(cell.draw_seed);
  auto next_file = [&]() -> iolfs::FileId {
    if (cell.trace == nullptr) {
      return ids[rng.NextBelow(ids.size())];
    }
    const std::vector<uint32_t>& reqs = cell.trace->requests();
    return ids[cell.sequential ? reqs[cursor++ % reqs.size()]
                               : reqs[rng.NextBelow(reqs.size())]];
  };

  CellRun out;
  if (cell.cdn != nullptr) {
    ioldrv::CdnTier tier(&sys.ctx(), &sys.net(), &sys.io(), &sys.runtime(), std::move(fleet),
                         *cell.cdn, cell.proxy, config);
    std::optional<iolcdn::WritePlan> writes;
    if (cell.writes != nullptr) {
      writes.emplace(&sys.ctx(), &tier.authority(), *cell.writes);
      tier.set_write_plan(&*writes);
    }
    out.result = tier.Run(workload.get(), next_file, &out.telemetry);
  } else {
    ioldrv::Experiment experiment(&sys.ctx(), &sys.net(), &sys.cache(), std::move(fleet),
                                  config);
    out.result = experiment.Run(workload.get(), next_file, &out.telemetry);
  }
  out.stats = sys.ctx().stats();
  out.final_clock = sys.ctx().clock().now();
  if (out.final_clock > 0) {
    out.cpu_utilization = static_cast<double>(sys.ctx().cpu().busy_time()) /
                          (static_cast<double>(out.final_clock) * sys.ctx().cpu().units());
  }
  return out;
}

// Makes every document resident in the unified cache, read from disk once.
inline void Prewarm(iolsys::System* sys, const std::vector<iolfs::FileId>& ids) {
  for (iolfs::FileId f : ids) {
    uint64_t size = sys->fs().SizeOf(f);
    sys->cache().Insert(f, 0,
                        iolite::Aggregate::FromBuffer(sys->fs().ReadFromDisk(f, 0, size)));
  }
}

// A setup hook: Prewarm, charged to a discarded tally so the clock stays at
// 0 (a fault plan's times are absolute and must stay ahead of the run).
inline std::unique_ptr<ioldrv::Workload> PrewarmOffClock(Machine& m) {
  iolsim::Tally discarded;
  iolsim::TallyScope scope(&m.sys->ctx(), &discarded);
  Prewarm(m.sys, m.ids);
  return nullptr;
}

// Folds every field of every record: two runs with equal folds (and equal
// final clocks) took byte-identical trajectories through the engine.
inline uint64_t FoldRecords(const std::vector<ioldrv::RequestRecord>& records) {
  auto mix = [](uint64_t h, uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 12) + (h >> 4);
    return h * 0xff51afd7ed558ccdull;
  };
  uint64_t h = 1469598103934665603ull;
  for (const ioldrv::RequestRecord& r : records) {
    h = mix(h, r.issue);
    h = mix(h, r.admit);
    h = mix(h, r.complete);
    h = mix(h, r.bytes);
    h = mix(h, r.server);
    h = mix(h, r.tenant);
    h = mix(h, static_cast<uint64_t>(r.outcome));
    h = mix(h, r.attempts);
    h = mix(h, r.cache_hit ? 1 : 0);
    h = mix(h, r.counted ? 1 : 0);
  }
  return h;
}

// The single-file test (Figures 3 and 4): 40 clients request one document.
inline Cell SingleFileCell(ServerKind kind, size_t file_bytes, bool persistent) {
  Cell cell;
  cell.kind = kind;
  cell.file_bytes = file_bytes;
  cell.clients = 40;
  cell.config.persistent_connections = persistent;
  cell.config.max_requests = 4000;
  cell.config.warmup_requests = 200;
  return cell;
}

// The FastCGI test (Figures 5 and 6): the same population, each response a
// memory-resident `doc_bytes` document a CGI process sends over a pipe.
inline Cell CgiCell(ServerKind kind, size_t doc_bytes, bool persistent) {
  Cell cell = SingleFileCell(kind, doc_bytes, persistent);
  cell.options.checksum_cache = IsLite(kind);
  cell.server = [kind, doc_bytes](iolsys::System* sys) -> std::unique_ptr<iolhttp::HttpServer> {
    if (IsLite(kind)) {
      return std::make_unique<iolhttp::LiteCgiServer>(&sys->ctx(), &sys->net(), &sys->io(),
                                                      &sys->runtime(), doc_bytes);
    }
    return std::make_unique<iolhttp::CopyCgiServer>(&sys->ctx(), &sys->net(), &sys->io(),
                                                    doc_bytes, kind == ServerKind::kApache);
  };
  return cell;
}

// Trace replay (Figures 8, 10, 11, 12): `clients` clients draw from `trace`
// (at random, SpecWeb96-style, unless the caller sets `sequential`) over
// nonpersistent connections, under the memory model's cache budget.
inline Cell TraceCell(ServerKind kind, const iolwl::Trace* trace, int clients,
                      uint64_t requests, uint64_t warmup) {
  Cell cell;
  cell.kind = kind;
  cell.trace = trace;
  cell.clients = clients;
  cell.config.max_requests = requests;
  cell.config.warmup_requests = warmup;
  cell.config.enforce_cache_budget = true;
  if (kind == ServerKind::kApache) {
    cell.config.max_concurrent = 150;  // Apache 1.3's default MaxClients.
  }
  return cell;
}

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

  Cell Scale(Cell cell) const {
    cell.clients = Clients(cell.clients);
    cell.config.max_requests = Requests(cell.config.max_requests);
    cell.config.warmup_requests = Warmup(cell.config.warmup_requests);
    return cell;
  }
};

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
      rows_.emplace_back(series, x, value);
    }
  }

  // A host-performance row without experiment telemetry (micro benches).
  void AddPerf(const std::string& series, double x, double value, double wall_ms,
               double events_per_sec) {
    if (!path_.empty()) {
      Row row(series, x, value);
      row.has_perf = true;
      row.events_per_sec = events_per_sec;
      row.result.wall_ms = wall_ms;
      rows_.push_back(std::move(row));
    }
  }

  // Serializes the structured result: `value` is throughput (Mb/s), the
  // latency summary, per-tier proxy fields and wall-clock performance ride
  // along as explicit fields.
  void AddExperiment(const std::string& series, double x,
                     const ioldrv::ExperimentResult& result) {
    if (!path_.empty()) {
      Row row(series, x, result.megabits_per_sec);
      row.has_latency = true;
      row.has_perf = true;
      row.events_per_sec =
          result.wall_ms > 0 ? result.events_dispatched / (result.wall_ms / 1000.0) : 0;
      row.result = result;
      rows_.push_back(std::move(row));
    }
  }

  // A row of a figure with its own schema, written as given: one JSON
  // object, "{...}".
  void AddRaw(std::string object) {
    if (!path_.empty()) {
      Row row("", 0, 0);
      row.raw = std::move(object);
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
      const Row& row = rows_[i];
      const ioldrv::ExperimentResult& r = row.result;
      if (!row.raw.empty()) {
        std::fprintf(f, "%s\n  %s", i == 0 ? "" : ",", row.raw.c_str());
        continue;
      }
      // The per-tier proxy fields and the fault-plane fields appear on
      // every row (zeros / 1.0 outside their experiments) so one schema
      // covers every BENCH_*.json. Failed requests carry no bytes, so the
      // goodput key is megabits_per_sec itself.
      double error_rate = r.requests > 0 ? static_cast<double>(r.failed_requests) /
                                               static_cast<double>(r.requests)
                                         : 0.0;
      std::fprintf(f,
                   "%s\n  {\"series\": \"%s\", \"x\": %.6g, \"value\": %.6g, "
                   "\"proxy_hit_rate\": %.6g, \"origin_hit_rate\": %.6g, "
                   "\"bytes_copied_backhaul\": %llu, "
                   "\"availability\": %.8g, \"error_rate\": %.8g, "
                   "\"retries\": %llu, \"goodput_mbps\": %.6g, "
                   "\"staleness_p99_ms\": %.6g, \"stale_serves\": %llu, "
                   "\"cdn_writes\": %llu, \"origin_fleet_fetches\": %llu, "
                   "\"corrupt_responses\": %llu",
                   i == 0 ? "" : ",", row.series.c_str(), row.x, row.value, r.proxy_hit_rate,
                   r.origin_hit_rate,
                   static_cast<unsigned long long>(r.bytes_copied_backhaul),
                   r.availability, error_rate,
                   static_cast<unsigned long long>(r.retries), r.megabits_per_sec,
                   r.staleness.p99_ms, static_cast<unsigned long long>(r.stale_serves),
                   static_cast<unsigned long long>(r.cdn_writes),
                   static_cast<unsigned long long>(r.origin_fleet_fetches),
                   static_cast<unsigned long long>(r.corrupt_responses));
      if (row.has_latency) {
        std::fprintf(f,
                     ", \"requests\": %llu, \"cache_hit_rate\": %.6g, \"p50_ms\": %.6g, "
                     "\"p90_ms\": %.6g, \"p99_ms\": %.6g, \"max_ms\": %.6g, "
                     "\"origin_p99_ms\": %.6g",
                     static_cast<unsigned long long>(r.requests), r.cache_hit_rate,
                     r.latency.p50_ms, r.latency.p90_ms, r.latency.p99_ms,
                     r.latency.max_ms, r.origin_latency.p99_ms);
      }
      if (row.has_perf) {
        std::fprintf(f, ", \"wall_ms\": %.6g, \"events_per_sec\": %.6g", r.wall_ms,
                     row.events_per_sec);
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
          std::fprintf(f, "%s{\"level\": %zu, \"proxies\": %d, \"hit_rate\": %.6g",
                       l == 0 ? "" : ", ", l, c.proxies, c.hit_rate);
          for (const iolsim::CdnLevelCounter& counter : iolsim::kCdnLevelCounters) {
            std::fprintf(f, ", \"%s\": %llu", counter.name,
                         static_cast<unsigned long long>(c.*counter.field));
          }
          std::fprintf(f, "}");
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
  // One row: the plotted point plus the experiment result it came from. A
  // default result reads as a fault-free single-tier run (zeros, availability
  // 1.0), which is what Add/AddPerf rows serialize.
  struct Row {
    Row(std::string s, double px, double v) : series(std::move(s)), x(px), value(v) {}
    std::string series;
    double x;
    double value;
    bool has_latency = false;
    bool has_perf = false;
    double events_per_sec = 0;
    ioldrv::ExperimentResult result;
    std::string raw;  // AddRaw's object; the fields above are unused.
  };
  std::string figure_;
  std::string path_;
  bool smoke_;
  bool attempted_ = false;
  bool ok_ = false;
  std::vector<Row> rows_;
};

// A series x points table. Row i runs cell(i, s) for every series s, then
// `extra` more cells (s = series.size(), ...) that only the ratio columns
// read. It prints labels[i], each series' Mb/s and the ratio columns, adds
// each series' result to the JSON document as (series[s] + suffix[i], x[i])
// and then calls `after`.
struct Sweep {
  std::vector<std::string> series;
  std::vector<double> x;
  std::vector<std::string> labels;
  std::vector<std::string> suffix;  // Empty: no suffix on any row.
  std::function<Cell(size_t i, size_t s)> cell;
  size_t extra = 0;
  std::function<std::vector<double>(size_t i, const std::vector<ioldrv::ExperimentResult>&)>
      ratios;
  std::function<void(size_t i, const std::vector<ioldrv::ExperimentResult>&)> after;
  bool value_rows = false;  // JSON rows carry the Mb/s value only.
};

// One figure binary: its command line (--smoke, --json <path>), header,
// JSON document and closing claim.
class Figure {
 public:
  Figure(std::string name, int argc, char** argv) : json_(std::move(name), Parse(argc, argv)) {}
  Figure(const Figure&) = delete;
  Figure& operator=(const Figure&) = delete;

  const BenchOptions& opts() const { return opts_; }
  bool smoke() const { return opts_.smoke; }
  JsonReporter& json() { return json_; }

  void Header(const std::string& title, const std::string& columns) const {
    std::printf("# %s\n%s\n", title.c_str(), columns.c_str());
  }

  // Runs `cell`, scaled down in smoke mode.
  CellRun Run(const Cell& cell) const { return RunCell(opts_.Scale(cell)); }

  void Run(const Sweep& sweep) {
    size_t cells = sweep.series.size() + sweep.extra;
    for (size_t i = 0; i < sweep.x.size(); ++i) {
      std::vector<ioldrv::ExperimentResult> row;
      for (size_t s = 0; s < cells; ++s) {
        row.push_back(Run(sweep.cell(i, s)).result);
      }
      std::printf("%s", sweep.labels[i].c_str());
      for (size_t s = 0; s < sweep.series.size(); ++s) {
        std::printf("\t%.1f", row[s].megabits_per_sec);
      }
      if (sweep.ratios) {
        for (double ratio : sweep.ratios(i, row)) {
          std::printf("\t%.2f", ratio);
        }
      }
      std::printf("\n");
      for (size_t s = 0; s < sweep.series.size(); ++s) {
        std::string name = sweep.series[s] + (sweep.suffix.empty() ? "" : sweep.suffix[i]);
        if (sweep.value_rows) {
          json_.Add(name, sweep.x[i], row[s].megabits_per_sec);
        } else {
          json_.AddExperiment(name, sweep.x[i], row[s]);
        }
      }
      if (sweep.after) {
        sweep.after(i, row);
      }
    }
  }

  // Prints "# <claim>" (the paper's anchor or the figure's expectation)
  // unless it is empty, then `gates` (full-run acceptance checks, which may
  // print their own lines), and writes the JSON document. The exit status:
  // 0 when the document was written and every gate held.
  int Finish(const std::string& claim, const std::function<bool()>& gates = nullptr) {
    if (!claim.empty()) {
      std::printf("# %s\n", claim.c_str());
    }
    bool ok = gates == nullptr || gates();
    return json_.Flush() && ok ? 0 : 1;
  }

 private:
  const BenchOptions& Parse(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--smoke") == 0) {
        opts_.smoke = true;
      } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
        opts_.json_path = argv[++i];
      } else {
        std::fprintf(stderr, "usage: %s [--smoke] [--json <path>]\n", argv[0]);
        std::exit(2);
      }
    }
    return opts_;
  }

  BenchOptions opts_;
  JsonReporter json_;
};

// One sweep row per document size (x: KB).
inline void AddSizes(Sweep* sweep, const std::vector<size_t>& sizes) {
  for (size_t size : sizes) {
    sweep->x.push_back(size / 1024.0);
    sweep->labels.push_back(Fmt("%.1f", size / 1024.0));
  }
}

// The 150 MB MERGED subtrace of Figures 10-12. The log is longer than
// Figure 9's 28403 requests so its prefixes can cover the full 150 MB of
// distinct data (the real log's every file appears at least once by
// construction; a Zipf sample needs more draws to touch the tail).
inline iolwl::Trace SubtraceLog(bool smoke) {
  iolwl::TraceSpec spec = iolwl::SubtraceSpec();
  spec.num_requests = smoke ? 20000 : 400000;
  return iolwl::Trace::Generate(spec);
}

// Figures 10 and 11: nine prefixes of the subtrace, one sweep row each (x:
// the prefix's data set size in MB).
inline std::vector<iolwl::Trace> SubtracePrefixes(bool smoke, Sweep* sweep) {
  iolwl::Trace full = SubtraceLog(smoke);
  std::vector<iolwl::Trace> prefixes;
  for (uint64_t mb : {10, 25, 50, 75, 90, 105, 120, 135, 150}) {
    prefixes.push_back(full.Prefix(mb << 20));
    sweep->x.push_back(prefixes.back().total_bytes() / 1048576.0);
    sweep->labels.push_back(Fmt("%.0f", sweep->x.back()));
  }
  return prefixes;
}

// Figure 12's delay points: the client population scales with the RTT to
// keep the server saturated.
struct Fig12Point {
  const char* label;
  iolsim::SimTime rtt;
  int clients;
};
inline constexpr Fig12Point kFig12Points[] = {
    {"LAN", 0, 64},
    {"5ms", 5 * iolsim::kMillisecond, 92},
    {"50ms", 50 * iolsim::kMillisecond, 343},
    {"100ms", 100 * iolsim::kMillisecond, 621},
    {"150ms", 150 * iolsim::kMillisecond, 900},
};

// Figure 12's data set: the subtrace's 120 MB prefix.
inline iolwl::Trace Fig12Prefix(bool smoke) { return SubtraceLog(smoke).Prefix(120ull << 20); }

inline Cell Fig12Cell(ServerKind kind, const iolwl::Trace* prefix, const Fig12Point& point) {
  Cell cell = TraceCell(kind, prefix, point.clients, 80000, 30000);
  cell.config.delay.one_way_delay = point.rtt / 2;
  return cell;
}

}  // namespace iolbench

#endif  // BENCH_BENCH_UTIL_H_
