// iolite_bench: runs one benchmark workload in this process and prints one
// JSON object on stdout. benchmark/run.py drives it; README.md describes
// the workloads, the metrics and the layer each metric belongs to.
//
//   iolite_bench --workload <name> [--seed N] [--scale F] [--trace]
//                [--spans <path>]
//
// --seed 0 reproduces the figure benches' seeds; any other value derives a
// fresh seed for the workload's generators (trace, arrivals, edge mix,
// write plan, Poisson; merged-open keeps its trace, see there). --scale
// multiplies every run length. --trace attaches the resource taps, runs the
// probes and the workload's reference reruns, and adds the per-layer
// metrics; --spans then also writes every 1000th tapped acquisition as a
// Chrome trace.
//
// Set-up (everything before the timed run) is built several times, each
// build replacing the last, and setup_s is the median build time. Every
// workload is built from src/ public APIs, with one exception noted at
// ProxyCpuMember below.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "benchmark/probes.h"
#include "benchmark/tap.h"
#include "src/cdn/cdn_topology.h"
#include "src/cdn/write_plan.h"
#include "src/driver/cdn_tier.h"
#include "src/driver/edge_mix.h"
#include "src/driver/experiment.h"
#include "src/driver/process_tier.h"
#include "src/driver/sharded_experiment.h"
#include "src/driver/telemetry.h"
#include "src/driver/workload.h"
#include "src/httpd/http_server.h"
#include "src/httpd/response_header.h"
#include "src/proxy/proxy_server.h"
#include "src/system/system.h"
#include "src/workload/trace.h"

#ifndef IOLITE_BENCH_BUILD_TYPE
#define IOLITE_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef IOLITE_BENCH_CXX_FLAGS
#define IOLITE_BENCH_CXX_FLAGS ""
#endif

namespace {

using iolbench::ResourceTap;
using iolsim::SimTime;

// ProxyServer keeps the CPU Resource its stages run on private, and the tap
// must see it. Access checking does not apply to the template arguments of
// an explicit instantiation, which is how this reads the member function
// pointer without a change to src/. Renaming ProxyServer::proxy_cpu breaks
// this build; README.md lists it among the entry points.
using ProxyCpuFn = iolsim::Resource* (iolproxy::ProxyServer::*)();
ProxyCpuFn ProxyCpuMember();
template <ProxyCpuFn kFn>
struct ProxyCpuAccess {
  friend ProxyCpuFn ProxyCpuMember() { return kFn; }
};
template struct ProxyCpuAccess<&iolproxy::ProxyServer::proxy_cpu>;

constexpr uint64_t kSpanEvery = 1000;
constexpr int kSetupReps = 5;
constexpr int kMaxSetupReps = 50;
constexpr double kSetupSeconds = 0.02;

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double scale = 1.0;
  bool trace = false;
  std::string spans_path;

  uint64_t Scaled(uint64_t full) const {
    return std::max<uint64_t>(1, static_cast<uint64_t>(std::llround(full * scale)));
  }

  // The figure bench's seed for seed 0, else one derived per stream.
  uint64_t SeedFor(uint64_t figure_seed, uint64_t stream) const {
    if (seed == 0) {
      return figure_seed;
    }
    iolsim::Rng rng(seed * 0x9e3779b97f4a7c15ull + stream);
    return rng.Next();
  }
};

double Ratio(double num, double den) { return den != 0 ? num / den : 0; }

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// ------------------------------------------------------------------ output

class Report {
 public:
  void Metric(const std::string& name, double value) { metrics_[name] = value; }
  double metric(const std::string& name) const { return metrics_.at(name); }
  void Check(const std::string& name, bool ok) { checks_[name] = ok; }
  void set_fingerprint(uint64_t f) { fingerprint_ = f; }
  void set_counts(uint64_t target, uint64_t attempted, uint64_t failed) {
    target_ = target;
    attempted_ = attempted;
    failed_ = failed;
  }

  void Print(const Options& o) const {
#ifdef NDEBUG
    const bool asserts = false;
#else
    const bool asserts = true;
#endif
    std::printf("{\"workload\": \"%s\", \"seed\": %" PRIu64 ", \"scale\": %.17g, ",
                o.workload.c_str(), o.seed, o.scale);
    std::printf("\"traced\": %s, \"target\": %" PRIu64 ", \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"fingerprint\": \"%016" PRIx64 "\", ",
                o.trace ? "true" : "false", target_, attempted_, failed_, fingerprint_);
    std::printf("\"build\": {\"type\": \"%s\", \"asserts\": %s, \"compiler\": \"%s\", "
                "\"flags\": \"%s\", \"nproc\": %ld}, ",
                IOLITE_BENCH_BUILD_TYPE, asserts ? "true" : "false", __VERSION__,
                IOLITE_BENCH_CXX_FLAGS, sysconf(_SC_NPROCESSORS_ONLN));
    std::printf("\"checks\": {");
    const char* sep = "";
    for (const auto& [name, ok] : checks_) {
      std::printf("%s\"%s\": %s", sep, name.c_str(), ok ? "true" : "false");
      sep = ", ";
    }
    std::printf("}, \"metrics\": {");
    sep = "";
    for (const auto& [name, value] : metrics_) {
      std::printf("%s\"%s\": %.17g", sep, name.c_str(), std::isfinite(value) ? value : 0.0);
      sep = ", ";
    }
    std::printf("}}\n");
  }

 private:
  std::map<std::string, double> metrics_;
  std::map<std::string, bool> checks_;
  uint64_t fingerprint_ = 0;
  uint64_t target_ = 0;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// ------------------------------------------------------- host measurement

double WallSeconds() { return static_cast<double>(iolbench::HostNs()) * 1e-9; }

// User + system CPU of this process and of its reaped children.
double CpuSeconds() {
  double s = 0;
  for (int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage u{};
    getrusage(who, &u);
    s += static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) * 1e-6;
  }
  return s;
}

double PeakRssMb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;
}

struct Phase {
  double wall_s = 0;
  double cpu_s = 0;
};

template <typename F>
Phase Measure(F&& f) {
  double w0 = WallSeconds();
  double c0 = CpuSeconds();
  f();
  return Phase{WallSeconds() - w0, CpuSeconds() - c0};
}

// Named set-up phases, timed over repeated builds of one workload.
class SetupClock {
 public:
  template <typename F>
  void Time(const std::string& phase, F&& f) {
    double t0 = WallSeconds();
    f();
    rep_[phase] += WallSeconds() - t0;
  }

  void EndRep() {
    double total = 0;
    for (const auto& [phase, s] : rep_) {
      phases_[phase].push_back(s);
      total += s;
    }
    totals_.push_back(total);
    rep_.clear();
  }

  double median_total() const { return Median(totals_); }

  double median(const std::string& phase) const {
    auto it = phases_.find(phase);
    return it == phases_.end() ? 0 : Median(it->second);
  }

 private:
  std::map<std::string, double> rep_;
  std::map<std::string, std::vector<double>> phases_;
  std::vector<double> totals_;
};

// Builds a workload's world repeatedly, each build replacing (and first
// destroying) the last, and returns the final one: at least kSetupReps
// builds, and more, up to kMaxSetupReps, while they add up to less than
// kSetupSeconds, so that microsecond set-ups still yield a steady median.
template <typename World, typename BuildFn>
std::unique_ptr<World> SetUp(SetupClock* clock, BuildFn&& build) {
  std::unique_ptr<World> world;
  double start = WallSeconds();
  for (int rep = 0; rep < kSetupReps ||
                    (rep < kMaxSetupReps && WallSeconds() - start < kSetupSeconds);
       ++rep) {
    world.reset();
    world = build(clock);
    clock->EndRep();
  }
  return world;
}

// FNV-1a over 64-bit words.
class Fnv {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 1099511628211ull;
    }
  }

  void AddRecords(const ioldrv::Telemetry& t) {
    for (const ioldrv::RequestRecord& r : t.records()) {
      Add(static_cast<uint64_t>(r.issue));
      Add(static_cast<uint64_t>(r.admit));
      Add(static_cast<uint64_t>(r.complete));
      Add(r.bytes);
      Add(r.server);
      Add(r.tenant);
      Add(static_cast<uint64_t>(r.outcome));
      Add(r.attempts);
      Add(r.cache_hit ? 1 : 0);
      Add(r.counted ? 1 : 0);
    }
  }

  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ull;
};

// --------------------------------------------------------- run accounting

// SimStats counters the per-layer metrics read, as run deltas.
struct Counts {
  uint64_t events = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;
  uint64_t disk_bytes_read = 0;
  uint64_t packets_sent = 0;
  uint64_t bytes_checksummed = 0;
  uint64_t cksum_hits = 0;
  uint64_t cksum_misses = 0;
  uint64_t bytes_copied = 0;
  uint64_t buffers_allocated = 0;

  static Counts Of(const iolsim::SimStats& s) {
    Counts c;
    c.events = s.events_dispatched;
    c.cache_hits = s.cache_hits;
    c.cache_misses = s.cache_misses;
    c.cache_evictions = s.cache_evictions;
    c.disk_bytes_read = s.disk_bytes_read;
    c.packets_sent = s.packets_sent;
    c.bytes_checksummed = s.bytes_checksummed;
    c.cksum_hits = s.checksum_cache_hits;
    c.cksum_misses = s.checksum_cache_misses;
    c.bytes_copied = s.bytes_copied;
    c.buffers_allocated = s.buffers_allocated;
    return c;
  }

  void AddDelta(const Counts& before, const Counts& after) {
    events += after.events - before.events;
    cache_hits += after.cache_hits - before.cache_hits;
    cache_misses += after.cache_misses - before.cache_misses;
    cache_evictions += after.cache_evictions - before.cache_evictions;
    disk_bytes_read += after.disk_bytes_read - before.disk_bytes_read;
    packets_sent += after.packets_sent - before.packets_sent;
    bytes_checksummed += after.bytes_checksummed - before.bytes_checksummed;
    cksum_hits += after.cksum_hits - before.cksum_hits;
    cksum_misses += after.cksum_misses - before.cksum_misses;
    bytes_copied += after.bytes_copied - before.bytes_copied;
    buffers_allocated += after.buffers_allocated - before.buffers_allocated;
  }
};

// Everything a simulated workload accumulates over its timed runs.
struct SimRun {
  double setup_s = 0;
  Phase run;             // The timed runs.
  uint64_t served = 0;   // Completions, warmup included.
  uint64_t counted = 0;  // Post-warmup completions.
  uint64_t target = 0;   // Post-warmup completions the configuration asks for.
  uint64_t per_server = 0;
  uint64_t failed = 0;
  uint64_t latency_samples = 0;
  Counts counts;
  Fnv fold;

  void Add(const ioldrv::ExperimentResult& r, uint64_t warmup, uint64_t target_requests) {
    served += r.requests + warmup;
    counted += r.requests;
    target += target_requests;
    for (const ioldrv::ServerShare& s : r.per_server) {
      per_server += s.requests;
    }
    failed += r.failed_requests;
    latency_samples += r.latency.count;
  }
};

// The taps of one process, one per simulated machine.
class Tracer {
 public:
  // Taps only when `on`; Finish writes the sampled spans to `spans_path`
  // when it is not empty.
  Tracer(bool on, std::string spans_path) : on_(on), spans_path_(std::move(spans_path)) {}
  explicit Tracer(const Options& o) : Tracer(o.trace, o.spans_path) {}

  // Taps the machine's own CPU, disk and front link; null when tracing is off.
  ResourceTap* TapMachine(iolsim::SimContext* ctx) {
    if (!on_) {
      return nullptr;
    }
    taps_.push_back(std::make_unique<ResourceTap>(&ctx->clock(),
                                                  static_cast<int>(taps_.size()), kSpanEvery));
    ResourceTap* tap = taps_.back().get();
    tap->Attach(&ctx->cpu(), iolbench::kTapCpu);
    tap->Attach(&ctx->disk(), iolbench::kTapDisk);
    tap->Attach(&ctx->link(), iolbench::kTapLink);
    return tap;
  }

  // Closes every tap (call before the tapped machines are destroyed), then
  // writes the spans.
  void Finish() {
    for (auto& tap : taps_) {
      tap->Close();
    }
    if (!spans_path_.empty()) {
      WriteSpans();
    }
  }

  // Tap-derived per-layer metrics. Call after Finish.
  void ReportLayers(Report* rep, const SimRun& sr) const {
    ResourceTap::KindStats k[iolbench::kTapKinds];
    uint64_t acquisitions = 0;
    uint64_t depth_sum = 0;
    int64_t continuation_ns = 0;
    for (const auto& tap : taps_) {
      for (int i = 0; i < iolbench::kTapKinds; ++i) {
        const ResourceTap::KindStats& s = tap->stats(i);
        k[i].host_ns += s.host_ns;
        k[i].busy_ns += s.busy_ns;
        k[i].capacity_ns += s.capacity_ns;
        k[i].waits.Merge(s.waits);
        acquisitions += s.acquisitions;
        depth_sum += s.queue_depth_sum;
        continuation_ns += s.host_ns;
      }
    }
    double served = static_cast<double>(sr.served);
    double depth = Ratio(static_cast<double>(depth_sum), static_cast<double>(acquisitions));
    rep->Metric("simos.queue_depth", depth);
    rep->Metric("simos.dispatch_ns", iolbench::ProbeDispatchNs(static_cast<size_t>(depth + 0.5)));
    // CPU, not wall: fleet-sharded runs continuations on several threads.
    rep->Metric("simos.engine_ns_per_req",
                Ratio(sr.run.cpu_s * 1e9 - static_cast<double>(continuation_ns), served));
    auto util = [&](int kind) {
      return Ratio(static_cast<double>(k[kind].busy_ns), static_cast<double>(k[kind].capacity_ns));
    };
    auto wait_p99_ms = [&](int kind) {
      return static_cast<double>(k[kind].waits.Quantile(0.99)) / 1e6;
    };
    auto stage_ns = [&](int kind) { return Ratio(static_cast<double>(k[kind].host_ns), served); };
    for (int kind : {iolbench::kTapCpu, iolbench::kTapDisk, iolbench::kTapLink}) {
      std::string prefix = std::string("simos.") + iolbench::TapKindName(kind);
      rep->Metric(prefix + ".util", util(kind));
      rep->Metric(prefix + ".wait_p99_ms", wait_p99_ms(kind));
    }
    rep->Metric("proxy.cpu.util", util(iolbench::kTapProxyCpu));
    rep->Metric("proxy.cpu.wait_p99_ms", wait_p99_ms(iolbench::kTapProxyCpu));
    rep->Metric("httpd.cpu_stage_ns_per_req", stage_ns(iolbench::kTapCpu));
    rep->Metric("proxy.cpu_stage_ns_per_req", stage_ns(iolbench::kTapProxyCpu));
    rep->Metric("fs.disk_stage_ns_per_req", stage_ns(iolbench::kTapDisk));
    rep->Metric("net.link_stage_ns_per_req", stage_ns(iolbench::kTapLink));
  }

  // Writes the sampled spans as Chrome-trace "complete" events: one
  // process per tapped machine, one thread per resource kind.
  void WriteSpans() const {
    std::FILE* f = std::fopen(spans_path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "iolite_bench: cannot write %s\n", spans_path_.c_str());
      std::exit(1);
    }
    int64_t origin = INT64_MAX;
    for (const auto& tap : taps_) {
      for (const iolbench::TapSpan& s : tap->spans()) {
        origin = std::min(origin, s.host_start);
      }
    }
    std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [");
    const char* sep = "\n";
    for (const auto& tap : taps_) {
      for (const iolbench::TapSpan& s : tap->spans()) {
        if (s.host_end == 0) {
          continue;  // Granted after the run stopped; never resumed.
        }
        std::fprintf(f,
                     "%s{\"name\": \"%s\", \"cat\": \"tap\", \"ph\": \"X\", \"pid\": %d, "
                     "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"sim_at_ns\": %" PRId64
                     ", \"sim_wait_ns\": %" PRId64 ", \"sim_service_ns\": %" PRId64 "}}",
                     sep, iolbench::TapKindName(s.kind), s.lane, s.kind,
                     static_cast<double>(s.host_start - origin) / 1e3,
                     static_cast<double>(s.host_end - s.host_start) / 1e3, s.at, s.wait,
                     s.service);
        sep = ",\n";
      }
    }
    std::fprintf(f, "\n]}\n");
    if (std::fclose(f) != 0) {
      std::fprintf(stderr, "iolite_bench: cannot write %s\n", spans_path_.c_str());
      std::exit(1);
    }
  }

 private:
  bool on_;
  std::string spans_path_;
  std::vector<std::unique_ptr<ResourceTap>> taps_;
};

// Runs `run` (returning the ExperimentResult) as one timed run on the
// machine `ctx`, and folds its record stream, final clock and event count
// into the fingerprint.
template <typename RunFn>
ioldrv::ExperimentResult TimedRun(SimRun* sr, iolsim::SimContext* ctx,
                                  const ioldrv::Telemetry& sink, uint64_t warmup,
                                  uint64_t target, RunFn&& run) {
  Counts before = Counts::Of(ctx->stats());
  ioldrv::ExperimentResult r;
  Phase p = Measure([&] { r = run(); });
  sr->run.wall_s += p.wall_s;
  sr->run.cpu_s += p.cpu_s;
  sr->counts.AddDelta(before, Counts::Of(ctx->stats()));
  sr->Add(r, warmup, target);
  sr->fold.AddRecords(sink);
  sr->fold.Add(static_cast<uint64_t>(ctx->clock().now()));
  sr->fold.Add(r.events_dispatched);
  return r;
}

void ReportEndToEnd(Report* rep, const SimRun& sr) {
  rep->Metric("setup_s", sr.setup_s);
  rep->Metric("req_per_s", Ratio(static_cast<double>(sr.served), sr.run.wall_s));
  rep->Metric("cpu_s", sr.run.cpu_s);
  rep->Metric("peak_rss_mb", PeakRssMb());
  rep->Metric("fail_frac", Ratio(static_cast<double>(sr.failed), static_cast<double>(sr.counted)));
  rep->Check("requests_match_target", sr.counted == sr.target);
  rep->Check("per_server_sum_matches", sr.per_server == sr.counted);
  rep->Check("no_failures", sr.failed == 0);
  rep->set_counts(sr.target, sr.served, sr.failed);
  rep->set_fingerprint(sr.fold.value());
}

void ReportSim(Report* rep, const ioldrv::ExperimentResult& r) {
  rep->Metric("sim_mbps", r.megabits_per_sec);
  rep->Metric("sim_p50_ms", r.latency.p50_ms);
  rep->Metric("sim_p99_ms", r.latency.p99_ms);
}

// SimStats-derived per-layer metrics (traced passes).
void ReportCounts(Report* rep, const SimRun& sr) {
  const Counts& c = sr.counts;
  double served = static_cast<double>(sr.served);
  auto per_req = [served](uint64_t n) { return Ratio(static_cast<double>(n), served); };
  rep->Metric("simos.events_per_req", per_req(c.events));
  rep->Metric("simos.events_per_s", Ratio(static_cast<double>(c.events), sr.run.wall_s));
  rep->Metric("fs.hit_rate", Ratio(static_cast<double>(c.cache_hits),
                                   static_cast<double>(c.cache_hits + c.cache_misses)));
  rep->Metric("fs.evictions_per_kreq", 1000.0 * per_req(c.cache_evictions));
  rep->Metric("fs.disk_bytes_per_req", per_req(c.disk_bytes_read));
  rep->Metric("net.packets_per_req", per_req(c.packets_sent));
  rep->Metric("net.cksum_bytes_per_req", per_req(c.bytes_checksummed));
  rep->Metric("net.cksum_cache_hit_rate", Ratio(static_cast<double>(c.cksum_hits),
                                                static_cast<double>(c.cksum_hits + c.cksum_misses)));
  rep->Metric("iolite.bytes_copied_per_req", per_req(c.bytes_copied));
  rep->Metric("iolite.buffers_allocated_per_req", per_req(c.buffers_allocated));
  rep->Metric("driver.latency_samples", static_cast<double>(sr.latency_samples));
}

// Probe inputs taken from one of the run's machines.
struct ProbeInputs {
  iolsys::System* sys = nullptr;
  // (file, length) pairs in popularity order, for the cache-lookup probe.
  std::vector<std::pair<iolfs::FileId, uint64_t>> popular;
  // Whole files in request order, for the disk-fill probe.
  std::vector<std::pair<iolfs::FileId, uint64_t>> fills;
  uint64_t response_bytes = 0;  // Typical response body.
};

// Probes plus the shares they imply: count x probe cost / run wall.
void ReportProbes(Report* rep, const SimRun& sr, const ProbeInputs& in) {
  double wall_ns = sr.run.wall_s * 1e9;
  double lookup_ns = iolbench::ProbeLookupNs(&in.sys->cache(), in.popular);
  double fill = iolbench::ProbeFillNsPerByte(&in.sys->fs(), in.fills);
  // Checksum cost per byte at the typical response size: the first fill
  // file at least that large.
  auto sized = std::find_if(in.fills.begin(), in.fills.end(),
                            [&](const auto& f) { return f.second >= in.response_bytes; });
  double cksum = sized == in.fills.end()
                     ? 0
                     : iolbench::ProbeChecksumNsPerByte(&in.sys->fs(), sized->first,
                                                        in.response_bytes);
  double cksum_cache =
      iolbench::ProbeChecksumCacheNs(iolsys::SystemOptions{}.checksum_cache_entries);
  double dma = iolbench::ProbeDmaNsPerByte(in.sys->runtime().kernel_pool(), in.response_bytes);
  const Counts& c = sr.counts;
  rep->Metric("fs.lookup_ns", lookup_ns);
  rep->Metric("fs.fill_ns_per_byte", fill);
  rep->Metric("fs.fill_share", Ratio(static_cast<double>(c.disk_bytes_read) * fill, wall_ns));
  rep->Metric("net.cksum_ns_per_byte", cksum);
  rep->Metric("net.cksum_share", Ratio(static_cast<double>(c.bytes_checksummed) * cksum, wall_ns));
  rep->Metric("net.cksum_cache_ns", cksum_cache);
  rep->Metric("net.cksum_cache_share",
              Ratio(static_cast<double>(c.cksum_hits + c.cksum_misses) * cksum_cache, wall_ns));
  rep->Metric("iolite.dma_fill_ns_per_byte", dma);
}

// Traced-pass reporting shared by the single-machine workloads.
void ReportTraced(Report* rep, const SimRun& sr, const Tracer& tracer, const ProbeInputs& in) {
  ReportCounts(rep, sr);
  tracer.ReportLayers(rep, sr);
  ReportProbes(rep, sr, in);
}

void ReportSetupPhases(Report* rep, const SetupClock& setup) {
  rep->Metric("workload.trace_gen_s", setup.median("trace_gen"));
  rep->Metric("workload.materialize_s", setup.median("materialize"));
  rep->Metric("workload.build_s", setup.median("build"));
}

// ------------------------------------------------------------- machines

std::unique_ptr<iolsys::System> MakeLiteSystem(int cpus = 1, int disks = 1) {
  iolsys::SystemOptions options;
  options.cost.cpu_count = cpus;
  options.cost.disk_count = disks;
  options.policy = iolsys::SystemOptions::Policy::kGds;
  options.checksum_cache = true;
  return std::make_unique<iolsys::System>(options);
}

std::unique_ptr<iolhttp::HttpServer> MakeLiteServer(iolsys::System* sys) {
  return std::make_unique<iolhttp::FlashLiteServer>(&sys->ctx(), &sys->net(), &sys->io(),
                                                    &sys->runtime());
}

// Probe inputs from a trace materialized as `ids`.
ProbeInputs TraceProbeInputs(iolsys::System* sys, const iolwl::Trace& trace,
                             const std::vector<iolfs::FileId>& ids) {
  ProbeInputs in;
  in.sys = sys;
  const std::vector<uint32_t>& sizes = trace.file_sizes();
  for (size_t rank = 0; rank < sizes.size() && rank < 64; ++rank) {
    in.popular.emplace_back(ids[rank], sizes[rank]);
  }
  uint64_t bytes = 0;
  for (uint32_t rank : trace.requests()) {
    if (bytes >= (8u << 20)) {
      break;
    }
    in.fills.emplace_back(ids[rank], sizes[rank]);
    bytes += sizes[rank];
  }
  in.response_bytes = trace.MeanRequestBytes();
  return in;
}

// ------------------------------------------------------------- workloads

// hot-50k: closed loop, 40 clients, Flash-Lite, one 50 KB document,
// nonpersistent connections.
void RunHot50k(const Options& o, Report* rep) {
  constexpr uint64_t kDocBytes = 50 * 1024;
  constexpr int kClients = 40;
  const uint64_t requests = o.Scaled(2'000'000);
  const uint64_t warmup = o.Scaled(1000);
  struct World {
    std::unique_ptr<iolsys::System> sys;
    std::unique_ptr<iolhttp::HttpServer> server;
    iolfs::FileId doc = iolfs::kInvalidFile;
    std::unique_ptr<ioldrv::Experiment> exp;
  };
  SetupClock setup;
  auto w = SetUp<World>(&setup, [&](SetupClock* clock) {
    auto world = std::make_unique<World>();
    clock->Time("build", [&] {
      world->sys = MakeLiteSystem();
      world->server = MakeLiteServer(world->sys.get());
      world->doc = world->sys->fs().CreateFile("doc", kDocBytes);
      ioldrv::ExperimentConfig config;
      config.max_requests = requests;
      config.warmup_requests = warmup;
      world->exp = std::make_unique<ioldrv::Experiment>(
          &world->sys->ctx(), &world->sys->net(), &world->sys->cache(), world->server.get(),
          config);
    });
    return world;
  });
  SimRun sr;
  sr.setup_s = setup.median_total();
  Tracer tracer(o);
  tracer.TapMachine(&w->sys->ctx());
  ioldrv::ClosedLoop workload(kClients);
  ioldrv::Telemetry sink;
  iolfs::FileId doc = w->doc;
  ioldrv::ExperimentResult r = TimedRun(&sr, &w->sys->ctx(), sink, warmup, requests, [&] {
    return w->exp->Run(&workload, [doc] { return doc; }, &sink);
  });
  tracer.Finish();
  ReportEndToEnd(rep, sr);
  ReportSim(rep, r);
  // Flash-Lite copies only the response header. Requests still in flight
  // when the run stops have built theirs too, hence served + clients.
  rep->Check("copies_at_most_one_header",
             sr.counts.bytes_copied <= (sr.served + kClients) * iolhttp::kResponseHeaderBytes);
  if (o.trace) {
    ProbeInputs in;
    in.sys = w->sys.get();
    in.popular.emplace_back(doc, kDocBytes);
    in.fills.assign(160, {doc, kDocBytes});
    in.response_bytes = kDocBytes;
    ReportTraced(rep, sr, tracer, in);
  }
}

// trace-ece: the paper's Figure 8 cell. Closed loop, 64 clients replaying a
// 120,000-entry ECE sequence in order, memory-model cache budget, GDS.
void RunTraceEce(const Options& o, Report* rep) {
  const uint64_t requests = o.Scaled(300'000);
  const uint64_t warmup = o.Scaled(2000);
  struct World {
    iolwl::Trace trace;
    std::unique_ptr<iolsys::System> sys;
    std::vector<iolfs::FileId> ids;
    std::unique_ptr<iolhttp::HttpServer> server;
    std::unique_ptr<ioldrv::Experiment> exp;
  };
  SetupClock setup;
  auto w = SetUp<World>(&setup, [&](SetupClock* clock) {
    auto world = std::make_unique<World>();
    clock->Time("trace_gen", [&] {
      iolwl::TraceSpec spec = iolwl::EceSpec();
      spec.num_requests = 120'000;
      spec.seed = o.SeedFor(spec.seed, 1);
      world->trace = iolwl::Trace::Generate(spec);
    });
    clock->Time("materialize", [&] {
      world->sys = MakeLiteSystem();
      world->ids = world->trace.Materialize(&world->sys->fs());
    });
    clock->Time("build", [&] {
      world->server = MakeLiteServer(world->sys.get());
      ioldrv::ExperimentConfig config;
      config.max_requests = requests;
      config.warmup_requests = warmup;
      config.enforce_cache_budget = true;
      world->exp = std::make_unique<ioldrv::Experiment>(
          &world->sys->ctx(), &world->sys->net(), &world->sys->cache(), world->server.get(),
          config);
    });
    return world;
  });
  SimRun sr;
  sr.setup_s = setup.median_total();
  Tracer tracer(o);
  tracer.TapMachine(&w->sys->ctx());
  ioldrv::ClosedLoop workload(64);
  ioldrv::Telemetry sink;
  size_t cursor = 0;
  const std::vector<uint32_t>& seq = w->trace.requests();
  ioldrv::ExperimentResult r = TimedRun(&sr, &w->sys->ctx(), sink, warmup, requests, [&] {
    return w->exp->Run(
        &workload, [&]() -> iolfs::FileId { return w->ids[seq[cursor++ % seq.size()]]; },
        &sink);
  });
  tracer.Finish();
  ReportEndToEnd(rep, sr);
  ReportSim(rep, r);
  if (o.trace) {
    ReportSetupPhases(rep, setup);
    ReportTraced(rep, sr, tracer, TraceProbeInputs(w->sys.get(), w->trace, w->ids));
  }
}

// merged-open: open-loop replay of the MERGED-150MB subtrace at fixed
// Poisson rates, one fresh machine per rate. Latency is reported at 150/s;
// capacity is the highest rate that meets the latency limit with no
// growing backlog.
void RunMergedOpen(const Options& o, Report* rep) {
  const std::vector<double> kRates = {100, 125, 150, 175, 200, 300};
  constexpr double kReportRate = 150;
  constexpr double kLatencyLimitMs = 100;
  constexpr SimTime kMaxBacklog = iolsim::kSecond;
  const uint64_t arrivals = o.Scaled(50'000);
  const uint64_t warmup = std::min<uint64_t>(o.Scaled(1000), arrivals / 2);
  struct Cell {
    double rate = 0;
    iolwl::TimestampedLog log;
    std::unique_ptr<iolsys::System> sys;
    std::vector<iolfs::FileId> ids;
    std::unique_ptr<iolhttp::HttpServer> server;
    std::unique_ptr<ioldrv::Experiment> exp;
    std::unique_ptr<ioldrv::TraceReplay> workload;
  };
  struct World {
    iolwl::Trace trace;
    std::vector<std::unique_ptr<Cell>> cells;
  };
  SetupClock setup;
  auto w = SetUp<World>(&setup, [&](SetupClock* clock) {
    auto world = std::make_unique<World>();
    // The subtrace keeps the figure's seed for every --seed: a round replays
    // a few thousand requests of a heavy-tailed size mix, and a fresh trace
    // per seed moved req_per_s by 12% between seeds. The seed drives the
    // arrival times.
    clock->Time("trace_gen", [&] {
      iolwl::TraceSpec spec = iolwl::SubtraceSpec();
      spec.num_requests = arrivals;
      world->trace = iolwl::Trace::Generate(spec);
    });
    for (double rate : kRates) {
      Cell& c = *world->cells.emplace_back(std::make_unique<Cell>());
      c.rate = rate;
      clock->Time("materialize", [&] {
        c.log = iolwl::SynthesizeArrivals(world->trace, c.rate, o.SeedFor(4242, 3));
        c.sys = MakeLiteSystem();
        c.ids = world->trace.Materialize(&c.sys->fs());
      });
      clock->Time("build", [&] {
        c.server = MakeLiteServer(c.sys.get());
        ioldrv::ExperimentConfig config;
        config.max_requests = c.log.entries.size();
        config.warmup_requests = warmup;
        config.enforce_cache_budget = true;
        c.exp = std::make_unique<ioldrv::Experiment>(&c.sys->ctx(), &c.sys->net(),
                                                     &c.sys->cache(), c.server.get(), config);
        c.workload = std::make_unique<ioldrv::TraceReplay>(&c.log, c.ids, 16);
      });
    }
    return world;
  });
  SimRun sr;
  sr.setup_s = setup.median_total();
  Tracer tracer(o);
  double capacity = 0;
  ioldrv::ExperimentResult reported;
  Cell* probe_cell = nullptr;
  for (std::unique_ptr<Cell>& cell : w->cells) {
    Cell& c = *cell;
    ResourceTap* tap = tracer.TapMachine(&c.sys->ctx());
    ioldrv::Telemetry sink;
    // Every arrival is pinned by the log; the fallback source is never asked.
    const std::vector<iolfs::FileId>& ids = c.ids;
    ioldrv::ExperimentResult r =
        TimedRun(&sr, &c.sys->ctx(), sink, warmup, c.log.entries.size() - warmup, [&] {
          return c.exp->Run(c.workload.get(), [&ids] { return ids[0]; }, &sink);
        });
    SimTime backlog = c.sys->ctx().clock().now() - c.log.entries.back().at;
    if (r.latency.p99_ms <= kLatencyLimitMs && backlog < kMaxBacklog) {
      capacity = std::max(capacity, c.rate);
    }
    if (tap != nullptr) {
      tap->Close();
    }
    if (c.rate == kReportRate) {
      reported = r;
      probe_cell = &c;
    } else {
      cell.reset();  // Free the machine; only the reported cell is probed.
    }
  }
  tracer.Finish();
  ReportEndToEnd(rep, sr);
  ReportSim(rep, reported);
  rep->Metric("sim_capacity_rps", capacity);
  if (o.trace) {
    ReportSetupPhases(rep, setup);
    ReportTraced(rep, sr, tracer,
                 TraceProbeInputs(probe_cell->sys.get(), w->trace, probe_cell->ids));
  }
}

// cdn-writes: a 3-level tree (4 -> 2 -> 1) over two Flash-Lite origins,
// invalidation consistency, origin writes on metro-0's hot set, three
// metro populations plus a flooder, persistent connections.
void RunCdnWrites(const Options& o, Report* rep) {
  static constexpr int kOrigins = 2;
  static constexpr uint64_t kDocBytes = 16 * 1024;
  static constexpr int kMetros = 3;
  static constexpr int kMetroDocs = 16;
  static constexpr int kMetroHot = 12;
  static constexpr int kFlooderDocs = 512;
  static constexpr size_t kFloodLo = static_cast<size_t>(kMetros) * kMetroDocs;
  static constexpr uint64_t kTotalBudget = 3 * 512 * 1024;
  static constexpr double kEdgeHeavy[3] = {0.6, 0.3, 0.1};
  static constexpr int kCounts[3] = {4, 2, 1};
  const uint64_t requests = o.Scaled(200'000);
  struct World {
    std::unique_ptr<iolsys::System> sys;
    std::vector<iolfs::FileId> ids;
    std::vector<std::unique_ptr<iolhttp::HttpServer>> servers;
    std::unique_ptr<ioldrv::CdnTier> tier;
    std::unique_ptr<iolcdn::WritePlan> writes;
    std::unique_ptr<ioldrv::EdgeMix> mix;
  };
  SetupClock setup;
  auto w = SetUp<World>(&setup, [&](SetupClock* clock) {
    auto world = std::make_unique<World>();
    clock->Time("build", [&] {
      world->sys = MakeLiteSystem(kOrigins, kOrigins);
      iolsys::System* sys = world->sys.get();
      for (size_t i = 0; i < kFloodLo + kFlooderDocs; ++i) {
        world->ids.push_back(sys->fs().CreateFile("doc" + std::to_string(i), kDocBytes));
      }
      std::vector<iolhttp::HttpServer*> members;
      for (int i = 0; i < kOrigins; ++i) {
        world->servers.push_back(MakeLiteServer(sys));
        members.push_back(world->servers.back().get());
      }
      iolcdn::CdnTopology topo;
      for (int l = 0; l < 3; ++l) {
        iolcdn::CdnLevelSpec level;
        level.count = kCounts[l];
        level.cache_bytes = static_cast<uint64_t>(kTotalBudget * kEdgeHeavy[l] / kCounts[l]);
        topo.levels.push_back(level);
      }
      topo.protocol = iolproxy::ConsistencyMode::kInvalidate;
      topo.ttl = 40 * iolsim::kMillisecond;
      iolproxy::ProxyConfig pc;
      pc.data_path = iolproxy::ProxyDataPath::kIoLite;
      pc.backhaul = iolproxy::BackhaulMode::kRemote;
      ioldrv::ExperimentConfig config;
      config.persistent_connections = true;
      config.max_requests = requests;
      world->tier = std::make_unique<ioldrv::CdnTier>(&sys->ctx(), &sys->net(), &sys->io(),
                                                      &sys->runtime(), ioldrv::Fleet(members),
                                                      topo, pc, config);
      iolcdn::WritePlanSpec wspec;
      wspec.writes_per_sec = 800;
      wspec.num_files = kMetroHot;  // Metro-0's hot set.
      wspec.hot_bias = 0;
      wspec.seed = o.SeedFor(31, 4);
      world->writes =
          std::make_unique<iolcdn::WritePlan>(&sys->ctx(), &world->tier->authority(), wspec);
      world->tier->set_write_plan(world->writes.get());

      const std::vector<iolfs::FileId>* ids = &world->ids;
      std::vector<ioldrv::EdgePopulationSpec> pops;
      for (int m = 0; m < kMetros; ++m) {
        auto rng = std::make_shared<iolsim::Rng>(o.SeedFor(1000 + m, 5 + m));
        size_t lo = static_cast<size_t>(m) * kMetroDocs;
        pops.push_back({"metro-" + std::to_string(m), 2, [rng, ids, lo]() -> iolfs::FileId {
                          // Zipf-like: u^3 concentrates on the low ranks.
                          double u = rng->NextDouble();
                          size_t r = static_cast<size_t>(u * u * u * kMetroHot);
                          return (*ids)[lo + std::min<size_t>(r, kMetroHot - 1)];
                        }});
      }
      auto flood = std::make_shared<iolsim::Rng>(o.SeedFor(777, 8));
      pops.push_back({"flooder", 6, [flood, ids]() -> iolfs::FileId {
                        return (*ids)[kFloodLo + flood->NextBelow(kFlooderDocs)];
                      }});
      world->mix = std::make_unique<ioldrv::EdgeMix>(std::move(pops));
    });
    return world;
  });
  SimRun sr;
  sr.setup_s = setup.median_total();
  Tracer tracer(o);
  ioldrv::CdnTier& tier = *w->tier;
  if (ResourceTap* tap = tracer.TapMachine(&w->sys->ctx())) {
    for (int l = 0; l < tier.level_count(); ++l) {
      for (int i = 0; i < tier.proxies_at(l); ++i) {
        tap->Attach((tier.proxy(l, i).*ProxyCpuMember())(), iolbench::kTapProxyCpu);
      }
    }
  }
  ioldrv::Telemetry sink;
  const std::vector<iolfs::FileId>& ids = w->ids;
  ioldrv::ExperimentResult r = TimedRun(&sr, &w->sys->ctx(), sink, 0, requests, [&] {
    return tier.Run(w->mix.get(), [&ids] { return ids[0]; }, &sink);
  });
  tracer.Finish();
  ReportEndToEnd(rep, sr);
  ReportSim(rep, r);
  if (o.trace) {
    ProbeInputs in;
    in.sys = w->sys.get();
    for (size_t i = 0; i < kFloodLo; ++i) {
      in.popular.emplace_back(ids[i], kDocBytes);
    }
    for (size_t i = 0; i < kFlooderDocs; ++i) {
      in.fills.emplace_back(ids[kFloodLo + i], kDocBytes);
    }
    in.response_bytes = kDocBytes;
    ReportTraced(rep, sr, tracer, in);
    double served = static_cast<double>(sr.served);
    uint64_t backhaul = 0;
    uint64_t applied = 0;
    uint64_t races = 0;
    for (size_t l = 0; l < r.cdn_levels.size(); ++l) {
      const ioldrv::ExperimentResult::CdnLevelResult& level = r.cdn_levels[l];
      rep->Metric("cdn.l" + std::to_string(l) + ".hit_rate", level.hit_rate);
      backhaul += level.backhaul_bytes;
      applied += level.invalidations_applied;
      races += level.fetch_races;
    }
    rep->Metric("proxy.hit_rate", r.proxy_hit_rate);
    rep->Metric("cdn.origin_fetches_per_kreq",
                Ratio(1000.0 * static_cast<double>(r.origin_fleet_fetches), served));
    rep->Metric("cdn.backhaul_bytes_per_req", Ratio(static_cast<double>(backhaul), served));
    rep->Metric("cdn.invalidations_applied_per_kreq",
                Ratio(1000.0 * static_cast<double>(applied), served));
    rep->Metric("cdn.fetch_races", static_cast<double>(races));
    rep->Metric("cdn.staleness_p99_ms", r.staleness.p99_ms);
    // Every object a proxy fetches lands in a DMA-filled buffer.
    rep->Metric("proxy.backhaul_fill_share",
                Ratio(static_cast<double>(backhaul) * rep->metric("iolite.dma_fill_ns_per_byte"),
                      sr.run.wall_s * 1e9));
  }
}

// fleet-sharded: four Flash-Lite members (8-way CPU each) on the parallel
// engine, open-loop Poisson at 10,000/s over a 1 ms one-way delay.
struct ShardedOutcome {
  ioldrv::ShardedResult result;
  double setup_s = 0;
  Phase run;
  Counts counts;
  uint64_t fingerprint = 0;
};

ShardedOutcome RunShardedOnce(const Options& o, int threads, uint64_t requests, uint64_t warmup,
                              Tracer* tracer) {
  constexpr size_t kMembers = 4;
  struct World {
    std::unique_ptr<ioldrv::ShardedExperiment> exp;
  };
  SetupClock setup;
  auto w = SetUp<World>(&setup, [&](SetupClock* clock) {
    auto world = std::make_unique<World>();
    clock->Time("build", [&] {
      ioldrv::ExperimentConfig config;
      config.max_requests = requests;
      config.warmup_requests = warmup;
      config.persistent_connections = true;
      config.delay.one_way_delay = iolsim::kMillisecond;
      config.shard_count = threads;
      world->exp = std::make_unique<ioldrv::ShardedExperiment>(
          kMembers,
          [](size_t) {
            ioldrv::ShardMember m;
            m.sys = MakeLiteSystem(8, 1);
            m.server = MakeLiteServer(m.sys.get());
            m.sys->fs().CreateFile("doc", 1024);
            return m;
          },
          config);
    });
    return world;
  });
  ShardedOutcome out;
  out.setup_s = setup.median_total();
  ioldrv::ShardedExperiment& exp = *w->exp;
  iolfs::FileId doc = exp.member_system(0)->fs().Lookup("doc");
  ioldrv::OpenLoopPoisson workload(10'000, o.SeedFor(0x10a111CE, 9), 64);
  std::vector<Counts> before;
  for (size_t m = 0; m < kMembers; ++m) {
    tracer->TapMachine(&exp.member_system(m)->ctx());
    before.push_back(Counts::Of(exp.member_system(m)->ctx().stats()));
  }
  out.run = Measure([&] { out.result = exp.Run(&workload, [doc] { return doc; }); });
  tracer->Finish();
  for (size_t m = 0; m < kMembers; ++m) {
    out.counts.AddDelta(before[m], Counts::Of(exp.member_system(m)->ctx().stats()));
  }
  const ioldrv::ExperimentResult& r = out.result.result;
  Fnv fold;
  fold.AddRecords(exp.telemetry());
  fold.Add(static_cast<uint64_t>(r.count_start));
  fold.Add(static_cast<uint64_t>(std::llround(r.seconds * 1e9)));
  fold.Add(r.events_dispatched);
  out.fingerprint = fold.value();
  return out;
}

void RunFleetSharded(const Options& o, Report* rep) {
  const uint64_t requests = o.Scaled(2'000'000);
  const uint64_t warmup = o.Scaled(2000);
  int threads = static_cast<int>(std::min<long>(4, sysconf(_SC_NPROCESSORS_ONLN)));
  Tracer tracer(o);
  ShardedOutcome run = RunShardedOnce(o, threads, requests, warmup, &tracer);
  const ioldrv::ExperimentResult& r = run.result.result;
  SimRun sr;
  sr.setup_s = run.setup_s;
  sr.run = run.run;
  sr.counts = run.counts;
  sr.Add(r, warmup, requests);
  ReportEndToEnd(rep, sr);
  rep->set_fingerprint(run.fingerprint);
  ReportSim(rep, r);
  if (o.trace) {
    ReportCounts(rep, sr);
    tracer.ReportLayers(rep, sr);
    const iolsim::ShardRunner::Stats& s = run.result.shard;
    double rounds = static_cast<double>(s.rounds);
    const std::vector<uint64_t>& lanes = run.result.lane_events;
    double lane_max = static_cast<double>(*std::max_element(lanes.begin(), lanes.end()));
    double lane_sum = 0;
    for (uint64_t e : lanes) {
      lane_sum += static_cast<double>(e);
    }
    rep->Metric("simos.shard.rounds_per_kreq",
                Ratio(1000.0 * rounds, static_cast<double>(sr.served)));
    rep->Metric("simos.shard.events_per_round",
                Ratio(static_cast<double>(r.events_dispatched), rounds));
    rep->Metric("simos.shard.msgs_per_round", Ratio(static_cast<double>(s.messages), rounds));
    rep->Metric("simos.shard.spilled", static_cast<double>(s.spilled));
    rep->Metric("simos.shard.lane_imbalance",
                Ratio(lane_max, lane_sum / static_cast<double>(lanes.size())));
    // The same run on one thread, tapped alike: the speedup, and the
    // shard-count invariance check.
    Tracer solo_tracer(true, "");
    ShardedOutcome solo = RunShardedOnce(o, 1, requests, warmup, &solo_tracer);
    rep->Metric("simos.shard.speedup", Ratio(solo.run.wall_s, run.run.wall_s));
    rep->Check("shard_count_invariant", solo.fingerprint == run.fingerprint);
  }
}

// plane-procs: RunProcessTier in kProcesses mode — one proxy, one origin and
// one CGI process, this process as the client. RunProcessTier builds its
// plane and forks its workers internally, so set-up is timed on short runs:
// their total time minus their client loop.
ioldrv::ProcessTierConfig PlaneConfig(iolipc::PlaneMode mode, int requests, bool verify) {
  ioldrv::ProcessTierConfig cfg;
  cfg.mode = mode;
  cfg.region_name = "";  // Anonymous shared mapping: no named segment.
  cfg.requests = requests;
  cfg.inflight = 8;
  cfg.docs.doc_count = 24;
  cfg.docs.doc_bytes = 1024;
  cfg.cgi_every = 8;
  cfg.cgi_body_bytes = 2048;
  cfg.proxy_workers = 1;
  cfg.origin_workers = 1;
  cfg.cgi_workers = 1;
  cfg.verify = verify;
  return cfg;
}

void RunPlaneProcs(const Options& o, Report* rep) {
  constexpr int kSetupRequests = 64;
  const int requests = static_cast<int>(o.Scaled(2'000'000));
  std::vector<double> setups;
  for (int i = 0; i < kSetupReps; ++i) {
    ioldrv::ProcessTierResult tiny;
    Phase p = Measure([&] {
      tiny = ioldrv::RunProcessTier(
          PlaneConfig(iolipc::PlaneMode::kProcesses, kSetupRequests, false));
    });
    setups.push_back(p.wall_s - tiny.wall_ms / 1e3);
  }
  ioldrv::ProcessTierResult r;
  Phase total = Measure([&] {
    r = ioldrv::RunProcessTier(PlaneConfig(iolipc::PlaneMode::kProcesses, requests, false));
  });
  double loop_s = r.wall_ms / 1e3;
  rep->Metric("setup_s", Median(setups));
  rep->Metric("req_per_s", Ratio(static_cast<double>(r.requests), loop_s));
  rep->Metric("cpu_s", total.cpu_s);
  rep->Metric("peak_rss_mb", PeakRssMb());
  rep->Metric("fail_frac", Ratio(static_cast<double>(r.errors), static_cast<double>(requests)));
  rep->set_counts(static_cast<uint64_t>(requests), r.requests + r.errors, r.errors);
  rep->set_fingerprint(r.response_checksum);
  rep->Check("plane_ok", r.ok);
  rep->Check("requests_match_target", r.requests == static_cast<uint64_t>(requests));
  rep->Check("no_failures", r.errors == 0 && r.future_errors == 0);
  rep->Check("zero_cross_process_copies", r.bytes_copied_cross_process == 0);
  rep->Check("no_leaked_pins", r.leaked_pins == 0);
  if (o.trace) {
    rep->Metric("ipc.hit_rate", Ratio(static_cast<double>(r.cache_hits),
                                      static_cast<double>(r.cache_hits + r.cache_misses)));
    rep->Metric("ipc.origin_fills", static_cast<double>(r.origin_fills));
    rep->Metric("ipc.bytes_copied_cross_process",
                static_cast<double>(r.bytes_copied_cross_process));
    rep->Metric("ipc.future_errors", static_cast<double>(r.future_errors));
    ioldrv::ProcessTierResult inproc =
        ioldrv::RunProcessTier(PlaneConfig(iolipc::PlaneMode::kInProcess, requests, false));
    double inproc_rps = Ratio(static_cast<double>(inproc.requests), inproc.wall_ms / 1e3);
    rep->Metric("ipc.inproc_req_per_s", inproc_rps);
    rep->Metric("ipc.process_overhead",
                1.0 - Ratio(Ratio(static_cast<double>(r.requests), loop_s), inproc_rps));
    rep->Check("checksum_matches_in_process",
               inproc.ok && inproc.response_checksum == r.response_checksum);
    ioldrv::ProcessTierResult verified = ioldrv::RunProcessTier(
        PlaneConfig(iolipc::PlaneMode::kProcesses, std::min(requests, 20'000), true));
    rep->Check("verified_run_byte_identical",
               verified.ok && verified.errors == 0 && verified.byte_identical);
  }
  Tracer(o).Finish();  // Real processes have no simulated resources: no spans.
}

using WorkloadFn = void (*)(const Options&, Report*);

const std::map<std::string, WorkloadFn>& Workloads() {
  static const std::map<std::string, WorkloadFn> kWorkloads = {
      {"hot-50k", RunHot50k},         {"trace-ece", RunTraceEce},
      {"merged-open", RunMergedOpen}, {"cdn-writes", RunCdnWrites},
      {"plane-procs", RunPlaneProcs}, {"fleet-sharded", RunFleetSharded},
  };
  return kWorkloads;
}

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <name> [--seed N] [--scale F] [--trace] "
               "[--spans <path>]\nworkloads:",
               argv0);
  for (const auto& [name, fn] : Workloads()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--scale" && has_value) {
      o.scale = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace") {
      o.trace = true;
    } else if (arg == "--spans" && has_value) {
      o.spans_path = argv[++i];
    } else {
      Usage(argv[0]);
    }
  }
  auto it = Workloads().find(o.workload);
  if (it == Workloads().end() || !(o.scale > 0) || o.scale > 10) {
    Usage(argv[0]);
  }
  Report report;
  it->second(o, &report);
  report.Print(o);
  return 0;
}
