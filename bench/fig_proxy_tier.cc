// Proxy-cache tier sweep: copy-based vs IO-Lite proxies, remote vs
// co-located backhaul (src/proxy, composed by ioldrv::CdnTier as a
// one-level, one-proxy tree).
//
// A two-member origin fleet sits behind a proxy; a Zipf-popularity,
// lognormal-size trace drives a closed client population through the
// proxy's front link. Swept: the proxy-tier cache budget (hit rate rises
// with it) and the trace's Zipf alpha (hit rate rises with skew).
//
// Cache RAM is assigned the way the architectures actually use it: the
// co-located copy-based pair splits the budget between the proxy's private
// cache and the origin's kernel cache (the same object ends up in both —
// double caching), while the co-located IO-Lite pair pools the whole budget
// in the machine's unified cache and forwards misses over the IOL-IPC
// descriptor path. Expected shape: the IO-Lite co-located proxy leads the
// copy-based proxy at every cache size, and the gap widens as the hit rate
// drops — every miss costs the copy pair two socket crossings, a private
// memcpy and a duplicate cache entry, while the IO-Lite pair pays 32-byte
// descriptors. Remote proxies converge toward the backhaul wire as misses
// climb; the co-located IO-Lite curve is the one with no backhaul to hit.

#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/cdn/cdn_topology.h"
#include "src/driver/cdn_tier.h"

namespace {

struct ProxyPoint {
  ioldrv::ExperimentResult result;
  const char* series;
};

iolwl::TraceSpec ProxySpec(double alpha) {
  iolwl::TraceSpec spec;
  spec.name = "proxy-zipf";
  spec.num_files = 300;
  spec.total_bytes = 30ull * 1024 * 1024;
  spec.num_requests = 20000;
  spec.mean_request_bytes = 10 * 1024;
  spec.zipf_alpha = alpha;
  spec.size_sigma = 1.2;
  spec.seed = 42;
  return spec;
}

ioldrv::ExperimentResult RunProxy(iolproxy::ProxyDataPath path,
                                  iolproxy::BackhaulMode mode, double alpha,
                                  uint64_t cache_bytes, int clients,
                                  uint64_t requests, uint64_t warmup) {
  bool lite = path == iolproxy::ProxyDataPath::kIoLite;
  iolsys::SystemOptions options;
  options.cost.cpu_count = 2;   // Two origin members, one CPU + disk arm each
  options.cost.disk_count = 2;  // (shared with the proxy when co-located).
  iolbench::ApplyKindOptions(
      lite ? iolbench::ServerKind::kFlashLite : iolbench::ServerKind::kFlash, &options);
  auto sys = std::make_unique<iolsys::System>(options);

  iolwl::Trace trace = iolwl::Trace::Generate(ProxySpec(alpha));
  std::vector<iolfs::FileId> ids = trace.Materialize(&sys->fs());

  std::vector<std::unique_ptr<iolhttp::HttpServer>> origin_servers;
  std::vector<iolhttp::HttpServer*> members;
  for (int i = 0; i < 2; ++i) {
    origin_servers.push_back(iolbench::MakeServer(
        lite ? iolbench::ServerKind::kFlashLite : iolbench::ServerKind::kFlash,
        sys.get()));
    members.push_back(origin_servers.back().get());
  }

  iolproxy::ProxyConfig pconfig;
  pconfig.data_path = path;
  pconfig.backhaul = mode;
  pconfig.policy = lite ? iolproxy::ProxyCachePolicy::kGds
                        : iolproxy::ProxyCachePolicy::kLru;
  // The proxy is a one-level, one-proxy tree; its level carries the budget.
  iolcdn::CdnLevelSpec proxy_level;
  if (mode == iolproxy::BackhaulMode::kColocated && !lite) {
    // Two private caches on one machine split the budget.
    proxy_level.cache_bytes = cache_bytes / 2;
    pconfig.origin_cache_bytes = cache_bytes / 2;
  } else {
    // Remote proxies spend the budget on their own machine; the co-located
    // IO-Lite pair pools all of it in the unified cache.
    proxy_level.cache_bytes = cache_bytes;
  }
  iolcdn::CdnTopology topo;
  topo.levels = {proxy_level};

  ioldrv::ExperimentConfig config;
  config.persistent_connections = true;
  config.max_requests = requests;
  config.warmup_requests = warmup;
  ioldrv::CdnTier tier(&sys->ctx(), &sys->net(), &sys->io(), &sys->runtime(),
                       ioldrv::Fleet(members), std::move(topo), pconfig, config);

  ioldrv::ClosedLoop workload(clients);
  iolsim::Rng rng(7777);
  const std::vector<uint32_t>& reqs = trace.requests();
  return tier.Run(&workload, [&]() -> iolfs::FileId {
    return ids[reqs[rng.NextBelow(reqs.size())]];
  });
}

const char* kSeries[4] = {"copy-remote", "IOL-remote", "copy-colocated",
                          "IOL-colocated"};

std::vector<ProxyPoint> RunMatrix(double alpha, uint64_t cache_bytes, int clients,
                                  uint64_t requests, uint64_t warmup) {
  using iolproxy::BackhaulMode;
  using iolproxy::ProxyDataPath;
  std::vector<ProxyPoint> points;
  points.push_back({RunProxy(ProxyDataPath::kCopy, BackhaulMode::kRemote, alpha,
                             cache_bytes, clients, requests, warmup),
                    kSeries[0]});
  points.push_back({RunProxy(ProxyDataPath::kIoLite, BackhaulMode::kRemote, alpha,
                             cache_bytes, clients, requests, warmup),
                    kSeries[1]});
  points.push_back({RunProxy(ProxyDataPath::kCopy, BackhaulMode::kColocated, alpha,
                             cache_bytes, clients, requests, warmup),
                    kSeries[2]});
  points.push_back({RunProxy(ProxyDataPath::kIoLite, BackhaulMode::kColocated, alpha,
                             cache_bytes, clients, requests, warmup),
                    kSeries[3]});
  return points;
}

void PrintRow(double x, const std::vector<ProxyPoint>& points) {
  std::printf("%.2g", x);
  for (const ProxyPoint& p : points) {
    std::printf("\t%.1f/%.0f%%", p.result.megabits_per_sec,
                p.result.proxy_hit_rate * 100.0);
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  iolbench::BenchOptions opts = iolbench::ParseBenchOptions(argc, argv);
  iolbench::JsonReporter json("fig_proxy_tier", opts);
  const int clients = opts.Clients(48);
  const uint64_t requests = opts.Requests(4000);
  const uint64_t warmup = opts.Warmup(400);

  iolbench::PrintHeader(
      "Proxy tier: Mb/s + proxy hit rate by proxy cache budget (MB), Zipf "
      "alpha 1.0",
      "cacheMB\tcopy-remote\tIOL-remote\tcopy-coloc\tIOL-coloc");
  for (uint64_t mb : {2, 8, 32}) {
    std::vector<ProxyPoint> points =
        RunMatrix(1.0, mb * 1024 * 1024, clients, requests, warmup);
    PrintRow(static_cast<double>(mb), points);
    for (const ProxyPoint& p : points) {
      json.AddExperiment(p.series, static_cast<double>(mb), p.result);
    }
  }

  iolbench::PrintHeader(
      "Proxy tier: Mb/s + proxy hit rate by Zipf alpha, 8 MB proxy cache",
      "alpha\tcopy-remote\tIOL-remote\tcopy-coloc\tIOL-coloc");
  for (double alpha : {0.6, 1.0, 1.3}) {
    std::vector<ProxyPoint> points =
        RunMatrix(alpha, 8 * 1024 * 1024, clients, requests, warmup);
    PrintRow(alpha, points);
    for (const ProxyPoint& p : points) {
      json.AddExperiment(std::string(p.series) + "-alpha", alpha, p.result);
    }
  }

  std::printf(
      "# expectation: IOL-colocated >= copy-based at every cache size, gap "
      "widening as hit rate drops; warm co-located IO-Lite runs report 0 "
      "backhaul bytes copied\n");
  return json.Flush() ? 0 : 1;
}
