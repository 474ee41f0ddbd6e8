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
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/cdn/cdn_topology.h"

namespace {

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

const char* kSeries[4] = {"copy-remote", "IOL-remote", "copy-colocated",
                          "IOL-colocated"};

// One row: the four proxies (copy/IO-Lite x remote/co-located) in front of a
// two-member origin fleet, each printed as Mb/s / proxy hit rate and added
// to the JSON document as (kSeries[s] + suffix, x).
void RunRow(iolbench::Figure* fig, double alpha, uint64_t cache_bytes, double x,
            const char* suffix) {
  using iolproxy::BackhaulMode;
  iolwl::Trace trace = iolwl::Trace::Generate(ProxySpec(alpha));
  std::printf("%.2g", x);
  for (int s = 0; s < 4; ++s) {
    bool lite = s % 2 == 1;
    BackhaulMode mode = s < 2 ? BackhaulMode::kRemote : BackhaulMode::kColocated;
    iolbench::Cell cell;
    cell.kind = lite ? iolbench::ServerKind::kFlashLite : iolbench::ServerKind::kFlash;
    cell.members = 2;  // One CPU + disk arm each (shared with a co-located proxy).
    cell.trace = &trace;
    cell.clients = 48;
    cell.config.persistent_connections = true;
    cell.config.max_requests = 4000;
    cell.config.warmup_requests = 400;
    cell.proxy.data_path = lite ? iolproxy::ProxyDataPath::kIoLite : iolproxy::ProxyDataPath::kCopy;
    cell.proxy.backhaul = mode;
    cell.proxy.policy = lite ? iolproxy::ProxyCachePolicy::kGds : iolproxy::ProxyCachePolicy::kLru;
    // The proxy is a one-level, one-proxy tree; its level carries the budget.
    iolcdn::CdnLevelSpec proxy_level;
    if (mode == BackhaulMode::kColocated && !lite) {
      // Two private caches on one machine split the budget.
      proxy_level.cache_bytes = cache_bytes / 2;
      cell.proxy.origin_cache_bytes = cache_bytes / 2;
    } else {
      // Remote proxies spend the budget on their own machine; the co-located
      // IO-Lite pair pools all of it in the unified cache.
      proxy_level.cache_bytes = cache_bytes;
    }
    iolcdn::CdnTopology topo;
    topo.levels = {proxy_level};
    cell.cdn = &topo;
    ioldrv::ExperimentResult r = fig->Run(cell).result;
    std::printf("\t%.1f/%.0f%%", r.megabits_per_sec, r.proxy_hit_rate * 100.0);
    fig->json().AddExperiment(std::string(kSeries[s]) + suffix, x, r);
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  iolbench::Figure fig("fig_proxy_tier", argc, argv);

  fig.Header(
      "Proxy tier: Mb/s + proxy hit rate by proxy cache budget (MB), Zipf "
      "alpha 1.0",
      "cacheMB\tcopy-remote\tIOL-remote\tcopy-coloc\tIOL-coloc");
  for (uint64_t mb : {2, 8, 32}) {
    RunRow(&fig, 1.0, mb * 1024 * 1024, static_cast<double>(mb), "");
  }

  fig.Header(
      "Proxy tier: Mb/s + proxy hit rate by Zipf alpha, 8 MB proxy cache",
      "alpha\tcopy-remote\tIOL-remote\tcopy-coloc\tIOL-coloc");
  for (double alpha : {0.6, 1.0, 1.3}) {
    RunRow(&fig, alpha, 8 * 1024 * 1024, alpha, "-alpha");
  }

  return fig.Finish(
      "expectation: IOL-colocated >= copy-based at every cache size, gap "
      "widening as hit rate drops; warm co-located IO-Lite runs report 0 "
      "backhaul bytes copied");
}
