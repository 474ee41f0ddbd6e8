// Multi-tenant QoS, end to end.
//
// Two tenants share one two-member fleet: a latency-sensitive tenant
// serving a hot Zipf working set out of the unified cache, and an
// adversarial neighbor sequentially scanning a file set several times the
// cache budget. Three runs show the policy plane doing its job:
//
//   solo       the hot tenant alone — the no-interference baseline
//   no-qos     both tenants, policy plane detached: the scan evicts the
//              hot set and hot p99 collapses
//   qos        WFQ on CPU/disk/link + per-tenant cache partitioning: hot
//              p99 returns to within a small factor of solo
//
// Exits non-zero if the isolation invariant fails (hot p99 must stay
// within 1.25x solo with the plane on, and the unprotected run must show
// at least 2x degradation — otherwise the demo is not demonstrating).
//
// Run:  ./build/example_tenant_mix

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/driver/experiment.h"
#include "src/driver/fleet.h"
#include "src/driver/tenant_mix.h"
#include "src/httpd/http_server.h"
#include "src/qos/policy.h"
#include "src/simos/rng.h"
#include "src/system/system.h"
#include "src/workload/trace.h"

namespace {

constexpr uint64_t kCacheBudget = 2ull * 1024 * 1024;
constexpr uint64_t kHotReserved = 1536ull * 1024;
constexpr int kScanFiles = 256;  // x 64 KB = 8x the cache budget.
constexpr uint64_t kScanFileBytes = 64 * 1024;

struct RunOutcome {
  ioldrv::ExperimentResult result;
  iolsim::TenantId hot_tenant = 1;
};

const ioldrv::TenantBreakdown* Breakdown(const ioldrv::ExperimentResult& result,
                                         iolsim::TenantId t) {
  for (const ioldrv::TenantBreakdown& b : result.tenants) {
    if (b.tenant == t) {
      return &b;
    }
  }
  return nullptr;
}

double HotP99(const RunOutcome& out) {
  const ioldrv::TenantBreakdown* b = Breakdown(out.result, out.hot_tenant);
  return b != nullptr ? b->latency.p99_ms : 0;
}

RunOutcome RunMix(bool with_scan, bool with_qos) {
  iolsys::SystemOptions options;
  options.cost.cpu_count = 2;
  options.cost.disk_count = 2;
  // Plain LRU on purpose: the Flash-Lite default (Greedy-Dual-Size) is
  // scan-resistant on its own, which would mute the contrast.
  options.policy = iolsys::SystemOptions::Policy::kPlainLru;
  auto sys = std::make_unique<iolsys::System>(options);

  iolwl::TraceSpec hot_spec;
  hot_spec.name = "hot-zipf";
  hot_spec.num_files = 160;
  hot_spec.total_bytes = 1280 * 1024;
  hot_spec.num_requests = 20000;
  hot_spec.mean_request_bytes = 8 * 1024;
  hot_spec.zipf_alpha = 1.1;
  hot_spec.size_sigma = 0.5;
  hot_spec.seed = 11;
  iolwl::Trace hot_trace = iolwl::Trace::Generate(hot_spec);
  std::vector<iolfs::FileId> hot_ids = hot_trace.Materialize(&sys->fs());

  std::vector<iolfs::FileId> scan_ids;
  scan_ids.reserve(kScanFiles);
  for (int i = 0; i < kScanFiles; ++i) {
    scan_ids.push_back(sys->fs().CreateFile("scan" + std::to_string(i), kScanFileBytes));
  }

  iolsim::Rng hot_rng(4242);
  const std::vector<uint32_t>& hot_reqs = hot_trace.requests();
  size_t scan_cursor = 0;

  std::vector<ioldrv::TenantWorkloadSpec> specs;
  ioldrv::TenantWorkloadSpec hot;
  hot.name = "hot-zipf";
  hot.weight = 8;
  hot.clients = 12;
  hot.cache_reserved_bytes = kHotReserved;
  hot.next_file = [&hot_rng, &hot_reqs, &hot_ids] {
    return hot_ids[hot_reqs[hot_rng.NextBelow(hot_reqs.size())]];
  };
  specs.push_back(hot);
  if (with_scan) {
    ioldrv::TenantWorkloadSpec scan;
    scan.name = "scan";
    scan.weight = 1;
    scan.clients = 24;
    scan.next_file = [&scan_ids, &scan_cursor] {
      iolfs::FileId f = scan_ids[scan_cursor];
      scan_cursor = (scan_cursor + 1) % scan_ids.size();
      return f;
    };
    specs.push_back(scan);
  }
  ioldrv::TenantMix mix(std::move(specs));

  std::vector<std::unique_ptr<iolhttp::HttpServer>> servers;
  std::vector<iolhttp::HttpServer*> members;
  for (int i = 0; i < 2; ++i) {
    servers.push_back(std::make_unique<iolhttp::FlashLiteServer>(
        &sys->ctx(), &sys->net(), &sys->io(), &sys->runtime()));
    members.push_back(servers.back().get());
  }

  ioldrv::ExperimentConfig config;
  config.persistent_connections = true;
  config.max_requests = 6000;
  config.warmup_requests = 1000;
  config.cache_budget_bytes = kCacheBudget;

  iolqos::QosPolicy policy;
  iolqos::CachePlan plan;
  if (with_qos) {
    mix.Configure(&policy, &plan);
    config.qos = &policy;
    sys->cache().AttachQos(&policy);
    policy.AttachWfq(&sys->ctx());
    policy.SetStarvationBound(500 * iolsim::kMillisecond);
    plan.total_bytes = kCacheBudget;
    sys->cache().SetPartitions(&plan);
  }

  // Deterministic prewarm: the hot set starts resident, so the contrast
  // below measures the scan's eviction pressure, not first touch.
  sys->ctx().set_active_tenant(mix.tenant_id(0));
  for (iolfs::FileId f : hot_ids) {
    uint64_t size = sys->fs().SizeOf(f);
    sys->cache().Insert(
        f, 0, iolite::Aggregate::FromBuffer(sys->fs().ReadFromDisk(f, 0, size)));
  }
  sys->ctx().set_active_tenant(iolsim::kDefaultTenant);

  ioldrv::Experiment experiment(&sys->ctx(), &sys->net(), &sys->cache(),
                                ioldrv::Fleet(members), config);
  RunOutcome out;
  out.result = experiment.Run(&mix, [&hot_ids] { return hot_ids[0]; });
  out.hot_tenant = mix.tenant_id(0);
  return out;
}

void Show(const char* label, const RunOutcome& out, double solo_p99) {
  const ioldrv::TenantBreakdown* hot = Breakdown(out.result, out.hot_tenant);
  const ioldrv::TenantBreakdown* scan = Breakdown(out.result, 2);
  std::printf("%-8s hot p50=%7.2f ms  p99=%8.2f ms (%5.2fx solo)  hit=%3.0f%%",
              label, hot != nullptr ? hot->latency.p50_ms : 0,
              hot != nullptr ? hot->latency.p99_ms : 0,
              solo_p99 > 0 && hot != nullptr ? hot->latency.p99_ms / solo_p99 : 0,
              (hot != nullptr ? hot->cache_hit_fraction : 0) * 100.0);
  if (scan != nullptr) {
    std::printf("  | scan p99=%8.2f ms", scan->latency.p99_ms);
  }
  std::printf("  | fleet %.0f Mb/s\n", out.result.megabits_per_sec);
}

}  // namespace

int main() {
  std::printf("== multi-tenant QoS: hot-Zipf tenant vs cache-busting scan ==\n");

  RunOutcome solo = RunMix(false, false);
  double solo_p99 = HotP99(solo);
  Show("solo", solo, solo_p99);

  RunOutcome noqos = RunMix(true, false);
  Show("no-qos", noqos, solo_p99);

  RunOutcome qos = RunMix(true, true);
  Show("qos", qos, solo_p99);

  double degraded = solo_p99 > 0 ? HotP99(noqos) / solo_p99 : 0;
  double isolated = solo_p99 > 0 ? HotP99(qos) / solo_p99 : 0;
  std::printf(
      "\nwith the plane detached the scan evicts the hot set and queues hot\n"
      "work FIFO behind itself (%.1fx solo p99); WFQ + cache partitioning\n"
      "bring the hot tenant back to %.2fx solo.\n",
      degraded, isolated);

  bool ok = degraded >= 2.0 && isolated <= 1.25;
  std::printf("\n%s\n", ok ? "ISOLATION OK" : "ISOLATION BROKEN");
  return ok ? 0 : 1;
}
