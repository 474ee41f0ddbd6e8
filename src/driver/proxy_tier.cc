#include "src/driver/proxy_tier.h"

namespace ioldrv {

ProxyTier::ProxyTier(iolsim::SimContext* ctx, iolnet::NetworkSubsystem* net,
                     iolfs::FileIoService* io, iolite::IoLiteRuntime* runtime,
                     Fleet origins, iolproxy::ProxyConfig pconfig,
                     ExperimentConfig config)
    : ctx_(ctx),
      origins_(std::move(origins)),
      proxy_(std::make_unique<iolproxy::ProxyServer>(ctx, net, io, runtime,
                                                     origins_.servers(), pconfig)),
      experiment_(ctx, net, &io->cache(), proxy_.get(), config) {
  // The origin fleet's balancer routes backhaul fetches.
  proxy_->set_pick_origin(
      [this](const std::vector<int>& load) { return origins_.PickServer(load); });
}

ExperimentResult ProxyTier::Run(Workload* workload,
                                Experiment::RequestSource next_file, Telemetry* sink) {
  const iolsim::SimStats& stats = ctx_->stats();
  uint64_t proxy_hits0 = stats.proxy_cache_hits;
  uint64_t proxy_misses0 = stats.proxy_cache_misses;
  uint64_t backhaul_bytes0 = stats.backhaul_bytes;
  uint64_t backhaul_copied0 = stats.backhaul_bytes_copied;

  ExperimentResult result = experiment_.Run(workload, std::move(next_file), sink);

  uint64_t hits = stats.proxy_cache_hits - proxy_hits0;
  uint64_t misses = stats.proxy_cache_misses - proxy_misses0;
  if (hits + misses > 0) {
    result.proxy_hit_rate =
        static_cast<double>(hits) / static_cast<double>(hits + misses);
  }
  if (proxy_->origin_fetches() > 0) {
    result.origin_hit_rate = static_cast<double>(proxy_->origin_hits()) /
                             static_cast<double>(proxy_->origin_fetches());
  }
  result.backhaul_bytes = stats.backhaul_bytes - backhaul_bytes0;
  result.bytes_copied_backhaul = stats.backhaul_bytes_copied - backhaul_copied0;

  // Per-tier latency: each backhaul fetch as a pseudo-request record, so
  // the same nearest-rank summary covers both tiers. Warmup-era fetches
  // (completing before the engine's measurement window opened) are
  // excluded, matching the window of result.latency.
  iolsim::SimTime count_start = result.count_start;
  Telemetry fetch_telemetry;
  fetch_telemetry.Reserve(proxy_->fetches().size());
  for (const iolproxy::FetchRecord& f : proxy_->fetches()) {
    RequestRecord rec;
    rec.issue = f.issue;
    rec.admit = f.admit;
    rec.complete = f.complete;
    rec.bytes = f.bytes;
    rec.server = f.origin;
    rec.cache_hit = f.origin_hit;
    rec.counted = f.complete > count_start;
    fetch_telemetry.Record(rec);
  }
  result.origin_latency = fetch_telemetry.EndToEndLatency();
  return result;
}

}  // namespace ioldrv
