#include "src/driver/cdn_tier.h"

#include <cstdio>
#include <cstdlib>

#include "src/driver/telemetry.h"

namespace ioldrv {

CdnTier::CdnTier(iolsim::SimContext* ctx, iolnet::NetworkSubsystem* net,
                 iolfs::FileIoService* io, iolite::IoLiteRuntime* runtime,
                 Fleet origins, iolcdn::CdnTopology topo,
                 iolproxy::ProxyConfig pconfig, ExperimentConfig config)
    : ctx_(ctx), origins_(std::move(origins)), topo_(std::move(topo)),
      authority_(ctx) {
  int num_levels = static_cast<int>(topo_.levels.size());
  if (num_levels < 1 || num_levels > iolsim::SimStats::kMaxCdnLevels) {
    std::fprintf(stderr, "CdnTier: need 1..%d levels (got %d)\n",
                 iolsim::SimStats::kMaxCdnLevels, num_levels);
    std::abort();
  }
  for (int level = 0; level < num_levels; ++level) {
    if (topo_.levels[level].count < 1) {
      std::fprintf(stderr, "CdnTier: level %d needs count >= 1 (got %d)\n", level,
                   topo_.levels[level].count);
      std::abort();
    }
  }
  // A co-located backhaul is one machine's loopback: it fits a lone proxy
  // in front of the fleet, never a tree of WAN uplinks.
  if (pconfig.backhaul != iolproxy::BackhaulMode::kRemote &&
      !(num_levels == 1 && topo_.levels[0].count == 1)) {
    std::fprintf(stderr,
                 "CdnTier: only a one-level, one-proxy topology may use a "
                 "co-located backhaul\n");
    std::abort();
  }
  authority_.set_mode(topo_.protocol);
  proxies_.resize(num_levels);

  // Build top-down: a proxy's origins must exist before the proxy does.
  for (int level = num_levels - 1; level >= 0; --level) {
    const iolcdn::CdnLevelSpec& spec = topo_.levels[level];
    // Invalidations travel origin -> top -> ... -> this level: cumulative
    // one-way propagation over every uplink from here to the top.
    iolsim::SimTime inval_delay = 0;
    for (int k = level; k < num_levels; ++k) {
      inval_delay += topo_.levels[k].link_one_way_delay;
    }
    proxies_[level].reserve(spec.count);
    for (int i = 0; i < spec.count; ++i) {
      iolproxy::ProxyConfig pc = pconfig;
      pc.cache_bytes = spec.cache_bytes;
      pc.backhaul_bytes_per_sec = spec.link_bytes_per_sec;
      pc.backhaul_one_way_delay = spec.link_one_way_delay;
      std::vector<iolhttp::HttpServer*> parents;
      if (level == num_levels - 1) {
        parents = origins_.servers();
      } else {
        // Deterministic parenting: proxy i attaches to parent i % count.
        parents.push_back(proxies_[level + 1][i % proxies_[level + 1].size()].get());
      }
      auto proxy = std::make_unique<iolproxy::ProxyServer>(
          ctx_, net, io, runtime, std::move(parents), pc);
      if (level == num_levels - 1) {
        proxy->set_origin_balancer(origins_.balancer());
      }
      // Every proxy learns its level (the per-level counters need it);
      // only a live protocol makes it a holder the authority notifies.
      iolproxy::ConsistencyConfig cc;
      cc.mode = topo_.protocol;
      cc.source = &authority_;
      cc.level = level;
      cc.ttl = topo_.ttl;
      proxy->ConfigureConsistency(cc);
      if (topo_.protocol != iolproxy::ConsistencyMode::kNone) {
        authority_.RegisterHolder(proxy.get(), inval_delay);
      }
      proxies_[level].push_back(std::move(proxy));
    }
  }

  // The experiment drives the edge tier. A single edge takes the engine's
  // Fleet::Single fast path.
  std::vector<iolhttp::HttpServer*> edges;
  edges.reserve(proxies_[0].size());
  for (auto& p : proxies_[0]) {
    edges.push_back(p.get());
  }
  experiment_ = std::make_unique<Experiment>(ctx_, net, &io->cache(),
                                             Fleet(std::move(edges)), config);
}

ExperimentResult CdnTier::Run(Workload* workload,
                              Experiment::RequestSource next_file,
                              Telemetry* sink) {
  const iolsim::SimStats& stats = ctx_->stats();
  const iolsim::SimStats before = stats;

  if (write_plan_ != nullptr) {
    write_plan_->Arm(experiment_.get());
  }
  ExperimentResult result = experiment_->Run(workload, std::move(next_file), sink);

  // Aggregate proxy fields: every level's cache routes to the
  // proxy_cache_* counters, so the rates cover the whole hierarchy.
  uint64_t hits = stats.proxy_cache_hits - before.proxy_cache_hits;
  uint64_t misses = stats.proxy_cache_misses - before.proxy_cache_misses;
  if (hits + misses > 0) {
    result.proxy_hit_rate =
        static_cast<double>(hits) / static_cast<double>(hits + misses);
  }
  result.bytes_copied_backhaul =
      stats.backhaul_bytes_copied - before.backhaul_bytes_copied;
  result.cdn_writes = stats.cdn_writes - before.cdn_writes;

  // Origin-fleet load and fetch latency come from the top level: its
  // fetches are the requests the hierarchy failed to absorb.
  int top = level_count() - 1;
  uint64_t origin_fetches = 0;
  uint64_t origin_hits = 0;
  Telemetry fetch_telemetry;
  for (auto& proxy : proxies_[top]) {
    origin_fetches += proxy->origin_fetches();
    origin_hits += proxy->origin_hits();
    for (RequestRecord rec : proxy->fetches()) {
      rec.counted = rec.complete > result.count_start;
      fetch_telemetry.Record(rec);
    }
  }
  result.origin_fleet_fetches = origin_fetches;
  if (origin_fetches > 0) {
    result.origin_hit_rate = static_cast<double>(origin_hits) /
                             static_cast<double>(origin_fetches);
  }
  result.origin_latency = fetch_telemetry.EndToEndLatency();

  // Per-level counters: the run's slice of the SimStats::cdn[] block.
  result.cdn_levels.resize(level_count());
  for (int l = 0; l < level_count(); ++l) {
    const iolsim::SimStats::CdnLevelStats& now = stats.cdn[l];
    const iolsim::SimStats::CdnLevelStats& was = before.cdn[l];
    ExperimentResult::CdnLevelResult& out = result.cdn_levels[l];
    out.proxies = proxies_at(l);
    out.hits = now.hits - was.hits;
    out.misses = now.misses - was.misses;
    if (out.hits + out.misses > 0) {
      out.hit_rate = static_cast<double>(out.hits) /
                     static_cast<double>(out.hits + out.misses);
    }
    for (const iolsim::CdnLevelCounter& c : iolsim::kCdnLevelCounters) {
      out.*c.field = now.*c.field - was.*c.field;
    }
    result.backhaul_bytes += out.backhaul_bytes;
  }

  // Staleness percentiles over every stale serve in the hierarchy, merged
  // in (level, proxy) order — deterministic, and Summarize's ranks ignore order.
  std::vector<iolsim::SimTime> ages;
  for (int l = 0; l < level_count(); ++l) {
    for (auto& proxy : proxies_[l]) {
      result.stale_serves += proxy->stale_serves();
      const std::vector<iolsim::SimTime>& s = proxy->staleness_samples();
      ages.insert(ages.end(), s.begin(), s.end());
    }
  }
  result.staleness = Summarize(std::move(ages));
  return result;
}

}  // namespace ioldrv
