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
        proxy->set_pick_origin([this](const std::vector<int>& load) {
          return origins_.PickServer(load);
        });
      }
      if (spec.shape_bytes_per_sec > 0) {
        shapers_.push_back(std::make_unique<iolqos::BackhaulShaper>(
            spec.shape_bytes_per_sec, spec.shape_burst_bytes));
        proxy->set_backhaul_shaper(shapers_.back().get());
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

void CdnTier::ArmBackhaulFaults(const iolfault::FaultPlan& plan) {
  for (const iolfault::FaultEvent& e : plan.events()) {
    if (e.kind != iolfault::FaultKind::kBackhaulFlap) {
      continue;
    }
    for (int level = 0; level < level_count(); ++level) {
      if (e.target >= 0 && e.target != level) {
        continue;
      }
      for (auto& proxy : proxies_[level]) {
        proxy->AddBackhaulOutage(e.at, e.at + e.duration);
      }
    }
  }
}

ExperimentResult CdnTier::Run(Workload* workload,
                              Experiment::RequestSource next_file,
                              Telemetry* sink) {
  const iolsim::SimStats& stats = ctx_->stats();
  uint64_t proxy_hits0 = stats.proxy_cache_hits;
  uint64_t proxy_misses0 = stats.proxy_cache_misses;
  uint64_t backhaul_bytes0 = stats.backhaul_bytes;
  uint64_t backhaul_copied0 = stats.backhaul_bytes_copied;
  uint64_t writes0 = stats.cdn_writes;
  iolsim::SimStats::CdnLevelStats cdn0[iolsim::SimStats::kMaxCdnLevels];
  for (int l = 0; l < iolsim::SimStats::kMaxCdnLevels; ++l) {
    cdn0[l] = stats.cdn[l];
  }
  size_t record_from = sink != nullptr ? sink->records().size() : 0;

  if (write_plan_ != nullptr) {
    write_plan_->Arm(experiment_.get());
  }
  ExperimentResult result = experiment_->Run(workload, std::move(next_file), sink);

  // Aggregate proxy fields: every level's cache routes to the
  // proxy_cache_* counters, so the rates cover the whole hierarchy.
  uint64_t hits = stats.proxy_cache_hits - proxy_hits0;
  uint64_t misses = stats.proxy_cache_misses - proxy_misses0;
  if (hits + misses > 0) {
    result.proxy_hit_rate =
        static_cast<double>(hits) / static_cast<double>(hits + misses);
  }
  result.backhaul_bytes = stats.backhaul_bytes - backhaul_bytes0;
  result.bytes_copied_backhaul = stats.backhaul_bytes_copied - backhaul_copied0;
  result.cdn_writes = stats.cdn_writes - writes0;

  // Origin-fleet load and fetch latency come from the top level: its
  // fetches are the requests the hierarchy failed to absorb.
  int top = level_count() - 1;
  uint64_t origin_fetches = 0;
  uint64_t origin_hits = 0;
  Telemetry fetch_telemetry;
  for (auto& proxy : proxies_[top]) {
    origin_fetches += proxy->origin_fetches();
    origin_hits += proxy->origin_hits();
    for (const iolproxy::FetchRecord& f : proxy->fetches()) {
      RequestRecord rec;
      rec.issue = f.issue;
      rec.admit = f.admit;
      rec.complete = f.complete;
      rec.bytes = f.bytes;
      rec.server = f.origin;
      rec.cache_hit = f.origin_hit;
      rec.counted = f.complete > result.count_start;
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
    const iolsim::SimStats::CdnLevelStats& c = stats.cdn[l];
    ExperimentResult::CdnLevelResult& out = result.cdn_levels[l];
    out.proxies = proxies_at(l);
    uint64_t lh = c.hits - cdn0[l].hits;
    uint64_t lm = c.misses - cdn0[l].misses;
    if (lh + lm > 0) {
      out.hit_rate = static_cast<double>(lh) / static_cast<double>(lh + lm);
    }
    out.backhaul_bytes = c.backhaul_bytes - cdn0[l].backhaul_bytes;
    out.stale_serves = c.stale_serves - cdn0[l].stale_serves;
    out.invalidations_sent = c.invalidations_sent - cdn0[l].invalidations_sent;
    out.invalidations_applied =
        c.invalidations_applied - cdn0[l].invalidations_applied;
    out.revalidations = c.revalidations - cdn0[l].revalidations;
    out.revalidation_bytes = c.revalidation_bytes - cdn0[l].revalidation_bytes;
    out.fetch_races = c.fetch_races - cdn0[l].fetch_races;
    out.shaper_holds = c.shaper_holds - cdn0[l].shaper_holds;
  }

  // Staleness percentiles over every stale serve in the hierarchy, merged
  // in (level, proxy) order — deterministic, and Summarize sorts anyway.
  std::vector<iolsim::SimTime> ages;
  for (int l = 0; l < level_count(); ++l) {
    for (auto& proxy : proxies_[l]) {
      result.stale_serves += proxy->stale_serves();
      const std::vector<iolsim::SimTime>& s = proxy->staleness_samples();
      ages.insert(ages.end(), s.begin(), s.end());
    }
  }
  result.staleness = SummarizeSamples(std::move(ages));

  // Per-edge breakdown from the run's record stream (record.server is the
  // edge index: the experiment's fleet is the edge tier).
  const Telemetry& t = sink != nullptr ? *sink : experiment_->telemetry();
  size_t edges = proxies_[0].size();
  result.edges.assign(edges, ExperimentResult::EdgeBreakdown{});
  std::vector<std::vector<iolsim::SimTime>> lat(edges);
  std::vector<uint64_t> edge_hits(edges, 0);
  for (size_t i = record_from; i < t.records().size(); ++i) {
    const RequestRecord& r = t.records()[i];
    if (!r.counted || r.server >= edges) {
      continue;
    }
    ExperimentResult::EdgeBreakdown& e = result.edges[r.server];
    e.requests++;
    e.bytes += r.bytes;
    if (Delivered(r.outcome)) {
      lat[r.server].push_back(r.complete - r.issue);
    }
    edge_hits[r.server] += r.cache_hit ? 1 : 0;
  }
  for (size_t e = 0; e < edges; ++e) {
    result.edges[e].latency = SummarizeSamples(std::move(lat[e]));
    if (result.edges[e].requests > 0) {
      result.edges[e].cache_hit_fraction =
          static_cast<double>(edge_hits[e]) /
          static_cast<double>(result.edges[e].requests);
    }
  }
  return result;
}

}  // namespace ioldrv
