// CDN hierarchy: per-level cache budgets and cache-consistency traffic over
// an N-level tree of IO-Lite proxies (src/cdn, composed by ioldrv::CdnTier).
//
// Four metros front one origin fleet: three request Zipf-like hot sets of
// their own, the fourth is a "flooder" — a high-client-count population
// drawing uniformly from a universe far bigger than any cache. The sweep
// crosses consistency protocol x origin write rate x per-level budget split
// over a 3-level tree (4 edges -> 2 regionals -> 1 origin-facing top) whose
// TOTAL cache budget always equals the flat single-proxy baseline's, so
// every comparison is budget-fair.
//
// Expected shape, and the full run's acceptance gates:
//   (a) at the edge-heavy split the tree beats the flat proxy on
//       origin-fleet load: the flooder thrashes only its own edge, while in
//       the flat cache it evicts every metro's hot set;
//   (b) consistency cost crosses over in write rate — measured as total
//       interior-link bytes (fetch payloads + control frames). Invalidation
//       starts cheap (a frame only per held copy per write) but each sweep
//       forces a full-body re-fetch on the next request; revalidation pays
//       a fixed conditional-check tax per TTL expiry but keeps serving the
//       cached body between expiries. The cheap protocol flips between the
//       low- and high-write ends of the sweep.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/driver/edge_mix.h"

namespace {

constexpr int kOrigins = 2;
constexpr uint64_t kDocBytes = 16 * 1024;
constexpr int kMetros = 3;
constexpr int kMetroDocs = 16;       // Per-metro universe...
constexpr int kMetroHot = 12;        // ...of which this many are the hot set.
constexpr int kFlooderDocs = 512;    // Uniform flood universe (~8 MB).
constexpr uint64_t kTotalBudget = 3 * 512 * 1024;  // Flat == tree total.
// Revalidation traffic ~ (requests hitting expired entries) x 192 B, so the
// TTL sets its budget; 20 ms keeps conditional checks cheap enough that
// invalidation only overtakes it once writes dominate — the crossover the
// full run gates on.
constexpr iolsim::SimTime kTtl = 40 * iolsim::kMillisecond;

struct BudgetSplit {
  const char* name;
  // Fraction of kTotalBudget owned by each level (edge, regional, top).
  double share[3];
};

constexpr BudgetSplit kSplits[] = {
    {"edge-heavy", {0.6, 0.3, 0.1}},
    {"balanced", {0.34, 0.33, 0.33}},
    {"origin-heavy", {0.1, 0.3, 0.6}},
};

// The four populations: metro m draws hot-biased from its own window,
// the flooder uniformly from the big shared tail. Rng state lives in
// shared_ptrs so the specs stay copyable.
ioldrv::EdgeMix MakeMix(const std::vector<iolfs::FileId>& ids) {
  std::vector<ioldrv::EdgePopulationSpec> pops;
  for (int m = 0; m < kMetros; ++m) {
    auto rng = std::make_shared<iolsim::Rng>(1000 + m);
    size_t lo = static_cast<size_t>(m) * kMetroDocs;
    pops.push_back({std::string("metro-") + std::to_string(m), 2,
                    [rng, &ids, lo]() -> iolfs::FileId {
                      // Zipf-like: u^3 concentrates on the low ranks.
                      double u = rng->NextDouble();
                      size_t r = static_cast<size_t>(u * u * u * kMetroHot);
                      return ids[lo + (r >= kMetroHot ? kMetroHot - 1 : r)];
                    }});
  }
  auto rng = std::make_shared<iolsim::Rng>(777);
  size_t flood_lo = static_cast<size_t>(kMetros) * kMetroDocs;
  pops.push_back({"flooder", 6, [rng, &ids, flood_lo]() -> iolfs::FileId {
                    return ids[flood_lo + rng->NextBelow(kFlooderDocs)];
                  }});
  return ioldrv::EdgeMix(std::move(pops));
}

iolcdn::CdnTopology MakeTreeTopo(const BudgetSplit& split,
                                 iolproxy::ConsistencyMode mode) {
  iolcdn::CdnTopology topo;
  const int counts[3] = {4, 2, 1};
  for (int l = 0; l < 3; ++l) {
    iolcdn::CdnLevelSpec spec;
    spec.count = counts[l];
    spec.cache_bytes = static_cast<uint64_t>(
        kTotalBudget * split.share[l] / counts[l]);
    topo.levels.push_back(spec);
  }
  topo.protocol = mode;
  topo.ttl = kTtl;
  return topo;
}

iolcdn::CdnTopology MakeFlatTopo(iolproxy::ConsistencyMode mode) {
  iolcdn::CdnTopology topo;
  iolcdn::CdnLevelSpec spec;
  spec.count = 1;
  spec.cache_bytes = kTotalBudget;
  topo.levels.push_back(spec);
  topo.protocol = mode;
  topo.ttl = mode == iolproxy::ConsistencyMode::kRevalidate ? kTtl : 0;
  return topo;
}

// Interior-link byte counts summed over the tree's levels.
struct CellOutcome {
  ioldrv::ExperimentResult result;
  uint64_t invalidation_bytes = 0;  // invalidations_sent * frame size.
  uint64_t revalidation_bytes = 0;
  // Everything the consistency protocol puts on interior links: fetch
  // payloads (re-fetches after sweeps included) plus control frames.
  uint64_t total_backhaul_bytes = 0;
};

// One data point, printed and added to the JSON document as (series, x): a
// fresh machine, the given topology, the standard four-population mix, and
// a seeded write stream against the metro docs.
CellOutcome RunCdnCell(iolbench::Figure* fig, const std::string& series, double x,
                       const iolcdn::CdnTopology& topo, double writes_per_sec) {
  iolbench::Cell cell;
  cell.kind = iolbench::ServerKind::kFlashLite;
  cell.members = kOrigins;
  cell.docs = kMetros * kMetroDocs + kFlooderDocs;
  cell.file_bytes = kDocBytes;
  cell.config.persistent_connections = true;
  cell.config.max_requests = 4000;
  cell.config.warmup_requests = 0;  // Origin-load comparisons count everything.
  cell.cdn = &topo;
  cell.proxy.data_path = iolproxy::ProxyDataPath::kIoLite;
  cell.proxy.backhaul = iolproxy::BackhaulMode::kRemote;
  iolcdn::WritePlanSpec wspec;
  wspec.writes_per_sec = writes_per_sec;
  // Writes land uniformly on metro-0's hot set: docs every level of the
  // tree holds continuously, so each write actually invalidates copies
  // (spreading writes over never-cached tails just bumps versions nobody
  // holds, flattening the invalidation curve).
  wspec.num_files = kMetroHot;
  wspec.hot_bias = 0;
  wspec.seed = 31;
  cell.writes = &wspec;
  cell.setup = [](iolbench::Machine& m) {
    return std::make_unique<ioldrv::EdgeMix>(MakeMix(m.ids));
  };
  CellOutcome out;
  out.result = fig->Run(cell).result;
  for (const ioldrv::ExperimentResult::CdnLevelResult& l : out.result.cdn_levels) {
    out.invalidation_bytes +=
        l.invalidations_sent * iolproxy::kInvalidationBytes;
    out.revalidation_bytes += l.revalidation_bytes;
    out.total_backhaul_bytes += l.backhaul_bytes + l.revalidation_bytes +
                                l.invalidations_sent * iolproxy::kInvalidationBytes;
  }
  std::printf("%-28s\t%7.0f\t%8.4f\t%10llu\t%10llu\t%10llu\t%12llu\t%9.3f\n",
              series.c_str(), x, out.result.proxy_hit_rate,
              static_cast<unsigned long long>(out.result.origin_fleet_fetches),
              static_cast<unsigned long long>(out.invalidation_bytes),
              static_cast<unsigned long long>(out.revalidation_bytes),
              static_cast<unsigned long long>(out.total_backhaul_bytes),
              out.result.staleness.p99_ms);
  fig->json().AddExperiment(series, x, out.result);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  iolbench::Figure fig("fig_cdn_hierarchy", argc, argv);
  using iolproxy::ConsistencyMode;

  fig.Header(
      "CDN hierarchy: 3-level tree vs flat proxy, consistency protocol x "
      "write rate x budget split (total budget held equal)",
      "series                      \twrites/s\thit_rate\torigin_load\t"
      "inval_B\treval_B\tbackhaul_B\tstale_p99_ms");

  // --- Gate (a): flat baseline vs the tree at every split, zero writes ------
  CellOutcome flat = RunCdnCell(&fig, "flat", 0, MakeFlatTopo(ConsistencyMode::kInvalidate), 0);
  uint64_t edge_heavy_origin_load = 0;
  for (const BudgetSplit& split : kSplits) {
    CellOutcome tree = RunCdnCell(&fig, std::string("tree-") + split.name, 0,
                                  MakeTreeTopo(split, ConsistencyMode::kInvalidate), 0);
    if (std::string(split.name) == "edge-heavy") {
      edge_heavy_origin_load = tree.result.origin_fleet_fetches;
    }
  }
  bool tree_beats_flat =
      edge_heavy_origin_load < flat.result.origin_fleet_fetches;
  std::printf(
      "# edge-heavy tree origin load %llu vs flat %llu (need tree < flat): "
      "%s\n",
      static_cast<unsigned long long>(edge_heavy_origin_load),
      static_cast<unsigned long long>(flat.result.origin_fleet_fetches),
      tree_beats_flat ? "ok" : "FAIL");

  // --- Gate (b): protocol x write-rate sweep at the edge-heavy split --------
  const double kFullRates[] = {50, 200, 800, 3200};
  const double kSmokeRates[] = {200, 3200};
  const double* rates = fig.smoke() ? kSmokeRates : kFullRates;
  size_t num_rates = fig.smoke() ? 2 : 4;
  const ConsistencyMode kModes[] = {ConsistencyMode::kInvalidate,
                                    ConsistencyMode::kRevalidate,
                                    ConsistencyMode::kStale};
  const BudgetSplit& edge_heavy = kSplits[0];
  // Consistency bytes per (rate) for the two freshness protocols.
  std::vector<uint64_t> inval_bytes(num_rates, 0);
  std::vector<uint64_t> reval_bytes(num_rates, 0);
  for (ConsistencyMode mode : kModes) {
    for (size_t i = 0; i < num_rates; ++i) {
      CellOutcome cell = RunCdnCell(&fig, std::string(iolproxy::Name(mode)) + "/edge-heavy",
                                    rates[i], MakeTreeTopo(edge_heavy, mode), rates[i]);
      if (mode == ConsistencyMode::kInvalidate) {
        inval_bytes[i] = cell.total_backhaul_bytes;
      } else if (mode == ConsistencyMode::kRevalidate) {
        reval_bytes[i] = cell.total_backhaul_bytes;
      }
    }
  }
  // The crossover, on total interior-link bytes (fetch payloads + control
  // frames): at low write rates invalidation is nearly free — a frame only
  // when a copy is actually held — while revalidation pays a conditional
  // check per TTL expiry no matter what. At high write rates invalidation
  // sweeps the tree and every next request re-fetches a full body, while
  // revalidation keeps serving the cached copy until its TTL and re-fetches
  // at most once per expiry. Find the sign flip.
  double crossover_low = -1, crossover_high = -1;
  bool low_inval_cheaper = inval_bytes[0] < reval_bytes[0];
  bool high_reval_cheaper = reval_bytes[num_rates - 1] < inval_bytes[num_rates - 1];
  for (size_t i = 0; i + 1 < num_rates; ++i) {
    if (inval_bytes[i] < reval_bytes[i] &&
        inval_bytes[i + 1] >= reval_bytes[i + 1]) {
      crossover_low = rates[i];
      crossover_high = rates[i + 1];
    }
  }
  bool crossover = low_inval_cheaper && high_reval_cheaper;
  if (crossover) {
    std::printf(
        "# invalidate/revalidate backhaul-bytes crossover between %.0f and "
        "%.0f writes/s: ok\n",
        crossover_low, crossover_high);
  } else {
    std::printf(
        "# no invalidate/revalidate crossover found (low: inval %llu vs "
        "reval %llu; high: inval %llu vs reval %llu): FAIL\n",
        static_cast<unsigned long long>(inval_bytes[0]),
        static_cast<unsigned long long>(reval_bytes[0]),
        static_cast<unsigned long long>(inval_bytes[num_rates - 1]),
        static_cast<unsigned long long>(reval_bytes[num_rates - 1]));
  }

  return fig.Finish(
      "expectation: per-edge budgets quarantine the flooder; invalidation "
      "is cheap until write sweeps force re-fetches that dwarf the "
      "revalidation check tax",
      [&] {
        // The acceptance gates; smoke runs are too short for the cache
        // dynamics to settle, so only full runs enforce them.
        return fig.smoke() || (tree_beats_flat && crossover);
      });
}
