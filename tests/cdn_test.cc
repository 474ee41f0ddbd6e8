// Tests for the CDN hierarchy (src/cdn + ioldrv::CdnTier): run-twice byte
// identity under every consistency protocol, the kInvalidate "never serve
// older than the acknowledged write" invariant, the exact kRevalidate TTL
// staleness bound, kStale's serve-forever accounting, per-level results
// as the run's slice of the machine's counters, and the topology checks
// that abort in every build type. The one-level tree's goldens live in
// proxy_test.cc.
//
// Every test is fork-free and thread-free (label `cdn` in CMake, so both
// sanitizer jobs run it). Where a test drives proxies by hand it uses the
// Drain idiom from fault_test; full runs go through CdnTier::Run with an
// EdgeMix workload so client->edge pinning is on the tested path.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/cdn/cdn_topology.h"
#include "src/cdn/version_authority.h"
#include "src/cdn/write_plan.h"
#include "src/driver/cdn_tier.h"
#include "src/driver/edge_mix.h"
#include "src/driver/experiment.h"
#include "src/driver/fleet.h"
#include "src/driver/telemetry.h"
#include "src/httpd/http_server.h"
#include "src/simos/rng.h"
#include "src/simos/stats.h"
#include "src/system/system.h"
#include "tests/test_util.h"

namespace {

using ioldrv::CdnTier;
using ioldrv::EdgeMix;
using ioldrv::EdgePopulationSpec;
using ioldrv::ExperimentConfig;
using ioldrv::ExperimentResult;
using ioldrv::Fleet;
using ioldrv::RequestRecord;
using ioldrv::Telemetry;
using iolcdn::CdnLevelSpec;
using iolcdn::CdnTopology;
using iolcdn::WritePlan;
using iolcdn::WritePlanSpec;
using iolfs::FileId;
using iolproxy::ConsistencyMode;
using iolsim::kMicrosecond;
using iolsim::kMillisecond;
using iolsim::SimTime;
using iolsys::System;

// --- Rig ----------------------------------------------------------------------

struct CdnRig {
  std::unique_ptr<System> sys;
  std::vector<std::unique_ptr<iolhttp::HttpServer>> origins;
  std::unique_ptr<CdnTier> tier;
  std::vector<FileId> files;
};

iolproxy::ProxyConfig BaseProxyConfig() {
  iolproxy::ProxyConfig pc;
  pc.data_path = iolproxy::ProxyDataPath::kIoLite;
  pc.backhaul = iolproxy::BackhaulMode::kRemote;
  return pc;
}

CdnRig MakeCdnRig(CdnTopology topo, int num_origins, int docs,
                  uint64_t doc_bytes, ExperimentConfig config,
                  iolproxy::ProxyConfig pconfig = BaseProxyConfig(),
                  size_t checksum_cache_entries = 65536) {
  CdnRig r;
  iolsys::SystemOptions options;
  options.checksum_cache_entries = checksum_cache_entries;
  options.cost.cpu_count = num_origins;
  options.cost.disk_count = num_origins;
  r.sys = std::make_unique<System>(options);
  for (int i = 0; i < docs; ++i) {
    r.files.push_back(
        r.sys->fs().CreateFile("doc" + std::to_string(i), doc_bytes));
  }
  std::vector<iolhttp::HttpServer*> members;
  for (int i = 0; i < num_origins; ++i) {
    r.origins.push_back(std::make_unique<iolhttp::FlashLiteServer>(
        &r.sys->ctx(), &r.sys->net(), &r.sys->io(), &r.sys->runtime()));
    members.push_back(r.origins.back().get());
  }
  r.tier = std::make_unique<CdnTier>(
      &r.sys->ctx(), &r.sys->net(), &r.sys->io(), &r.sys->runtime(),
      Fleet(members), std::move(topo), pconfig, config);
  return r;
}

void Drain(System* sys) {
  while (sys->ctx().events().RunOne()) {
  }
}

// Two edges, one regional; every interior link runs `mode`.
CdnTopology TwoLevelTopo(ConsistencyMode mode, SimTime ttl) {
  CdnTopology topo;
  CdnLevelSpec edge;
  edge.count = 2;
  edge.cache_bytes = 256 * 1024;
  CdnLevelSpec regional;
  regional.count = 1;
  regional.cache_bytes = 1024 * 1024;
  topo.levels = {edge, regional};
  topo.protocol = mode;
  topo.ttl = ttl;
  return topo;
}

// Per-edge populations: overlapping uniform windows over the doc set, so
// writes collide with reads on both edges but the hot sets differ.
EdgeMix MakeEdgeMix(const std::vector<FileId>& files, uint64_t seed) {
  auto window = [&files, seed](size_t lo, size_t n) {
    auto rng = std::make_shared<iolsim::Rng>(seed ^ (lo * 0x9e3779b9ull));
    std::vector<FileId> slice(files.begin() + lo, files.begin() + lo + n);
    return [rng, slice]() -> FileId {
      return slice[rng->NextBelow(slice.size())];
    };
  };
  std::vector<EdgePopulationSpec> specs;
  specs.push_back({"metro-a", 2, window(0, 8)});
  specs.push_back({"metro-b", 2, window(4, 8)});
  return EdgeMix(std::move(specs));
}

struct RunCapture {
  Telemetry telemetry;
  ExperimentResult result;
  SimTime clock = 0;
  iolsim::SimStats stats;
  // The machine's per-level counters just before and just after the run.
  iolsim::SimStats::CdnLevelStats cdn_before[iolsim::SimStats::kMaxCdnLevels];
  iolsim::SimStats::CdnLevelStats cdn[iolsim::SimStats::kMaxCdnLevels];
};

// `counter_base` > 0 presets every per-level counter to a distinct non-zero
// value, as if the machine had done CDN work before this run.
RunCapture RunHierarchy(ConsistencyMode mode, SimTime ttl,
                        double writes_per_sec, uint64_t counter_base = 0,
                        size_t checksum_cache_entries = 65536) {
  ExperimentConfig config;
  config.persistent_connections = true;
  config.max_requests = 400;
  config.warmup_requests = 0;
  CdnRig rig = MakeCdnRig(TwoLevelTopo(mode, ttl), /*num_origins=*/2,
                          /*docs=*/12, /*doc_bytes=*/4 * 1024, config,
                          BaseProxyConfig(), checksum_cache_entries);
  WritePlanSpec wspec;
  wspec.writes_per_sec = writes_per_sec;
  wspec.num_files = rig.files.size();
  wspec.hot_bias = 1.0;
  wspec.seed = 7;
  WritePlan writes(&rig.sys->ctx(), &rig.tier->authority(), wspec);
  rig.tier->set_write_plan(&writes);

  EdgeMix mix = MakeEdgeMix(rig.files, /*seed=*/99);
  RunCapture cap;
  for (int l = 0; l < iolsim::SimStats::kMaxCdnLevels; ++l) {
    iolsim::SimStats::CdnLevelStats& c = rig.sys->ctx().stats().cdn[l];
    if (counter_base > 0) {
      uint64_t base = counter_base * (l + 1);
      c.hits += base;
      c.misses += base + 1;
      uint64_t k = 2;
      for (const iolsim::CdnLevelCounter& counter : iolsim::kCdnLevelCounters) {
        c.*counter.field += base + k++;
      }
    }
    cap.cdn_before[l] = c;
  }
  cap.result = rig.tier->Run(&mix, [&rig]() { return rig.files[0]; },
                             &cap.telemetry);
  cap.clock = rig.sys->ctx().clock().now();
  cap.stats = rig.sys->ctx().stats();
  for (int l = 0; l < iolsim::SimStats::kMaxCdnLevels; ++l) {
    cap.cdn[l] = rig.sys->ctx().stats().cdn[l];
  }
  return cap;
}

void ExpectIdenticalStreams(const Telemetry& a, const Telemetry& b) {
  ASSERT_EQ(a.records().size(), b.records().size());
  for (size_t i = 0; i < a.records().size(); ++i) {
    const RequestRecord& x = a.records()[i];
    const RequestRecord& y = b.records()[i];
    EXPECT_EQ(x.issue, y.issue) << i;
    EXPECT_EQ(x.admit, y.admit) << i;
    EXPECT_EQ(x.complete, y.complete) << i;
    EXPECT_EQ(x.bytes, y.bytes) << i;
    EXPECT_EQ(x.server, y.server) << i;
    EXPECT_EQ(x.outcome, y.outcome) << i;
    EXPECT_EQ(x.cache_hit, y.cache_hit) << i;
    EXPECT_EQ(x.counted, y.counted) << i;
  }
}

// --- Determinism: run twice, byte parity, per protocol ------------------------

class CdnDeterminismTest
    : public ::testing::TestWithParam<ConsistencyMode> {};

TEST_P(CdnDeterminismTest, RunTwiceIsByteIdentical) {
  ConsistencyMode mode = GetParam();
  SimTime ttl = 5 * kMillisecond;
  RunCapture a = RunHierarchy(mode, ttl, /*writes_per_sec=*/400);
  RunCapture b = RunHierarchy(mode, ttl, /*writes_per_sec=*/400);
  ExpectIdenticalStreams(a.telemetry, b.telemetry);
  EXPECT_EQ(a.clock, b.clock);
  EXPECT_EQ(a.result.cdn_writes, b.result.cdn_writes);
  EXPECT_GT(a.result.cdn_writes, 0u);
  // Every level labelled each body with the version it held, stale or not.
  EXPECT_EQ(a.result.corrupt_responses, 0u);
  for (int l = 0; l < iolsim::SimStats::kMaxCdnLevels; ++l) {
    EXPECT_EQ(a.cdn[l].hits, b.cdn[l].hits) << l;
    EXPECT_EQ(a.cdn[l].misses, b.cdn[l].misses) << l;
    EXPECT_EQ(a.cdn[l].backhaul_bytes, b.cdn[l].backhaul_bytes) << l;
    EXPECT_EQ(a.cdn[l].stale_serves, b.cdn[l].stale_serves) << l;
    EXPECT_EQ(a.cdn[l].invalidations_sent, b.cdn[l].invalidations_sent) << l;
    EXPECT_EQ(a.cdn[l].revalidations, b.cdn[l].revalidations) << l;
    EXPECT_EQ(a.cdn[l].revalidation_bytes, b.cdn[l].revalidation_bytes) << l;
    EXPECT_EQ(a.cdn[l].fetch_races, b.cdn[l].fetch_races) << l;
  }
  // The protocol actually ran: its own control-traffic counter moved.
  uint64_t inval = a.cdn[0].invalidations_sent + a.cdn[1].invalidations_sent;
  uint64_t reval = a.cdn[0].revalidations + a.cdn[1].revalidations;
  uint64_t stale = a.cdn[0].stale_serves + a.cdn[1].stale_serves;
  switch (mode) {
    case ConsistencyMode::kInvalidate:
      EXPECT_GT(inval, 0u);
      break;
    case ConsistencyMode::kRevalidate:
      EXPECT_GT(reval, 0u);
      break;
    case ConsistencyMode::kStale:
      EXPECT_GT(stale, 0u);
      break;
    case ConsistencyMode::kNone:
      break;
  }
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, CdnDeterminismTest,
                         ::testing::Values(ConsistencyMode::kInvalidate,
                                           ConsistencyMode::kRevalidate,
                                           ConsistencyMode::kStale),
                         [](const ::testing::TestParamInfo<ConsistencyMode>& i) {
                           return std::string(iolproxy::Name(i.param));
                         });

// --- Checksum cache at capacity ---------------------------------------------

// The proxy tree with its machine's checksum cache shrunk, so response
// headers at every level push cached body slices out and they are summed
// again. Pinned to values captured from the indexed LRU in which every
// header held an entry.
struct CacheGolden {
  uint64_t checksum_cache_hits;
  uint64_t checksum_cache_misses;
  uint64_t bytes_checksummed;
  uint64_t events_dispatched;
  SimTime final_clock_ns;
};

void ExpectShrunkCacheRunMatches(size_t cache_entries, const CacheGolden& g) {
  RunCapture run = RunHierarchy(ConsistencyMode::kInvalidate, 5 * kMillisecond,
                                /*writes_per_sec=*/400, /*counter_base=*/0, cache_entries);
  EXPECT_EQ(run.stats.checksum_cache_hits, g.checksum_cache_hits);
  EXPECT_EQ(run.stats.checksum_cache_misses, g.checksum_cache_misses);
  EXPECT_EQ(run.stats.bytes_checksummed, g.bytes_checksummed);
  EXPECT_EQ(run.stats.events_dispatched, g.events_dispatched);
  EXPECT_EQ(run.clock, g.final_clock_ns);
  EXPECT_EQ(run.result.corrupt_responses, 0u);
}

TEST(CdnChecksumCacheGoldenTest, Invalidate64Entries) {
  ExpectShrunkCacheRunMatches(64, CacheGolden{344, 628, 703132, 3663, 129420717});
}

TEST(CdnChecksumCacheGoldenTest, Invalidate4096Entries) {
  ExpectShrunkCacheRunMatches(4096, CacheGolden{387, 585, 527004, 3664, 129420717});
}

// --- Result per level: the run's slice of SimStats::cdn[] ---------------------

class CdnLevelResultTest : public ::testing::TestWithParam<ConsistencyMode> {};

TEST_P(CdnLevelResultTest, EveryCounterIsTheRunsSimStatsDelta) {
  RunCapture run = RunHierarchy(GetParam(), 5 * kMillisecond,
                                /*writes_per_sec=*/400, /*counter_base=*/1000);
  ASSERT_EQ(run.result.cdn_levels.size(), 2u);
  uint64_t protocol_traffic = 0;
  for (size_t l = 0; l < run.result.cdn_levels.size(); ++l) {
    const ExperimentResult::CdnLevelResult& out = run.result.cdn_levels[l];
    const iolsim::SimStats::CdnLevelStats& now = run.cdn[l];
    const iolsim::SimStats::CdnLevelStats& was = run.cdn_before[l];
    for (const iolsim::CdnLevelCounter& c : iolsim::kCdnLevelCounters) {
      EXPECT_EQ(out.*c.field, now.*c.field - was.*c.field) << "level " << l << " " << c.name;
    }
    uint64_t hits = now.hits - was.hits;
    uint64_t misses = now.misses - was.misses;
    ASSERT_GT(hits + misses, 0u) << l;
    EXPECT_EQ(out.hit_rate, static_cast<double>(hits) / static_cast<double>(hits + misses))
        << l;
    protocol_traffic += GetParam() == ConsistencyMode::kInvalidate
                            ? out.invalidations_sent
                            : out.revalidations;
  }
  EXPECT_EQ(run.result.cdn_levels[0].proxies, 2);
  EXPECT_EQ(run.result.cdn_levels[1].proxies, 1);
  EXPECT_GT(run.result.cdn_writes, 0u);
  EXPECT_GT(protocol_traffic, 0u);  // The protocol's own counter moved.
}

INSTANTIATE_TEST_SUITE_P(WritesAndChecks, CdnLevelResultTest,
                         ::testing::Values(ConsistencyMode::kInvalidate,
                                           ConsistencyMode::kRevalidate),
                         [](const ::testing::TestParamInfo<ConsistencyMode>& i) {
                           return std::string(iolproxy::Name(i.param));
                         });

// --- kInvalidate: never serve older than the acknowledged write ---------------

TEST(CdnConsistencyTest, InvalidationNeverServesOlderThanAckedWrite) {
  CdnRig rig = MakeCdnRig(TwoLevelTopo(ConsistencyMode::kInvalidate, 0),
                          /*num_origins=*/1, /*docs=*/2,
                          /*doc_bytes=*/6 * 1024, ExperimentConfig{});
  iolproxy::ProxyServer& edge = rig.tier->proxy(0, 0);
  iolproxy::ProxyServer& regional = rig.tier->proxy(1, 0);
  iolnet::TcpConnection conn(&rig.sys->net(), true);
  conn.Connect();
  FileId doc = rig.files[0];

  // Warm the whole path: edge and regional both hold version 0.
  edge.HandleRequest(&conn, doc);
  Drain(rig.sys.get());
  ASSERT_TRUE(edge.CachesFile(doc));
  ASSERT_TRUE(regional.CachesFile(doc));

  // One origin write: the ack instant is when the slowest invalidation
  // lands. Past the ack, no cache in the tree may hold the old version.
  SimTime before = rig.sys->ctx().clock().now();
  SimTime ack = rig.tier->authority().ApplyWrite(doc);
  EXPECT_GT(ack, before);  // Held copies => a real propagation wait.
  Drain(rig.sys.get());
  EXPECT_GE(rig.sys->ctx().clock().now(), ack);
  EXPECT_FALSE(edge.CachesFile(doc));
  EXPECT_FALSE(regional.CachesFile(doc));

  const iolsim::SimStats& stats = rig.sys->ctx().stats();
  EXPECT_EQ(stats.cdn[0].invalidations_sent, 1u);
  EXPECT_EQ(stats.cdn[1].invalidations_sent, 1u);
  EXPECT_EQ(stats.cdn[0].invalidations_applied, 1u);
  EXPECT_EQ(stats.cdn[1].invalidations_applied, 1u);

  // A post-ack request refetches and serves the written version — zero
  // stale serves anywhere in the tree.
  edge.HandleRequest(&conn, doc);
  Drain(rig.sys.get());
  EXPECT_EQ(edge.proxy_cache().VersionOf(doc), 1u);
  EXPECT_EQ(regional.proxy_cache().VersionOf(doc), 1u);
  EXPECT_EQ(edge.stale_serves(), 0u);
  EXPECT_EQ(regional.stale_serves(), 0u);

  // A write to an uncached object needs no invalidation: ack == now.
  SimTime now = rig.sys->ctx().clock().now();
  EXPECT_EQ(rig.tier->authority().ApplyWrite(rig.files[1]), now);
  conn.Close();
}

// --- kRevalidate: the TTL staleness bound holds exactly -----------------------

TEST(CdnConsistencyTest, RevalidateStalenessNeverExceedsTtl) {
  const SimTime kTtl = 5 * kMillisecond;
  RunCapture cap =
      RunHierarchy(ConsistencyMode::kRevalidate, kTtl, /*writes_per_sec=*/800);
  // The run exercised the machinery: writes landed, conditionals went up.
  EXPECT_GT(cap.result.cdn_writes, 0u);
  uint64_t reval = cap.cdn[0].revalidations + cap.cdn[1].revalidations;
  EXPECT_GT(reval, 0u);
  EXPECT_EQ(cap.cdn[0].revalidation_bytes,
            cap.cdn[0].revalidations * iolproxy::kRevalidationBytes);
  // The bound: an unexpired entry is at most ttl past its last validation,
  // so no serve is ever staler than ttl. Exact, not approximate.
  EXPECT_GT(cap.result.staleness.count, 0u);
  EXPECT_LT(cap.result.staleness.max_ms,
            static_cast<double>(kTtl) / kMillisecond);
}

// --- kStale: serve forever, measure the cost ----------------------------------

TEST(CdnConsistencyTest, StaleModeKeepsServingAndMeasuresAge) {
  CdnRig rig = MakeCdnRig(TwoLevelTopo(ConsistencyMode::kStale, 0),
                          /*num_origins=*/1, /*docs=*/1,
                          /*doc_bytes=*/6 * 1024, ExperimentConfig{});
  iolproxy::ProxyServer& edge = rig.tier->proxy(0, 0);
  iolnet::TcpConnection conn(&rig.sys->net(), true);
  conn.Connect();
  FileId doc = rig.files[0];

  edge.HandleRequest(&conn, doc);
  Drain(rig.sys.get());
  ASSERT_TRUE(edge.CachesFile(doc));

  // Writes neither invalidate nor revalidate anything under kStale.
  rig.tier->authority().ApplyWrite(doc);
  Drain(rig.sys.get());
  SimTime written = rig.tier->authority().WrittenAt(doc);
  EXPECT_TRUE(edge.CachesFile(doc));

  edge.HandleRequest(&conn, doc);
  Drain(rig.sys.get());
  EXPECT_EQ(edge.stale_serves(), 1u);
  ASSERT_EQ(edge.staleness_samples().size(), 1u);
  // The sample prices exactly the serve-to-write gap; it only grows as the
  // object keeps being served without refresh.
  EXPECT_GT(edge.staleness_samples()[0], 0);
  EXPECT_LT(edge.staleness_samples()[0],
            rig.sys->ctx().clock().now() - written + 1);
  const iolsim::SimStats& stats = rig.sys->ctx().stats();
  EXPECT_EQ(stats.cdn[0].invalidations_sent, 0u);
  EXPECT_EQ(stats.cdn[0].revalidations, 0u);
  EXPECT_EQ(stats.cdn[0].stale_serves, 1u);
  // A stale serve sends the version it holds: stale, not corrupt.
  EXPECT_EQ(stats.corrupt_responses, 0u);
  conn.Close();
}

// --- Delivery check ------------------------------------------------------------

// Each mutant, planted in an edge's cache under the current version after
// an origin write, is a body other than that version's bytes: each must
// count one corrupt response. The honest entry -- the current version's
// snapshot -- serves clean.
class CdnDeliveryMutantTest
    : public ::testing::TestWithParam<std::optional<ioltest::Mutant>> {};

TEST_P(CdnDeliveryMutantTest, RaisesCorruptResponses) {
  CdnRig rig = MakeCdnRig(TwoLevelTopo(ConsistencyMode::kStale, 0),
                          /*num_origins=*/1, /*docs=*/2,
                          /*doc_bytes=*/6 * 1024, ExperimentConfig{});
  iolproxy::ProxyServer& edge = rig.tier->proxy(0, 0);
  iolnet::TcpConnection conn(&rig.sys->net(), true);
  conn.Connect();
  FileId doc = rig.files[0];
  edge.HandleRequest(&conn, doc);
  Drain(rig.sys.get());
  rig.tier->authority().ApplyWrite(doc);
  Drain(rig.sys.get());
  const uint64_t current = rig.tier->authority().VersionOf(doc);
  ASSERT_EQ(current, 1u);
  ASSERT_EQ(rig.sys->ctx().stats().corrupt_responses, 0u);

  iolite::BufferPool* pool =
      rig.sys->runtime().CreatePool("mutant", iolsim::kKernelDomain);
  if (GetParam().has_value()) {
    ioltest::PoisonCache(edge.proxy_cache(), rig.sys->fs(), pool, doc, current,
                         rig.files[1], *GetParam());
  } else {
    edge.proxy_cache().Insert(
        doc, 0, iolite::Aggregate::FromBuffer(rig.sys->fs().ReadSnapshot(doc, pool, current)),
        current);
  }
  edge.HandleRequest(&conn, doc);
  Drain(rig.sys.get());
  EXPECT_EQ(edge.stale_serves(), 0u) << "every body is labelled current";
  EXPECT_EQ(rig.sys->ctx().stats().corrupt_responses, GetParam().has_value() ? 1u : 0u);
  conn.Close();
}

INSTANTIATE_TEST_SUITE_P(
    HonestAndFourMutants, CdnDeliveryMutantTest,
    ::testing::Values(std::nullopt, ioltest::Mutant::kWrongFile,
                      ioltest::Mutant::kStaleLabelledCurrent, ioltest::Mutant::kOffByOne,
                      ioltest::Mutant::kDroppedSlice));

// --- Topology checks (fprintf + abort: they hold in every build type) -------

CdnTopology Levels(std::vector<int> counts) {
  CdnTopology topo;
  for (int count : counts) {
    CdnLevelSpec spec;
    spec.count = count;
    topo.levels.push_back(spec);
  }
  return topo;
}

TEST(CdnTierDeathTest, RejectsEmptyLevel) {
  // An empty interior level would leave its children no parent to attach
  // to; an empty edge level would leave clients no proxy.
  EXPECT_DEATH(MakeCdnRig(Levels({2, 0}), 1, 1, 1024, ExperimentConfig{}),
               "level 1 needs count >= 1");
  EXPECT_DEATH(MakeCdnRig(Levels({0}), 1, 1, 1024, ExperimentConfig{}),
               "level 0 needs count >= 1");
}

TEST(CdnTierDeathTest, RejectsColocatedBackhaulBeyondOneProxy) {
  iolproxy::ProxyConfig colocated = BaseProxyConfig();
  colocated.backhaul = iolproxy::BackhaulMode::kColocated;
  EXPECT_DEATH(
      MakeCdnRig(Levels({1, 1}), 1, 1, 1024, ExperimentConfig{}, colocated),
      "co-located backhaul");
  EXPECT_DEATH(MakeCdnRig(Levels({2}), 1, 1, 1024, ExperimentConfig{}, colocated),
               "co-located backhaul");
  // The two-tier shape is accepted.
  CdnRig rig = MakeCdnRig(Levels({1}), 1, 1, 1024, ExperimentConfig{}, colocated);
  EXPECT_TRUE(rig.tier->proxy(0, 0).shares_unified_cache());
}

}  // namespace
