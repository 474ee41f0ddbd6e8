// Determinism and golden-parity tests for the discrete-event engine.
//
// The allocation-free engine rebuild (pooled events, inline continuations,
// heap-of-PODs event queue, O(1) resource units) must not perturb simulated
// results: same event order, same Telemetry streams, same figure numbers.
// Two layers of defense:
//
//  * Run-twice parity: a fig03-style experiment executed twice in-process
//    yields byte-identical per-request record streams.
//  * Golden end-to-end checks: the fig03/fig05 smoke configurations are
//    pinned to the exact numbers the pre-rebuild engine produced (captured
//    from commit e6f7449 + the events_dispatched counter), and fig12's copy
//    servers at LAN and 150 ms RTT to the numbers the figure produced
//    before it moved onto the shared cell runner. Each runs the figure's
//    own cell (bench/bench_util.h) through RunCell. Any engine
//    change that reorders events, re-times a stage, or double-counts an
//    operation fails these loudly. If a change is *supposed* to alter
//    simulated behavior, recapture the goldens and say so in the PR.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/driver/experiment.h"
#include "src/driver/telemetry.h"
#include "src/driver/workload.h"
#include "src/system/system.h"
#include "src/workload/trace.h"

namespace {

using iolbench::ServerKind;

// One golden row: end-to-end result + machine counters for a smoke config.
struct Golden {
  uint64_t requests;
  uint64_t bytes;
  double mbps;
  double p50_ms;
  double p99_ms;
  double cache_hit_rate;
  uint64_t bytes_copied;
  uint64_t bytes_checksummed;
  uint64_t checksum_cache_hits;
  uint64_t pages_mapped;
  uint64_t syscalls;
  uint64_t packets_sent;
  uint64_t tcp_connections;
  uint64_t disk_reads;
  uint64_t events_dispatched;
  int64_t final_clock_ns;
};

using RunOutput = iolbench::CellRun;

// The figures' smoke scaling (--smoke).
const iolbench::BenchOptions kSmoke{"", true};

// The fig03 smoke cell: 8 clients, 120 counted requests, 20 warmup,
// nonpersistent connections, one document.
RunOutput RunSingleFileSmoke(ServerKind kind, size_t file_bytes,
                             iolsys::SystemOptions options = {}) {
  iolbench::Cell cell = iolbench::SingleFileCell(kind, file_bytes, false);
  cell.options = options;
  return iolbench::RunCell(kSmoke.Scale(cell));
}

// The fig05 smoke cell: same population, FastCGI servers.
RunOutput RunCgiSmoke(ServerKind kind, size_t doc_bytes) {
  return iolbench::RunCell(kSmoke.Scale(iolbench::CgiCell(kind, doc_bytes, false)));
}

// The fig12 smoke cell at one delay point: 120 MB of the subtrace under the
// memory model's cache budget, the client population behind a delay router.
RunOutput RunFig12Smoke(ServerKind kind, const iolbench::Fig12Point& point) {
  static const iolwl::Trace prefix = iolbench::Fig12Prefix(/*smoke=*/true);
  return iolbench::RunCell(kSmoke.Scale(iolbench::Fig12Cell(kind, &prefix, point)));
}

void ExpectMatchesGolden(const RunOutput& out, const Golden& g) {
  EXPECT_EQ(out.result.requests, g.requests);
  EXPECT_EQ(out.result.bytes, g.bytes);
  EXPECT_DOUBLE_EQ(out.result.megabits_per_sec, g.mbps);
  EXPECT_DOUBLE_EQ(out.result.latency.p50_ms, g.p50_ms);
  EXPECT_DOUBLE_EQ(out.result.latency.p99_ms, g.p99_ms);
  EXPECT_DOUBLE_EQ(out.result.cache_hit_rate, g.cache_hit_rate);
  EXPECT_EQ(out.stats.bytes_copied, g.bytes_copied);
  EXPECT_EQ(out.stats.bytes_checksummed, g.bytes_checksummed);
  EXPECT_EQ(out.stats.checksum_cache_hits, g.checksum_cache_hits);
  EXPECT_EQ(out.stats.pages_mapped, g.pages_mapped);
  EXPECT_EQ(out.stats.syscalls, g.syscalls);
  EXPECT_EQ(out.stats.packets_sent, g.packets_sent);
  EXPECT_EQ(out.stats.tcp_connections, g.tcp_connections);
  EXPECT_EQ(out.stats.disk_reads, g.disk_reads);
  EXPECT_EQ(out.stats.events_dispatched, g.events_dispatched);
  EXPECT_EQ(out.final_clock, g.final_clock_ns);
  // Every body the IO-Lite servers sent passed the delivery check.
  EXPECT_EQ(out.result.corrupt_responses, 0u);
}

// --- Run-twice parity --------------------------------------------------------

void ExpectIdenticalStreams(const std::vector<ioldrv::RequestRecord>& a,
                            const std::vector<ioldrv::RequestRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].issue, b[i].issue) << "record " << i;
    EXPECT_EQ(a[i].admit, b[i].admit) << "record " << i;
    EXPECT_EQ(a[i].complete, b[i].complete) << "record " << i;
    EXPECT_EQ(a[i].bytes, b[i].bytes) << "record " << i;
    EXPECT_EQ(a[i].server, b[i].server) << "record " << i;
    EXPECT_EQ(a[i].cache_hit, b[i].cache_hit) << "record " << i;
    EXPECT_EQ(a[i].counted, b[i].counted) << "record " << i;
  }
}

TEST(DeterminismTest, SingleFileRunTwiceProducesIdenticalTelemetryStreams) {
  RunOutput a = RunSingleFileSmoke(ServerKind::kFlash, 5 * 1024);
  RunOutput b = RunSingleFileSmoke(ServerKind::kFlash, 5 * 1024);
  ExpectIdenticalStreams(a.telemetry.records(), b.telemetry.records());
  EXPECT_EQ(a.final_clock, b.final_clock);
  EXPECT_EQ(a.stats.events_dispatched, b.stats.events_dispatched);
}

TEST(DeterminismTest, LiteRunTwiceProducesIdenticalTelemetryStreams) {
  RunOutput a = RunSingleFileSmoke(ServerKind::kFlashLite, 50 * 1024);
  RunOutput b = RunSingleFileSmoke(ServerKind::kFlashLite, 50 * 1024);
  EXPECT_EQ(a.result.corrupt_responses, 0u);
  ExpectIdenticalStreams(a.telemetry.records(), b.telemetry.records());
  EXPECT_EQ(a.final_clock, b.final_clock);
  EXPECT_EQ(a.stats.events_dispatched, b.stats.events_dispatched);
}

// --- Golden end-to-end checks (values captured on the pre-rebuild engine) ----

TEST(GoldenTest, Fig03Flash5k) {
  ExpectMatchesGolden(RunSingleFileSmoke(ServerKind::kFlash, 5 * 1024),
                      Golden{120, 644400, 116.99346405228758, 1.4705999999999999,
                             45.560758, 0.94482758620689655, 789390, 789390, 0, 16, 147,
                             735, 147, 8, 1332, 71310982});
}

TEST(GoldenTest, Fig03Apache5k) {
  ExpectMatchesGolden(RunSingleFileSmoke(ServerKind::kApache, 5 * 1024),
                      Golden{120, 644400, 43.355255411837923, 8.1411999999999995,
                             63.880388000000004, 0.94326241134751776, 789390, 789390, 0,
                             16, 147, 735, 147, 8, 1332, 154376538});
}

TEST(GoldenTest, Fig03FlashLite5k) {
  ExpectMatchesGolden(RunSingleFileSmoke(ServerKind::kFlashLite, 5 * 1024),
                      Golden{120, 644400, 136.42335189254055, 1.2596639999999999,
                             45.250067999999999, 0.94482758620689655, 36750, 77710, 139,
                             32, 294, 735, 147, 8, 1332, 71277848});
}

TEST(GoldenTest, Fig03Flash50k) {
  ExpectMatchesGolden(RunSingleFileSmoke(ServerKind::kFlash, 50 * 1024),
                      Golden{120, 6174000, 228.789535120713, 14.41, 83.286567000000005,
                             0.94405594405594406, 7563150, 7563150, 0, 104, 147, 5439,
                             147, 8, 6036, 280757067});
}

TEST(GoldenTest, Fig03FlashLite50k) {
  ExpectMatchesGolden(RunSingleFileSmoke(ServerKind::kFlashLite, 50 * 1024),
                      Golden{120, 6174000, 337.62306893012567, 9.6449269999999991,
                             82.218368999999996, 0.94405594405594406, 36750, 446350, 139,
                             144, 294, 5439, 147, 8, 6036, 197331394});
}

TEST(GoldenTest, Fig05FlashCgi20k) {
  ExpectMatchesGolden(
      RunCgiSmoke(ServerKind::kFlash, 20 * 1024),
      Golden{120, 2487600, 109.41724627985322, 12.103327999999999, 12.479328000000001, 0,
             9068430, 3047310, 0, 0, 441, 2352, 147, 0, 3088, 222859312});
}

TEST(GoldenTest, Fig05LiteCgi20k) {
  ExpectMatchesGolden(
      RunCgiSmoke(ServerKind::kFlashLite, 20 * 1024),
      Golden{120, 2487600, 213.36952735596165, 6.2233280000000004, 6.4433280000000002, 0,
             57230, 57230, 146, 48, 441, 2352, 147, 0, 3088, 115227989});
}

// The copy servers on the WAN-delay, cache-budget trace path (fig12's smoke
// cells), captured from the figure's own setup before it moved to RunCell.
TEST(GoldenTest, Fig12FlashLan) {
  ExpectMatchesGolden(
      RunFig12Smoke(ServerKind::kFlash, iolbench::kFig12Points[0]),
      Golden{120, 1578963, 12.721520645440709, 72.006332, 91.391231000000005,
             0.10884353741496598, 1959093, 1959093, 0, 526, 147, 1558, 147, 131, 2278,
             1250650182});
}

TEST(GoldenTest, Fig12ApacheLan) {
  ExpectMatchesGolden(
      RunFig12Smoke(ServerKind::kApache, iolbench::kFig12Points[0]),
      Golden{120, 1578963, 12.721520645440709, 72.006332, 91.391231000000005,
             0.10884353741496598, 1959093, 1959093, 0, 526, 147, 1558, 147, 131, 2278,
             1251300182});
}

TEST(GoldenTest, Fig12Flash150ms) {
  ExpectMatchesGolden(
      RunFig12Smoke(ServerKind::kFlash, iolbench::kFig12Points[4]),
      Golden{120, 1581552, 2.7062673401929085, 310.73104499999999, 330.79177700000002,
             0.125, 1899127, 1899127, 0, 507, 144, 1513, 144, 126, 2226, 5697081001});
}

TEST(GoldenTest, Fig12Apache150ms) {
  ExpectMatchesGolden(
      RunFig12Smoke(ServerKind::kApache, iolbench::kFig12Points[4]),
      Golden{120, 1581552, 2.70105554826258, 311.28526199999999, 331.441777, 0.125,
             1899127, 1899127, 0, 507, 144, 1513, 144, 126, 2226, 5708650598});
}

// --- Checksum cache at capacity ---------------------------------------------

// The goldens above never fill the 65,536-entry checksum cache. These runs
// shrink it, so every response header (a fresh generation, never named
// again) pushes older entries toward the tail and cached body slices are
// evicted and summed again. Captured from the indexed LRU in which every
// header held an entry; any change to the cache's hit, miss or eviction
// order moves the counters or, through the charged CPU time, the clock.
struct CacheGolden {
  uint64_t checksum_cache_hits;
  uint64_t checksum_cache_misses;
  uint64_t bytes_checksummed;
  uint64_t events_dispatched;
  int64_t final_clock_ns;
};

iolsys::SystemOptions ShrunkCache(size_t entries) {
  iolsys::SystemOptions options;
  options.checksum_cache_entries = entries;
  return options;
}

// A multi-file subtrace replayed in log order by 8 Flash-Lite clients.
RunOutput RunTraceShrunk(size_t cache_entries) {
  iolwl::TraceSpec spec = iolwl::SubtraceSpec();
  spec.num_files = 200;
  spec.total_bytes = 4ull << 20;
  spec.num_requests = 2000;
  iolwl::Trace trace = iolwl::Trace::Generate(spec);
  iolbench::Cell cell;
  cell.kind = ServerKind::kFlashLite;
  cell.options = ShrunkCache(cache_entries);
  cell.trace = &trace;
  cell.sequential = true;
  cell.clients = 8;
  cell.config.max_requests = 600;
  cell.config.warmup_requests = 50;
  return iolbench::RunCell(cell);
}

void ExpectMatchesCacheGolden(const RunOutput& out, const CacheGolden& g) {
  EXPECT_EQ(out.stats.checksum_cache_hits, g.checksum_cache_hits);
  EXPECT_EQ(out.stats.checksum_cache_misses, g.checksum_cache_misses);
  EXPECT_EQ(out.stats.bytes_checksummed, g.bytes_checksummed);
  EXPECT_EQ(out.stats.events_dispatched, g.events_dispatched);
  EXPECT_EQ(out.final_clock, g.final_clock_ns);
  EXPECT_EQ(out.result.corrupt_responses, 0u);
}

// One entry: each header evicts the body, and each body the header.
TEST(ChecksumCacheGoldenTest, HotDocumentOneEntry) {
  ExpectMatchesCacheGolden(
      RunSingleFileSmoke(ServerKind::kFlashLite, 50 * 1024, ShrunkCache(1)),
      CacheGolden{0, 294, 7563150, 6036, 232263237});
}

TEST(ChecksumCacheGoldenTest, HotDocument64Entries) {
  ExpectMatchesCacheGolden(
      RunSingleFileSmoke(ServerKind::kFlashLite, 50 * 1024, ShrunkCache(64)),
      CacheGolden{139, 155, 446350, 6036, 197331394});
}

TEST(ChecksumCacheGoldenTest, HotDocument4096Entries) {
  ExpectMatchesCacheGolden(
      RunSingleFileSmoke(ServerKind::kFlashLite, 50 * 1024, ShrunkCache(4096)),
      CacheGolden{139, 155, 446350, 6036, 197331394});
}

TEST(ChecksumCacheGoldenTest, Trace64Entries) {
  ExpectMatchesCacheGolden(RunTraceShrunk(64),
                           CacheGolden{225, 1089, 7569823, 11086, 1839247733});
}

TEST(ChecksumCacheGoldenTest, Trace4096Entries) {
  ExpectMatchesCacheGolden(RunTraceShrunk(4096),
                           CacheGolden{478, 836, 3683373, 11086, 1839247733});
}

// --- JsonReporter golden ------------------------------------------------------

// A result with every serialized field away from its default: two tenants,
// two CDN levels with distinct counters, fault counters and latencies.
ioldrv::ExperimentResult GoldenReporterResult() {
  ioldrv::ExperimentResult r;
  r.requests = 1000;
  r.bytes = 52428800;
  r.megabits_per_sec = 87.654321;
  r.cache_hit_rate = 0.8125;
  r.latency.p50_ms = 1.25;
  r.latency.p90_ms = 2.5;
  r.latency.p99_ms = 3.75;
  r.latency.max_ms = 9.125;
  r.proxy_hit_rate = 0.625;
  r.origin_hit_rate = 0.4375;
  r.bytes_copied_backhaul = 4096;
  r.origin_latency.p99_ms = 12.5;
  r.wall_ms = 250;
  r.events_dispatched = 500000;
  r.availability = 0.97;
  r.failed_requests = 30;
  r.retries = 45;
  r.staleness.p99_ms = 17.0625;
  r.stale_serves = 12;
  r.cdn_writes = 7;
  r.origin_fleet_fetches = 99;
  r.corrupt_responses = 3;
  for (int t = 0; t < 2; ++t) {
    ioldrv::TenantBreakdown b;
    b.tenant = static_cast<iolsim::TenantId>(t + 1);
    b.name = t == 0 ? "gold" : "bronze";
    b.requests = 600 - 200 * t;
    b.latency.p50_ms = 1.5 + t;
    b.latency.p99_ms = 4.25 + t;
    b.cache_hit_rate = 0.9 - 0.25 * t;
    b.cache_hit_fraction = 0.875 - 0.125 * t;
    r.tenants.push_back(b);
  }
  for (int l = 0; l < 2; ++l) {
    ioldrv::ExperimentResult::CdnLevelResult c;
    uint64_t k = 100 * (l + 1);
    c.proxies = 4 - 2 * l;
    c.hit_rate = 0.75 - 0.5 * l;
    c.backhaul_bytes = k + 1;
    c.stale_serves = k + 2;
    c.invalidations_sent = k + 3;
    c.invalidations_applied = k + 4;
    c.revalidations = k + 5;
    c.revalidation_bytes = k + 6;
    c.fetch_races = k + 7;
    r.cdn_levels.push_back(c);
  }
  return r;
}

// The rows JsonReporter writes for an Add, an AddPerf and an AddExperiment
// row, held byte for byte: BENCH_*.json documents are compared across
// commits, so no key, key order or number format may drift.
TEST(JsonReporterGoldenTest, RowsMatchCapturedDocument) {
  std::string path = testing::TempDir() + "json_reporter_golden.json";
  iolbench::BenchOptions opts;
  opts.json_path = path;
  iolbench::JsonReporter rep("golden", opts);
  rep.Add("points", 1.5, 42.25);
  rep.AddPerf("perf", 2, 123.456, 7.5, 98765.4321);
  rep.AddExperiment("cdn", 3, GoldenReporterResult());
  ASSERT_TRUE(rep.Flush());

  std::ifstream in(path);
  std::string doc((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  size_t at = doc.find("\"rows\": [");
  ASSERT_NE(at, std::string::npos) << doc;
  EXPECT_EQ(doc.substr(at + 9),
      "\n"
      "  {\"series\": \"points\", \"x\": 1.5, \"value\": 42.25, \"proxy_hit_rate\": 0, "
      "\"origin_hit_rate\": 0, \"bytes_copied_backhaul\": 0, \"availability\": 1, "
      "\"error_rate\": 0, \"retries\": 0, \"goodput_mbps\": 0, \"staleness_p99_ms\": 0, "
      "\"stale_serves\": 0, \"cdn_writes\": 0, \"origin_fleet_fetches\": 0, "
      "\"corrupt_responses\": 0},\n"
      "  {\"series\": \"perf\", \"x\": 2, \"value\": 123.456, \"proxy_hit_rate\": 0, "
      "\"origin_hit_rate\": 0, \"bytes_copied_backhaul\": 0, \"availability\": 1, "
      "\"error_rate\": 0, \"retries\": 0, \"goodput_mbps\": 0, \"staleness_p99_ms\": 0, "
      "\"stale_serves\": 0, \"cdn_writes\": 0, \"origin_fleet_fetches\": 0, "
      "\"corrupt_responses\": 0, \"wall_ms\": 7.5, \"events_per_sec\": 98765.4},\n"
      "  {\"series\": \"cdn\", \"x\": 3, \"value\": 87.6543, \"proxy_hit_rate\": 0.625, "
      "\"origin_hit_rate\": 0.4375, \"bytes_copied_backhaul\": 4096, "
      "\"availability\": 0.97, \"error_rate\": 0.03, \"retries\": 45, "
      "\"goodput_mbps\": 87.6543, \"staleness_p99_ms\": 17.0625, \"stale_serves\": 12, "
      "\"cdn_writes\": 7, \"origin_fleet_fetches\": 99, \"corrupt_responses\": 3, "
      "\"requests\": 1000, "
      "\"cache_hit_rate\": 0.8125, \"p50_ms\": 1.25, \"p90_ms\": 2.5, \"p99_ms\": 3.75, "
      "\"max_ms\": 9.125, \"origin_p99_ms\": 12.5, \"wall_ms\": 250, "
      "\"events_per_sec\": 2e+06, \"tenants\": [{\"tenant_id\": 1, \"name\": \"gold\", "
      "\"requests\": 600, \"p50_ms\": 1.5, \"p99_ms\": 4.25, \"cache_hit_rate\": 0.9, "
      "\"cache_hit_fraction\": 0.875}, {\"tenant_id\": 2, \"name\": \"bronze\", "
      "\"requests\": 400, \"p50_ms\": 2.5, \"p99_ms\": 5.25, \"cache_hit_rate\": 0.65, "
      "\"cache_hit_fraction\": 0.75}], \"levels\": [{\"level\": 0, \"proxies\": 4, "
      "\"hit_rate\": 0.75, \"backhaul_bytes\": 101, \"stale_serves\": 102, "
      "\"invalidations_sent\": 103, \"invalidations_applied\": 104, "
      "\"revalidations\": 105, \"revalidation_bytes\": 106, \"fetch_races\": 107}, "
      "{\"level\": 1, \"proxies\": 2, \"hit_rate\": 0.25, "
      "\"backhaul_bytes\": 201, \"stale_serves\": 202, \"invalidations_sent\": 203, "
      "\"invalidations_applied\": 204, \"revalidations\": 205, "
      "\"revalidation_bytes\": 206, \"fetch_races\": 207}]}\n"
      "]}\n");
}

}  // namespace
