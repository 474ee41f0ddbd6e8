// The one-machine-per-member topology's contract: run-twice reproducibility
// and shard-count invariance. The lane topology is fixed by the fleet, so
// ExperimentConfig::shard_count (OS threads) must change nothing but
// wall-clock time — shards ∈ {1, 2, 4} on a fig03-shaped load have to
// produce byte-identical telemetry, counters, and per-member shares. The
// config fields this topology cannot honour must abort the run.

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/bench_util.h"
#include "src/driver/sharded_experiment.h"
#include "src/driver/workload.h"
#include "src/fault/fault_plan.h"
#include "src/qos/policy.h"
#include "src/workload/trace.h"

namespace {

using ioldrv::ExperimentConfig;
using ioldrv::ExperimentResult;
using ioldrv::RequestRecord;
using ioldrv::ShardedExperiment;
using ioldrv::ShardedResult;
using ioldrv::ShardMember;

constexpr size_t kMembers = 4;
constexpr iolsim::SimTime kOneWay = 1'000'000;  // 1 ms — the lookahead.

ShardMember MakeMember(size_t) {
  iolbench::Bench b = iolbench::MakeBench(iolbench::ServerKind::kFlashLite);
  b.sys->fs().CreateFile("doc", 6000);
  return ShardMember{std::move(b.sys), std::move(b.server)};
}

ExperimentConfig Fig03ShapedConfig(int shards, bool persistent) {
  ExperimentConfig config;
  config.max_requests = 600;
  config.warmup_requests = 50;
  config.persistent_connections = persistent;
  config.delay.one_way_delay = kOneWay;
  config.shard_count = shards;
  return config;
}

struct Capture {
  ShardedResult sharded;
  std::vector<RequestRecord> records;
};

Capture RunClosedLoop(int shards, bool persistent, int clients = 24) {
  ShardedExperiment exp(kMembers, MakeMember, Fig03ShapedConfig(shards, persistent));
  iolfs::FileId doc = exp.member_system(0)->fs().Lookup("doc");
  ioldrv::ClosedLoop workload(clients);
  Capture cap;
  cap.sharded = exp.Run(&workload, [doc] { return doc; });
  cap.records = exp.telemetry().records();
  return cap;
}

Capture RunOpenLoop(int shards) {
  ShardedExperiment exp(kMembers, MakeMember, Fig03ShapedConfig(shards, false));
  iolfs::FileId doc = exp.member_system(0)->fs().Lookup("doc");
  ioldrv::OpenLoopPoisson workload(2000.0, 0x5eed, 8);
  Capture cap;
  cap.sharded = exp.Run(&workload, [doc] { return doc; });
  cap.records = exp.telemetry().records();
  return cap;
}

// Byte-identical telemetry: every field of every record.
void ExpectSameRecords(const std::vector<RequestRecord>& a,
                       const std::vector<RequestRecord>& b) {
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

// Every simulated (non-wall-clock) field of the merged result.
void ExpectSameResult(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.seconds, b.seconds);
  EXPECT_EQ(a.megabits_per_sec, b.megabits_per_sec);
  EXPECT_EQ(a.cache_hit_rate, b.cache_hit_rate);
  EXPECT_EQ(a.cache_hit_fraction, b.cache_hit_fraction);
  EXPECT_EQ(a.peak_concurrent, b.peak_concurrent);
  EXPECT_EQ(a.admission_waits, b.admission_waits);
  EXPECT_EQ(a.count_start, b.count_start);
  EXPECT_EQ(a.events_dispatched, b.events_dispatched);
  EXPECT_EQ(a.latency.count, b.latency.count);
  EXPECT_EQ(a.latency.mean_ms, b.latency.mean_ms);
  EXPECT_EQ(a.latency.p50_ms, b.latency.p50_ms);
  EXPECT_EQ(a.latency.p99_ms, b.latency.p99_ms);
  EXPECT_EQ(a.latency.max_ms, b.latency.max_ms);
  ASSERT_EQ(a.per_server.size(), b.per_server.size());
  for (size_t m = 0; m < a.per_server.size(); ++m) {
    EXPECT_EQ(a.per_server[m].requests, b.per_server[m].requests) << "member " << m;
    EXPECT_EQ(a.per_server[m].bytes, b.per_server[m].bytes) << "member " << m;
    EXPECT_EQ(a.per_server[m].peak_concurrent, b.per_server[m].peak_concurrent)
        << "member " << m;
  }
}

TEST(ShardedExperiment, RunTwiceIsIdentical) {
  Capture first = RunClosedLoop(2, false);
  Capture second = RunClosedLoop(2, false);
  ExpectSameRecords(first.records, second.records);
  ExpectSameResult(first.sharded.result, second.sharded.result);
  EXPECT_EQ(first.sharded.lane_events, second.sharded.lane_events);
  EXPECT_EQ(first.sharded.shard.rounds, second.sharded.shard.rounds);
  EXPECT_EQ(first.sharded.shard.messages, second.sharded.shard.messages);
}

TEST(ShardedExperiment, ShardCountInvariance) {
  Capture base = RunClosedLoop(1, false);
  ASSERT_EQ(base.sharded.shard.threads, 1);
  EXPECT_EQ(base.sharded.result.requests, 600u);
  for (int shards : {2, 4}) {
    Capture other = RunClosedLoop(shards, false);
    ExpectSameRecords(base.records, other.records);
    ExpectSameResult(base.sharded.result, other.sharded.result);
    EXPECT_EQ(base.sharded.lane_events, other.sharded.lane_events);
    EXPECT_EQ(base.sharded.shard.rounds, other.sharded.shard.rounds);
    EXPECT_EQ(base.sharded.shard.messages, other.sharded.shard.messages);
  }
}

TEST(ShardedExperiment, ShardCountInvariancePersistentConnections) {
  Capture base = RunClosedLoop(1, true);
  for (int shards : {2, 4}) {
    Capture other = RunClosedLoop(shards, true);
    ExpectSameRecords(base.records, other.records);
    ExpectSameResult(base.sharded.result, other.sharded.result);
  }
}

TEST(ShardedExperiment, ShardCountInvarianceOpenLoop) {
  Capture base = RunOpenLoop(1);
  EXPECT_GT(base.sharded.result.requests, 0u);
  for (int shards : {2, 4}) {
    Capture other = RunOpenLoop(shards);
    ExpectSameRecords(base.records, other.records);
    ExpectSameResult(base.sharded.result, other.sharded.result);
  }
}

TEST(ShardedExperiment, LaneEventCountsSumToMergedTotal) {
  Capture cap = RunClosedLoop(4, false);
  ASSERT_EQ(cap.sharded.lane_events.size(), kMembers + 1);
  uint64_t sum = 0;
  for (uint64_t e : cap.sharded.lane_events) {
    EXPECT_GT(e, 0u);
    sum += e;
  }
  EXPECT_EQ(sum, cap.sharded.result.events_dispatched);
  // Every member served a share (client-affine round-robin, 24 clients).
  for (const auto& share : cap.sharded.result.per_server) {
    EXPECT_GT(share.requests, 0u);
  }
  // Cross-lane traffic really flowed: one request + one response per
  // completion, at minimum.
  EXPECT_GE(cap.sharded.shard.messages, 2 * cap.sharded.result.requests);
}

TEST(ShardedExperiment, ExcessThreadsClampToLaneCount) {
  // More threads than lanes must not deadlock the barriers (the runner
  // clamps), and the result is still the same.
  Capture base = RunClosedLoop(1, false, 8);
  Capture wide = RunClosedLoop(64, false, 8);
  EXPECT_EQ(wide.sharded.shard.threads, static_cast<int>(kMembers) + 1);
  ExpectSameRecords(base.records, wide.records);
  ExpectSameResult(base.sharded.result, wide.sharded.result);
}

// Trace replay: every arrival pins its file, which the frontend carries to
// the member (the RequestSource is never called).
const iolwl::Trace& SmallTrace() {
  static const iolwl::Trace trace = [] {
    iolwl::TraceSpec spec = iolwl::SubtraceSpec();
    spec.num_files = 64;
    spec.total_bytes = 2ull << 20;
    spec.num_requests = 600;
    return iolwl::Trace::Generate(spec);
  }();
  return trace;
}

Capture RunReplay(int shards) {
  std::vector<iolfs::FileId> ids;
  auto factory = [&ids](size_t) {
    iolbench::Bench b = iolbench::MakeBench(iolbench::ServerKind::kFlashLite);
    ids = SmallTrace().Materialize(&b.sys->fs());
    return ShardMember{std::move(b.sys), std::move(b.server)};
  };
  ExperimentConfig config = Fig03ShapedConfig(shards, false);
  ShardedExperiment exp(kMembers, factory, config);
  iolwl::TimestampedLog log = iolwl::SynthesizeArrivals(SmallTrace(), 4000.0, /*seed=*/5);
  ioldrv::TraceReplay workload(&log, ids);
  Capture cap;
  cap.sharded = exp.Run(&workload, []() -> iolfs::FileId {
    ADD_FAILURE() << "trace replay drew from the RequestSource";
    return iolfs::kInvalidFile;
  });
  cap.records = exp.telemetry().records();
  return cap;
}

TEST(ShardedExperiment, TraceReplayWithPinnedFilesIsShardCountInvariant) {
  Capture base = RunReplay(1);
  EXPECT_EQ(base.sharded.result.requests, 550u);  // 600 logged, 50 warmup.
  EXPECT_GT(base.sharded.result.cache_hit_rate, 0.0);
  EXPECT_LT(base.sharded.result.cache_hit_rate, 1.0);
  for (int shards : {2, 4}) {
    Capture other = RunReplay(shards);
    ExpectSameRecords(base.records, other.records);
    ExpectSameResult(base.sharded.result, other.sharded.result);
  }
}

// cache_budget_bytes holds on every member's own cache: 16 documents
// cycling through a 3-document budget miss on every member.
Capture RunCacheBudget(int shards, uint64_t budget) {
  auto factory = [](size_t) {
    iolbench::Bench b = iolbench::MakeBench(iolbench::ServerKind::kFlashLite);
    for (int f = 0; f < 16; ++f) {
      b.sys->fs().CreateFile("doc" + std::to_string(f), 6000);
    }
    return ShardMember{std::move(b.sys), std::move(b.server)};
  };
  ExperimentConfig config = Fig03ShapedConfig(shards, true);
  config.cache_budget_bytes = budget;
  ShardedExperiment exp(kMembers, factory, config);
  std::vector<iolfs::FileId> docs;
  for (int f = 0; f < 16; ++f) {
    docs.push_back(exp.member_system(0)->fs().Lookup("doc" + std::to_string(f)));
  }
  ioldrv::ClosedLoop workload(24);
  size_t next = 0;
  Capture cap;
  cap.sharded = exp.Run(&workload, [&] { return docs[next++ % docs.size()]; });
  cap.records = exp.telemetry().records();
  for (size_t m = 0; m < kMembers; ++m) {
    EXPECT_LE(exp.member_system(m)->cache().bytes(), budget == 0 ? UINT64_MAX : budget)
        << "member " << m;
  }
  return cap;
}

TEST(ShardedExperiment, CacheBudgetIsEnforcedPerMemberAndShardCountInvariant) {
  Capture unbounded = RunCacheBudget(1, 0);
  Capture base = RunCacheBudget(1, 3 * 6000);
  EXPECT_LT(base.sharded.result.cache_hit_rate, unbounded.sharded.result.cache_hit_rate);
  for (int shards : {2, 4}) {
    Capture other = RunCacheBudget(shards, 3 * 6000);
    ExpectSameRecords(base.records, other.records);
    ExpectSameResult(base.sharded.result, other.sharded.result);
  }
}

// Fields one machine per member cannot honour abort Run in every build
// type instead of being ignored.
void RunWith(ExperimentConfig config, int pipeline_depth = 1) {
  ShardedExperiment exp(kMembers, MakeMember, config);
  iolfs::FileId doc = exp.member_system(0)->fs().Lookup("doc");
  ioldrv::ClosedLoop workload(8, pipeline_depth);
  exp.Run(&workload, [doc] { return doc; });
}

TEST(ShardedExperimentDeathTest, RejectsQos) {
  iolqos::QosPolicy qos;
  ExperimentConfig config = Fig03ShapedConfig(1, false);
  config.qos = &qos;
  EXPECT_DEATH(RunWith(config), "qos is not supported");
}

TEST(ShardedExperimentDeathTest, RejectsFaultPlan) {
  iolfault::FaultPlan plan;
  plan.AddLinkOutage(iolsim::kMillisecond, iolsim::kMillisecond);
  ExperimentConfig config = Fig03ShapedConfig(1, false);
  config.faults = &plan;
  EXPECT_DEATH(RunWith(config), "a fault plan is not supported");
}

TEST(ShardedExperimentDeathTest, RejectsRecovery) {
  ExperimentConfig config = Fig03ShapedConfig(1, false);
  config.recovery.request_timeout = 50 * iolsim::kMillisecond;
  EXPECT_DEATH(RunWith(config), "recovery is not supported");
}

TEST(ShardedExperimentDeathTest, RejectsPersistentPipelining) {
  EXPECT_DEATH(RunWith(Fig03ShapedConfig(1, true), 2), "persistent pipelining is not supported");
}

TEST(ShardedExperimentDeathTest, RejectsMemoryModelCacheBudget) {
  ExperimentConfig config = Fig03ShapedConfig(1, false);
  config.enforce_cache_budget = true;
  EXPECT_DEATH(RunWith(config), "enforce_cache_budget is not supported");
}

}  // namespace
