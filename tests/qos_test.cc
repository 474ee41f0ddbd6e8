// Property tests for the multi-tenant QoS plane (src/qos).
//
// The plane's core guarantees, attacked directly:
//  * Determinism: a single tenant (or equal weights over interleaved
//    uniform jobs) dispatches in exact FIFO order, so attaching the fair
//    scheduler to a single-tenant machine is byte-identical to the plain
//    resource — the golden determinism contract.
//  * Fairness: under continuous backlog, dispatched service converges to
//    the weight ratio (within 1% over a long run).
//  * Liveness: the bounded-wait guard promotes a starving tenant.
//  * Isolation: cache partitioning never evicts a tenant within its
//    reservation while another tenant is over its own.
//  * End to end: a full adversarial-mix experiment with WFQ and partitions
//    attached is run-twice byte-identical.

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/driver/experiment.h"
#include "src/driver/tenant_mix.h"
#include "src/qos/fair_queue.h"
#include "src/qos/policy.h"
#include "src/simos/rng.h"
#include "src/system/system.h"

namespace iolqos {
namespace {

// --- FairQueue: the discipline in isolation --------------------------------

TEST(FairQueueTest, SingleTenantAnyPatternIsFifo) {
  FairQueue q;
  iolsim::Rng rng(1);
  // Arbitrary service times and arrival instants: one tenant must still
  // dispatch in exact push order.
  std::vector<uint64_t> pushed;
  iolsim::SimTime now = 0;
  for (uint64_t i = 0; i < 500; ++i) {
    now += static_cast<iolsim::SimTime>(rng.NextBelow(1000));
    q.Push(/*t=*/1, now, /*service=*/1 + static_cast<iolsim::SimTime>(rng.NextBelow(5000)),
           /*token=*/i);
    pushed.push_back(i);
    // Interleave pops so virtual time advances mid-stream.
    if (i % 3 == 2) {
      EXPECT_EQ(q.Pop(now).token, pushed[i / 3]);
    }
  }
  size_t next = 500 / 3;
  while (!q.empty()) {
    EXPECT_EQ(q.Pop(now).token, pushed[next++]);
  }
  EXPECT_EQ(next, pushed.size());
}

TEST(FairQueueTest, EqualWeightsInterleavedUniformIsFifo) {
  FairQueue q;
  q.SetWeight(1, 4);
  q.SetWeight(2, 4);
  // Interleaved arrivals, uniform service, equal weights: start tags tie
  // per round and the deterministic seq tie-break yields exact FIFO — the
  // "equal weights degrade to the baseline" contract.
  constexpr iolsim::SimTime kService = 1000;
  for (uint64_t i = 0; i < 400; ++i) {
    q.Push(static_cast<TenantId>(1 + (i % 2)), /*now=*/0, kService, i);
  }
  for (uint64_t i = 0; i < 400; ++i) {
    EXPECT_EQ(q.Pop(0).token, i);
  }
}

TEST(FairQueueTest, WeightedShareWithinOnePercent) {
  FairQueue q;
  q.SetWeight(1, 2);
  q.SetWeight(2, 1);
  // Continuous backlog: both lanes stay non-empty for the whole run, so
  // dispatched service must track the 2:1 weights.
  constexpr iolsim::SimTime kService = 1000;
  constexpr int kJobs = 6000;
  for (int i = 0; i < kJobs; ++i) {
    q.Push(1, 0, kService, i);
    q.Push(2, 0, kService, i);
  }
  // Pop two thirds of the total: both lanes must still be backlogged at the
  // end for the share property to be exact.
  for (int i = 0; i < kJobs; ++i) {
    q.Pop(0);
  }
  ASSERT_FALSE(q.empty());
  double ratio = static_cast<double>(q.dispatched_service(1)) /
                 static_cast<double>(q.dispatched_service(2));
  EXPECT_NEAR(ratio, 2.0, 0.02);
  EXPECT_EQ(q.promotions(), 0u);
}

TEST(FairQueueTest, StarvationGuardPromotesOldestPastTagOrder) {
  FairQueue q;
  q.SetWeight(1, 1024);  // Favored tenant.
  q.SetWeight(2, 1);     // Starved tenant.
  constexpr iolsim::SimTime kService = 1000;

  // Tenant 2 consumes service once: its finish tag jumps ~1M weighted ns
  // ahead, so its next job's start tag loses to every fresh tenant-1 job
  // until virtual time catches up — the starvation shape.
  q.Push(2, 0, kService, 100);
  ASSERT_EQ(q.Pop(0).token, 100u);
  q.Push(2, 0, kService, 101);

  // Without the guard, a steady tenant-1 stream starves job 101.
  iolsim::SimTime now = 0;
  for (uint64_t i = 0; i < 50; ++i) {
    now += kService;
    q.Push(1, now, kService, i);
    ASSERT_EQ(q.Pop(now).token, i) << "tenant 1 should win on tags alone";
  }
  EXPECT_EQ(q.promotions(), 0u);

  // Arm the guard: the next pop past the bound promotes the old job even
  // though its start tag still loses.
  q.set_max_wait(10 * kService);
  now += kService;
  q.Push(1, now, kService, 999);
  FairQueue::Job job = q.Pop(now);
  EXPECT_EQ(job.token, 101u);
  EXPECT_TRUE(job.promoted);
  EXPECT_EQ(q.promotions(), 1u);
  EXPECT_EQ(q.Pop(now).token, 999u);
}

// --- FairScheduler: the discipline on a Resource ---------------------------

// Issues `n` AcquireAsync calls with per-call service times and returns the
// completion timestamps in completion order.
std::vector<iolsim::SimTime> DriveResource(iolsim::SimContext* ctx,
                                           iolsim::Resource* resource, int n,
                                           uint64_t seed) {
  std::vector<iolsim::SimTime> completions;
  iolsim::Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    iolsim::SimTime service = 1 + static_cast<iolsim::SimTime>(rng.NextBelow(5000));
    resource->AcquireAsync(&ctx->events(), service, [ctx, &completions] {
      completions.push_back(ctx->clock().now());
    });
    if (i % 4 == 3) {
      ctx->events().RunAll();  // Mix queued-behind and idle-start admissions.
    }
  }
  ctx->events().RunAll();
  return completions;
}

TEST(FairSchedulerTest, SingleTenantAttachedMatchesDetachedExactly) {
  std::vector<iolsim::SimTime> detached;
  {
    iolsim::SimContext ctx;
    detached = DriveResource(&ctx, &ctx.cpu(), 200, 99);
  }
  std::vector<iolsim::SimTime> attached;
  {
    iolsim::SimContext ctx;
    FairScheduler sched(&ctx, &ctx.cpu());
    attached = DriveResource(&ctx, &ctx.cpu(), 200, 99);
    EXPECT_EQ(sched.admitted(), 200u);
    EXPECT_EQ(sched.backlog(), 0u);
  }
  EXPECT_EQ(attached, detached);
}

TEST(FairSchedulerTest, WorkConservingUnderWeights) {
  // N uniform jobs over a 2-unit resource finish at ceil(N/2) * service no
  // matter how the weights reorder them: a unit never idles with a backlog.
  constexpr iolsim::SimTime kService = 1000;
  constexpr int kPerTenant = 40;
  iolsim::CostParams params;
  params.cpu_count = 2;
  iolsim::SimContext ctx(params);
  QosPolicy policy;
  TenantId a = policy.Register("a", 8);
  TenantId b = policy.Register("b", 1);
  FairScheduler* sched = policy.AttachFairQueue(&ctx, &ctx.cpu());
  int done = 0;
  for (int i = 0; i < kPerTenant; ++i) {
    ctx.set_active_tenant(a);
    ctx.cpu().AcquireAsync(&ctx.events(), kService, [&done] { ++done; });
    ctx.set_active_tenant(b);
    ctx.cpu().AcquireAsync(&ctx.events(), kService, [&done] { ++done; });
  }
  ctx.events().RunAll();
  EXPECT_EQ(done, 2 * kPerTenant);
  EXPECT_EQ(ctx.clock().now(), kPerTenant * kService);
  EXPECT_EQ(sched->dispatched(), static_cast<uint64_t>(2 * kPerTenant));
  // The favored tenant's jobs all finished in the first part of the run:
  // its last dispatch cannot come after the light tenant's backlog drains.
  EXPECT_GT(sched->queue().dispatched_service(a), 0);
}

// --- Cache partitioning ----------------------------------------------------

TEST(CachePartitionTest, ReservedShareIsNeverStolen) {
  iolsys::SystemOptions options;
  options.policy = iolsys::SystemOptions::Policy::kPlainLru;
  iolsys::System sys(options);
  QosPolicy policy;
  TenantId hot = policy.Register("hot", 1);
  TenantId scan = policy.Register("scan", 1);
  CachePlan plan;
  plan.total_bytes = 256 * 1024;
  plan.SetReserved(hot, 128 * 1024);
  sys.cache().AttachQos(&policy);
  sys.cache().SetPartitions(&plan);

  // Hot tenant fills (most of) its reservation.
  std::vector<iolfs::FileId> hot_files;
  sys.ctx().set_active_tenant(hot);
  for (int i = 0; i < 12; ++i) {
    iolfs::FileId f = sys.fs().CreateFile("hot" + std::to_string(i), 8 * 1024);
    hot_files.push_back(f);
    sys.cache().Insert(f, 0, iolite::Aggregate::FromBuffer(
                                 sys.fs().ReadFromDisk(f, 0, 8 * 1024)));
  }
  uint64_t hot_bytes = sys.cache().tenant_bytes(hot);
  EXPECT_GE(hot_bytes, 12u * 8 * 1024);

  // The scan blows far past the budget; enforcement must take every victim
  // from the scan's own entries.
  sys.ctx().set_active_tenant(scan);
  for (int i = 0; i < 64; ++i) {
    iolfs::FileId f = sys.fs().CreateFile("scan" + std::to_string(i), 16 * 1024);
    sys.cache().Insert(f, 0, iolite::Aggregate::FromBuffer(
                                 sys.fs().ReadFromDisk(f, 0, 16 * 1024)));
    sys.cache().EnforceBudget(plan.total_bytes);
  }
  EXPECT_EQ(sys.cache().tenant_bytes(hot), hot_bytes);
  EXPECT_LE(sys.cache().tenant_bytes(scan), plan.total_bytes - hot_bytes);
  EXPECT_EQ(policy.cache_counters(hot).evictions, 0u);
  EXPECT_GT(policy.cache_counters(scan).evictions, 0u);

  // Every hot entry still answers, and the lookups land on hot's counter.
  sys.ctx().set_active_tenant(hot);
  for (iolfs::FileId f : hot_files) {
    EXPECT_TRUE(sys.cache().Lookup(f, 0, 8 * 1024).has_value());
  }
  EXPECT_EQ(policy.cache_counters(hot).hits, static_cast<uint64_t>(hot_files.size()));
  EXPECT_EQ(policy.cache_counters(hot).misses, 0u);
}

// Records the file of every erased entry; the evicted entry's tenant is
// read off the QoS eviction counter that moved.
class EraseLog : public iolfs::CacheMirror {
 public:
  void OnInsert(iolfs::FileId, uint64_t, const iolite::Aggregate&) override {}
  void OnErase(iolfs::FileId file, uint64_t, size_t) override { last = file; }
  iolfs::FileId last = iolfs::kInvalidFile;
};

// The in-tenant victim rule (oldest unreferenced entry, else the tenant's
// LRU head) under a scanning tenant and a Zipf tenant, with a window of
// recent lookups held outside the cache: the sequence of evicted
// (tenant, file) pairs is pinned to the one the rule has always produced.
TEST(CachePartitionTest, InTenantVictimSequenceIsGolden) {
  iolsys::SystemOptions options;
  options.policy = iolsys::SystemOptions::Policy::kPlainLru;
  iolsys::System sys(options);
  QosPolicy policy;
  TenantId scan = policy.Register("scan", 1);
  TenantId zipf = policy.Register("zipf", 1);
  CachePlan plan;
  plan.total_bytes = 160 * 1024;
  plan.SetReserved(scan, 32 * 1024);
  plan.SetReserved(zipf, 64 * 1024);
  sys.cache().AttachQos(&policy);
  sys.cache().SetPartitions(&plan);
  EraseLog log;
  sys.cache().set_mirror(&log);

  std::vector<iolfs::FileId> scan_files;
  for (int i = 0; i < 40; ++i) {
    scan_files.push_back(sys.fs().CreateFile("scan" + std::to_string(i), 8 * 1024));
  }
  // Zipf(1) popularity over 48 files of 2-11 KB: cumulative 1/(i+1).
  std::vector<iolfs::FileId> zipf_files;
  std::vector<uint64_t> zipf_sizes;
  std::vector<double> zipf_cdf;
  double total = 0;
  for (int i = 0; i < 48; ++i) {
    zipf_sizes.push_back((2 + i % 10) * 1024);
    zipf_files.push_back(sys.fs().CreateFile("zipf" + std::to_string(i), zipf_sizes.back()));
    total += 1.0 / (i + 1);
    zipf_cdf.push_back(total);
  }

  std::vector<std::pair<TenantId, iolfs::FileId>> evicted;
  auto evict_to_budget = [&] {
    while (sys.cache().bytes() > plan.total_bytes) {
      uint64_t scan_before = policy.cache_counters(scan).evictions;
      ASSERT_TRUE(sys.cache().EvictOne());
      evicted.emplace_back(policy.cache_counters(scan).evictions > scan_before ? scan : zipf,
                           log.last);
    }
  };
  // Reads `f` as tenant `t`, filling it on a miss, and returns the bytes.
  auto touch = [&](TenantId t, iolfs::FileId f, uint64_t size) {
    sys.ctx().set_active_tenant(t);
    std::optional<iolite::Aggregate> hit = sys.cache().Lookup(f, 0, size);
    if (!hit.has_value()) {
      sys.cache().Insert(f, 0, iolite::Aggregate::FromBuffer(sys.fs().ReadFromDisk(f, 0, size)));
      hit = sys.cache().Lookup(f, 0, size);
    }
    return std::move(*hit);
  };

  iolsim::Rng rng(11);
  // Every 7th read is held outside the cache for the next 42 steps, long
  // enough for the entry to age to its tenant's LRU head while pinned.
  std::vector<iolite::Aggregate> pins(6);
  size_t cursor = 0;
  for (int step = 0; step < 1200; ++step) {
    iolite::Aggregate read;
    if (rng.NextBelow(3) == 0) {
      read = touch(scan, scan_files[cursor++ % scan_files.size()], 8 * 1024);
    } else {
      double u = rng.NextDouble() * total;
      size_t i = 0;
      while (i + 1 < zipf_cdf.size() && zipf_cdf[i] <= u) {
        ++i;
      }
      read = touch(zipf, zipf_files[i], zipf_sizes[i]);
    }
    if (step % 7 == 0) {
      pins[(step / 7) % pins.size()] = std::move(read);
    }
    evict_to_budget();
  }
  // Every cached entry pinned: victims fall back to the tenant's LRU head.
  std::vector<iolite::Aggregate> all;
  for (size_t i = 0; i < scan_files.size(); ++i) {
    sys.ctx().set_active_tenant(scan);
    if (std::optional<iolite::Aggregate> hit = sys.cache().Lookup(scan_files[i], 0, 8 * 1024)) {
      all.push_back(std::move(*hit));
    }
  }
  for (size_t i = 0; i < zipf_files.size(); ++i) {
    sys.ctx().set_active_tenant(zipf);
    if (std::optional<iolite::Aggregate> hit =
            sys.cache().Lookup(zipf_files[i], 0, zipf_sizes[i])) {
      all.push_back(std::move(*hit));
    }
  }
  for (int k = 0; k < 8; ++k) {
    all.push_back(touch(scan, scan_files[cursor++ % scan_files.size()], 8 * 1024));
    all.push_back(touch(zipf, zipf_files[47 - k], zipf_sizes[47 - k]));
    evict_to_budget();
  }

  uint64_t fold = 14695981039346656037ull;  // FNV-1a over the pairs.
  size_t zipf_victims = 0;
  for (const auto& [tenant, file] : evicted) {
    fold = (fold ^ (static_cast<uint64_t>(tenant) << 32 | static_cast<uint64_t>(file))) *
           1099511628211ull;
    zipf_victims += tenant == zipf;
  }
  // Captured from the hand-kept per-tenant lists this rule used before
  // PaperLruPolicy ran it. The victims taken with every entry pinned are
  // fallbacks to the tenant's LRU head.
  EXPECT_EQ(evicted.size(), 680u);
  EXPECT_EQ(zipf_victims, 248u);
  EXPECT_EQ(fold, 0x9d33b492064dd52cull);
}

// --- End to end: adversarial mix, run-twice parity -------------------------

struct MiniMixRun {
  std::vector<ioldrv::RequestRecord> records;
  ioldrv::ExperimentResult result;
};

MiniMixRun RunMiniMix() {
  iolsys::SystemOptions options;
  options.policy = iolsys::SystemOptions::Policy::kPlainLru;
  auto sys = std::make_unique<iolsys::System>(options);

  std::vector<iolfs::FileId> hot_files;
  for (int i = 0; i < 8; ++i) {
    hot_files.push_back(sys->fs().CreateFile("hot" + std::to_string(i), 4 * 1024));
  }
  std::vector<iolfs::FileId> scan_files;
  for (int i = 0; i < 32; ++i) {
    scan_files.push_back(sys->fs().CreateFile("scan" + std::to_string(i), 16 * 1024));
  }

  auto hot_rng = std::make_shared<iolsim::Rng>(5);
  auto scan_cursor = std::make_shared<size_t>(0);
  std::vector<ioldrv::TenantWorkloadSpec> specs(2);
  specs[0].name = "hot";
  specs[0].weight = 4;
  specs[0].clients = 3;
  specs[0].cache_reserved_bytes = 48 * 1024;
  specs[0].next_file = [hot_rng, hot_files] {
    return hot_files[hot_rng->NextBelow(hot_files.size())];
  };
  specs[1].name = "scan";
  specs[1].weight = 1;
  specs[1].clients = 3;
  specs[1].next_file = [scan_cursor, scan_files] {
    iolfs::FileId f = scan_files[*scan_cursor];
    *scan_cursor = (*scan_cursor + 1) % scan_files.size();
    return f;
  };
  ioldrv::TenantMix mix(specs);

  QosPolicy policy;
  CachePlan plan;
  plan.total_bytes = 96 * 1024;
  mix.Configure(&policy, &plan);
  EXPECT_EQ(mix.tenant_id(0), 1u) << "spec i is tenant i + 1";
  EXPECT_EQ(mix.tenant_id(1), 2u);
  policy.AttachWfq(&sys->ctx());
  policy.SetStarvationBound(200 * iolsim::kMillisecond);
  sys->cache().AttachQos(&policy);
  sys->cache().SetPartitions(&plan);

  auto server = std::make_unique<iolhttp::FlashLiteServer>(&sys->ctx(), &sys->net(),
                                                           &sys->io(), &sys->runtime());
  ioldrv::ExperimentConfig config;
  config.persistent_connections = true;
  config.max_requests = 400;
  config.warmup_requests = 50;
  config.cache_budget_bytes = plan.total_bytes;
  config.qos = &policy;
  ioldrv::Experiment experiment(&sys->ctx(), &sys->net(), &sys->cache(), server.get(),
                                config);
  MiniMixRun run;
  run.result = experiment.Run(&mix, [hot_files] { return hot_files[0]; });
  run.records = experiment.telemetry().records();
  return run;
}

TEST(QosExperimentTest, AdversarialMixIsRunTwiceIdentical) {
  MiniMixRun a = RunMiniMix();
  MiniMixRun b = RunMiniMix();
  ASSERT_EQ(a.records.size(), b.records.size());
  for (size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].issue, b.records[i].issue) << "record " << i;
    EXPECT_EQ(a.records[i].admit, b.records[i].admit) << "record " << i;
    EXPECT_EQ(a.records[i].complete, b.records[i].complete) << "record " << i;
    EXPECT_EQ(a.records[i].bytes, b.records[i].bytes) << "record " << i;
    EXPECT_EQ(a.records[i].tenant, b.records[i].tenant) << "record " << i;
  }
  EXPECT_EQ(a.result.megabits_per_sec, b.result.megabits_per_sec);

  // The per-tenant breakdown is present, named, and carries the per-tenant
  // hit rate (the aggregate-only reporting fix).
  ASSERT_EQ(a.result.tenants.size(), 2u);
  EXPECT_EQ(a.result.tenants[0].name, "hot");
  EXPECT_EQ(a.result.tenants[1].name, "scan");
  EXPECT_GT(a.result.tenants[0].requests, 0u);
  EXPECT_GT(a.result.tenants[1].requests, 0u);
  EXPECT_GT(a.result.tenants[0].cache_hit_rate, a.result.tenants[1].cache_hit_rate);
}

}  // namespace
}  // namespace iolqos
