// Tests for the fault plane (src/fault): plan builders and seeded
// generators, Resource degradation windows end to end, the determinism
// contracts (empty plan == no plan, chaos run twice == byte parity), the
// recovery lattice (timeouts, retries, hedging, health ejection), balancer
// ejection handling, tenant tags across retries, and PinLedger mechanics.
//
// Every test here is fork-free and thread-free (label `fault` in CMake, so
// the TSan job can include it), and every experiment is deterministic: the
// probe-run pattern measures a fault-free run first and schedules the chaos
// relative to its length, so the tests survive cost-model changes.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/driver/experiment.h"
#include "src/driver/fleet.h"
#include "src/driver/telemetry.h"
#include "src/driver/workload.h"
#include "src/fault/fault_plan.h"
#include "src/fault/recovery.h"
#include "src/httpd/http_server.h"
#include "src/ipc/process_plane.h"
#include "src/ipc/shm_region.h"
#include "src/ipc/shm_table.h"
#include "src/system/system.h"

namespace {

using ioldrv::ClosedLoop;
using ioldrv::Experiment;
using ioldrv::ExperimentConfig;
using ioldrv::ExperimentResult;
using ioldrv::Fleet;
using ioldrv::kEjected;
using ioldrv::LeastConnectionsBalancer;
using ioldrv::Outcome;
using ioldrv::RequestRecord;
using ioldrv::RoundRobinBalancer;
using ioldrv::Telemetry;
using iolfault::FaultKind;
using iolfault::FaultPlan;
using iolfault::RecoveryConfig;
using iolfs::FileId;
using iolhttp::FlashServer;
using iolsim::kMillisecond;
using iolsim::SimTime;
using iolsys::System;

// --- FaultPlan builders -------------------------------------------------------

TEST(FaultPlanTest, BuildersComposeAndTagKinds) {
  FaultPlan plan;
  plan.AddMemberCrash(5 * kMillisecond, /*member=*/1, 2 * kMillisecond,
                      /*cold_cache=*/false)
      .AddDiskFailSlow(1 * kMillisecond, 2 * kMillisecond, 8, 1)
      .AddLinkOutage(4 * kMillisecond, 1 * kMillisecond);
  ASSERT_EQ(plan.events().size(), 3u);
  EXPECT_FALSE(plan.empty());
  EXPECT_TRUE(plan.has_member_crashes());

  const iolfault::FaultEvent& crash = plan.events()[0];
  EXPECT_EQ(crash.kind, FaultKind::kMemberCrash);
  EXPECT_EQ(crash.at, 5 * kMillisecond);
  EXPECT_EQ(crash.duration, 2 * kMillisecond);
  EXPECT_EQ(crash.target, 1);
  EXPECT_FALSE(crash.cold_cache);

  const iolfault::FaultEvent& slow = plan.events()[1];
  EXPECT_EQ(slow.kind, FaultKind::kDiskFailSlow);
  EXPECT_EQ(slow.slow_num, 8u);
  EXPECT_EQ(slow.slow_den, 1u);

  FaultPlan none;
  EXPECT_TRUE(none.empty());
  EXPECT_FALSE(none.has_member_crashes());
  FaultPlan no_crash;
  no_crash.AddLinkOutage(0, kMillisecond);
  EXPECT_FALSE(no_crash.has_member_crashes());
}

TEST(FaultPlanTest, SeededGeneratorsReproduceExactlyAndVaryBySeed) {
  FaultPlan a;
  FaultPlan b;
  FaultPlan c;
  a.AddRandomCrashes(7, 4, 50 * kMillisecond, 5 * kMillisecond, 500 * kMillisecond);
  b.AddRandomCrashes(7, 4, 50 * kMillisecond, 5 * kMillisecond, 500 * kMillisecond);
  c.AddRandomCrashes(8, 4, 50 * kMillisecond, 5 * kMillisecond, 500 * kMillisecond);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.events().size(), b.events().size());
  for (size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_EQ(a.events()[i].at, b.events()[i].at) << i;
    EXPECT_EQ(a.events()[i].target, b.events()[i].target) << i;
    EXPECT_LT(a.events()[i].at, 500 * kMillisecond) << i;
  }
  bool differs = a.events().size() != c.events().size();
  for (size_t i = 0; !differs && i < a.events().size(); ++i) {
    differs = a.events()[i].at != c.events()[i].at;
  }
  EXPECT_TRUE(differs);

  FaultPlan d;
  FaultPlan e;
  d.AddRandomDiskFailSlow(11, 40 * kMillisecond, 5 * kMillisecond, 4, 1,
                          400 * kMillisecond);
  e.AddRandomDiskFailSlow(11, 40 * kMillisecond, 5 * kMillisecond, 4, 1,
                          400 * kMillisecond);
  ASSERT_EQ(d.events().size(), e.events().size());
  ASSERT_FALSE(d.empty());
  for (size_t i = 0; i < d.events().size(); ++i) {
    EXPECT_EQ(d.events()[i].at, e.events()[i].at) << i;
    EXPECT_EQ(d.events()[i].kind, FaultKind::kDiskFailSlow) << i;
  }
}

// --- Shared experiment rig ----------------------------------------------------

struct FleetRig {
  std::unique_ptr<System> sys;
  std::vector<std::unique_ptr<iolhttp::HttpServer>> servers;
  std::vector<iolhttp::HttpServer*> members;
  std::vector<FileId> ids;
};

FleetRig MakeRig(int members, int docs, uint64_t doc_bytes, bool prewarm) {
  FleetRig r;
  iolsys::SystemOptions options;
  options.cost.cpu_count = members;
  options.cost.disk_count = members;
  r.sys = std::make_unique<System>(options);
  for (int i = 0; i < docs; ++i) {
    r.ids.push_back(r.sys->fs().CreateFile("doc" + std::to_string(i), doc_bytes));
  }
  for (int i = 0; i < members; ++i) {
    r.servers.push_back(
        std::make_unique<FlashServer>(&r.sys->ctx(), &r.sys->net(), &r.sys->io()));
    r.members.push_back(r.servers.back().get());
  }
  if (prewarm) {
    // Fill the cache without advancing the clock (see TallyScope): these
    // tests measure recovery, not cold-start fill, and fault times are
    // absolute.
    iolsim::Tally fill;
    iolsim::TallyScope scope(&r.sys->ctx(), &fill);
    for (FileId f : r.ids) {
      uint64_t size = r.sys->fs().SizeOf(f);
      r.sys->cache().Insert(
          f, 0, iolite::Aggregate::FromBuffer(r.sys->fs().ReadFromDisk(f, 0, size)));
    }
  }
  return r;
}

ExperimentResult RunRig(FleetRig* r, const FaultPlan* plan,
                        const RecoveryConfig& rec, uint64_t requests,
                        int clients, Telemetry* sink,
                        ioldrv::Workload* workload = nullptr) {
  ExperimentConfig config;
  config.persistent_connections = true;
  config.max_requests = requests;
  config.warmup_requests = 0;  // Absolute fault times => everything counted.
  config.faults = plan;
  config.recovery = rec;
  ClosedLoop fallback(clients);
  Experiment experiment(
      &r->sys->ctx(), &r->sys->net(), &r->sys->cache(),
      Fleet(r->members, std::make_unique<LeastConnectionsBalancer>()), config);
  iolsim::Rng rng(4242);
  const std::vector<FileId>& ids = r->ids;
  return experiment.Run(workload != nullptr ? workload : &fallback,
                        [&rng, &ids]() -> FileId {
                          return ids[rng.NextBelow(ids.size())];
                        },
                        sink);
}

// Fault-free run length: the anchor the chaos schedules hang off, so the
// tests track the cost model instead of hard-coding times.
SimTime ProbeRunLength(int members, int docs, uint64_t doc_bytes,
                       uint64_t requests, int clients) {
  FleetRig rig = MakeRig(members, docs, doc_bytes, /*prewarm=*/true);
  RecoveryConfig off;
  RunRig(&rig, nullptr, off, requests, clients, nullptr);
  return rig.sys->ctx().clock().now();
}

// --- Resource degradation windows, end to end ---------------------------------

TEST(ResourceWindowTest, DiskFailSlowStretchesColdRuns) {
  FleetRig calm = MakeRig(1, 8, 8 * 1024, /*prewarm=*/false);
  RecoveryConfig off;
  RunRig(&calm, nullptr, off, 16, 2, nullptr);
  SimTime calm_clock = calm.sys->ctx().clock().now();

  FleetRig rig = MakeRig(1, 8, 8 * 1024, /*prewarm=*/false);
  FaultPlan plan;
  plan.AddDiskFailSlow(0, 10 * calm_clock, /*num=*/8, /*den=*/1);
  RunRig(&rig, &plan, off, 16, 2, nullptr);
  // Every cold read pays 8x inside the window: the run must stretch well
  // past the fault-free length (not 8x overall — only disk time dilates).
  EXPECT_GT(rig.sys->ctx().clock().now(), calm_clock * 3 / 2);
}

TEST(ResourceWindowTest, LinkOutageParksWarmTrafficUntilHeal) {
  const SimTime kHeal = 50 * kMillisecond;
  FleetRig calm = MakeRig(1, 4, 8 * 1024, /*prewarm=*/true);
  RecoveryConfig off;
  RunRig(&calm, nullptr, off, 8, 2, nullptr);
  ASSERT_LT(calm.sys->ctx().clock().now(), kHeal);

  FleetRig rig = MakeRig(1, 4, 8 * 1024, /*prewarm=*/true);
  FaultPlan plan;
  plan.AddLinkOutage(0, kHeal);
  ExperimentResult result = RunRig(&rig, &plan, off, 8, 2, nullptr);
  EXPECT_EQ(result.requests, 8u);
  // Responses cross the front link; nothing can finish during the outage.
  EXPECT_GE(rig.sys->ctx().clock().now(), kHeal);
}

// --- Determinism contracts ----------------------------------------------------

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
    EXPECT_EQ(x.tenant, y.tenant) << i;
    EXPECT_EQ(x.outcome, y.outcome) << i;
    EXPECT_EQ(x.attempts, y.attempts) << i;
    EXPECT_EQ(x.counted, y.counted) << i;
  }
}

TEST(FaultDeterminismTest, EmptyPlanIsByteIdenticalToNoPlan) {
  Telemetry no_plan;
  Telemetry empty_plan;
  RecoveryConfig off;
  SimTime clock_a = 0;
  SimTime clock_b = 0;
  {
    FleetRig rig = MakeRig(2, 8, 8 * 1024, /*prewarm=*/true);
    RunRig(&rig, nullptr, off, 64, 4, &no_plan);
    clock_a = rig.sys->ctx().clock().now();
  }
  {
    FleetRig rig = MakeRig(2, 8, 8 * 1024, /*prewarm=*/true);
    FaultPlan plan;  // Armed but empty: every fault code path must stay cold.
    RunRig(&rig, &plan, off, 64, 4, &empty_plan);
    clock_b = rig.sys->ctx().clock().now();
  }
  EXPECT_EQ(clock_a, clock_b);
  ExpectIdenticalStreams(no_plan, empty_plan);
}

TEST(FaultDeterminismTest, ChaosRunTwiceIsByteIdentical) {
  SimTime probe = ProbeRunLength(2, 8, 8 * 1024, 200, 4);
  FaultPlan plan;
  plan.AddMemberCrash(probe / 4, 0, probe / 8);
  plan.AddDiskFailSlow(probe / 2, probe / 8, 6, 1);
  plan.AddLinkOutage(probe * 3 / 4, probe / 32);
  RecoveryConfig rec;
  rec.request_timeout = 8 * kMillisecond;
  rec.max_retries = 3;
  rec.retry_backoff = kMillisecond;
  rec.retry_backoff_cap = 4 * kMillisecond;
  rec.hedge_delay = 4 * kMillisecond;
  rec.health_checks = true;
  rec.health_check_interval = kMillisecond;
  rec.unhealthy_after = 1;
  rec.healthy_after = 2;

  Telemetry first;
  Telemetry second;
  SimTime clock_a = 0;
  SimTime clock_b = 0;
  {
    FleetRig rig = MakeRig(2, 8, 8 * 1024, /*prewarm=*/true);
    RunRig(&rig, &plan, rec, 200, 4, &first);
    clock_a = rig.sys->ctx().clock().now();
  }
  {
    FleetRig rig = MakeRig(2, 8, 8 * 1024, /*prewarm=*/true);
    RunRig(&rig, &plan, rec, 200, 4, &second);
    clock_b = rig.sys->ctx().clock().now();
  }
  EXPECT_EQ(clock_a, clock_b);
  ExpectIdenticalStreams(first, second);
}

// --- The recovery lattice -----------------------------------------------------

TEST(RecoveryTest, UnprotectedCrashSurfacesTimeouts) {
  SimTime probe = ProbeRunLength(2, 8, 8 * 1024, 400, 4);
  FleetRig rig = MakeRig(2, 8, 8 * 1024, /*prewarm=*/true);
  FaultPlan plan;
  plan.AddMemberCrash(probe / 4, 0, probe / 4, /*cold_cache=*/false);
  RecoveryConfig rec;
  rec.request_timeout = 6 * kMillisecond;  // Timeout only: nothing recovers.
  Telemetry sink;
  ExperimentResult result = RunRig(&rig, &plan, rec, 400, 4, &sink);
  EXPECT_GT(result.failed_requests, 0u);
  EXPECT_LT(result.availability, 1.0);
  EXPECT_GT(result.blackholed_arrivals, 0u);
  EXPECT_EQ(result.retries, 0u);
  bool saw_timeout = false;
  for (const RequestRecord& r : sink.records()) {
    if (r.outcome == Outcome::kTimedOut) {
      saw_timeout = true;
      EXPECT_EQ(r.bytes, 0u);
    }
  }
  EXPECT_TRUE(saw_timeout);
}

TEST(RecoveryTest, RetriesConvertCrashTimeoutsIntoLateSuccesses) {
  SimTime probe = ProbeRunLength(2, 8, 8 * 1024, 400, 4);
  FleetRig rig = MakeRig(2, 8, 8 * 1024, /*prewarm=*/true);
  FaultPlan plan;
  plan.AddMemberCrash(probe / 4, 0, 10 * kMillisecond, /*cold_cache=*/false);
  RecoveryConfig rec;
  rec.request_timeout = 6 * kMillisecond;
  rec.max_retries = 3;
  rec.retry_backoff = kMillisecond;
  rec.retry_backoff_cap = 4 * kMillisecond;
  Telemetry sink;
  ExperimentResult result = RunRig(&rig, &plan, rec, 400, 4, &sink);
  EXPECT_EQ(result.failed_requests, 0u);
  EXPECT_DOUBLE_EQ(result.availability, 1.0);
  EXPECT_GT(result.retries, 0u);
  bool saw_retried_ok = false;
  for (const RequestRecord& r : sink.records()) {
    if (r.outcome == Outcome::kRetriedOk) {
      saw_retried_ok = true;
      EXPECT_GT(r.attempts, 1u);
      EXPECT_GT(r.bytes, 0u);
    }
  }
  EXPECT_TRUE(saw_retried_ok);
}

TEST(RecoveryTest, HedgesRescueBlackholedRequestsBeforeTheTimeout) {
  SimTime probe = ProbeRunLength(2, 8, 8 * 1024, 400, 4);
  FleetRig rig = MakeRig(2, 8, 8 * 1024, /*prewarm=*/true);
  FaultPlan plan;
  plan.AddMemberCrash(probe / 4, 0, 10 * kMillisecond, /*cold_cache=*/false);
  RecoveryConfig rec;
  rec.request_timeout = 40 * kMillisecond;  // Far too slow to be the rescue.
  rec.max_retries = 1;
  rec.hedge_delay = 3 * kMillisecond;
  Telemetry sink;
  ExperimentResult result = RunRig(&rig, &plan, rec, 400, 4, &sink);
  EXPECT_EQ(result.failed_requests, 0u);
  EXPECT_DOUBLE_EQ(result.availability, 1.0);
  EXPECT_GT(result.hedges, 0u);
  bool saw_hedge_won = false;
  for (const RequestRecord& r : sink.records()) {
    if (r.outcome == Outcome::kHedgeWon) {
      saw_hedge_won = true;
      // The hedge delivered before the primary's 40 ms timeout could fire.
      EXPECT_LT(r.complete - r.issue, rec.request_timeout);
    }
  }
  EXPECT_TRUE(saw_hedge_won);
}

TEST(RecoveryTest, HealthCheckerEjectsTheCrashedMemberAndReadmitsIt) {
  SimTime probe = ProbeRunLength(2, 8, 8 * 1024, 400, 4);
  SimTime crash_at = probe / 4;
  SimTime down_for = probe / 4;
  FleetRig rig = MakeRig(2, 8, 8 * 1024, /*prewarm=*/true);
  FaultPlan plan;
  plan.AddMemberCrash(crash_at, 0, down_for, /*cold_cache=*/false);
  RecoveryConfig rec;
  rec.request_timeout = 8 * kMillisecond;
  rec.max_retries = 3;
  rec.retry_backoff = kMillisecond;
  rec.hedge_delay = 3 * kMillisecond;
  rec.health_checks = true;
  rec.health_check_interval = kMillisecond;
  rec.unhealthy_after = 1;
  rec.healthy_after = 2;
  Telemetry sink;
  ExperimentResult result = RunRig(&rig, &plan, rec, 400, 4, &sink);
  EXPECT_EQ(result.failed_requests, 0u);
  EXPECT_DOUBLE_EQ(result.availability, 1.0);
  EXPECT_EQ(result.health_ejections, 1u);
  // Re-admission: member 0 serves again after its restart.
  bool served_after_restart = false;
  for (const RequestRecord& r : sink.records()) {
    if (r.server == 0 && r.complete > crash_at + down_for) {
      served_after_restart = true;
      break;
    }
  }
  EXPECT_TRUE(served_after_restart);
}

// --- Balancers under ejection -------------------------------------------------

TEST(BalancerTest, RoundRobinSkipsEjectedMembers) {
  RoundRobinBalancer rr;
  std::vector<int> load = {0, kEjected, 0};
  for (int i = 0; i < 8; ++i) {
    EXPECT_NE(rr.Pick(load), 1u);
  }
}

TEST(BalancerTest, LeastConnectionsSkipsEjectedMembers) {
  LeastConnectionsBalancer lc;
  // The ejected member "looks" idle; it must still lose to loaded ones.
  std::vector<int> load = {5, kEjected, 7};
  EXPECT_EQ(lc.Pick(load), 0u);
  load = {kEjected, 3, kEjected};
  EXPECT_EQ(lc.Pick(load), 1u);
}

TEST(BalancerTest, AllEjectedFallsBackToANormalPick) {
  RoundRobinBalancer rr;
  LeastConnectionsBalancer lc;
  std::vector<int> load = {kEjected, kEjected, kEjected};
  EXPECT_LT(rr.Pick(load), 3u);
  EXPECT_LT(lc.Pick(load), 3u);
}

// --- Tenant tags across retries -----------------------------------------------

class TenantedLoop : public ClosedLoop {
 public:
  using ClosedLoop::ClosedLoop;
  iolsim::TenantId TenantOf(size_t client, uint64_t issue_seq) override {
    (void)issue_seq;
    return static_cast<iolsim::TenantId>(1 + client % 3);
  }
};

TEST(RecoveryTest, TenantTagSurvivesRetries) {
  SimTime probe = ProbeRunLength(2, 8, 8 * 1024, 400, 4);
  FleetRig rig = MakeRig(2, 8, 8 * 1024, /*prewarm=*/true);
  FaultPlan plan;
  plan.AddMemberCrash(probe / 4, 0, 10 * kMillisecond, /*cold_cache=*/false);
  RecoveryConfig rec;
  rec.request_timeout = 6 * kMillisecond;
  rec.max_retries = 3;
  rec.retry_backoff = kMillisecond;
  TenantedLoop workload(4);
  Telemetry sink;
  ExperimentResult result = RunRig(&rig, &plan, rec, 400, 4, &sink, &workload);
  EXPECT_DOUBLE_EQ(result.availability, 1.0);
  bool saw_retry = false;
  for (const RequestRecord& r : sink.records()) {
    // Every record carries the tenant assigned at first issue; a dropped
    // tag would read 0 (kNoTenant) on the retried attempt's record.
    EXPECT_GE(r.tenant, 1u);
    EXPECT_LE(r.tenant, 3u);
    if (r.attempts > 1) {
      saw_retry = true;
    }
  }
  EXPECT_TRUE(saw_retry);
}

// --- PinLedger mechanics ------------------------------------------------------

TEST(PinLedgerTest, RecordClearTakeContract) {
  std::unique_ptr<iolipc::ShmRegion> region = iolipc::ShmRegion::Create(1u << 20);
  iolipc::ShmTable table = iolipc::ShmTable::Create(region.get(), 4);
  iolipc::PinLedger ledger =
      iolipc::PinLedger::Create(region.get(), &table, "test.pins");
  ASSERT_TRUE(ledger.valid());

  // Take claims the recorded ticket (+1 so ticket 0 is distinguishable
  // from empty) exactly once.
  ledger.Record(3, 41);
  EXPECT_EQ(ledger.Take(3), 42u);
  EXPECT_EQ(ledger.Take(3), 0u);

  // Clear-before-handoff: a cleared slot sweeps to nothing.
  ledger.Record(5, 7);
  ledger.Clear(5);
  EXPECT_EQ(ledger.Take(5), 0u);

  // Unledgered workers (kNoPinSlot) and out-of-range slots are no-ops.
  ledger.Record(iolipc::kNoPinSlot, 99);
  EXPECT_EQ(ledger.Take(iolipc::kNoPinSlot), 0u);
  EXPECT_EQ(ledger.Take(iolipc::kPinLedgerSlots + 5), 0u);

  // A second attach sees the same slots (the supervisor's view).
  iolipc::PinLedger attached = iolipc::PinLedger::Attach(table, "test.pins");
  ASSERT_TRUE(attached.valid());
  ledger.Record(9, 123);
  EXPECT_EQ(attached.Take(9), 124u);
}

}  // namespace
