// Fault tolerance: availability and tail latency under deterministic chaos
// (src/fault, composed by ioldrv::Experiment's recovery plane).
//
// A four-member Flash-Lite fleet behind a least-connections balancer is
// subjected to a seeded FaultPlan — member crash/restart cycles plus disk
// fail-slow windows — at three intensities (x = mean member uptime, ms).
// Swept: the recovery lattice, cumulative along the series axis:
//
//   unprotected    request timeout only (failures surface, nothing recovers)
//   retry          + capped exponential backoff retries
//   retry+hedge    + a hedged duplicate to a different member at ~p99
//   full           + health-check ejection / re-admission
//
// Expected shape: least-connections is actively dangerous under crashes —
// a black-holed member stops accumulating in-service load, so the balancer
// *attracts* traffic to it and unprotected availability collapses well
// below 99%. Retries convert most timeouts into late successes, hedging
// pulls the blind-window requests off the dead member at ~p99 instead of
// the full timeout, and health ejection stops the bleeding at its source.
// The full lattice holds availability >= 99.9% with p99 within 3x the
// fault-free baseline — the acceptance gates of the full run, plus the
// determinism gate: an EMPTY FaultPlan must reproduce the fault-free run
// byte for byte (same record stream, same final clock).

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/driver/telemetry.h"
#include "src/fault/fault_plan.h"
#include "src/fault/recovery.h"

namespace {

constexpr int kMembers = 4;
constexpr int kDocs = 96;
constexpr uint64_t kDocBytes = 24 * 1024;
constexpr iolsim::SimTime kRestartDelay = 20 * iolsim::kMillisecond;
constexpr iolsim::SimTime kHorizon = 4 * iolsim::kSecond;

enum class Policy { kUnprotected, kRetry, kRetryHedge, kFull };

const char* Name(Policy p) {
  switch (p) {
    case Policy::kUnprotected:
      return "unprotected";
    case Policy::kRetry:
      return "retry";
    case Policy::kRetryHedge:
      return "retry+hedge";
    case Policy::kFull:
      return "retry+hedge+health";
  }
  return "?";
}

struct CellOutcome {
  ioldrv::ExperimentResult result;
  uint64_t record_fold = 0;        // Fold of the full record stream.
  iolsim::SimTime final_clock = 0; // Sim clock after the run drained.
};

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 12) + (h >> 4);
  return h * 0xff51afd7ed558ccdull;
}

// Folds every field of every record: two runs with equal folds (and equal
// final clocks) took byte-identical trajectories through the engine.
uint64_t FoldRecords(const ioldrv::Telemetry& t) {
  uint64_t h = 1469598103934665603ull;
  for (const ioldrv::RequestRecord& r : t.records()) {
    h = Mix(h, r.issue);
    h = Mix(h, r.admit);
    h = Mix(h, r.complete);
    h = Mix(h, r.bytes);
    h = Mix(h, r.server);
    h = Mix(h, r.tenant);
    h = Mix(h, static_cast<uint64_t>(r.outcome));
    h = Mix(h, r.attempts);
    h = Mix(h, r.cache_hit ? 1 : 0);
    h = Mix(h, r.counted ? 1 : 0);
  }
  return h;
}

// One data point: a fresh four-member machine, the given plan (may be null)
// and recovery config, a deterministic uniform file stream.
CellOutcome RunCell(const iolfault::FaultPlan* plan,
                    const iolfault::RecoveryConfig& recovery,
                    const iolbench::BenchOptions& opts) {
  iolsys::SystemOptions options;
  options.cost.cpu_count = kMembers;
  options.cost.disk_count = kMembers;
  iolbench::ApplyKindOptions(iolbench::ServerKind::kFlashLite, &options);
  auto sys = std::make_unique<iolsys::System>(options);

  std::vector<iolfs::FileId> ids;
  ids.reserve(kDocs);
  for (int i = 0; i < kDocs; ++i) {
    ids.push_back(sys->fs().CreateFile("doc" + std::to_string(i), kDocBytes));
  }

  std::vector<std::unique_ptr<iolhttp::HttpServer>> servers;
  std::vector<iolhttp::HttpServer*> members;
  for (int i = 0; i < kMembers; ++i) {
    servers.push_back(iolbench::MakeServer(iolbench::ServerKind::kFlashLite, sys.get()));
    members.push_back(servers.back().get());
  }

  // Deterministic prewarm: the doc set starts resident, so the measured
  // window exercises crash recovery rather than cold-start fill (a cold
  // start under a tight timeout is its own failure mode: every first touch
  // rides the contended disk past the timeout and the retries cascade).
  // The discarded tally keeps the fill from advancing the clock: the plan's
  // fault times are absolute and must stay ahead of t=0.
  {
    iolsim::Tally prewarm;
    iolsim::TallyScope scope(&sys->ctx(), &prewarm);
    for (iolfs::FileId f : ids) {
      uint64_t size = sys->fs().SizeOf(f);
      sys->cache().Insert(
          f, 0, iolite::Aggregate::FromBuffer(sys->fs().ReadFromDisk(f, 0, size)));
    }
  }

  ioldrv::ExperimentConfig config;
  config.persistent_connections = true;
  config.max_requests = opts.Requests(4000);
  config.warmup_requests = opts.Warmup(400);
  config.faults = plan;
  config.recovery = recovery;

  // 2 clients per member: enough headroom that hedges stay a rescue
  // mechanism instead of a load spiral (a saturated fleet turns hedging
  // into a storm: latency > hedge_delay for everyone => double the load).
  ioldrv::ClosedLoop workload(opts.Clients(8));
  ioldrv::Experiment experiment(
      &sys->ctx(), &sys->net(), &sys->cache(),
      ioldrv::Fleet(members, std::make_unique<ioldrv::LeastConnectionsBalancer>()),
      config);

  iolsim::Rng rng(9090);
  CellOutcome out;
  out.result = experiment.Run(&workload, [&rng, &ids]() -> iolfs::FileId {
    return ids[rng.NextBelow(ids.size())];
  });
  out.record_fold = FoldRecords(experiment.telemetry());
  out.final_clock = sys->ctx().clock().now();
  return out;
}

// The chaos mix for one intensity: independent per-member crash/restart
// cycles around `mean_uptime` plus periodic 4x disk fail-slow windows.
// Restarts are warm (the machine's unified cache survives a process crash):
// at sweep-scale crash rates a cold restart re-chills a quarter of the
// *shared* cache each cycle, and a cold read costs more than the entire
// protected-tail budget — the sweep would measure disk refill, not
// recovery. examples/fault_drill.cpp exercises the cold-restart path.
iolfault::FaultPlan MakePlan(iolsim::SimTime mean_uptime) {
  iolfault::FaultPlan plan;
  plan.AddRandomCrashes(/*seed=*/101, kMembers, mean_uptime, kRestartDelay,
                        kHorizon, /*cold_cache=*/false);
  plan.AddRandomDiskFailSlow(/*seed=*/202, /*mean_gap=*/150 * iolsim::kMillisecond,
                             /*window=*/10 * iolsim::kMillisecond, /*num=*/4,
                             /*den=*/1, kHorizon);
  return plan;
}

iolfault::RecoveryConfig MakeRecovery(Policy p, double baseline_p99_ms) {
  // The timeout budget scales off the measured fault-free tail so the sweep
  // stays meaningful if the machine model's costs move.
  iolsim::SimTime p99 = static_cast<iolsim::SimTime>(
      baseline_p99_ms * static_cast<double>(iolsim::kMillisecond));
  if (p99 < iolsim::kMillisecond) {
    p99 = iolsim::kMillisecond;
  }
  iolfault::RecoveryConfig rec;
  rec.request_timeout = 6 * p99;
  rec.retry_backoff = iolsim::kMillisecond;
  rec.retry_backoff_cap = 8 * iolsim::kMillisecond;
  if (p != Policy::kUnprotected) {
    rec.max_retries = 3;
  }
  if (p == Policy::kRetryHedge || p == Policy::kFull) {
    // 1.75x p99: rare enough fault-free (<1% of requests) to avoid hedge
    // storms, early enough that a rescue (hedge_delay + one warm serve,
    // so ~2.75x p99) lands inside the 3x protected-tail gate.
    rec.hedge_delay = 7 * p99 / 4;
  }
  if (p == Policy::kFull) {
    rec.health_checks = true;
    rec.health_check_interval = 2 * iolsim::kMillisecond;
    rec.unhealthy_after = 1;
    rec.healthy_after = 3;
  }
  return rec;
}

void PrintRow(const char* series, double x, const CellOutcome& out) {
  std::printf("%-20s\t%6.0f\t%9.4f%%\t%8llu\t%6llu\t%6llu\t%8.2f\t%8.1f\n", series, x,
              out.result.availability * 100.0,
              static_cast<unsigned long long>(out.result.failed_requests),
              static_cast<unsigned long long>(out.result.retries),
              static_cast<unsigned long long>(out.result.hedges),
              out.result.latency.p99_ms, out.result.megabits_per_sec);
}

}  // namespace

int main(int argc, char** argv) {
  iolbench::BenchOptions opts = iolbench::ParseBenchOptions(argc, argv);
  iolbench::JsonReporter json("fig_fault_tolerance", opts);

  iolbench::PrintHeader(
      "Fault tolerance: availability under crash + fail-slow chaos, "
      "recovery lattice swept",
      "policy              \tuptime\tavailability\t  failed\tretry\t hedge\t  p99_ms\tgoodput");

  // Fault-free baseline: no plan, no recovery — the exact pre-fault-plane
  // engine configuration. Its p99 anchors the timeout budget and the
  // protected-tail gate.
  iolfault::RecoveryConfig off;
  CellOutcome baseline = RunCell(nullptr, off, opts);
  double base_p99 = baseline.result.latency.p99_ms;
  PrintRow("fault-free", 0, baseline);
  json.AddExperiment("fault-free", 0, baseline.result);

  // Determinism gate: an EMPTY plan must take the identical trajectory.
  iolfault::FaultPlan empty_plan;
  CellOutcome echo = RunCell(&empty_plan, off, opts);
  bool identical = echo.record_fold == baseline.record_fold &&
                   echo.final_clock == baseline.final_clock &&
                   echo.result.requests == baseline.result.requests;
  std::printf("# empty-plan byte-identity: %s\n", identical ? "ok" : "FAIL");

  // mean member uptime (ms): lower = harsher. With kRestartDelay = 20 ms
  // the harshest cell has each member dark ~1/6 of the time.
  const iolsim::SimTime kUptimes[] = {400 * iolsim::kMillisecond,
                                      200 * iolsim::kMillisecond,
                                      100 * iolsim::kMillisecond};
  const Policy kPolicies[] = {Policy::kUnprotected, Policy::kRetry,
                              Policy::kRetryHedge, Policy::kFull};

  bool ok = identical;
  double worst_unprotected = 1.0;
  double worst_full = 1.0;
  double worst_full_p99 = 0.0;
  for (Policy p : kPolicies) {
    iolfault::RecoveryConfig rec = MakeRecovery(p, base_p99);
    for (iolsim::SimTime uptime : kUptimes) {
      iolfault::FaultPlan plan = MakePlan(uptime);
      CellOutcome cell = RunCell(&plan, rec, opts);
      double x = static_cast<double>(uptime) / iolsim::kMillisecond;
      PrintRow(Name(p), x, cell);
      json.AddExperiment(Name(p), x, cell.result);
      if (p == Policy::kUnprotected && cell.result.availability < worst_unprotected) {
        worst_unprotected = cell.result.availability;
      }
      if (p == Policy::kFull) {
        if (cell.result.availability < worst_full) {
          worst_full = cell.result.availability;
        }
        if (cell.result.latency.p99_ms > worst_full_p99) {
          worst_full_p99 = cell.result.latency.p99_ms;
        }
      }
    }
  }

  std::printf(
      "# expectation: unprotected collapses (LC attracts traffic to "
      "black holes); the full lattice holds >= 99.9%% with a bounded tail\n");

  if (!opts.smoke) {
    // The availability invariants the ISSUE pins; smoke runs are too short
    // for the chaos schedule to bite, so only full runs enforce them.
    double tail_ratio = base_p99 > 0 ? worst_full_p99 / base_p99 : 0;
    std::printf("# unprotected worst availability %.4f%% (need < 99%%): %s\n",
                worst_unprotected * 100.0, worst_unprotected < 0.99 ? "ok" : "FAIL");
    std::printf("# full-lattice worst availability %.4f%% (need >= 99.9%%): %s\n",
                worst_full * 100.0, worst_full >= 0.999 ? "ok" : "FAIL");
    std::printf("# full-lattice worst p99 %.2f ms = %.2fx fault-free (need <= 3x): %s\n",
                worst_full_p99, tail_ratio, tail_ratio <= 3.0 ? "ok" : "FAIL");
    ok = ok && worst_unprotected < 0.99 && worst_full >= 0.999 && tail_ratio <= 3.0;
  }
  return json.Flush() && ok ? 0 : 1;
}
