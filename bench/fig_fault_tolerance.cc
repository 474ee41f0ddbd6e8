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
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/fault/fault_plan.h"
#include "src/fault/recovery.h"

namespace {

constexpr int kMembers = 4;
constexpr int kDocs = 96;
constexpr uint64_t kDocBytes = 24 * 1024;
constexpr iolsim::SimTime kRestartDelay = 20 * iolsim::kMillisecond;
constexpr iolsim::SimTime kHorizon = 4 * iolsim::kSecond;

// The recovery lattice, cumulative along the series axis.
struct Policy {
  const char* name;
  bool retry;
  bool hedge;
  bool health;
};
constexpr Policy kPolicies[] = {{"unprotected", false, false, false},
                                {"retry", true, false, false},
                                {"retry+hedge", true, true, false},
                                {"retry+hedge+health", true, true, true}};

// One data point: a fresh four-member machine behind a least-connections
// balancer, the given plan (may be null) and recovery config, a
// deterministic uniform file stream. The doc set starts resident, so the
// measured window exercises crash recovery rather than cold-start fill (a
// cold start under a tight timeout is its own failure mode: every first
// touch rides the contended disk past the timeout and the retries cascade).
iolbench::CellRun RunFaultCell(const iolfault::FaultPlan* plan,
                               const iolfault::RecoveryConfig& recovery,
                               const iolbench::Figure& fig) {
  iolbench::Cell cell;
  cell.kind = iolbench::ServerKind::kFlashLite;
  cell.members = kMembers;
  cell.least_connections = true;
  cell.docs = kDocs;
  cell.file_bytes = kDocBytes;
  cell.draw_seed = 9090;
  cell.setup = iolbench::PrewarmOffClock;
  // 2 clients per member: enough headroom that hedges stay a rescue
  // mechanism instead of a load spiral (a saturated fleet turns hedging
  // into a storm: latency > hedge_delay for everyone => double the load).
  cell.clients = 8;
  cell.config.persistent_connections = true;
  cell.config.max_requests = 4000;
  cell.config.warmup_requests = 400;
  cell.config.faults = plan;
  cell.config.recovery = recovery;
  return fig.Run(cell);
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

iolfault::RecoveryConfig MakeRecovery(const Policy& p, double baseline_p99_ms) {
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
  if (p.retry) {
    rec.max_retries = 3;
  }
  if (p.hedge) {
    // 1.75x p99: rare enough fault-free (<1% of requests) to avoid hedge
    // storms, early enough that a rescue (hedge_delay + one warm serve,
    // so ~2.75x p99) lands inside the 3x protected-tail gate.
    rec.hedge_delay = 7 * p99 / 4;
  }
  if (p.health) {
    rec.health_checks = true;
    rec.health_check_interval = 2 * iolsim::kMillisecond;
    rec.unhealthy_after = 1;
    rec.healthy_after = 3;
  }
  return rec;
}

void PrintRow(const char* series, double x, const iolbench::CellRun& out) {
  std::printf("%-20s\t%6.0f\t%9.4f%%\t%8llu\t%6llu\t%6llu\t%8.2f\t%8.1f\n", series, x,
              out.result.availability * 100.0,
              static_cast<unsigned long long>(out.result.failed_requests),
              static_cast<unsigned long long>(out.result.retries),
              static_cast<unsigned long long>(out.result.hedges),
              out.result.latency.p99_ms, out.result.megabits_per_sec);
}

}  // namespace

int main(int argc, char** argv) {
  iolbench::Figure fig("fig_fault_tolerance", argc, argv);

  fig.Header(
      "Fault tolerance: availability under crash + fail-slow chaos, "
      "recovery lattice swept",
      "policy              \tuptime\tavailability\t  failed\tretry\t hedge\t  p99_ms\tgoodput");

  // Fault-free baseline: no plan, no recovery — the exact pre-fault-plane
  // engine configuration. Its p99 anchors the timeout budget and the
  // protected-tail gate.
  iolfault::RecoveryConfig off;
  iolbench::CellRun baseline = RunFaultCell(nullptr, off, fig);
  double base_p99 = baseline.result.latency.p99_ms;
  PrintRow("fault-free", 0, baseline);
  fig.json().AddExperiment("fault-free", 0, baseline.result);

  // Determinism gate: an EMPTY plan must take the identical trajectory.
  iolfault::FaultPlan empty_plan;
  iolbench::CellRun echo = RunFaultCell(&empty_plan, off, fig);
  bool identical = iolbench::FoldRecords(echo.telemetry.records()) ==
                       iolbench::FoldRecords(baseline.telemetry.records()) &&
                   echo.final_clock == baseline.final_clock &&
                   echo.result.requests == baseline.result.requests;
  std::printf("# empty-plan byte-identity: %s\n", identical ? "ok" : "FAIL");

  // mean member uptime (ms): lower = harsher. With kRestartDelay = 20 ms
  // the harshest cell has each member dark ~1/6 of the time.
  const iolsim::SimTime kUptimes[] = {400 * iolsim::kMillisecond,
                                      200 * iolsim::kMillisecond,
                                      100 * iolsim::kMillisecond};

  double worst_unprotected = 1.0;
  double worst_full = 1.0;
  double worst_full_p99 = 0.0;
  for (const Policy& p : kPolicies) {
    iolfault::RecoveryConfig rec = MakeRecovery(p, base_p99);
    for (iolsim::SimTime uptime : kUptimes) {
      iolfault::FaultPlan plan = MakePlan(uptime);
      iolbench::CellRun cell = RunFaultCell(&plan, rec, fig);
      double x = static_cast<double>(uptime) / iolsim::kMillisecond;
      PrintRow(p.name, x, cell);
      fig.json().AddExperiment(p.name, x, cell.result);
      if (!p.retry && cell.result.availability < worst_unprotected) {
        worst_unprotected = cell.result.availability;
      }
      if (p.health) {
        if (cell.result.availability < worst_full) {
          worst_full = cell.result.availability;
        }
        if (cell.result.latency.p99_ms > worst_full_p99) {
          worst_full_p99 = cell.result.latency.p99_ms;
        }
      }
    }
  }

  return fig.Finish(
      "expectation: unprotected collapses (LC attracts traffic to "
      "black holes); the full lattice holds >= 99.9% with a bounded tail",
      [&] {
        // The availability invariants; smoke runs are too short for the
        // chaos schedule to bite, so only full runs enforce them.
        if (fig.smoke()) {
          return identical;
        }
        double tail_ratio = base_p99 > 0 ? worst_full_p99 / base_p99 : 0;
        std::printf("# unprotected worst availability %.4f%% (need < 99%%): %s\n",
                    worst_unprotected * 100.0, worst_unprotected < 0.99 ? "ok" : "FAIL");
        std::printf("# full-lattice worst availability %.4f%% (need >= 99.9%%): %s\n",
                    worst_full * 100.0, worst_full >= 0.999 ? "ok" : "FAIL");
        std::printf("# full-lattice worst p99 %.2f ms = %.2fx fault-free (need <= 3x): %s\n",
                    worst_full_p99, tail_ratio, tail_ratio <= 3.0 ? "ok" : "FAIL");
        return identical && worst_unprotected < 0.99 && worst_full >= 0.999 &&
               tail_ratio <= 3.0;
      });
}
