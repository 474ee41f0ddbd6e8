// A deterministic fault drill, end to end on one small fleet.
//
// Three Flash-Lite members behind a least-connections balancer serve a
// 6-client closed loop while a hand-scripted FaultPlan runs: member 0
// crashes twice (restarting 15 ms later, cold cache), a 4x disk fail-slow
// window lands in between, and a link outage briefly parks the front link.
// Recovery is the full lattice — timeout, capped-backoff retries, hedged
// requests, health-check ejection — so every casualty is absorbed: the
// drill demands 100% availability, at least one retry or hedge actually
// exercised, and at least one health ejection, and exits non-zero
// otherwise (CI runs it as a smoke gate).
//
// It also demonstrates the determinism contract: the same drill run twice
// produces byte-identical record streams, printed as a folded checksum.
//
// Run:  ./build/example_fault_drill

#include <cstdint>
#include <cstdio>

#include "bench/bench_util.h"
#include "src/fault/fault_plan.h"
#include "src/fault/recovery.h"

namespace {

constexpr int kMembers = 3;
constexpr int kClients = 6;
constexpr int kDocs = 48;
constexpr uint64_t kDocBytes = 16 * 1024;
constexpr uint64_t kRequests = 3000;
constexpr uint64_t kWarmup = 100;

struct DrillRun {
  iolbench::CellRun cell;
  uint64_t outcomes[5] = {0, 0, 0, 0, 0};  // Indexed by ioldrv::Outcome.
};

DrillRun RunDrill() {
  // All faults land after the warmup drains (~35 ms with a warm cache), so
  // every casualty falls inside the counted window.
  using iolsim::kMillisecond;
  iolfault::FaultPlan plan;
  plan.AddMemberCrash(80 * kMillisecond, /*member=*/0, /*restart=*/15 * kMillisecond)
      .AddDiskFailSlow(150 * kMillisecond, 20 * kMillisecond, /*num=*/4, /*den=*/1)
      .AddLinkOutage(210 * kMillisecond, 3 * kMillisecond)
      .AddMemberCrash(260 * kMillisecond, /*member=*/0, /*restart=*/15 * kMillisecond);

  iolbench::Cell cell;
  cell.kind = iolbench::ServerKind::kFlashLite;
  cell.members = kMembers;
  cell.least_connections = true;
  cell.docs = kDocs;
  cell.file_bytes = kDocBytes;
  cell.draw_seed = 777;
  cell.clients = kClients;
  // Deterministic prewarm off the clock (see fig_fault_tolerance): the drill
  // measures recovery, not cold-start fill, and the scripted fault times
  // above are absolute.
  cell.setup = iolbench::PrewarmOffClock;
  cell.config.persistent_connections = true;
  cell.config.max_requests = kRequests;
  cell.config.warmup_requests = kWarmup;
  cell.config.faults = &plan;
  iolfault::RecoveryConfig& rec = cell.config.recovery;
  rec.request_timeout = 40 * kMillisecond;
  rec.max_retries = 3;
  rec.retry_backoff = kMillisecond;
  rec.retry_backoff_cap = 8 * kMillisecond;
  rec.hedge_delay = 10 * kMillisecond;
  rec.health_checks = true;
  rec.health_check_interval = 2 * kMillisecond;
  rec.unhealthy_after = 1;
  rec.healthy_after = 3;

  DrillRun run;
  run.cell = iolbench::RunCell(cell);
  for (const ioldrv::RequestRecord& r : run.cell.telemetry.records()) {
    if (r.counted) {
      ++run.outcomes[static_cast<int>(r.outcome)];
    }
  }
  return run;
}

}  // namespace

int main() {
  std::printf("# fault drill: scripted crash/fail-slow/link-outage chaos, full recovery lattice\n");
  DrillRun a = RunDrill();
  DrillRun b = RunDrill();
  const ioldrv::ExperimentResult& result = a.cell.result;
  uint64_t fold = iolbench::FoldRecords(a.cell.telemetry.records());
  bool identical = fold == iolbench::FoldRecords(b.cell.telemetry.records()) &&
                   a.cell.final_clock == b.cell.final_clock;

  std::printf("requests      %llu\n", static_cast<unsigned long long>(result.requests));
  std::printf("availability  %.4f%%\n", result.availability * 100.0);
  std::printf("outcomes      ok=%llu retried-ok=%llu hedge-won=%llu timed-out=%llu failed=%llu\n",
              static_cast<unsigned long long>(a.outcomes[0]),
              static_cast<unsigned long long>(a.outcomes[1]),
              static_cast<unsigned long long>(a.outcomes[2]),
              static_cast<unsigned long long>(a.outcomes[3]),
              static_cast<unsigned long long>(a.outcomes[4]));
  std::printf("retries       %llu\n", static_cast<unsigned long long>(result.retries));
  std::printf("hedges        %llu\n", static_cast<unsigned long long>(result.hedges));
  std::printf("ejections     %llu\n", static_cast<unsigned long long>(result.health_ejections));
  std::printf("blackholed    %llu\n", static_cast<unsigned long long>(result.blackholed_arrivals));
  std::printf("drops         %llu\n", static_cast<unsigned long long>(result.response_drops));
  std::printf("p99           %.2f ms\n", result.latency.p99_ms);
  std::printf("record fold   %016llx (run twice: %s)\n",
              static_cast<unsigned long long>(fold), identical ? "identical" : "DIVERGED");

  bool recovered = a.outcomes[1] + a.outcomes[2] > 0;  // Retried or hedged wins.
  bool ok = result.availability >= 0.999 && recovered &&
            result.health_ejections > 0 && identical;
  std::printf("drill         %s\n", ok ? "ok" : "FAIL");
  return ok ? 0 : 1;
}
