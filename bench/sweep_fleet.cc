// Fleet scaling — N server instances behind a load balancer, one client
// population (ROADMAP: multi-server fleets).
//
// Each fleet member models one machine's CPU and disk (cpu_count and
// disk_count scale with N) while all members share the front link, the
// fabric every scale-out deployment funnels through. Copy-based servers
// are CPU-bound per member on 10 KB documents, so their fleets scale near
// linearly until the shared link saturates; Flash-Lite sits near the link
// from one member, so its curve flattens almost immediately — the paper's
// copy-avoidance argument restated as a provisioning statement: one
// IO-Lite server replaces most of a copy-based fleet.
//
// The balancer axis rides along: round-robin vs least-connections for the
// copy-based fleet, identical mean throughput on this homogeneous workload
// but tighter tails under least-connections.
//
// The skewed section replaces the single 10 KB document with a Zipf-
// popularity, heavy-tailed-size trace (iolwl::TraceSpec::zipf_alpha +
// size_sigma), so per-request cost varies by orders of magnitude: a member
// stuck behind one giant response backs up under round-robin, while
// least-connections steers arrivals away from it — the p99 gap the uniform
// workload structurally cannot show (ROADMAP "least-loaded balancing under
// skew").

#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.h"

namespace {

// Heavy-tailed per-request cost: requests draw files from a Zipf trace with
// a fat lognormal size tail, so service demands are wildly unequal across
// arrivals and the balancing policy finally matters.
iolwl::Trace SkewedTrace() {
  iolwl::TraceSpec spec;
  spec.name = "fleet-skew";
  spec.num_files = 200;
  spec.total_bytes = 40ull * 1024 * 1024;
  spec.num_requests = 20000;
  spec.mean_request_bytes = 12 * 1024;
  spec.zipf_alpha = 1.0;   // The existing popularity-skew knob of trace.cc.
  spec.size_sigma = 2.0;   // Fat size tail: p99 cost >> median cost.
  spec.seed = 99;
  return iolwl::Trace::Generate(spec);
}

}  // namespace

int main(int argc, char** argv) {
  using iolbench::ServerKind;
  iolbench::Figure fig("sweep_fleet", argc, argv);
  const ServerKind kinds[] = {ServerKind::kFlashLite, ServerKind::kFlash, ServerKind::kApache,
                              ServerKind::kApache};

  fig.Header(
      "Fleet sweep: N members (1 CPU + 1 disk each), shared front link, "
      "10KB persistent HTTP (Mb/s)",
      "fleet\tFlash-Lite\tFlash\tApache\tApache-lc\tapache_p99_rr/lc");
  iolbench::Sweep sweep;
  sweep.series = {"Flash-Lite", "Flash", "Apache", "Apache/least-conn"};
  sweep.x = {1, 2, 4, 8};
  sweep.labels = {"1", "2", "4", "8"};
  sweep.cell = [&](size_t i, size_t s) {
    iolbench::Cell cell = iolbench::SingleFileCell(kinds[s], 10 * 1024, true);
    cell.members = static_cast<int>(sweep.x[i]);  // One CPU and disk arm each...
    cell.least_connections = s == 3;              // ...one shared link.
    cell.clients = 96;
    return cell;
  };
  sweep.ratios = [](size_t, const std::vector<ioldrv::ExperimentResult>& r) {
    return std::vector<double>{
        r[3].latency.p99_ms > 0 ? r[2].latency.p99_ms / r[3].latency.p99_ms : 0.0};
  };
  sweep.after = [&](size_t i, const std::vector<ioldrv::ExperimentResult>& r) {
    if (sweep.x[i] == 4) {
      std::printf("# 4-member Apache fleet share (round-robin): ");
      for (const ioldrv::ServerShare& share : r[2].per_server) {
        std::printf("%llu ", static_cast<unsigned long long>(share.requests));
      }
      std::printf("requests/member\n");
    }
  };
  fig.Run(sweep);
  std::printf("# expectation: copy-based fleets scale until the shared link; "
              "Flash-Lite near the link from one member\n");

  fig.Header(
      "Fleet sweep, heavy-tailed request costs (Zipf trace, fat size tail): "
      "round-robin vs least-connections",
      "fleet\trr_p99_ms\tlc_p99_ms\tp99 rr/lc\trr Mb/s\tlc Mb/s");
  iolwl::Trace trace = SkewedTrace();
  for (int n : {4, 8}) {
    ioldrv::ExperimentResult runs[2];
    for (int lc = 0; lc < 2; ++lc) {
      iolbench::Cell cell;
      cell.kind = ServerKind::kApache;
      cell.members = n;
      cell.least_connections = lc == 1;
      cell.trace = &trace;
      cell.draw_seed = 4242;
      cell.config.persistent_connections = true;
      cell.config.max_requests = 4000;
      cell.config.warmup_requests = 200;
      // Tight per-member concurrency cap: one giant response occupies a
      // quarter of a member's slots, so arrivals back up in *that member's*
      // accept queue — the per-member queueing that lets the balancing
      // policy matter (the members' CPUs are one pooled resource, so without
      // admission queues every policy looks identical). Round-robin keeps
      // queueing behind the stuck member even while siblings have free
      // slots; least-connections steers around it.
      cell.config.max_concurrent = 4;
      // Open-loop arrivals (fixed offered load): a closed loop would slow
      // its arrival rate to whatever the unluckier balancer sustains,
      // hiding the queueing difference the policy exists to fix. Loaded
      // enough that members intermittently hit their admission cap (where
      // steering matters), below saturation so the open loop stays stable
      // — tuned against the measured capacity on this trace.
      cell.setup = [n](iolbench::Machine&) {
        return std::make_unique<ioldrv::OpenLoopPoisson>(320.0 * n, 0x5eed);
      };
      runs[lc] = fig.Run(cell).result;
    }
    const ioldrv::ExperimentResult& rr = runs[0];
    const ioldrv::ExperimentResult& lc = runs[1];
    std::printf("%d\t%.2f\t%.2f\t%.2f\t%.1f\t%.1f\n", n, rr.latency.p99_ms,
                lc.latency.p99_ms,
                lc.latency.p99_ms > 0 ? rr.latency.p99_ms / lc.latency.p99_ms : 0.0,
                rr.megabits_per_sec, lc.megabits_per_sec);
    fig.json().AddExperiment("Apache-skew", n, rr);
    fig.json().AddExperiment("Apache-skew/least-conn", n, lc);
  }
  return fig.Finish(
      "expectation: least-connections tightens the p99 tail once per-request costs are "
      "heavy-tailed");
}
