// Latency versus offered load — the curve the old throughput-only driver
// could not draw (ROADMAP: open-loop trace replay + latency percentiles).
//
// A timestamped log is synthesized over the MERGED subtrace at a swept
// arrival rate (Poisson instants, deterministic per seed) and replayed
// open-loop through ioldrv::TraceReplay: arrivals fire at the log's
// instants whether or not earlier requests have completed, so queueing
// delay — invisible to a closed loop, which slows its own arrivals — shows
// up as tail latency. Expected shape: p50 flat and p99 modest while the
// offered load sits below a server's capacity, then the knee, then runaway
// queueing past saturation. Flash-Lite's knee sits at a higher rate than
// Flash's (same machine, fewer cycles per byte).

#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using iolbench::ServerKind;
  iolbench::Figure fig("fig_latency_load", argc, argv);

  iolwl::TraceSpec spec = iolwl::SubtraceSpec();
  spec.num_requests = fig.smoke() ? 2000 : 25000;
  iolwl::Trace trace = iolwl::Trace::Generate(spec);

  const std::vector<double> rates =
      fig.smoke() ? std::vector<double>{150, 600}
                  : std::vector<double>{100, 200, 300, 450, 600, 750};

  fig.Header("Latency vs offered load: timestamped MERGED-subtrace replay",
             "rate_per_sec\tserver\tmbps\tp50_ms\tp99_ms\tmax_ms");
  for (double rate : rates) {
    iolwl::TimestampedLog log = iolwl::SynthesizeArrivals(trace, rate, /*seed=*/4242);
    for (ServerKind kind : {ServerKind::kFlashLite, ServerKind::kFlash}) {
      iolbench::Cell cell;
      cell.kind = kind;
      cell.trace = &trace;
      cell.config.warmup_requests = 1000;
      cell.config.enforce_cache_budget = true;
      // Every arrival is pinned by the log, and the log ends the run: every
      // entry arrives exactly once, then the in-flight tail drains.
      cell.setup = [&log](iolbench::Machine& m) {
        m.config.max_requests = log.entries.size();
        return std::make_unique<ioldrv::TraceReplay>(&log, m.ids, /*initial_pool=*/16);
      };
      ioldrv::ExperimentResult r = fig.Run(cell).result;
      std::printf("%.0f\t%s\t%.1f\t%.2f\t%.2f\t%.2f\n", rate, iolbench::Name(kind),
                  r.megabits_per_sec, r.latency.p50_ms, r.latency.p99_ms,
                  r.latency.max_ms);
      fig.json().AddExperiment(iolbench::Name(kind), rate, r);
    }
  }
  return fig.Finish(
      "expectation: p99 flat below each server's capacity, then a knee; Flash-Lite's knee "
      "at a higher rate than Flash's");
}
