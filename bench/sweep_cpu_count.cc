// CPU-count sweep — a scenario the staged request pipeline unlocks (not in
// the paper, whose testbed is a uniprocessor).
//
// With the request path decomposed into resource-acquiring stages, an N-way
// CPU is just N service units: CPU-bound servers (Apache's
// process-per-connection work, Flash's per-byte copies) should scale with
// CPU count until the link saturates, while Flash-Lite — already near the
// wire at one CPU for large files — gains little. The interesting output is
// where each server's bottleneck moves from CPU to wire.

#include <vector>

#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using iolbench::ServerKind;
  iolbench::Figure fig("cpu_sweep", argc, argv);
  const ServerKind kinds[] = {ServerKind::kFlashLite, ServerKind::kFlash, ServerKind::kApache};
  const size_t kFileBytes = 20 * 1024;  // CPU-sensitive region of Figure 4.

  fig.Header("CPU-count sweep: 20KB persistent-HTTP bandwidth (Mb/s)",
             "cpus\tFlash-Lite\tFlash\tApache\tapache_speedup_vs_1cpu");
  iolbench::Sweep sweep;
  sweep.series = {"Flash-Lite", "Flash", "Apache"};
  sweep.x = {1, 2, 4, 8};
  sweep.labels = {"1", "2", "4", "8"};
  sweep.value_rows = true;
  sweep.cell = [&](size_t i, size_t s) {
    iolbench::Cell cell = iolbench::SingleFileCell(kinds[s], kFileBytes, true);
    cell.clients = 64;
    cell.options.cost.cpu_count = static_cast<int>(sweep.x[i]);
    return cell;
  };
  double apache_base = 0;
  sweep.ratios = [&](size_t i, const std::vector<ioldrv::ExperimentResult>& r) {
    if (i == 0) {
      apache_base = r[2].megabits_per_sec;
    }
    return std::vector<double>{apache_base > 0 ? r[2].megabits_per_sec / apache_base : 0.0};
  };
  fig.Run(sweep);
  return fig.Finish(
      "expectation: Apache scales near-linearly until the wire; Flash-Lite is wire-bound "
      "from 1 CPU");
}
