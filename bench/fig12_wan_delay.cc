// Figure 12: throughput versus WAN round-trip delay.
//
// Delay routers add RTT between clients and server; the client population
// scales linearly with delay (64 in the LAN case up to 900 at 150 ms) to
// keep the server saturated. Data set: a 120 MB prefix of the MERGED
// subtrace (neither fully disk-bound nor CPU-limited).
//
// Paper anchors: Flash drops ~33% and Apache ~50% as delay grows (TCP send
// buffers and server processes consume file-cache memory); Flash-Lite is
// unaffected and even gains slightly.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using iolbench::ServerKind;
  iolbench::Figure fig("fig12", argc, argv);
  const ServerKind kinds[] = {ServerKind::kFlashLite, ServerKind::kFlash, ServerKind::kApache};
  iolwl::Trace prefix = iolbench::Fig12Prefix(fig.smoke());
  iolbench::Sweep sweep;
  for (const iolbench::Fig12Point& point : iolbench::kFig12Points) {
    sweep.x.push_back(iolsim::ToSeconds(point.rtt) * 1e3);
    sweep.labels.push_back(
        iolbench::Fmt("%s\t%d", point.label, fig.opts().Clients(point.clients)));
  }

  fig.Header("Figure 12: throughput vs WAN round-trip delay (Mb/s), 120MB dataset",
             "delay\tclients\tFlash-Lite\tFlash\tApache");
  sweep.series = {"Flash-Lite", "Flash", "Apache"};
  sweep.cell = [&](size_t i, size_t s) {
    return iolbench::Fig12Cell(kinds[s], &prefix, iolbench::kFig12Points[i]);
  };
  std::vector<ioldrv::ExperimentResult> lan;
  sweep.after = [&](size_t i, const std::vector<ioldrv::ExperimentResult>& r) {
    if (i == 0) {
      lan = r;
    } else if (i + 1 == sweep.x.size()) {
      std::printf("# drop vs LAN: Flash-Lite %.0f%%, Flash %.0f%%, Apache %.0f%%\n",
                  100.0 * (1 - r[0].megabits_per_sec / lan[0].megabits_per_sec),
                  100.0 * (1 - r[1].megabits_per_sec / lan[1].megabits_per_sec),
                  100.0 * (1 - r[2].megabits_per_sec / lan[2].megabits_per_sec));
    }
  };
  fig.Run(sweep);
  return fig.Finish("paper: Flash -33%, Apache -50%, Flash-Lite flat or slightly up");
}
