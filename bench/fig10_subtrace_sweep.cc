// Figure 10: MERGED subtrace performance as a function of data set size.
//
// Prefixes of the 150 MB subtrace yield smaller data sets; 64 clients pick
// entries at random (SpecWeb96 methodology) with nonpersistent connections.
//
// Paper anchors: Flash +65-88% over Apache in memory, +71-110% disk-bound;
// Flash-Lite +34-50% over Flash on in-memory data sets (copy avoidance),
// +44-67% on disk-bound sets (GDS cache replacement).

#include <vector>

#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using iolbench::ServerKind;
  iolbench::Figure fig("fig10", argc, argv);
  const ServerKind kinds[] = {ServerKind::kFlashLite, ServerKind::kFlash, ServerKind::kApache};
  iolbench::Sweep sweep;
  std::vector<iolwl::Trace> prefixes = iolbench::SubtracePrefixes(fig.smoke(), &sweep);

  fig.Header("Figure 10: MERGED subtrace bandwidth vs data set size, 64 clients",
             "dataset_mb\tFlash-Lite\tFlash\tApache\tlite/flash\tflash/apache");
  sweep.series = {"Flash-Lite", "Flash", "Apache"};
  sweep.cell = [&](size_t i, size_t s) {
    return iolbench::TraceCell(kinds[s], &prefixes[i], 64, 80000, 30000);
  };
  sweep.ratios = [](size_t, const std::vector<ioldrv::ExperimentResult>& r) {
    return std::vector<double>{r[0].megabits_per_sec / r[1].megabits_per_sec,
                               r[1].megabits_per_sec / r[2].megabits_per_sec};
  };
  fig.Run(sweep);
  return fig.Finish(
      "paper: Flash-Lite +34-50% (in-memory) and +44-67% (disk-bound) over Flash; "
      "Flash +65-110% over Apache");
}
