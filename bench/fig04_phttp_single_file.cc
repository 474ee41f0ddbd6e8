// Figure 4: persistent-connection (HTTP/1.1 keep-alive) single-file test.
//
// Paper anchors: small-file rates rise sharply for Flash and Flash-Lite
// (TCP setup/teardown eliminated); Apache's process-per-connection model
// prevents it from benefiting; Flash-Lite outperforms Flash by up to 43%
// at >= 20 KB, is within 10% of network saturation at 17 KB, and saturates
// the network at >= 30 KB.

#include <vector>

#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using iolbench::ServerKind;
  iolbench::Figure fig("fig04", argc, argv);
  const std::vector<size_t> sizes = {500,        1 * 1024,   2 * 1024,   3 * 1024,
                                     5 * 1024,   7 * 1024,   10 * 1024,  15 * 1024,
                                     17 * 1024,  20 * 1024,  30 * 1024,  50 * 1024,
                                     100 * 1024, 150 * 1024, 200 * 1024};
  const ServerKind kinds[] = {ServerKind::kFlashLite, ServerKind::kFlash, ServerKind::kApache};

  fig.Header("Figure 4: persistent-HTTP single-file bandwidth (Mb/s)",
             "size_kb\tFlash-Lite\tFlash\tApache\tlite/flash");
  iolbench::Sweep sweep;
  sweep.series = {"Flash-Lite", "Flash", "Apache"};
  iolbench::AddSizes(&sweep, sizes);
  sweep.cell = [&](size_t i, size_t s) {
    return iolbench::SingleFileCell(kinds[s], sizes[i], true);
  };
  sweep.ratios = [](size_t, const std::vector<ioldrv::ExperimentResult>& r) {
    return std::vector<double>{r[0].megabits_per_sec / r[1].megabits_per_sec};
  };
  fig.Run(sweep);
  return fig.Finish(
      "paper: Flash-Lite within 10% of saturation at 17KB, saturates >=30KB; up to +43% "
      "over Flash at >=20KB; Apache gains little from persistence");
}
