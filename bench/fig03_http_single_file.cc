// Figure 3: HTTP single-file test, nonpersistent (HTTP/1.0) connections.
//
// 40 clients repeatedly request the same document; file sizes sweep 500 B to
// 200 KB; everything is served from the cache after the first request.
//
// Paper anchors: Flash > Apache throughout (up to +71% at 20 KB);
// Flash-Lite ~= Flash below ~5 KB (control overheads dominate);
// Flash-Lite +38-43% over Flash for >= 50 KB; +73-94% over Apache.

#include <vector>

#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using iolbench::ServerKind;
  iolbench::Figure fig("fig03", argc, argv);
  const std::vector<size_t> sizes = {500,           1 * 1024,   2 * 1024,  3 * 1024,
                                     5 * 1024,      7 * 1024,   10 * 1024, 15 * 1024,
                                     20 * 1024,     30 * 1024,  50 * 1024, 75 * 1024,
                                     100 * 1024,    150 * 1024, 200 * 1024};
  const ServerKind kinds[] = {ServerKind::kFlashLite, ServerKind::kFlash, ServerKind::kApache};

  fig.Header("Figure 3: HTTP single-file bandwidth (Mb/s), nonpersistent",
             "size_kb\tFlash-Lite\tFlash\tApache\tlite/flash");
  iolbench::Sweep sweep;
  sweep.series = {"Flash-Lite", "Flash", "Apache"};
  iolbench::AddSizes(&sweep, sizes);
  sweep.cell = [&](size_t i, size_t s) {
    return iolbench::SingleFileCell(kinds[s], sizes[i], false);
  };
  sweep.ratios = [](size_t, const std::vector<ioldrv::ExperimentResult>& r) {
    return std::vector<double>{r[0].megabits_per_sec / r[1].megabits_per_sec};
  };
  fig.Run(sweep);
  return fig.Finish(
      "paper: Flash-Lite ~= Flash at <=5KB; +38-43% at >=50KB; Flash up to +71% over Apache");
}
