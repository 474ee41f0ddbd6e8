// Figure 6: persistent-HTTP/FastCGI test.
//
// Paper anchors: Flash and Apache gain little from persistent connections
// (the pipe IPC is their bottleneck); Flash-Lite's advantage widens
// further.

#include <vector>

#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using iolbench::ServerKind;
  iolbench::Figure fig("fig06", argc, argv);
  const std::vector<size_t> sizes = {500,       2 * 1024,  5 * 1024,   10 * 1024,
                                     20 * 1024, 50 * 1024, 100 * 1024, 200 * 1024};
  // The three persistent series, then Flash over HTTP/1.0 for the gain column.
  const ServerKind kinds[] = {ServerKind::kFlashLite, ServerKind::kFlash, ServerKind::kApache,
                              ServerKind::kFlash};

  fig.Header("Figure 6: persistent-HTTP/FastCGI bandwidth (Mb/s)",
             "size_kb\tFlash-Lite\tFlash\tApache\tflash_gain_vs_http10");
  iolbench::Sweep sweep;
  sweep.series = {"Flash-Lite-CGI", "Flash-CGI", "Apache-CGI"};
  iolbench::AddSizes(&sweep, sizes);
  sweep.extra = 1;
  sweep.cell = [&](size_t i, size_t s) { return iolbench::CgiCell(kinds[s], sizes[i], s < 3); };
  sweep.ratios = [](size_t, const std::vector<ioldrv::ExperimentResult>& r) {
    return std::vector<double>{r[1].megabits_per_sec / r[3].megabits_per_sec};
  };
  fig.Run(sweep);
  return fig.Finish(
      "paper: Flash/Apache cannot exploit persistence (pipe-IPC-bound); Flash-Lite can");
}
