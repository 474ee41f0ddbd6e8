// Figure 5: HTTP/FastCGI test, nonpersistent connections.
//
// Each request is served by a persistent (FastCGI) process that sends a
// memory-resident "dynamic" document to the server over a UNIX pipe.
//
// Paper anchors: Flash and Apache reach roughly HALF their static-content
// bandwidth (pipe copies dominate); Flash-Lite approaches 87% of its static
// speed; Flash-Lite CGI even beats Flash static.

#include <vector>

#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using iolbench::ServerKind;
  iolbench::Figure fig("fig05", argc, argv);
  const std::vector<size_t> sizes = {500,       2 * 1024,  5 * 1024,   10 * 1024,
                                     20 * 1024, 50 * 1024, 100 * 1024, 200 * 1024};
  // The three CGI series, then the two static runs the ratio columns read.
  const ServerKind kinds[] = {ServerKind::kFlashLite, ServerKind::kFlash, ServerKind::kApache,
                              ServerKind::kFlashLite, ServerKind::kFlash};

  fig.Header("Figure 5: HTTP/FastCGI bandwidth (Mb/s), nonpersistent",
             "size_kb\tFlash-Lite\tFlash\tApache\tlite_cgi/static\tflash_cgi/static");
  iolbench::Sweep sweep;
  sweep.series = {"Flash-Lite-CGI", "Flash-CGI", "Apache-CGI"};
  iolbench::AddSizes(&sweep, sizes);
  sweep.extra = 2;
  sweep.cell = [&](size_t i, size_t s) {
    return s < 3 ? iolbench::CgiCell(kinds[s], sizes[i], false)
                 : iolbench::SingleFileCell(kinds[s], sizes[i], false);
  };
  sweep.ratios = [](size_t, const std::vector<ioldrv::ExperimentResult>& r) {
    return std::vector<double>{r[0].megabits_per_sec / r[3].megabits_per_sec,
                               r[1].megabits_per_sec / r[4].megabits_per_sec};
  };
  fig.Run(sweep);
  return fig.Finish(
      "paper: copy-based servers at ~half their static bandwidth; Flash-Lite CGI ~87% of "
      "static and above Flash static");
}
