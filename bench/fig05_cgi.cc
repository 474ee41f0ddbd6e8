// Figure 5: HTTP/FastCGI test, nonpersistent connections.
//
// Each request is served by a persistent (FastCGI) process that sends a
// memory-resident "dynamic" document to the server over a UNIX pipe.
//
// Paper anchors: Flash and Apache reach roughly HALF their static-content
// bandwidth (pipe copies dominate); Flash-Lite approaches 87% of its static
// speed; Flash-Lite CGI even beats Flash static.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using iolbench::ServerKind;
  iolbench::BenchOptions opts = iolbench::ParseBenchOptions(argc, argv);
  iolbench::JsonReporter json("fig05", opts);
  const int clients = opts.Clients(40);
  const uint64_t requests = opts.Requests(4000);
  const uint64_t warmup = opts.Warmup(200);
  const std::vector<size_t> sizes = {500,       2 * 1024,  5 * 1024,   10 * 1024,
                                     20 * 1024, 50 * 1024, 100 * 1024, 200 * 1024};

  iolbench::PrintHeader(
      "Figure 5: HTTP/FastCGI bandwidth (Mb/s), nonpersistent",
      "size_kb\tFlash-Lite\tFlash\tApache\tlite_cgi/static\tflash_cgi/static");
  for (size_t size : sizes) {
    ioldrv::ExperimentResult lite_cgi =
        iolbench::RunCgi(ServerKind::kFlashLite, size, false, clients, requests, warmup);
    ioldrv::ExperimentResult flash_cgi =
        iolbench::RunCgi(ServerKind::kFlash, size, false, clients, requests, warmup);
    ioldrv::ExperimentResult apache_cgi =
        iolbench::RunCgi(ServerKind::kApache, size, false, clients, requests, warmup);
    double lite_static =
        iolbench::RunSingleFile(ServerKind::kFlashLite, size, false, clients, requests, warmup)
            .megabits_per_sec;
    double flash_static =
        iolbench::RunSingleFile(ServerKind::kFlash, size, false, clients, requests, warmup)
            .megabits_per_sec;
    std::printf("%.1f\t%.1f\t%.1f\t%.1f\t%.2f\t%.2f\n", size / 1024.0,
                lite_cgi.megabits_per_sec, flash_cgi.megabits_per_sec,
                apache_cgi.megabits_per_sec, lite_cgi.megabits_per_sec / lite_static,
                flash_cgi.megabits_per_sec / flash_static);
    json.AddExperiment("Flash-Lite-CGI", size / 1024.0, lite_cgi);
    json.AddExperiment("Flash-CGI", size / 1024.0, flash_cgi);
    json.AddExperiment("Apache-CGI", size / 1024.0, apache_cgi);
  }
  std::printf(
      "# paper: copy-based servers at ~half their static bandwidth; Flash-Lite CGI ~87%% of "
      "static and above Flash static\n");
  return json.Flush() ? 0 : 1;
}
