// Figure 6: persistent-HTTP/FastCGI test.
//
// Paper anchors: Flash and Apache gain little from persistent connections
// (the pipe IPC is their bottleneck); Flash-Lite's advantage widens
// further.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using iolbench::ServerKind;
  iolbench::BenchOptions opts = iolbench::ParseBenchOptions(argc, argv);
  iolbench::JsonReporter json("fig06", opts);
  const int clients = opts.Clients(40);
  const uint64_t requests = opts.Requests(4000);
  const uint64_t warmup = opts.Warmup(200);
  const std::vector<size_t> sizes = {500,       2 * 1024,  5 * 1024,   10 * 1024,
                                     20 * 1024, 50 * 1024, 100 * 1024, 200 * 1024};

  iolbench::PrintHeader("Figure 6: persistent-HTTP/FastCGI bandwidth (Mb/s)",
                        "size_kb\tFlash-Lite\tFlash\tApache\tflash_gain_vs_http10");
  for (size_t size : sizes) {
    ioldrv::ExperimentResult lite =
        iolbench::RunCgi(ServerKind::kFlashLite, size, true, clients, requests, warmup);
    ioldrv::ExperimentResult flash =
        iolbench::RunCgi(ServerKind::kFlash, size, true, clients, requests, warmup);
    ioldrv::ExperimentResult apache =
        iolbench::RunCgi(ServerKind::kApache, size, true, clients, requests, warmup);
    double flash_http10 =
        iolbench::RunCgi(ServerKind::kFlash, size, false, clients, requests, warmup)
            .megabits_per_sec;
    std::printf("%.1f\t%.1f\t%.1f\t%.1f\t%.2f\n", size / 1024.0, lite.megabits_per_sec,
                flash.megabits_per_sec, apache.megabits_per_sec,
                flash.megabits_per_sec / flash_http10);
    json.AddExperiment("Flash-Lite-CGI", size / 1024.0, lite);
    json.AddExperiment("Flash-CGI", size / 1024.0, flash);
    json.AddExperiment("Apache-CGI", size / 1024.0, apache);
  }
  std::printf(
      "# paper: Flash/Apache cannot exploit persistence (pipe-IPC-bound); Flash-Lite can\n");
  return json.Flush() ? 0 : 1;
}
