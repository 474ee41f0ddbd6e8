// Figure 9: characteristics of the 150 MB MERGED subtrace.
//
// Paper anchors: 28403 requests, 5459 files, 150 MB; the 1000 most
// frequently requested files account for 20% of the data and 74% of all
// requests.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/workload/trace.h"

int main(int argc, char** argv) {
  iolbench::Figure fig("fig09", argc, argv);
  std::printf("# Figure 9: 150MB subtrace characteristics (synthetic, calibrated)\n");
  iolwl::Trace trace = iolwl::Trace::Generate(iolwl::SubtraceSpec());
  std::printf("files=%zu requests=%zu total=%.0f MB mean_request=%.1f KB\n",
              trace.file_sizes().size(), trace.requests().size(),
              trace.total_bytes() / 1048576.0, trace.MeanRequestBytes() / 1024.0);
  std::printf("top_files\treq_frac\tdata_frac\n");
  for (const auto& point : trace.Cdf({100, 250, 500, 1000, 2000, 3500, 5459})) {
    std::printf("%zu\t%.3f\t%.3f\n", point.top_files, point.request_fraction,
                point.data_fraction);
    fig.json().Add("req_frac", static_cast<double>(point.top_files), point.request_fraction);
    fig.json().Add("data_frac", static_cast<double>(point.top_files), point.data_fraction);
  }
  return fig.Finish("paper: 28403 requests / 5459 files / 150 MB; top-1000: 74% req, 20% data");
}
