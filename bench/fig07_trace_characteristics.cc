// Figure 7: characteristics of the ECE, CS and MERGED traces.
//
// The paper plots cumulative request and data-size distributions by file
// popularity rank. We print the same CDFs for our calibrated synthetic
// traces, with the published aggregates for comparison.
//
// Paper anchors: ECE = 783529 requests / 10195 files / 523 MB, with the
// 5000 most-requested files covering 39% of the data and 95% of requests.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/workload/trace.h"

namespace {

void Report(const iolwl::TraceSpec& spec, iolbench::JsonReporter* json) {
  iolwl::Trace trace = iolwl::Trace::Generate(spec);
  std::printf("## %s: %zu files, %llu requests, %.0f MB total, mean request %.1f KB\n",
              spec.name.c_str(), trace.file_sizes().size(),
              static_cast<unsigned long long>(trace.requests().size()),
              trace.total_bytes() / 1048576.0, trace.MeanRequestBytes() / 1024.0);
  std::printf("top_files\treq_frac\tdata_frac\n");
  std::vector<size_t> ks;
  for (size_t k : {100ul, 500ul, 1000ul, 2000ul, 5000ul, 10000ul, 20000ul, 37703ul}) {
    if (k <= spec.num_files) {
      ks.push_back(k);
    }
  }
  ks.push_back(spec.num_files);
  for (const auto& point : trace.Cdf(ks)) {
    std::printf("%zu\t%.3f\t%.3f\n", point.top_files, point.request_fraction,
                point.data_fraction);
    json->Add(spec.name + ":req_frac", static_cast<double>(point.top_files),
              point.request_fraction);
    json->Add(spec.name + ":data_frac", static_cast<double>(point.top_files),
              point.data_fraction);
  }
}

}  // namespace

int main(int argc, char** argv) {
  iolbench::Figure fig("fig07", argc, argv);
  std::printf("# Figure 7: trace characteristics (synthetic, calibrated)\n");
  Report(iolwl::EceSpec(), &fig.json());
  Report(iolwl::CsSpec(), &fig.json());
  Report(iolwl::MergedSpec(), &fig.json());
  return fig.Finish(
      "paper: ECE 783529 req / 10195 files / 523 MB (top-5000: 95% req, 39% data); "
      "CS 3746842 / 26948 / 933 MB; MERGED 2290909 / 37703 / 1418 MB");
}
