// Synthetic Web traces calibrated to the paper's access logs (Section 5.4,
// Figures 7 and 9).
//
// The original Rice University logs are not available; what the experiments
// depend on is the joint distribution of file popularity and file size:
// how many requests the top-k files absorb, and how much of the data set
// they cover. We synthesize traces with Zipf-like popularity and lognormal
// sizes, with a popularity-size correlation exponent fitted so that the
// published aggregates hold: total bytes, file count, request count and
// mean *request* size (request-weighted mean file size).

#ifndef SRC_WORKLOAD_TRACE_H_
#define SRC_WORKLOAD_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/fs/sim_file_system.h"
#include "src/simos/clock.h"
#include "src/simos/rng.h"

namespace iolwl {

// Published aggregates for one access log.
struct TraceSpec {
  std::string name;
  size_t num_files = 0;
  uint64_t total_bytes = 0;
  uint64_t num_requests = 0;
  uint64_t mean_request_bytes = 0;
  double zipf_alpha = 1.0;       // Popularity skew.
  double size_sigma = 1.4;       // Lognormal shape of file sizes.
  uint64_t seed = 1;
};

// The paper's three logs (Figure 7) and the 150 MB subtrace (Figure 9).
TraceSpec EceSpec();
TraceSpec CsSpec();
TraceSpec MergedSpec();
TraceSpec SubtraceSpec();

// A scaled version of `spec` with file and request counts multiplied by
// `scale` (total bytes scale along). Used to keep host run times sensible
// while preserving distribution shape; EXPERIMENTS.md records the scale.
TraceSpec Scaled(const TraceSpec& spec, double scale);

// A generated trace: per-file sizes in popularity-rank order (rank 0 is the
// most requested file) and a request sequence of rank indices.
class Trace {
 public:
  // Generates sizes and requests from the spec (deterministic per seed).
  static Trace Generate(const TraceSpec& spec);

  const TraceSpec& spec() const { return spec_; }
  const std::vector<uint32_t>& file_sizes() const { return file_sizes_; }
  const std::vector<uint32_t>& requests() const { return requests_; }

  uint64_t total_bytes() const { return total_bytes_; }

  // Request-weighted mean file size (should approximate the spec's
  // mean_request_bytes).
  uint64_t MeanRequestBytes() const;

  // A prefix trace covering approximately `max_bytes` of distinct data:
  // restricts requests to the most popular files whose cumulative size
  // stays within the budget (the Section 5.5 subtrace-prefix methodology).
  Trace Prefix(uint64_t max_bytes) const;

  // Materializes the trace's files in `fs`; returns ids in rank order.
  std::vector<iolfs::FileId> Materialize(iolfs::SimFileSystem* fs) const;

  // Cumulative distribution report used by the Figure 7 / Figure 9
  // benchmarks: fraction of requests and of data covered by the top-k
  // files, for a list of k values.
  struct CdfPoint {
    size_t top_files;
    double request_fraction;
    double data_fraction;
  };
  std::vector<CdfPoint> Cdf(const std::vector<size_t>& ks) const;

 private:
  TraceSpec spec_;
  std::vector<uint32_t> file_sizes_;  // By popularity rank.
  std::vector<uint32_t> requests_;    // Sequence of rank indices.
  uint64_t total_bytes_ = 0;
};

// A timestamped access log: arrival instants paired with popularity ranks,
// in nondecreasing time order. This is what open-loop trace replay consumes
// (ioldrv::TraceReplay): arrival times come from the log instead of a
// fitted arrival model, so latency-vs-load curves reproduce real traffic.
struct TimestampedLog {
  struct Entry {
    iolsim::SimTime at = 0;  // Arrival instant (simulated nanoseconds).
    uint32_t rank = 0;       // Popularity rank of the requested file.
  };
  std::vector<Entry> entries;

  // Mean arrival rate over the log's span; 0 for logs shorter than two
  // entries or with zero span.
  double MeanArrivalsPerSec() const;
};

// Synthesizes arrival timestamps for `trace`'s request sequence: a Poisson
// process at `arrivals_per_sec`, deterministic in `seed`. The result pairs
// each of the trace's requests, in order, with an arrival instant — the
// bridge from the synthesized logs of Figure 7 to timestamped replay.
TimestampedLog SynthesizeArrivals(const Trace& trace, double arrivals_per_sec,
                                  uint64_t seed);

}  // namespace iolwl

#endif  // SRC_WORKLOAD_TRACE_H_
