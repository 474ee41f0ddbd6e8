#include "src/workload/trace.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <unordered_set>

namespace iolwl {

namespace {

constexpr uint32_t kMinFileBytes = 128;

// Request-weighted mean size under Zipf weights.
double WeightedMean(const std::vector<double>& weights, const std::vector<double>& sizes) {
  double num = 0;
  double den = 0;
  for (size_t i = 0; i < weights.size(); ++i) {
    num += weights[i] * sizes[i];
    den += weights[i];
  }
  return num / den;
}

}  // namespace

TraceSpec EceSpec() {
  TraceSpec s;
  s.name = "ECE";
  s.num_files = 10195;
  s.total_bytes = 523ull * 1024 * 1024;
  s.num_requests = 783529;
  s.mean_request_bytes = 23 * 1024;
  s.zipf_alpha = 0.95;
  s.seed = 101;
  return s;
}

TraceSpec CsSpec() {
  TraceSpec s;
  s.name = "CS";
  s.num_files = 26948;
  s.total_bytes = 933ull * 1024 * 1024;
  s.num_requests = 3746842;
  s.mean_request_bytes = 20 * 1024;
  s.zipf_alpha = 0.95;
  s.seed = 102;
  return s;
}

TraceSpec MergedSpec() {
  TraceSpec s;
  s.name = "MERGED";
  s.num_files = 37703;
  s.total_bytes = 1418ull * 1024 * 1024;
  s.num_requests = 2290909;
  s.mean_request_bytes = 17 * 1024;
  s.zipf_alpha = 0.9;
  s.seed = 103;
  return s;
}

TraceSpec SubtraceSpec() {
  TraceSpec s;
  s.name = "MERGED-150MB";
  s.num_files = 5459;
  s.total_bytes = 150ull * 1024 * 1024;
  s.num_requests = 28403;
  s.mean_request_bytes = 15 * 1024;
  // Weaker skew than the full-campus logs: the 150 MB subtrace is the
  // poor-locality portion of MERGED (the paper's disk-bound regime).
  s.zipf_alpha = 0.80;
  s.seed = 104;
  return s;
}

TraceSpec Scaled(const TraceSpec& spec, double scale) {
  TraceSpec s = spec;
  s.name = spec.name + "-scaled";
  s.num_files = static_cast<size_t>(spec.num_files * scale);
  if (s.num_files < 16) {
    s.num_files = 16;
  }
  s.total_bytes = static_cast<uint64_t>(spec.total_bytes * scale);
  s.num_requests = static_cast<uint64_t>(spec.num_requests * scale);
  if (s.num_requests < 1000) {
    s.num_requests = 1000;
  }
  return s;
}

Trace Trace::Generate(const TraceSpec& spec) {
  Trace t;
  t.spec_ = spec;
  iolsim::Rng rng(spec.seed);
  size_t f = spec.num_files;

  // Zipf popularity weights by rank.
  std::vector<double> weights(f);
  for (size_t i = 0; i < f; ++i) {
    weights[i] = 1.0 / std::pow(static_cast<double>(i + 1), spec.zipf_alpha);
  }

  // Raw lognormal sizes (shape only; scaled to the exact total later).
  std::vector<double> raw(f);
  for (size_t i = 0; i < f; ++i) {
    raw[i] = rng.NextLognormal(0.0, spec.size_sigma);
  }

  // Popularity-size correlation: size_i = raw_i * ((i+1)/f)^beta. beta > 0
  // makes popular files smaller. Fit beta by bisection so the
  // request-weighted mean size matches the spec after scaling to the total.
  double target_ratio = static_cast<double>(spec.mean_request_bytes) * f /
                        static_cast<double>(spec.total_bytes);
  auto ratio_for = [&](double beta) {
    std::vector<double> sizes(f);
    double sum = 0;
    for (size_t i = 0; i < f; ++i) {
      sizes[i] = raw[i] * std::pow(static_cast<double>(i + 1) / f, beta);
      sum += sizes[i];
    }
    // ratio = weighted_mean / unweighted_mean (scale-invariant).
    return WeightedMean(weights, sizes) / (sum / f);
  };

  double lo = 0.0;
  double hi = 4.0;
  double beta = 0.0;
  if (ratio_for(0.0) > target_ratio) {
    for (int iter = 0; iter < 48; ++iter) {
      beta = 0.5 * (lo + hi);
      if (ratio_for(beta) > target_ratio) {
        lo = beta;
      } else {
        hi = beta;
      }
    }
  }

  // Final sizes, scaled so the total matches the spec exactly (modulo
  // rounding and the minimum size clamp).
  std::vector<double> sized(f);
  double sum = 0;
  for (size_t i = 0; i < f; ++i) {
    sized[i] = raw[i] * std::pow(static_cast<double>(i + 1) / f, beta);
    sum += sized[i];
  }
  double scale = static_cast<double>(spec.total_bytes) / sum;
  t.file_sizes_.resize(f);
  t.total_bytes_ = 0;
  for (size_t i = 0; i < f; ++i) {
    auto sz = static_cast<uint32_t>(sized[i] * scale);
    if (sz < kMinFileBytes) {
      sz = kMinFileBytes;
    }
    t.file_sizes_[i] = sz;
    t.total_bytes_ += sz;
  }

  // Sample the request sequence from the Zipf weights (inverse-CDF with
  // binary search; deterministic in the seed).
  std::vector<double> cdf(f);
  double acc = 0;
  for (size_t i = 0; i < f; ++i) {
    acc += weights[i];
    cdf[i] = acc;
  }
  t.requests_.resize(spec.num_requests);
  for (uint64_t r = 0; r < spec.num_requests; ++r) {
    double u = rng.NextDouble() * acc;
    auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
    t.requests_[r] = static_cast<uint32_t>(it - cdf.begin());
  }
  return t;
}

uint64_t Trace::MeanRequestBytes() const {
  if (requests_.empty()) {
    return 0;
  }
  uint64_t total = 0;
  for (uint32_t rank : requests_) {
    total += file_sizes_[rank];
  }
  return total / requests_.size();
}

Trace Trace::Prefix(uint64_t max_bytes) const {
  Trace t;
  t.spec_ = spec_;
  t.spec_.name = spec_.name + "-prefix";
  t.file_sizes_ = file_sizes_;

  // Take the log prefix whose distinct-data size fits the budget — the
  // paper's subtrace methodology ("use a portion of the MERGED access log
  // that corresponds to a 150MB data set size, and then use prefixes of it
  // to generate input streams with smaller data set sizes"). Truncating
  // (rather than filtering) keeps the request-size mix of the full log.
  std::unordered_set<uint32_t> admitted;
  uint64_t bytes = 0;
  for (uint32_t rank : requests_) {
    if (admitted.count(rank) == 0) {
      if (bytes + file_sizes_[rank] > max_bytes) {
        break;
      }
      admitted.insert(rank);
      bytes += file_sizes_[rank];
    }
    t.requests_.push_back(rank);
  }
  t.total_bytes_ = bytes;
  return t;
}

std::vector<iolfs::FileId> Trace::Materialize(iolfs::SimFileSystem* fs) const {
  std::vector<iolfs::FileId> ids(file_sizes_.size());
  for (size_t i = 0; i < file_sizes_.size(); ++i) {
    ids[i] = fs->CreateFile(spec_.name + "/f" + std::to_string(i), file_sizes_[i]);
  }
  return ids;
}

std::vector<Trace::CdfPoint> Trace::Cdf(const std::vector<size_t>& ks) const {
  // Per-rank request counts.
  std::vector<uint64_t> counts(file_sizes_.size(), 0);
  for (uint32_t rank : requests_) {
    counts[rank]++;
  }
  // Order files by observed request count (descending), as in Figure 7.
  std::vector<size_t> order(file_sizes_.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return counts[a] > counts[b]; });

  uint64_t total_data = 0;
  for (uint32_t s : file_sizes_) {
    total_data += s;
  }
  std::vector<CdfPoint> points;
  uint64_t req_acc = 0;
  uint64_t data_acc = 0;
  size_t next_k = 0;
  std::vector<size_t> sorted_ks = ks;
  std::sort(sorted_ks.begin(), sorted_ks.end());
  for (size_t i = 0; i < order.size() && next_k < sorted_ks.size(); ++i) {
    req_acc += counts[order[i]];
    data_acc += file_sizes_[order[i]];
    if (i + 1 == sorted_ks[next_k]) {
      points.push_back(CdfPoint{
          i + 1,
          static_cast<double>(req_acc) / static_cast<double>(requests_.size()),
          static_cast<double>(data_acc) / static_cast<double>(total_data)});
      ++next_k;
    }
  }
  return points;
}

double TimestampedLog::MeanArrivalsPerSec() const {
  if (entries.size() < 2) {
    return 0;
  }
  iolsim::SimTime span = entries.back().at - entries.front().at;
  if (span <= 0) {
    return 0;
  }
  return static_cast<double>(entries.size() - 1) / iolsim::ToSeconds(span);
}

TimestampedLog SynthesizeArrivals(const Trace& trace, double arrivals_per_sec,
                                  uint64_t seed) {
  TimestampedLog log;
  if (!(arrivals_per_sec > 0)) {
    return log;
  }
  iolsim::Rng rng(seed);
  iolsim::SimTime at = 0;
  log.entries.reserve(trace.requests().size());
  for (uint32_t rank : trace.requests()) {
    at += iolsim::ExponentialInterarrival(&rng, arrivals_per_sec);
    log.entries.push_back(TimestampedLog::Entry{at, rank});
  }
  return log;
}

}  // namespace iolwl
