#include "src/driver/telemetry.h"

#include <algorithm>
#include <cmath>

namespace ioldrv {

namespace {

// Nearest-rank percentile of n samples, as a 1-based rank: the smallest
// rank such that at least q of the sample is <= the value there. Exact (no
// interpolation), so tests can assert precise values from known service
// times.
size_t NearestRank(size_t n, double q) {
  // rank = ceil(q * n), guarded against the product landing epsilon above
  // an integer and ceiling one rank too far.
  auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  return std::clamp<size_t>(rank, 1, n);
}

double Ms(iolsim::SimTime t) { return static_cast<double>(t) / iolsim::kMillisecond; }

}  // namespace

LatencySummary Summarize(std::vector<iolsim::SimTime> samples) {
  LatencySummary s;
  s.count = samples.size();
  if (samples.empty()) {
    return s;
  }
  // An integer total is exact in any summation order.
  iolsim::SimTime total = 0;
  for (iolsim::SimTime t : samples) {
    total += t;
  }
  s.mean_ms = static_cast<double>(total) / static_cast<double>(samples.size()) /
              iolsim::kMillisecond;
  // Ranks rise with q, so each selection searches only the samples above
  // the previous rank; a rank equal to the previous one is already placed.
  auto above = samples.begin();
  auto select = [&](double q) {
    auto nth = samples.begin() + static_cast<ptrdiff_t>(NearestRank(samples.size(), q) - 1);
    if (nth >= above) {
      std::nth_element(above, nth, samples.end());
      above = nth + 1;
    }
    return nth;
  };
  s.p50_ms = Ms(*select(0.50));
  s.p90_ms = Ms(*select(0.90));
  auto p99 = select(0.99);
  s.p99_ms = Ms(*p99);
  s.max_ms = Ms(*std::max_element(p99, samples.end()));
  return s;
}

LatencySummary Telemetry::SinceIssue(size_t from, iolsim::SimTime RequestRecord::*end,
                                     double* cache_hit_fraction) const {
  std::vector<iolsim::SimTime> samples;
  if (from < records_.size()) {
    samples.reserve(records_.size() - from);
  }
  uint64_t counted = 0;
  uint64_t hits = 0;
  for (size_t i = from; i < records_.size(); ++i) {
    const RequestRecord& r = records_[i];
    if (r.counted) {
      ++counted;
      hits += r.cache_hit ? 1 : 0;
      if (Delivered(r.outcome)) {
        samples.push_back(r.*end - r.issue);
      }
    }
  }
  if (cache_hit_fraction != nullptr) {
    *cache_hit_fraction =
        counted > 0 ? static_cast<double>(hits) / static_cast<double>(counted) : 0;
  }
  return Summarize(std::move(samples));
}

LatencySummary Telemetry::EndToEndLatency(size_t from, double* cache_hit_fraction) const {
  return SinceIssue(from, &RequestRecord::complete, cache_hit_fraction);
}

LatencySummary Telemetry::QueueWait(size_t from) const {
  return SinceIssue(from, &RequestRecord::admit, nullptr);
}

std::vector<TenantSummary> Telemetry::PerTenant(size_t from) const {
  // Pass 1: which tenants appear, and how many counted records each has.
  iolsim::TenantId max_tenant = 0;
  for (size_t i = from; i < records_.size(); ++i) {
    if (records_[i].counted && records_[i].tenant > max_tenant) {
      max_tenant = records_[i].tenant;
    }
  }
  std::vector<std::vector<iolsim::SimTime>> samples(max_tenant + 1);
  std::vector<TenantSummary> out(max_tenant + 1);
  std::vector<uint64_t> hits(max_tenant + 1, 0);
  for (size_t i = from; i < records_.size(); ++i) {
    const RequestRecord& r = records_[i];
    if (!r.counted) {
      continue;
    }
    TenantSummary& s = out[r.tenant];
    s.tenant = r.tenant;
    ++s.requests;
    s.bytes += r.bytes;
    hits[r.tenant] += r.cache_hit ? 1 : 0;
    if (Delivered(r.outcome)) {
      samples[r.tenant].push_back(r.complete - r.issue);
    }
  }
  std::vector<TenantSummary> present;
  for (iolsim::TenantId t = 0; t <= max_tenant; ++t) {
    if (out[t].requests == 0) {
      continue;
    }
    out[t].latency = Summarize(std::move(samples[t]));
    out[t].cache_hit_fraction =
        static_cast<double>(hits[t]) / static_cast<double>(out[t].requests);
    present.push_back(std::move(out[t]));
  }
  return present;
}

}  // namespace ioldrv
