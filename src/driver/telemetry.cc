#include "src/driver/telemetry.h"

#include <algorithm>
#include <cmath>

namespace ioldrv {

namespace {

// Nearest-rank percentile of a sorted sample: the smallest value such that
// at least q of the sample is <= it. Exact (no interpolation), so tests can
// assert precise values from known service times.
double NearestRank(const std::vector<iolsim::SimTime>& sorted, double q) {
  if (sorted.empty()) {
    return 0;
  }
  size_t n = sorted.size();
  // rank = ceil(q * n), guarded against the product landing epsilon above
  // an integer and ceiling one rank too far.
  auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  if (rank < 1) {
    rank = 1;
  }
  if (rank > n) {
    rank = n;
  }
  return static_cast<double>(sorted[rank - 1]) / iolsim::kMillisecond;
}

}  // namespace

LatencySummary Summarize(std::vector<iolsim::SimTime> samples) {
  LatencySummary s;
  s.count = samples.size();
  if (samples.empty()) {
    return s;
  }
  std::sort(samples.begin(), samples.end());
  double total = 0;
  for (iolsim::SimTime t : samples) {
    total += static_cast<double>(t);
  }
  s.mean_ms = total / static_cast<double>(samples.size()) / iolsim::kMillisecond;
  s.p50_ms = NearestRank(samples, 0.50);
  s.p90_ms = NearestRank(samples, 0.90);
  s.p99_ms = NearestRank(samples, 0.99);
  s.max_ms = static_cast<double>(samples.back()) / iolsim::kMillisecond;
  return s;
}

LatencySummary Telemetry::SinceIssue(size_t from, iolsim::SimTime RequestRecord::*end) const {
  std::vector<iolsim::SimTime> samples;
  if (from < records_.size()) {
    samples.reserve(records_.size() - from);
  }
  for (size_t i = from; i < records_.size(); ++i) {
    const RequestRecord& r = records_[i];
    if (r.counted && Delivered(r.outcome)) {
      samples.push_back(r.*end - r.issue);
    }
  }
  return Summarize(std::move(samples));
}

LatencySummary Telemetry::EndToEndLatency(size_t from) const {
  return SinceIssue(from, &RequestRecord::complete);
}

LatencySummary Telemetry::QueueWait(size_t from) const {
  return SinceIssue(from, &RequestRecord::admit);
}

double Telemetry::CacheHitFraction(size_t from) const {
  uint64_t counted = 0;
  uint64_t hits = 0;
  for (size_t i = from; i < records_.size(); ++i) {
    const RequestRecord& r = records_[i];
    if (r.counted) {
      ++counted;
      hits += r.cache_hit ? 1 : 0;
    }
  }
  return counted > 0 ? static_cast<double>(hits) / static_cast<double>(counted) : 0;
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
