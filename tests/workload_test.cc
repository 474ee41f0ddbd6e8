// Tests for the synthetic trace generator (Figures 7 and 9 calibration).

#include <gtest/gtest.h>

#include "src/system/system.h"
#include "src/workload/trace.h"

namespace {

using iolwl::Scaled;
using iolwl::Trace;
using iolwl::TraceSpec;

TraceSpec SmallSpec() {
  TraceSpec s = iolwl::SubtraceSpec();
  s.num_files = 500;
  s.total_bytes = 20ull << 20;
  s.num_requests = 20000;
  s.mean_request_bytes = 15 * 1024;
  return s;
}

TEST(TraceTest, GeneratesRequestedCounts) {
  Trace t = Trace::Generate(SmallSpec());
  EXPECT_EQ(t.file_sizes().size(), 500u);
  EXPECT_EQ(t.requests().size(), 20000u);
  for (uint32_t rank : t.requests()) {
    EXPECT_LT(rank, 500u);
  }
}

TEST(TraceTest, TotalBytesNearSpec) {
  Trace t = Trace::Generate(SmallSpec());
  double ratio = static_cast<double>(t.total_bytes()) / (20ull << 20);
  EXPECT_GT(ratio, 0.95);
  EXPECT_LT(ratio, 1.10);
}

TEST(TraceTest, MeanRequestSizeCalibrated) {
  Trace t = Trace::Generate(SmallSpec());
  double ratio = static_cast<double>(t.MeanRequestBytes()) / (15 * 1024);
  EXPECT_GT(ratio, 0.6);
  EXPECT_LT(ratio, 1.6);
}

TEST(TraceTest, PopularFilesAreSmallerThanAverage) {
  // The calibration makes request-weighted mean < unweighted mean, i.e.
  // popular files are smaller — the defining property of these traces.
  Trace t = Trace::Generate(SmallSpec());
  uint64_t mean_file = t.total_bytes() / t.file_sizes().size();
  EXPECT_LT(t.MeanRequestBytes(), mean_file);
}

TEST(TraceTest, DeterministicPerSeed) {
  Trace a = Trace::Generate(SmallSpec());
  Trace b = Trace::Generate(SmallSpec());
  EXPECT_EQ(a.file_sizes(), b.file_sizes());
  EXPECT_EQ(a.requests(), b.requests());
  TraceSpec other = SmallSpec();
  other.seed = 999;
  Trace c = Trace::Generate(other);
  EXPECT_NE(a.requests(), c.requests());
}

TEST(TraceTest, CdfIsMonotoneAndSkewed) {
  Trace t = Trace::Generate(SmallSpec());
  auto points = t.Cdf({10, 50, 100, 250, 500});
  ASSERT_EQ(points.size(), 5u);
  for (size_t i = 1; i < points.size(); ++i) {
    EXPECT_GE(points[i].request_fraction, points[i - 1].request_fraction);
    EXPECT_GE(points[i].data_fraction, points[i - 1].data_fraction);
  }
  // Zipf skew: the top 20% of files absorb most requests but less data.
  EXPECT_GT(points[2].request_fraction, 0.5);
  EXPECT_LT(points[2].data_fraction, points[2].request_fraction);
  // Full coverage at the end.
  EXPECT_NEAR(points[4].request_fraction, 1.0, 1e-9);
  EXPECT_NEAR(points[4].data_fraction, 1.0, 1e-9);
}

TEST(TraceTest, PrefixRestrictsDistinctBytes) {
  Trace t = Trace::Generate(SmallSpec());
  Trace prefix = t.Prefix(5ull << 20);
  EXPECT_LE(prefix.total_bytes(), 5ull << 20);
  EXPECT_FALSE(prefix.requests().empty());
  EXPECT_LT(prefix.requests().size(), t.requests().size() + 1);
  // Every request in the prefix refers to an admitted (within-budget) file.
  uint64_t distinct = 0;
  std::vector<bool> seen(t.file_sizes().size(), false);
  for (uint32_t rank : prefix.requests()) {
    if (!seen[rank]) {
      seen[rank] = true;
      distinct += t.file_sizes()[rank];
    }
  }
  EXPECT_EQ(distinct, prefix.total_bytes());
}

TEST(TraceTest, ScaledKeepsShapeParameters) {
  TraceSpec s = iolwl::EceSpec();
  TraceSpec scaled = Scaled(s, 0.1);
  EXPECT_NEAR(static_cast<double>(scaled.num_files), s.num_files * 0.1, 1.0);
  EXPECT_EQ(scaled.mean_request_bytes, s.mean_request_bytes);
  EXPECT_EQ(scaled.zipf_alpha, s.zipf_alpha);
}

TEST(TraceTest, MaterializeCreatesAllFiles) {
  iolsys::System sys;
  TraceSpec spec = SmallSpec();
  spec.num_files = 50;
  spec.num_requests = 1000;
  Trace t = Trace::Generate(spec);
  std::vector<iolfs::FileId> ids = t.Materialize(&sys.fs());
  ASSERT_EQ(ids.size(), 50u);
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(sys.fs().SizeOf(ids[i]), t.file_sizes()[i]);
  }
}

TEST(TraceTest, PaperSpecsCarryPublishedAggregates) {
  EXPECT_EQ(iolwl::EceSpec().num_requests, 783529u);
  EXPECT_EQ(iolwl::EceSpec().num_files, 10195u);
  EXPECT_EQ(iolwl::CsSpec().num_requests, 3746842u);
  EXPECT_EQ(iolwl::MergedSpec().num_files, 37703u);
  EXPECT_EQ(iolwl::SubtraceSpec().num_requests, 28403u);
  EXPECT_EQ(iolwl::SubtraceSpec().num_files, 5459u);
}

// --- Timestamped logs ---------------------------------------------------------

TEST(TimestampedLogTest, SynthesisIsDeterministicAndCoversEveryRequest) {
  TraceSpec spec = SmallSpec();
  spec.num_requests = 2000;
  Trace t = Trace::Generate(spec);
  iolwl::TimestampedLog a = iolwl::SynthesizeArrivals(t, 500.0, /*seed=*/42);
  iolwl::TimestampedLog b = iolwl::SynthesizeArrivals(t, 500.0, /*seed=*/42);
  ASSERT_EQ(a.entries.size(), 2000u);
  ASSERT_EQ(b.entries.size(), 2000u);
  for (size_t i = 0; i < a.entries.size(); ++i) {
    EXPECT_EQ(a.entries[i].at, b.entries[i].at);
    EXPECT_EQ(a.entries[i].rank, b.entries[i].rank);
    EXPECT_EQ(a.entries[i].rank, t.requests()[i]);  // Order preserved.
    if (i > 0) {
      EXPECT_GT(a.entries[i].at, a.entries[i - 1].at);  // Strictly advancing.
    }
  }
  // The realized mean rate approximates the requested one.
  EXPECT_NEAR(a.MeanArrivalsPerSec(), 500.0, 50.0);
}

TEST(TimestampedLogTest, DifferentSeedsGiveDifferentInstants) {
  TraceSpec spec = SmallSpec();
  spec.num_requests = 100;
  Trace t = Trace::Generate(spec);
  iolwl::TimestampedLog a = iolwl::SynthesizeArrivals(t, 500.0, 1);
  iolwl::TimestampedLog b = iolwl::SynthesizeArrivals(t, 500.0, 2);
  EXPECT_NE(a.entries.back().at, b.entries.back().at);
}

TEST(TimestampedLogTest, MeanRateOfShortLogsIsZero) {
  iolwl::TimestampedLog log;
  EXPECT_EQ(log.MeanArrivalsPerSec(), 0.0);
  log.entries.push_back({iolsim::kSecond, 0});
  EXPECT_EQ(log.MeanArrivalsPerSec(), 0.0);
}

}  // namespace
