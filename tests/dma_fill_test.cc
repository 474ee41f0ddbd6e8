// Differential tests for the simulated-DMA generators: the lane-parallel
// kernels against the serial loops they replaced, over random seeds,
// unaligned destinations and offsets, and lengths across every lane and
// block boundary.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/iolite/dma_fill.h"
#include "src/simos/rng.h"

namespace {

// The xorshift kernel's geometry: 8 lanes of 512 bytes per 4 KB block.
constexpr size_t kLaneBytes = 512;
constexpr size_t kBlockBytes = 8 * kLaneBytes;

// Oracle: the serial loop BufferPool::AllocateDma ran before the kernel.
std::vector<char> SerialXorshift(uint64_t seed, size_t n) {
  std::vector<char> out(n);
  uint64_t x = seed * 0x9e3779b97f4a7c15ull + 1;
  for (size_t i = 0; i < n; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    out[i] = static_cast<char>((x >> (8 * (i % 8))) & 0xff);
  }
  return out;
}

// Oracle: the per-byte splitmix SimFileSystem ran before the kernel.
std::vector<char> SerialContent(uint64_t seed, uint64_t offset, size_t n) {
  std::vector<char> out(n);
  for (size_t i = 0; i < n; ++i) {
    uint64_t z = seed + (offset + i) * 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    out[i] = static_cast<char>((z ^ (z >> 31)) & 0xff);
  }
  return out;
}

// Every length from 0 to 3 blocks + 7 that sits on or next to a lane or
// block boundary, plus every length below two 64-byte chunks.
std::vector<size_t> BoundaryLengths() {
  std::vector<size_t> lengths;
  for (size_t n = 0; n <= 130; ++n) {
    lengths.push_back(n);
  }
  for (size_t edge = kLaneBytes; edge <= 3 * kBlockBytes; edge += kLaneBytes) {
    for (size_t d : {edge - 8, edge - 1, edge, edge + 1, edge + 7, edge + 8}) {
      lengths.push_back(d);
    }
  }
  lengths.push_back(3 * kBlockBytes + 7);
  return lengths;
}

// Fills through `fill` at each misalignment of the destination, with guard
// bytes on both sides, and compares with `want`.
template <typename Fill>
void ExpectFill(const std::vector<char>& want, Fill&& fill, const char* what, uint64_t seed) {
  const size_t n = want.size();
  for (size_t skew = 0; skew < 8; skew += 3) {
    std::vector<char> buf(n + 16, '\x5a');
    fill(buf.data() + 1 + skew);
    ASSERT_TRUE(std::equal(want.begin(), want.end(), buf.begin() + 1 + skew))
        << what << " seed " << seed << " n " << n << " skew " << skew;
    for (size_t g = 0; g < 1 + skew; ++g) {
      ASSERT_EQ(buf[g], '\x5a') << what << " wrote before dst";
    }
    for (size_t g = 1 + skew + n; g < buf.size(); ++g) {
      ASSERT_EQ(buf[g], '\x5a') << what << " wrote past n";
    }
  }
}

// Runs `fill(seed, dst, n)` against the serial xorshift loop.
template <typename Fill>
void CheckXorshiftKernel(Fill&& fill, const char* what) {
  iolsim::Rng rng(11);
  std::vector<uint64_t> seeds = {0, 1, 7, ~uint64_t{0}};
  for (int i = 0; i < 4; ++i) {
    seeds.push_back(rng.Next());
  }
  for (uint64_t seed : seeds) {
    for (size_t n : BoundaryLengths()) {
      ExpectFill(
          SerialXorshift(seed, n), [&](char* dst) { fill(seed, dst, n); }, what, seed);
    }
  }
  for (int i = 0; i < 40; ++i) {
    uint64_t seed = rng.Next();
    size_t n = static_cast<size_t>(rng.NextBelow(3 * kBlockBytes + 8));
    ExpectFill(
        SerialXorshift(seed, n), [&](char* dst) { fill(seed, dst, n); }, what, seed);
  }
}

TEST(DmaFillTest, XorshiftPortableMatchesSerial) {
  CheckXorshiftKernel(iolite::FillXorshiftPortable, "portable");
}

TEST(DmaFillTest, XorshiftAvx512MatchesSerial) {
  if (!iolite::HasAvx512Fill()) {
    GTEST_SKIP() << "this CPU has no AVX-512DQ; FillXorshift runs the portable kernel";
  }
  CheckXorshiftKernel(iolite::FillXorshiftAvx512, "avx512");
}

TEST(DmaFillTest, DispatchedXorshiftMatchesSerial) {
  CheckXorshiftKernel(iolite::FillXorshift, "dispatched");
}

// The all-zero xorshift state is a fixed point; a seed that reaches it must
// stay zero through the jump table as well.
TEST(DmaFillTest, XorshiftZeroStateStaysZero) {
  // seed * phi + 1 == 0 (mod 2^64) for seed = -phi^-1.
  uint64_t inv = 1;
  for (int i = 0; i < 6; ++i) {
    inv *= 2 - 0x9e3779b97f4a7c15ull * inv;  // Newton's iteration for phi^-1.
  }
  uint64_t seed = 0 - inv;
  ASSERT_EQ(seed * 0x9e3779b97f4a7c15ull + 1, 0u);
  std::vector<char> got(2 * kBlockBytes + 5, '\x5a');
  iolite::FillXorshift(seed, got.data(), got.size());
  EXPECT_EQ(got, std::vector<char>(got.size(), '\0'));
}

// Runs `fill(seed, offset, dst, n)` against the serial content loop.
template <typename Fill>
void CheckContentKernel(Fill&& fill, const char* what) {
  iolsim::Rng rng(21);
  std::vector<uint64_t> offsets = {0, 1, 7, 8, 63, 64, 65, 4095, ~uint64_t{0} - 5000};
  for (int i = 0; i < 4; ++i) {
    offsets.push_back(rng.Next() >> 8);
  }
  for (uint64_t offset : offsets) {
    uint64_t seed = rng.Next();
    for (size_t n : BoundaryLengths()) {
      std::vector<char> want = SerialContent(seed, offset, n);
      ExpectFill(
          want, [&](char* dst) { fill(seed, offset, dst, n); }, what, seed);
    }
  }
}

TEST(DmaFillTest, ContentScalarMatchesSerial) {
  CheckContentKernel(iolite::FillContentScalar, "scalar");
}

TEST(DmaFillTest, ContentAvx512MatchesSerial) {
  if (!iolite::HasAvx512Fill()) {
    GTEST_SKIP() << "this CPU has no AVX-512DQ; FillContent runs the scalar kernel";
  }
  CheckContentKernel(iolite::FillContentAvx512, "avx512");
}

TEST(DmaFillTest, DispatchedContentMatchesSerial) {
  CheckContentKernel(iolite::FillContent, "dispatched");
}

// The checksum cache keeps a described run as one word: content at
// (seed, offset + i) must equal content at (ContentOrigin(seed, offset), i)
// for every kernel.
TEST(DmaFillTest, ContentOriginShiftsTheRun) {
  iolsim::Rng rng(41);
  for (int trial = 0; trial < 20; ++trial) {
    const uint64_t seed = rng.Next();
    const uint64_t offset = trial == 0 ? ~uint64_t{0} - 3 : rng.Next();
    const uint64_t origin = iolite::ContentOrigin(seed, offset);
    for (size_t n : BoundaryLengths()) {
      std::vector<char> want = SerialContent(seed, offset, n);
      ExpectFill(
          want, [&](char* dst) { iolite::FillContent(origin, 0, dst, n); }, "origin", seed);
    }
  }
}

TEST(DmaFillTest, ContentByteMatchesFill) {
  iolsim::Rng rng(31);
  for (int i = 0; i < 50; ++i) {
    uint64_t seed = rng.Next();
    uint64_t offset = rng.Next();
    std::vector<char> want = SerialContent(seed, offset, 1);
    EXPECT_EQ(static_cast<char>(iolite::ContentByte(seed, offset)), want[0]);
  }
}

}  // namespace
