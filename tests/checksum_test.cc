// Differential tests for the checksum path: the lane-parallel accumulation
// kernels against a byte-wise RFC 1071 sum, and the flat checksum cache
// against the list + hash-map LRU it replaced.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/net/checksum.h"
#include "src/simos/rng.h"

namespace {

using iolnet::ChecksumCache;

// --- Accumulation kernels ----------------------------------------------------

// Oracle: RFC 1071 one byte at a time. Even-offset bytes are the high half
// of a big-endian word, odd-offset bytes the low half; the uint32_t sum
// wraps as the kernels' result does.
uint32_t BytewiseSum(const char* data, size_t n) {
  uint32_t sum = 0;
  for (size_t i = 0; i < n; ++i) {
    uint32_t b = static_cast<uint8_t>(data[i]);
    sum += i % 2 == 0 ? b << 8 : b;
  }
  return sum;
}

struct Kernel {
  const char* name;
  uint32_t (*fn)(const char*, size_t);
  bool needs_avx2;
};

const Kernel kKernels[] = {
    {"portable", iolnet::ChecksumAccumulatePortable, false},
    {"avx2", iolnet::ChecksumAccumulateAvx2, true},
    {"dispatched", iolnet::ChecksumAccumulate, false},
};

// 256 steps: one flush of the portable kernel's 16-byte steps. The AVX2
// kernel's 32-byte steps flush every second multiple.
constexpr size_t kFlushBytes = 256 * 16;

std::vector<char> RandomBytes(uint64_t seed, size_t n) {
  iolsim::Rng rng(seed);
  std::vector<char> out(n);
  for (char& c : out) {
    c = static_cast<char>(rng.Next() & 0xff);
  }
  return out;
}

class ChecksumKernelTest : public ::testing::TestWithParam<Kernel> {
 protected:
  void SetUp() override {
    if (GetParam().needs_avx2 && !iolnet::HasAvx2Checksum()) {
      GTEST_SKIP() << "CPU lacks AVX2";
    }
  }

  // Checksums the first `n` bytes of `src`, placed `skew` bytes into a heap
  // block that ends at the last byte, so a sanitized build reports any
  // over-read.
  void ExpectMatchesOracle(const std::vector<char>& src, size_t skew, size_t n) {
    std::vector<char> block(skew + n);
    std::copy(src.begin(), src.begin() + static_cast<ptrdiff_t>(n), block.begin() + skew);
    const char* data = block.data() + skew;
    ASSERT_EQ(GetParam().fn(data, n), BytewiseSum(data, n)) << "n " << n << " skew " << skew;
  }
};

TEST_P(ChecksumKernelTest, EveryShortLengthAtEveryStartOffset) {
  const std::vector<char> src = RandomBytes(1, 600);
  for (size_t n = 0; n <= 600; ++n) {
    for (size_t skew = 0; skew < 64; ++skew) {
      ExpectMatchesOracle(src, skew, n);
    }
  }
}

TEST_P(ChecksumKernelTest, LengthsAroundTheFieldFlush) {
  const std::vector<char> src = RandomBytes(2, 6 * kFlushBytes + 64);
  for (size_t flushes = 1; flushes <= 6; ++flushes) {
    const size_t edge = flushes * kFlushBytes;
    for (size_t n : {edge - 33, edge - 32, edge - 17, edge - 16, edge - 1, edge, edge + 1,
                     edge + 16, edge + 17, edge + 32, edge + 33}) {
      for (size_t skew = 0; skew < 64; ++skew) {
        ExpectMatchesOracle(src, skew, n);
      }
    }
  }
}

// All-0xFF input drives every 16-bit field to its largest value (65280)
// at each flush, and past 65535 if a flush came late.
TEST_P(ChecksumKernelTest, AllOnesUpToOneMegabyte) {
  const std::vector<char> src(1 << 20, '\xff');
  for (size_t n = kFlushBytes - 1; n <= src.size(); n = n * 2 + 1) {
    for (size_t skew : {0, 1, 31}) {
      ExpectMatchesOracle(src, skew, n);
    }
  }
  ExpectMatchesOracle(src, 0, src.size());
}

TEST_P(ChecksumKernelTest, RandomMegabyteBuffers) {
  for (uint64_t seed = 10; seed < 14; ++seed) {
    const std::vector<char> src = RandomBytes(seed, 1 << 20);
    iolsim::Rng rng(seed);
    for (size_t n : {src.size(), src.size() - 1, static_cast<size_t>(rng.NextBelow(src.size()))}) {
      ExpectMatchesOracle(src, static_cast<size_t>(rng.NextBelow(64)), n);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Kernels, ChecksumKernelTest, ::testing::ValuesIn(kKernels),
                         [](const ::testing::TestParamInfo<Kernel>& info) {
                           return std::string(info.param.name);
                         });

// --- Cache -------------------------------------------------------------------

// Oracle: the std::list + std::unordered_map LRU the flat table replaced.
class ListMapLru {
 public:
  explicit ListMapLru(size_t capacity) : capacity_(capacity) {}

  bool Lookup(const ChecksumCache::Key& key, uint32_t* sum) {
    auto it = map_.find(key);
    if (it == map_.end()) {
      return false;
    }
    lru_.splice(lru_.begin(), lru_, it->second.second);
    *sum = it->second.first;
    return true;
  }

  void Store(const ChecksumCache::Key& key, uint32_t sum) {
    auto [it, inserted] = map_.try_emplace(key, sum, std::list<ChecksumCache::Key>::iterator{});
    if (!inserted) {
      it->second.first = sum;
      lru_.splice(lru_.begin(), lru_, it->second.second);
      return;
    }
    lru_.push_front(key);
    it->second.second = lru_.begin();
    if (map_.size() > capacity_) {
      map_.erase(lru_.back());
      lru_.pop_back();
    }
  }

  size_t size() const { return map_.size(); }

  void Clear() {
    map_.clear();
    lru_.clear();
  }

 private:
  struct KeyHash {
    size_t operator()(const ChecksumCache::Key& k) const {
      return std::hash<uint64_t>()(k.buffer_id ^ (k.offset << 20) ^ (k.length << 40)) ^
             k.generation;
    }
  };

  using LruList = std::list<ChecksumCache::Key>;
  size_t capacity_;
  LruList lru_;
  std::unordered_map<ChecksumCache::Key, std::pair<uint32_t, LruList::iterator>, KeyHash> map_;
};

// Distinct `u` give distinct keys; neighbouring `u` differ in one field, so
// equality must compare every field.
ChecksumCache::Key KeyOf(uint64_t u) {
  return ChecksumCache::Key{u >> 3, static_cast<uint32_t>(u & 1), ((u >> 1) & 1) * 4096,
                            1460 + ((u >> 2) & 1)};
}

class ChecksumCacheOracleTest : public ::testing::TestWithParam<size_t> {};

// Random Lookup/Store streams over a key universe half again the capacity,
// plus never-seen keys, with a Clear three quarters of the way through.
// Every op's hit/miss, returned sum and size must equal the oracle's.
TEST_P(ChecksumCacheOracleTest, RandomStreamsMatchListMapLru) {
  const size_t capacity = GetParam();
  const uint64_t universe = capacity + capacity / 2 + 4;
  const int ops = capacity >= 4096 ? 400000 : 60000;
  for (uint64_t seed = 1; seed <= 2; ++seed) {
    ChecksumCache cache(capacity);
    ListMapLru oracle(capacity);
    iolsim::Rng rng(seed * 7919 + capacity);
    uint64_t fresh = universe;
    for (int op = 0; op < ops; ++op) {
      const uint64_t u = rng.NextBelow(4) == 0 ? fresh++ : rng.NextBelow(universe);
      const ChecksumCache::Key key = KeyOf(u);
      const uint64_t kind = rng.NextBelow(100);
      if (op == ops * 3 / 4) {
        cache.Clear();
        oracle.Clear();
      } else if (kind < 50) {
        uint32_t got = 0xdeadbeef;
        uint32_t want = 0xdeadbeef;
        const bool hit = cache.Lookup(key, &got);
        ASSERT_EQ(hit, oracle.Lookup(key, &want)) << "seed " << seed << " op " << op;
        ASSERT_EQ(got, want) << "seed " << seed << " op " << op;
      } else if (kind < 80) {
        const uint32_t sum = static_cast<uint32_t>(rng.Next());
        cache.Store(key, sum);
        oracle.Store(key, sum);
      } else {
        // The checksum module's pattern: Store only after a missed Lookup.
        uint32_t got = 0;
        uint32_t want = 0;
        const bool hit = cache.Lookup(key, &got);
        ASSERT_EQ(hit, oracle.Lookup(key, &want)) << "seed " << seed << " op " << op;
        ASSERT_EQ(got, want) << "seed " << seed << " op " << op;
        if (!hit) {
          cache.Store(key, static_cast<uint32_t>(u));
          oracle.Store(key, static_cast<uint32_t>(u));
        }
      }
      ASSERT_EQ(cache.size(), oracle.size()) << "seed " << seed << " op " << op;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Capacities, ChecksumCacheOracleTest,
                         ::testing::Values(0, 1, 2, 7, 64, 65536));

TEST(ChecksumCacheTest, ClearEmptiesAndTheCacheRefills) {
  ChecksumCache cache(8);
  for (uint64_t u = 0; u < 20; ++u) {
    cache.Store(KeyOf(u), static_cast<uint32_t>(u));
  }
  EXPECT_EQ(cache.size(), 8u);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  uint32_t sum = 0;
  for (uint64_t u = 0; u < 20; ++u) {
    EXPECT_FALSE(cache.Lookup(KeyOf(u), &sum)) << u;
  }
  for (uint64_t u = 100; u < 108; ++u) {
    cache.Store(KeyOf(u), static_cast<uint32_t>(u));
  }
  for (uint64_t u = 100; u < 108; ++u) {
    ASSERT_TRUE(cache.Lookup(KeyOf(u), &sum)) << u;
    EXPECT_EQ(sum, u);
  }
  EXPECT_EQ(cache.size(), 8u);
  EXPECT_EQ(cache.capacity(), 8u);
}

}  // namespace
