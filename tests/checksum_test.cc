// Differential tests for the checksum path: the lane-parallel accumulation
// kernels against a byte-wise RFC 1071 sum, the flat checksum cache (with
// anonymous positions for one-shot slices) against the list + hash-map LRU
// it replaced, and sums of generated
// content (lazy cache entries forced on a hit, and forced misses) against
// sums of the same bytes copied into ordinary buffers.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <cstdint>
#include <list>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/fs/sim_file_system.h"
#include "src/iolite/buffer_pool.h"
#include "src/iolite/dma_fill.h"
#include "src/net/checksum.h"
#include "src/simos/rng.h"
#include "src/simos/sim_context.h"

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
// An anonymous position is, to the oracle, a Store of a fresh key that no
// later op names. Every op's hit/miss, returned sum and size must equal
// the oracle's.
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
      } else if (kind < 45) {
        uint32_t got = 0xdeadbeef;
        uint32_t want = 0xdeadbeef;
        const bool hit = cache.Lookup(key, &got);
        ASSERT_EQ(hit, oracle.Lookup(key, &want)) << "seed " << seed << " op " << op;
        ASSERT_EQ(got, want) << "seed " << seed << " op " << op;
      } else if (kind < 70) {
        const uint32_t sum = static_cast<uint32_t>(rng.Next());
        cache.Store(key, sum);
        oracle.Store(key, sum);
      } else if (kind < 85) {
        cache.StoreAnonymous();
        oracle.Store(KeyOf(fresh++), 0);
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
                         ::testing::Values(0, 1, 2, 7, 8, 64, 65536));

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

// --- One-shot slices ----------------------------------------------------------

// A one-shot slice (a response header) charges and counts as a miss and
// takes an LRU position, but never enters the cache's arrays: only the
// body can hit, and the header pushes it toward eviction as before.
TEST(OneShotChecksumTest, ChargesAsAMissAndReadersStillSumTheBytes) {
  iolsim::SimContext ctx;
  iolite::BufferPool pool(&ctx, "pool", iolsim::kKernelDomain);
  iolnet::ChecksumModule sums(&ctx, /*cache_enabled=*/true, /*cache_entries=*/2);
  iolnet::ChecksumModule eager_sums(&ctx, /*cache_enabled=*/false);
  const std::vector<char> body_bytes = RandomBytes(3, 3001);
  iolite::BufferRef body = pool.AllocateFrom(body_bytes.data(), body_bytes.size());
  auto response = [&](const char* text) {
    iolite::BufferRef header = pool.AllocateFrom(text, std::strlen(text));
    header->MarkOneShot();
    iolite::Aggregate agg = iolite::Aggregate::FromBuffer(header);
    agg.Append(iolite::Aggregate::FromBuffer(body));
    return agg;
  };
  const iolite::Aggregate first = response("HTTP/1.0 200 OK\r\n");
  sums.Charge(first);
  EXPECT_EQ(ctx.stats().checksum_cache_misses, 2u);
  EXPECT_EQ(ctx.stats().bytes_checksummed, first.size());
  EXPECT_EQ(sums.cache().size(), 2u);
  // The header is summed from its bytes; only the body hits.
  EXPECT_EQ(sums.PeekChecksum(first), eager_sums.Checksum(first));
  const iolite::Aggregate second = response("HTTP/1.0 404 Not Found\r\n");
  EXPECT_EQ(sums.Checksum(second), eager_sums.Checksum(second));
  EXPECT_EQ(ctx.stats().checksum_cache_hits, 1u);
  EXPECT_EQ(ctx.stats().checksum_cache_misses, 3u);
  // Two headers in a row take both positions: the body is evicted.
  for (const char* text : {"x", "y"}) {
    iolite::BufferRef header = pool.AllocateFrom(text, 1);
    header->MarkOneShot();
    sums.Charge(iolite::Aggregate::FromBuffer(header));
  }
  sums.Charge(iolite::Aggregate::FromBuffer(body));
  EXPECT_EQ(ctx.stats().checksum_cache_hits, 1u);
  EXPECT_EQ(ctx.stats().checksum_cache_misses, 6u);
  EXPECT_EQ(sums.cache().size(), 2u);
}

#ifndef NDEBUG
// A second charge of one one-shot generation would have hit the entry an
// indexed header held; the cache would silently count it a miss instead.
TEST(OneShotChecksumDeathTest, ChargingAGenerationTwiceAborts) {
  iolsim::SimContext ctx;
  iolite::BufferPool pool(&ctx, "pool", iolsim::kKernelDomain);
  iolnet::ChecksumModule sums(&ctx, /*cache_enabled=*/true);
  iolite::BufferRef header = pool.AllocateFrom("header", 6);
  header->MarkOneShot();
  const iolite::Aggregate agg = iolite::Aggregate::FromBuffer(header);
  sums.Charge(agg);
  EXPECT_DEATH(sums.Charge(agg), "charged twice");
}
#endif

// Reuse starts a new generation that is not one-shot until marked again.
TEST(OneShotChecksumTest, ReuseClearsTheMark) {
  iolsim::SimContext ctx;
  iolite::BufferPool pool(&ctx, "pool", iolsim::kKernelDomain);
  iolnet::ChecksumModule sums(&ctx, /*cache_enabled=*/true);
  const uint64_t id = [&] {
    iolite::BufferRef header = pool.AllocateFrom("header", 6);
    header->MarkOneShot();
    sums.Charge(iolite::Aggregate::FromBuffer(header));
    return header->id();
  }();
  iolite::BufferRef reused = pool.AllocateFrom("header", 6);
  ASSERT_EQ(reused->id(), id);
  EXPECT_FALSE(reused->one_shot());
  sums.Charge(iolite::Aggregate::FromBuffer(reused));
  sums.Charge(iolite::Aggregate::FromBuffer(reused));
  EXPECT_EQ(ctx.stats().checksum_cache_hits, 1u);
}

// --- Descriptor-backed slices ------------------------------------------------

// A disk read into a heap pool seals a descriptor-backed buffer. With the
// cache on, the checksum module sums its slices from generated blocks;
// with it off, it writes the bytes (data()) and sums those. Each aggregate
// here takes random sub-slices of such buffers, odd lengths and offsets
// included, so later slices sit at odd message offsets. Its checksum must
// equal the checksum of the same bytes copied into ordinary buffers: with
// the cache on and off, on a repeat (a hit when cached), and after data()
// has written the bytes.
class DescribedChecksumTest : public ::testing::TestWithParam<bool> {};

TEST_P(DescribedChecksumTest, MatchesEagerCopies) {
  const bool cached = GetParam();
  constexpr size_t kMaxLen = 3 * 4096 + 1;
  iolsim::SimContext ctx;
  iolite::BufferPool disk(&ctx, "disk", iolsim::kKernelDomain);
  iolite::BufferPool copies(&ctx, "copies", iolsim::kKernelDomain);
  iolfs::SimFileSystem fs(&ctx, &disk);
  iolnet::ChecksumModule eager_sums(&ctx, /*cache_enabled=*/false);
  iolnet::ChecksumModule sums(&ctx, cached);
  const iolfs::FileId f = fs.CreateFile("f", 5 * 4096 + 3);
  const uint64_t size = fs.SizeOf(f);
  iolsim::Rng rng(cached ? 5 : 6);
  for (int trial = 0; trial < 40; ++trial) {
    iolite::Aggregate described;
    iolite::Aggregate eager;
    const uint64_t slices = 1 + rng.NextBelow(4);
    for (uint64_t k = 0; k < slices; ++k) {
      uint64_t offset = rng.NextBelow(size);
      size_t len = 1 + rng.NextBelow(std::min<uint64_t>(kMaxLen, size - offset));
      iolite::BufferRef b = fs.ReadFromDisk(f, offset, len);
      ASSERT_TRUE(b->described());
      size_t sub = rng.NextBelow(len);
      size_t sub_len = 1 + rng.NextBelow(len - sub);
      described.Append(iolite::Slice(b, sub, sub_len));
      std::string bytes(sub_len, '\0');
      fs.ReadContent(f, offset + sub, bytes.data(), sub_len);
      eager.Append(iolite::Aggregate::FromBuffer(copies.AllocateFrom(bytes.data(), sub_len)));
    }
    const uint16_t want = eager_sums.Checksum(eager);
    ASSERT_EQ(sums.Checksum(described), want) << "trial " << trial;
    ASSERT_EQ(sums.Checksum(described), want) << "repeat, trial " << trial;
    for (const iolite::Slice& s : described.slices()) {
      ASSERT_EQ(s.buffer()->described(), cached);
    }
    std::string written = described.ToString();
    EXPECT_EQ(written, eager.ToString());
    for (const iolite::Slice& s : described.slices()) {
      ASSERT_FALSE(s.buffer()->described());
    }
    iolnet::ChecksumModule fresh(&ctx, cached);
    ASSERT_EQ(fresh.Checksum(described), want) << "after data(), trial " << trial;
    ASSERT_EQ(sums.Checksum(described), want) << "after data(), trial " << trial;
  }
}

// Generating the bytes costs what reading them did: the same CPU charge,
// bytes summed and cache traffic as for an ordinary buffer.
TEST(DescribedChecksumCostTest, ChargesAndCountsAsForWrittenBytes) {
  iolsim::SimContext ctx;
  iolite::BufferPool disk(&ctx, "disk", iolsim::kKernelDomain);
  iolfs::SimFileSystem fs(&ctx, &disk);
  const iolfs::FileId f = fs.CreateFile("f", 20000);
  iolnet::ChecksumModule sums(&ctx, /*cache_enabled=*/true);
  iolite::BufferRef described = fs.ReadFromDisk(f, 1, 19999);
  iolite::BufferRef written = fs.ReadFromDisk(f, 1, 19999);
  written->data();
  ASSERT_TRUE(described->described());
  ASSERT_FALSE(written->described());
  auto charge = [&](const iolite::BufferRef& b) {
    iolsim::SimTime before = ctx.clock().now();
    uint64_t summed = ctx.stats().bytes_checksummed;
    uint64_t misses = ctx.stats().checksum_cache_misses;
    sums.Checksum(iolite::Aggregate::FromBuffer(b));
    return std::make_tuple(ctx.clock().now() - before, ctx.stats().bytes_checksummed - summed,
                           ctx.stats().checksum_cache_misses - misses);
  };
  EXPECT_EQ(charge(described), charge(written));
  EXPECT_EQ(std::get<1>(charge(described)), 0u) << "a repeat hits the cache";
}

INSTANTIATE_TEST_SUITE_P(CacheOnOff, DescribedChecksumTest, ::testing::Bool());

// --- Lazy entries and forced sums ---------------------------------------------

// The checksum of `n` content bytes of `file` at `offset`, from an eager
// copy in an ordinary buffer.
uint16_t EagerChecksum(iolfs::SimFileSystem& fs, iolite::BufferPool& copies,
                       iolnet::ChecksumModule& eager_sums, iolfs::FileId file,
                       uint64_t offset, size_t n) {
  std::string bytes(n, '\0');
  fs.ReadContent(file, offset, bytes.data(), n);
  return eager_sums.Checksum(iolite::Aggregate::FromBuffer(copies.AllocateFrom(bytes.data(), n)));
}

// A content start and length for a described slice of a `size`-byte file:
// even and odd starts, at and beside 4 KB boundaries, lengths 1 to
// 3 x 4096 + 1.
std::pair<uint64_t, size_t> RandomRange(iolsim::Rng& rng, uint64_t size) {
  constexpr uint64_t kBlock = 4096;
  constexpr uint64_t kDeltas[] = {0, 1, 2, 3, kBlock - 2, kBlock - 1};
  uint64_t offset = rng.NextBelow(size / kBlock) * kBlock;
  offset += rng.NextBelow(3) == 0 ? rng.NextBelow(kBlock) : kDeltas[rng.NextBelow(6)];
  offset = std::min(offset, size - 1);
  constexpr uint64_t kLengths[] = {1,          2,          kBlock - 1,     kBlock,
                                   kBlock + 1, 2 * kBlock, 3 * kBlock + 1, 3 * kBlock};
  uint64_t len = rng.NextBelow(2) == 0 ? kLengths[rng.NextBelow(8)]
                                        : 1 + rng.NextBelow(3 * kBlock + 1);
  return {offset, static_cast<size_t>(std::min(len, size - offset))};
}

// The checksum of a described aggregate both ways a reader can force it:
// Charge (a lazy entry) then Checksum (a forcing hit), and Checksum alone
// on a module that has not seen it (a forced miss). Both must agree, and
// neither may write the buffers.
uint16_t ForcedChecksum(iolsim::SimContext* ctx, iolnet::ChecksumModule& sums,
                        const iolite::Aggregate& agg) {
  sums.Charge(agg);
  const uint16_t forced_hit = sums.Checksum(agg);
  iolnet::ChecksumModule fresh(ctx, /*cache_enabled=*/true);
  EXPECT_EQ(fresh.Checksum(agg), forced_hit) << "forced miss";
  for (const iolite::Slice& s : agg.slices()) {
    EXPECT_TRUE(s.buffer()->described()) << "summing wrote the buffer";
  }
  return forced_hit;
}

// Charge stores a lazy entry; Checksum's forcing hit must then equal one
// pass over the same bytes, for slices at even and odd message offsets,
// and again after data() has written the buffer.
TEST(LazyEntryTest, ForcedHitEqualsEagerSumAtEvenAndOddOffsets) {
  iolsim::SimContext ctx;
  iolite::BufferPool disk(&ctx, "disk", iolsim::kKernelDomain);
  iolite::BufferPool copies(&ctx, "copies", iolsim::kKernelDomain);
  iolfs::SimFileSystem fs(&ctx, &disk);
  iolnet::ChecksumModule eager_sums(&ctx, /*cache_enabled=*/false);
  iolnet::ChecksumModule sums(&ctx, /*cache_enabled=*/true);
  const iolfs::FileId f = fs.CreateFile("f", 3 * 4096 + 7);
  for (size_t lead : {0, 1, 2, 3}) {
    // A `lead`-byte eager head puts the described slice at that offset.
    iolite::Aggregate agg;
    std::string head(lead, 'h');
    if (lead > 0) {
      agg.Append(iolite::Aggregate::FromBuffer(copies.AllocateFrom(head.data(), lead)));
    }
    iolite::BufferRef b = fs.ReadFromDisk(f, 5, 2 * 4096 + 1);
    agg.Append(iolite::Slice(b, 1, 2 * 4096 - 1));
    iolite::Aggregate eager;
    if (lead > 0) {
      eager.Append(iolite::Aggregate::FromBuffer(copies.AllocateFrom(head.data(), lead)));
    }
    std::string bytes(2 * 4096 - 1, '\0');
    fs.ReadContent(f, 6, bytes.data(), bytes.size());
    eager.Append(iolite::Aggregate::FromBuffer(copies.AllocateFrom(bytes.data(), bytes.size())));
    const uint16_t want = eager_sums.Checksum(eager);

    sums.Charge(agg);
    ASSERT_TRUE(b->described()) << "lead " << lead;
    const uint64_t hits = ctx.stats().checksum_cache_hits;
    ASSERT_EQ(sums.Checksum(agg), want) << "lead " << lead;
    EXPECT_EQ(ctx.stats().checksum_cache_hits - hits, agg.slices().size()) << "lead " << lead;
    ASSERT_TRUE(b->described()) << "lead " << lead;
    EXPECT_EQ(sums.PeekChecksum(agg), want) << "lead " << lead;

    // Materialized: the entry is already forced, and a fresh Charge of the
    // now-eager buffer on another module sums its written bytes.
    EXPECT_EQ(agg.ToString(), eager.ToString());
    ASSERT_FALSE(b->described());
    ASSERT_EQ(sums.Checksum(agg), want) << "after data(), lead " << lead;
    iolnet::ChecksumModule other(&ctx, /*cache_enabled=*/true);
    other.Charge(agg);
    ASSERT_EQ(other.Checksum(agg), want) << "after data(), lead " << lead;
  }
}

// A lazy entry holds the descriptor of the buffer it was stored for, not
// of whatever slice later presents the same key: a look-alike key forced
// later sums A's bytes. So a key that named the wrong contents still shows
// up as a wrong sum.
TEST(LazyEntryTest, ForcedHitSumsTheStoredDescriptor) {
  iolsim::SimContext ctx;
  iolite::BufferPool disk(&ctx, "disk", iolsim::kKernelDomain);
  iolfs::SimFileSystem fs(&ctx, &disk);
  const iolfs::FileId fa = fs.CreateFile("a", 6000);
  const iolfs::FileId fb = fs.CreateFile("b", 6000);
  iolite::BufferRef a = fs.ReadFromDisk(fa, 3, 5000);
  iolite::BufferRef b = fs.ReadFromDisk(fb, 3, 5000);
  std::string bytes_a(4000, '\0');
  std::string bytes_b(4000, '\0');
  fs.ReadContent(fa, 3 + 10, bytes_a.data(), bytes_a.size());
  fs.ReadContent(fb, 3 + 10, bytes_b.data(), bytes_b.size());
  const uint32_t sum_a = iolnet::ChecksumAccumulate(bytes_a.data(), bytes_a.size());
  const uint32_t sum_b = iolnet::ChecksumAccumulate(bytes_b.data(), bytes_b.size());
  ASSERT_NE(sum_a, sum_b);

  // Module level: Charge stores A's slice lazily; the cache's forcing
  // lookup of that key yields A's sum.
  iolnet::ChecksumModule sums(&ctx, /*cache_enabled=*/true);
  sums.Charge(iolite::Aggregate::FromSlice(iolite::Slice(a, 10, 4000)));
  uint32_t got = 0;
  ASSERT_TRUE(sums.cache().Lookup({a->id(), a->generation(), 10, 4000}, &got));
  EXPECT_EQ(got, sum_a);

  // Cache level: an entry stored from A's descriptor, then read under a key
  // that B's slice presents, still sums A's bytes.
  ChecksumCache cache(8);
  const ChecksumCache::Key key{b->id(), b->generation(), 10, 4000};
  cache.StoreDescribed(key, a->content_seed(), a->content_offset());
  ASSERT_TRUE(cache.Peek(key, &got));
  EXPECT_EQ(got, sum_a);
  EXPECT_NE(got, sum_b);
  ASSERT_TRUE(cache.Lookup(key, &got));
  EXPECT_EQ(got, sum_a) << "the forced sum was written back";

  // A descriptor whose folded origin is 0 -- the mark of a known sum -- is
  // summed when stored, and still yields its own bytes' sum.
  const uint64_t offset = 12345;
  const uint64_t zero_seed = 0 - offset * 0x9e3779b97f4a7c15ull;
  ASSERT_EQ(iolite::ContentOrigin(zero_seed, offset), 0u);
  std::string zero_bytes(4000, '\0');
  iolite::FillContent(zero_seed, offset + 10, zero_bytes.data(), zero_bytes.size());
  cache.StoreDescribed(key, zero_seed, offset);
  ASSERT_TRUE(cache.Peek(key, &got));
  EXPECT_EQ(got, iolnet::ChecksumAccumulate(zero_bytes.data(), zero_bytes.size()));
}

// Charge and Checksum do the same simulated work: the same clock, SimStats
// and cache hit/miss counts, on misses and on hits, for described and
// written slices.
TEST(LazyEntryTest, ChargeAndChecksumLeaveIdenticalStats) {
  auto run = [](bool force) {
    iolsim::SimContext ctx;
    iolite::BufferPool disk(&ctx, "disk", iolsim::kKernelDomain);
    iolite::BufferPool copies(&ctx, "copies", iolsim::kKernelDomain);
    iolfs::SimFileSystem fs(&ctx, &disk);
    iolnet::ChecksumModule sums(&ctx, /*cache_enabled=*/true, /*cache_entries=*/6);
    const iolfs::FileId f = fs.CreateFile("f", 50000);
    std::vector<iolite::Aggregate> aggs;
    for (int i = 0; i < 5; ++i) {
      iolite::Aggregate agg = iolite::Aggregate::FromBuffer(copies.AllocateFrom("header", 6));
      agg.Append(iolite::Aggregate::FromBuffer(fs.ReadFromDisk(f, 1000 * i, 3000 + i)));
      aggs.push_back(std::move(agg));
    }
    // Each aggregate twice in a row (the second time hits), in rounds
    // that cycle through more slices than the cache holds.
    for (int round = 0; round < 3; ++round) {
      for (const iolite::Aggregate& agg : aggs) {
        for (int twice = 0; twice < 2; ++twice) {
          if (force) {
            sums.Checksum(agg);
          } else {
            sums.Charge(agg);
          }
        }
      }
    }
    const iolsim::SimStats& s = ctx.stats();
    return std::make_tuple(ctx.clock().now(), s.bytes_checksummed, s.checksum_ops,
                           s.checksum_cache_hits, s.checksum_cache_misses, sums.cache().size());
  };
  const auto charged = run(false);
  EXPECT_EQ(charged, run(true));
  EXPECT_GT(std::get<3>(charged), 0u) << "some lookups hit";
  EXPECT_GT(std::get<4>(charged), 10u) << "the small cache recycles";
}

// With the cache off, Charge charges as before but generates and writes
// nothing: a described buffer stays described.
TEST(LazyEntryTest, ChargeWithTheCacheOffLeavesBuffersDescribed) {
  iolsim::SimContext ctx;
  iolite::BufferPool disk(&ctx, "disk", iolsim::kKernelDomain);
  iolfs::SimFileSystem fs(&ctx, &disk);
  const iolfs::FileId f = fs.CreateFile("f", 9000);
  iolnet::ChecksumModule sums(&ctx, /*cache_enabled=*/false);
  iolite::BufferRef b = fs.ReadFromDisk(f, 0, 9000);
  const iolsim::SimTime before = ctx.clock().now();
  sums.Charge(iolite::Aggregate::FromBuffer(b));
  EXPECT_TRUE(b->described());
  EXPECT_GT(ctx.clock().now(), before);
  EXPECT_EQ(ctx.stats().bytes_checksummed, 9000u);
  EXPECT_EQ(ctx.stats().checksum_cache_misses, 0u);
}

// Random ranges of several files, each forced through fresh buffers twice;
// some are sub-slices of a larger buffer, so the slice offset adds to the
// buffer's content offset.
TEST(ForcedSumTest, FreshBuffersMatchEagerSums) {
  iolsim::SimContext ctx;
  iolite::BufferPool disk(&ctx, "disk", iolsim::kKernelDomain);
  iolite::BufferPool copies(&ctx, "copies", iolsim::kKernelDomain);
  iolfs::SimFileSystem fs(&ctx, &disk);
  iolnet::ChecksumModule eager_sums(&ctx, /*cache_enabled=*/false);
  iolnet::ChecksumModule sums(&ctx, /*cache_enabled=*/true);
  std::vector<iolfs::FileId> files;
  for (int i = 0; i < 3; ++i) {
    files.push_back(fs.CreateFile("f" + std::to_string(i), 8 * 4096 + 3));
  }
  iolsim::Rng rng(17);
  for (int trial = 0; trial < 300; ++trial) {
    const iolfs::FileId f = files[rng.NextBelow(files.size())];
    const auto [offset, len] = RandomRange(rng, fs.SizeOf(f));
    const uint16_t want = EagerChecksum(fs, copies, eager_sums, f, offset, len);
    const uint64_t lead =
        std::min<uint64_t>(offset, rng.NextBelow(3) == 0 ? rng.NextBelow(5000) : 0);
    for (int pass = 0; pass < 2; ++pass) {
      iolite::BufferRef b = fs.ReadFromDisk(f, offset - lead, lead + len);
      ASSERT_TRUE(b->described());
      iolite::Aggregate agg;
      agg.Append(iolite::Slice(b, lead, len));
      ASSERT_EQ(ForcedChecksum(&ctx, sums, agg), want)
          << "trial " << trial << " pass " << pass << " offset " << offset << " len " << len;
    }
  }
}

// Every prefix length of several blocks, adjacent ones included, and
// two-block reads: each forced sum must equal one pass over the same bytes.
TEST(ForcedSumTest, EveryPrefixLengthAtSeveralBlocksMatchesEagerSums) {
  iolsim::SimContext ctx;
  iolite::BufferPool disk(&ctx, "disk", iolsim::kKernelDomain);
  iolfs::SimFileSystem fs(&ctx, &disk);
  iolnet::ChecksumModule sums(&ctx, /*cache_enabled=*/true);
  const iolfs::FileId f = fs.CreateFile("prefixes", 1001 * 4096);
  std::vector<char> bytes(2 * 4096);
  for (uint64_t block : {0, 1, 7, 1000}) {
    fs.ReadContent(f, block * 4096, bytes.data(), 4096);
    for (size_t len = 1; len <= 4096; ++len) {
      const uint16_t want = iolnet::ChecksumFold(iolnet::ChecksumAccumulate(bytes.data(), len));
      iolite::BufferRef b = fs.ReadFromDisk(f, block * 4096, len);
      ASSERT_EQ(ForcedChecksum(&ctx, sums, iolite::Aggregate::FromBuffer(b)), want)
          << "block " << block << " len " << len;
    }
  }
  fs.ReadContent(f, 0, bytes.data(), 2 * 4096);
  for (size_t len = 4097; len <= 2 * 4096; len += 97) {
    const uint16_t want = iolnet::ChecksumFold(iolnet::ChecksumAccumulate(bytes.data(), len));
    iolite::BufferRef b = fs.ReadFromDisk(f, 0, len);
    ASSERT_EQ(ForcedChecksum(&ctx, sums, iolite::Aggregate::FromBuffer(b)), want)
        << "len " << len;
  }
}

// Whole files under 4 KB and whole files with a tail, read from disk and
// as snapshots, then slices ending at the file's end from aligned, even
// mid-block and odd starts.
TEST(ForcedSumTest, SmallFilesAndTailsMatchEagerSums) {
  iolsim::SimContext ctx;
  iolite::BufferPool disk(&ctx, "disk", iolsim::kKernelDomain);
  iolite::BufferPool copies(&ctx, "copies", iolsim::kKernelDomain);
  iolfs::SimFileSystem fs(&ctx, &disk);
  iolnet::ChecksumModule eager_sums(&ctx, /*cache_enabled=*/false);
  iolnet::ChecksumModule sums(&ctx, /*cache_enabled=*/true);
  for (uint64_t size : {1, 2, 3, 100, 2048, 4095, 4096, 4097, 8191, 3 * 4096 + 5}) {
    const iolfs::FileId f = fs.CreateFile("small" + std::to_string(size), size);
    const uint16_t whole = EagerChecksum(fs, copies, eager_sums, f, 0, size);
    ASSERT_EQ(ForcedChecksum(&ctx, sums, iolite::Aggregate::FromBuffer(fs.ReadFromDisk(f, 0, size))),
              whole)
        << "size " << size;
    ASSERT_EQ(ForcedChecksum(&ctx, sums, iolite::Aggregate::FromBuffer(fs.ReadSnapshot(f, &disk))),
              whole)
        << "size " << size;
    for (uint64_t start : {uint64_t{4096}, uint64_t{4098}, uint64_t{5001}, size - 1}) {
      if (start >= size) {
        continue;
      }
      const uint16_t want = EagerChecksum(fs, copies, eager_sums, f, start, size - start);
      iolite::BufferRef b = fs.ReadFromDisk(f, start, size - start);
      ASSERT_EQ(ForcedChecksum(&ctx, sums, iolite::Aggregate::FromBuffer(b)), want)
          << "size " << size << " start " << start;
    }
  }
}

// Four threads, each with its own context, pool and file system, force
// sums of described buffers of the same seeds at once; every sum must
// equal the eager one. Run under TSan (label "threads"): forcing shares no
// state between threads.
TEST(ForcedSumThreadsTest, ThreadsForcingTheSameSeeds) {
  constexpr int kThreads = 4;
  std::vector<int> mismatches(kThreads, -1);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &mismatches] {
      iolsim::SimContext ctx;
      iolite::BufferPool disk(&ctx, "disk", iolsim::kKernelDomain);
      iolite::BufferPool copies(&ctx, "copies", iolsim::kKernelDomain);
      iolfs::SimFileSystem fs(&ctx, &disk);
      iolnet::ChecksumModule eager_sums(&ctx, /*cache_enabled=*/false);
      iolnet::ChecksumModule sums(&ctx, /*cache_enabled=*/true);
      std::vector<iolfs::FileId> files;
      for (int i = 0; i < 4; ++i) {
        files.push_back(fs.CreateFile("f" + std::to_string(i), 6 * 4096 + 1));
      }
      iolsim::Rng rng(100 + t);
      int bad = 0;
      for (int trial = 0; trial < 60; ++trial) {
        const iolfs::FileId f = files[rng.NextBelow(files.size())];
        const auto [offset, len] = RandomRange(rng, fs.SizeOf(f));
        const uint16_t want = EagerChecksum(fs, copies, eager_sums, f, offset, len);
        for (int pass = 0; pass < 2; ++pass) {
          iolite::Aggregate agg = iolite::Aggregate::FromBuffer(fs.ReadFromDisk(f, offset, len));
          sums.Charge(agg);
          bad += sums.Checksum(agg) != want;
        }
      }
      mismatches[t] = bad;
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  }
}

}  // namespace
