// The plane client's response checksum: ResponseFoldCache must return
// exactly the byte-serial FnvFold for every input — first sightings, cached
// contents, near misses of cached contents, bytes changed in place, more
// contents than entries and contents over the size bound.

#include "src/driver/response_fold.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/simos/rng.h"

namespace {

using ioldrv::FnvFold;
using ioldrv::ResponseFoldCache;

std::vector<char> RandomBytes(iolsim::Rng* rng, uint64_t n) {
  std::vector<char> v(n);
  for (char& c : v) {
    c = static_cast<char>(rng->Next());
  }
  return v;
}

// Folds `v` through the cache from a random start state and checks it
// against the definition.
void ExpectExact(ResponseFoldCache* cache, iolsim::Rng* rng, const std::vector<char>& v) {
  uint64_t h = rng->Next();
  ASSERT_EQ(cache->Fold(h, v.data(), v.size()), FnvFold(h, v.data(), v.size()))
      << "length " << v.size() << ", start " << h;
}

TEST(ResponseFoldTest, FnvFoldIsFnv1a64) {
  // The published FNV-1a 64 vectors, from the standard offset basis. (The
  // plane's own start state, kFnvOffset, is a different constant; every
  // recorded plane fingerprint depends on it.)
  constexpr uint64_t kBasis = 0xcbf29ce484222325ull;
  EXPECT_EQ(FnvFold(kBasis, "", 0), kBasis);
  EXPECT_EQ(FnvFold(kBasis, "a", 1), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(FnvFold(kBasis, "foobar", 6), 0x85944171f73967e8ull);
}

TEST(ResponseFoldTest, RandomStatesAndStringsMatchTheByteSerialFold) {
  iolsim::Rng rng(11);
  ResponseFoldCache cache;
  for (int i = 0; i < 60; ++i) {
    std::vector<char> v = RandomBytes(&rng, rng.NextBelow(8 * 1024 + 1));
    for (int sighting = 0; sighting < 4; ++sighting) {  // Miss, build, hits.
      ExpectExact(&cache, &rng, v);
    }
  }
  for (uint64_t n = 0; n < 40; ++n) {  // Every short length, below one word.
    std::vector<char> v = RandomBytes(&rng, n);
    for (int sighting = 0; sighting < 3; ++sighting) {
      ExpectExact(&cache, &rng, v);
    }
  }
  EXPECT_GT(cache.hits(), 0u);
}

TEST(ResponseFoldTest, RepeatedContentsHitTheirTables) {
  iolsim::Rng rng(12);
  ResponseFoldCache cache;
  std::vector<std::vector<char>> contents = {RandomBytes(&rng, 250), RandomBytes(&rng, 1024),
                                             RandomBytes(&rng, 2048)};
  for (int round = 0; round < 50; ++round) {
    for (const std::vector<char>& v : contents) {
      ExpectExact(&cache, &rng, v);
    }
  }
  EXPECT_EQ(cache.builds(), 3u) << "one table per content, built on its second sighting";
  EXPECT_EQ(cache.hits(), 3u * 48u);
  // Every start state's low byte selects a different table entry.
  for (uint64_t low = 0; low < 256; ++low) {
    uint64_t h = (rng.Next() & ~0xffull) | low;
    const std::vector<char>& v = contents[1];
    ASSERT_EQ(cache.Fold(h, v.data(), v.size()), FnvFold(h, v.data(), v.size()));
  }
}

TEST(ResponseFoldTest, NearMissesOfACachedContentFoldTheirOwnBytes) {
  iolsim::Rng rng(13);
  ResponseFoldCache cache;
  std::vector<char> base = RandomBytes(&rng, 4096);
  for (int sighting = 0; sighting < 3; ++sighting) {
    ExpectExact(&cache, &rng, base);
  }
  ASSERT_EQ(cache.builds(), 1u);
  // First, middle and last bytes, plus positions throughout: most of them
  // lie outside the words the cache's key reads, so they share the cached
  // content's key and only the memcmp tells them apart.
  std::vector<uint64_t> positions = {0, 2047, 2048, 4095};
  for (int i = 0; i < 16; ++i) {
    positions.push_back(rng.NextBelow(4096));
  }
  for (uint64_t pos : positions) {
    std::vector<char> v = base;
    v[pos] = static_cast<char>(v[pos] ^ (1 + rng.NextBelow(255)));
    for (int sighting = 0; sighting < 3; ++sighting) {
      ExpectExact(&cache, &rng, v);
    }
    ExpectExact(&cache, &rng, base);
  }
}

TEST(ResponseFoldTest, BytesChangedInPlaceChangeTheFold) {
  iolsim::Rng rng(14);
  ResponseFoldCache cache;
  std::vector<char> v = RandomBytes(&rng, 1274);
  const char* p = v.data();
  for (int sighting = 0; sighting < 3; ++sighting) {
    ExpectExact(&cache, &rng, v);
  }
  ASSERT_EQ(cache.builds(), 1u);
  uint64_t h = rng.Next();
  uint64_t before = cache.Fold(h, p, v.size());
  for (uint64_t pos : {uint64_t{0}, uint64_t{637}, uint64_t{1000}, uint64_t{1273}}) {
    v[pos] = static_cast<char>(v[pos] + 1);  // Same pointer, same length.
    ASSERT_EQ(v.data(), p);
    uint64_t after = cache.Fold(h, p, v.size());
    EXPECT_EQ(after, FnvFold(h, p, v.size())) << "changed byte " << pos;
    EXPECT_NE(after, before);
    before = after;
  }
}

TEST(ResponseFoldTest, MoreContentsThanEntriesStayExact) {
  iolsim::Rng rng(15);
  ResponseFoldCache cache;
  std::vector<std::vector<char>> contents;
  for (int i = 0; i < 3 * ResponseFoldCache::kEntries; ++i) {
    contents.push_back(RandomBytes(&rng, 64 + rng.NextBelow(512)));
  }
  for (int round = 0; round < 4; ++round) {
    for (const std::vector<char>& v : contents) {
      ExpectExact(&cache, &rng, v);
    }
  }
  EXPECT_GT(cache.builds(), static_cast<uint64_t>(ResponseFoldCache::kEntries))
      << "entries were replaced";
}

TEST(ResponseFoldTest, ContentsOverTheSizeBoundFoldByteByByte) {
  iolsim::Rng rng(16);
  ResponseFoldCache cache;
  std::vector<char> at_bound = RandomBytes(&rng, ResponseFoldCache::kMaxBytes);
  std::vector<char> over = RandomBytes(&rng, ResponseFoldCache::kMaxBytes + 1);
  for (int sighting = 0; sighting < 3; ++sighting) {
    ExpectExact(&cache, &rng, over);
  }
  EXPECT_EQ(cache.builds(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
  for (int sighting = 0; sighting < 3; ++sighting) {
    ExpectExact(&cache, &rng, at_bound);
  }
  EXPECT_EQ(cache.builds(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
}

}  // namespace
