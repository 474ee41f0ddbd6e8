#include "src/net/checksum.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>

#include "src/iolite/dma_fill.h"

namespace iolnet {

namespace {

// Vectors of 64-bit lanes: two for the portable kernel (one SSE2 or NEON
// register), four for the AVX2 kernel. Each kernel uses its target's
// register width, because GCC keeps a vector wider than that in memory.
typedef uint64_t U64x2 __attribute__((vector_size(16)));
typedef uint64_t U64x4 __attribute__((vector_size(32)));
// A 16-bit field gains at most 255 per step: 256 steps reach 65280.
constexpr size_t kStepsPerFlush = 256;
constexpr uint64_t kLowBytes = 0x00ff00ff00ff00ffull;
// Lane loads put byte b of a word at address + b, so the low byte of each
// 16-bit field is an even-offset byte.
constexpr bool kLittleEndian = std::endian::native == std::endian::little;

// The sum of the four 16-bit fields of every lane.
template <typename V>
[[gnu::always_inline]] inline uint64_t SumFields(V v) {
  constexpr uint64_t kLowFields = 0x0000ffff0000ffffull;
  v = (v & kLowFields) + ((v >> 16) & kLowFields);
  v = (v & 0xffffffffull) + (v >> 32);
  uint64_t sum = 0;
  for (size_t k = 0; k < sizeof(V) / sizeof(uint64_t); ++k) {
    sum += v[k];
  }
  return sum;
}

// Big-endian 16-bit words, eight bytes per step: a byte-swapped 64-bit
// load yields four wire-order words at fixed shifts.
inline uint64_t ScalarSum(const uint8_t* p, size_t n) {
  uint64_t sum = 0;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t v;
    std::memcpy(&v, p + i, 8);
    uint64_t x = __builtin_bswap64(v);
    sum += (x >> 48) + ((x >> 32) & 0xffff) + ((x >> 16) & 0xffff) + (x & 0xffff);
  }
  for (; i + 1 < n; i += 2) {
    sum += (static_cast<uint64_t>(p[i]) << 8) | p[i + 1];
  }
  if (i < n) {
    sum += static_cast<uint64_t>(p[i]) << 8;  // Trailing odd byte, zero-padded.
  }
  return sum;
}

// One body for every instruction set: each kernel below inlines it with
// its vector type, and the compiler lowers the operators for that kernel's
// target. A step is one vector. Every step starts at an even offset, so
// the scalar tail does too; the 64-bit totals and the tail add up to the
// byte-wise sum, which the uint32_t result truncates exactly as the
// byte-wise loop does.
template <typename V>
[[gnu::always_inline]] inline uint32_t Accumulate(const char* data, size_t n) {
  const auto* p = reinterpret_cast<const uint8_t*>(data);
  uint64_t even = 0;
  uint64_t odd = 0;
  size_t i = 0;
  while (kLittleEndian && n - i >= sizeof(V)) {
    size_t steps = (n - i) / sizeof(V);
    if (steps > kStepsPerFlush) {
      steps = kStepsPerFlush;
    }
    V even_fields = {};
    V odd_fields = {};
    for (size_t s = 0; s < steps; ++s, i += sizeof(V)) {
      V v;
      std::memcpy(&v, p + i, sizeof(v));
      even_fields += v & kLowBytes;
      odd_fields += (v >> 8) & kLowBytes;
    }
    even += SumFields(even_fields);
    odd += SumFields(odd_fields);
  }
  return static_cast<uint32_t>((even << 8) + odd + ScalarSum(p + i, n - i));
}

}  // namespace

uint32_t ChecksumAccumulatePortable(const char* data, size_t n) {
  return Accumulate<U64x2>(data, n);
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))

bool HasAvx2Checksum() {
  static const bool avx2 = __builtin_cpu_supports("avx2");
  return avx2;
}

__attribute__((target("avx2"))) uint32_t ChecksumAccumulateAvx2(const char* data, size_t n) {
  return Accumulate<U64x4>(data, n);
}

#else

// Never selected: HasAvx2Checksum() is false off x86-64.
bool HasAvx2Checksum() { return false; }

uint32_t ChecksumAccumulateAvx2(const char* data, size_t n) {
  return ChecksumAccumulatePortable(data, n);
}

#endif

uint32_t ChecksumAccumulate(const char* data, size_t n) {
  return HasAvx2Checksum() ? ChecksumAccumulateAvx2(data, n)
                           : ChecksumAccumulatePortable(data, n);
}

uint16_t ChecksumFold(uint32_t sum) {
  while (sum >> 16) {
    sum = (sum & 0xffff) + (sum >> 16);
  }
  return static_cast<uint16_t>(~sum & 0xffff);
}

uint32_t ChecksumSwap(uint32_t sum) {
  // Fold to 16 bits first, then swap bytes: this is the standard trick for
  // combining a partial sum that starts at an odd offset.
  while (sum >> 16) {
    sum = (sum & 0xffff) + (sum >> 16);
  }
  return ((sum & 0xff) << 8) | (sum >> 8);
}

uint32_t ChecksumCache::Hash(const Key& k) {
  uint64_t h = k.buffer_id * 0x9e3779b97f4a7c15ull;
  h ^= (static_cast<uint64_t>(k.generation) << 32) ^ k.offset;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= k.length;
  h ^= h >> 31;
  h *= 0x94d049bb133111ebull;
  return static_cast<uint32_t>(h >> 32);
}

uint32_t ChecksumCache::Find(const Key& key, uint32_t hash) const {
  return index_.Find(hash, [&](uint32_t e) { return KeyOf(entries_[e]) == key; });
}

void ChecksumCache::Unlink(uint32_t e) {
  Entry& entry = entries_[e];
  (entry.prev == kNil ? head_ : entries_[entry.prev].next) = entry.next;
  (entry.next == kNil ? tail_ : entries_[entry.next].prev) = entry.prev;
}

void ChecksumCache::PushFront(uint32_t e) {
  Entry& entry = entries_[e];
  entry.anonymous = head_anonymous_;
  head_anonymous_ = 0;
  entry.prev = kNil;
  entry.next = head_;
  (head_ == kNil ? tail_ : entries_[head_].prev) = e;
  head_ = e;
}

void ChecksumCache::MoveToFront(uint32_t e) {
  // Taking `e` out joins the anonymous runs on either side of it.
  Entry& entry = entries_[e];
  (entry.prev == kNil ? head_anonymous_ : entries_[entry.prev].anonymous) += entry.anonymous;
  Unlink(e);
  PushFront(e);
}

void ChecksumCache::EvictOldest() {
  uint32_t& oldest_run = tail_ == kNil ? head_anonymous_ : entries_[tail_].anonymous;
  if (oldest_run > 0) {
    --oldest_run;
    --anonymous_;
    return;
  }
  const uint32_t e = tail_;
  const Key victim = KeyOf(entries_[e]);
  index_.Erase(Find(victim, Hash(victim)));
  Unlink(e);
  entries_.Release(e);
}

uint32_t ChecksumCache::EntryOf(const Key& key) const {
  uint32_t pos = Find(key, Hash(key));
  return pos == kNil ? kNil : index_.at(pos);
}

namespace {

// The sum, as ChecksumAccumulate computes it, of generated content bytes
// [offset, offset + n) for `seed`, generated 4 KB at a time on the stack.
uint32_t GeneratedSum(uint64_t seed, uint64_t offset, size_t n) {
  // Small enough to stay in L1, and even, so every block starts at an even
  // offset in the run and the blocks' partial sums add exactly.
  constexpr size_t kBlock = 4096;
  alignas(64) char block[kBlock];
  uint32_t sum = 0;
  for (size_t done = 0; done < n;) {
    size_t len = std::min(kBlock, n - done);
    iolite::FillContent(seed, offset + done, block, len);
    sum += ChecksumAccumulate(block, len);
    done += len;
  }
  return sum;
}

}  // namespace

uint32_t ChecksumCache::Force(uint32_t e) {
  Entry& entry = entries_[e];
  if (entry.origin != 0) {
    entry.sum = GeneratedSum(entry.origin, entry.offset, entry.length);
    entry.origin = 0;
  }
  return entry.sum;
}

bool ChecksumCache::Lookup(const Key& key, uint32_t* sum) {
  uint32_t e = EntryOf(key);
  if (e == kNil) {
    return false;
  }
  MoveToFront(e);
  *sum = Force(e);
  return true;
}

bool ChecksumCache::Peek(const Key& key, uint32_t* sum) {
  uint32_t e = EntryOf(key);
  if (e == kNil) {
    return false;
  }
  *sum = Force(e);
  return true;
}

bool ChecksumCache::Touch(const Key& key) {
  uint32_t e = EntryOf(key);
  if (e == kNil) {
    return false;
  }
  MoveToFront(e);
  return true;
}

uint32_t ChecksumCache::Place(const Key& key) {
  const uint32_t hash = Hash(key);
  uint32_t pos = Find(key, hash);
  if (pos != kNil) {
    uint32_t e = index_.at(pos);
    MoveToFront(e);
    return e;
  }
  if (capacity_ == 0) {
    return kNil;  // The new key would be its own eviction victim.
  }
  if (size() == capacity_) {
    // Evicting before inserting picks the same victim as the other order:
    // the new key goes to the front, and the oldest position is at least
    // one behind.
    EvictOldest();
  }
  const uint32_t e = entries_.Acquire();
  entries_[e].buffer_id = key.buffer_id;
  entries_[e].offset = key.offset;
  entries_[e].length = key.length;
  entries_[e].generation = key.generation;
  PushFront(e);
  index_.Insert(hash, e);
  return e;
}

void ChecksumCache::Store(const Key& key, uint32_t sum) {
  uint32_t e = Place(key);
  if (e != kNil) {
    entries_[e].sum = sum;
    entries_[e].origin = 0;
  }
}

void ChecksumCache::StoreDescribed(const Key& key, uint64_t content_seed,
                                   uint64_t content_offset) {
  uint32_t e = Place(key);
  if (e != kNil) {
    entries_[e].origin = iolite::ContentOrigin(content_seed, content_offset);
    if (entries_[e].origin == 0) {
      entries_[e].sum = GeneratedSum(0, key.offset, key.length);
    }
  }
}

void ChecksumCache::StoreAnonymous() {
  if (capacity_ == 0) {
    return;
  }
  if (size() == capacity_) {
    EvictOldest();
  }
  ++head_anonymous_;
  ++anonymous_;
}

void ChecksumCache::Clear() {
  entries_.Clear();
  index_.Clear();
  head_ = kNil;
  tail_ = kNil;
  anonymous_ = 0;
  head_anonymous_ = 0;
}

uint32_t ChecksumModule::Account(const iolite::Slice& s, bool force) {
  const iolite::Buffer& b = *s.buffer();
  ChecksumCache::Key key{b.id(), b.generation(), s.offset(), s.length()};
  uint32_t partial = 0;
  // A one-shot slice's key can never hit, so it is not looked up.
  if (cache_enabled_ && !b.one_shot() &&
      (force ? cache_.Lookup(key, &partial) : cache_.Touch(key))) {
    ctx_->stats().checksum_cache_hits++;
    return partial;
  }
  ctx_->ChargeCpu(ctx_->cost().ChecksumCost(s.length()));
  ctx_->stats().bytes_checksummed += s.length();
  ctx_->stats().checksum_ops++;
  if (cache_enabled_) {
    ctx_->stats().checksum_cache_misses++;
    if (b.one_shot()) {
      // A second charge of the generation would have hit an entry, where
      // the anonymous position makes it a miss.
      [[maybe_unused]] const bool first = b.FirstOneShotCharge();
      assert(first && "a one-shot buffer generation was charged twice");
      cache_.StoreAnonymous();
      return force ? ChecksumAccumulate(s.data(), s.length()) : 0;
    }
    if (b.described() && !force) {
      cache_.StoreDescribed(key, b.content_seed(), b.content_offset());
      return 0;
    }
    // Generating costs more per byte than summing written bytes, so it
    // pays only when the sum is kept. Without the cache every forced read
    // sums the slice again: data() writes the bytes once instead.
    partial = b.described() ? GeneratedSum(b.content_seed(), b.content_offset() + s.offset(),
                                           s.length())
                            : ChecksumAccumulate(s.data(), s.length());
    cache_.Store(key, partial);
  } else if (force) {
    partial = ChecksumAccumulate(s.data(), s.length());
  }
  return partial;
}

void ChecksumModule::Charge(const iolite::Aggregate& agg) {
  for (const iolite::Slice& s : agg.slices()) {
    Account(s, /*force=*/false);
  }
}

namespace {

// Folds the slices' partial sums, sum(s), into the message's checksum.
template <typename SliceSumFn>
uint16_t Combine(const iolite::Aggregate& agg, SliceSumFn sum) {
  uint32_t total = 0;
  uint64_t position = 0;  // Byte offset within the message so far.
  for (const iolite::Slice& s : agg.slices()) {
    uint32_t partial = sum(s);
    // Slices at odd message offsets contribute byte-swapped.
    total += (position % 2 == 0) ? partial : ChecksumSwap(partial);
    position += s.length();
  }
  return ChecksumFold(total);
}

}  // namespace

uint16_t ChecksumModule::Checksum(const iolite::Aggregate& agg) {
  return Combine(agg, [this](const iolite::Slice& s) { return Account(s, /*force=*/true); });
}

uint16_t ChecksumModule::PeekChecksum(const iolite::Aggregate& agg) {
  return Combine(agg, [this](const iolite::Slice& s) { return SliceSum(s); });
}

uint32_t ChecksumModule::SliceSum(const iolite::Slice& s) {
  const iolite::Buffer& b = *s.buffer();
  uint32_t sum = 0;
  if (cache_enabled_ && cache_.Peek({b.id(), b.generation(), s.offset(), s.length()}, &sum)) {
    return sum;
  }
  return b.described()
             ? GeneratedSum(b.content_seed(), b.content_offset() + s.offset(), s.length())
             : ChecksumAccumulate(s.data(), s.length());
}

}  // namespace iolnet
