#include "src/net/checksum.h"

#include <algorithm>
#include <bit>
#include <cstring>

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
  if (index_.empty()) {
    return kNil;
  }
  const uint32_t mask = static_cast<uint32_t>(index_.size() - 1);
  for (uint32_t pos = hash & mask;; pos = (pos + 1) & mask) {
    const Slot& slot = index_[pos];
    if (slot.entry == kNil) {
      return kNil;
    }
    if (slot.hash == hash && entries_[slot.entry].key == key) {
      return pos;
    }
  }
}

void ChecksumCache::Insert(uint32_t e, uint32_t hash) {
  const uint32_t mask = static_cast<uint32_t>(index_.size() - 1);
  uint32_t pos = hash & mask;
  while (index_[pos].entry != kNil) {
    pos = (pos + 1) & mask;
  }
  index_[pos] = Slot{e, hash};
}

void ChecksumCache::Erase(uint32_t pos) {
  // A later slot may move into the hole only if its home does not lie
  // cyclically within (hole, slot]: otherwise a probe from its home would
  // stop at the hole.
  const uint32_t mask = static_cast<uint32_t>(index_.size() - 1);
  uint32_t hole = pos;
  for (uint32_t next = (hole + 1) & mask; index_[next].entry != kNil; next = (next + 1) & mask) {
    uint32_t home = index_[next].hash & mask;
    if (((next - home) & mask) >= ((next - hole) & mask)) {
      index_[hole] = index_[next];
      hole = next;
    }
  }
  index_[hole] = Slot{};
}

void ChecksumCache::Unlink(uint32_t e) {
  Entry& entry = entries_[e];
  (entry.prev == kNil ? head_ : entries_[entry.prev].next) = entry.next;
  (entry.next == kNil ? tail_ : entries_[entry.next].prev) = entry.prev;
}

void ChecksumCache::PushFront(uint32_t e) {
  Entry& entry = entries_[e];
  entry.prev = kNil;
  entry.next = head_;
  (head_ == kNil ? tail_ : entries_[head_].prev) = e;
  head_ = e;
}

void ChecksumCache::Touch(uint32_t e) {
  if (e != head_) {
    Unlink(e);
    PushFront(e);
  }
}

bool ChecksumCache::Lookup(const Key& key, uint32_t* sum) {
  uint32_t pos = Find(key, Hash(key));
  if (pos == kNil) {
    return false;
  }
  uint32_t e = index_[pos].entry;
  Touch(e);
  *sum = entries_[e].sum;
  return true;
}

void ChecksumCache::Store(const Key& key, uint32_t sum) {
  const uint32_t hash = Hash(key);
  uint32_t pos = Find(key, hash);
  if (pos != kNil) {
    uint32_t e = index_[pos].entry;
    entries_[e].sum = sum;
    Touch(e);
    return;
  }
  if (capacity_ == 0) {
    return;  // The new key would be its own eviction victim.
  }
  uint32_t e;
  if (entries_.size() == capacity_) {
    // Evicting before inserting picks the same victim as the other order:
    // the new key goes to the front, and the tail is at least one behind.
    e = tail_;
    Erase(Find(entries_[e].key, entries_[e].hash));
    Unlink(e);
  } else {
    e = static_cast<uint32_t>(entries_.size());
    entries_.emplace_back();
    if (index_.size() < 2 * entries_.size()) {
      // Double the index and re-seat every entry from its stored hash.
      std::vector<Slot> old = std::move(index_);
      index_.assign(old.empty() ? 16 : 2 * old.size(), Slot{});
      for (const Slot& slot : old) {
        if (slot.entry != kNil) {
          Insert(slot.entry, slot.hash);
        }
      }
    }
  }
  entries_[e].key = key;
  entries_[e].sum = sum;
  entries_[e].hash = hash;
  PushFront(e);
  Insert(e, hash);
}

void ChecksumCache::Clear() {
  entries_.clear();
  std::fill(index_.begin(), index_.end(), Slot{});
  head_ = kNil;
  tail_ = kNil;
}

uint16_t ChecksumModule::Checksum(const iolite::Aggregate& agg) {
  uint32_t total = 0;
  uint64_t position = 0;  // Byte offset within the message so far.
  for (const iolite::Slice& s : agg.slices()) {
    uint32_t partial = 0;
    ChecksumCache::Key key{s.buffer()->id(), s.buffer()->generation(), s.offset(), s.length()};
    if (cache_enabled_ && cache_.Lookup(key, &partial)) {
      ctx_->stats().checksum_cache_hits++;
    } else {
      partial = ChecksumAccumulate(s.data(), s.length());
      ctx_->ChargeCpu(ctx_->cost().ChecksumCost(s.length()));
      ctx_->stats().bytes_checksummed += s.length();
      ctx_->stats().checksum_ops++;
      if (cache_enabled_) {
        cache_.Store(key, partial);
        ctx_->stats().checksum_cache_misses++;
      }
    }
    // Slices at odd message offsets contribute byte-swapped.
    total += (position % 2 == 0) ? partial : ChecksumSwap(partial);
    position += s.length();
  }
  return ChecksumFold(total);
}

}  // namespace iolnet
