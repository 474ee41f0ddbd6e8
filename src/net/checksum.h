// Internet checksum (RFC 1071) and the IO-Lite checksum cache (Section 3.9).
//
// Because IO-Lite buffers are immutable and carry generation numbers, the
// pair (buffer id, generation) uniquely identifies buffer *contents*
// system-wide. The TCP/UDP checksum module exploits this: it caches the
// checksum computed for each slice of a buffer aggregate, and when the same
// slice is transmitted again the cached value is reused — eliminating the
// last data-touching operation on the static-content fast path.
//
// Checksums are really computed over the bytes the buffers hold; partial
// sums are combined with correct odd-offset folding so the cached per-slice
// sums compose into the exact end-to-end checksum. With the cache on, a
// slice of a descriptor-backed buffer (buffer.h) is summed from bytes
// generated 4 KB at a time on the stack, which equal the bytes data() would
// write; the buffer itself stays unwritten.
//
// Generated content is a pure function of (content seed, offset), so the
// sum of any prefix of an aligned 4 KB block of it -- the first len bytes
// of block k, 0 < len <= 4096 -- is a pure function of (content seed, k,
// len). A block-sum table keeps those sums, keyed by the full seed and
// BlockKey(k, len), so a hit is exact: fresh buffers of the same file
// content (every proxy level's copy, every machine's materialization of
// one trace) generate each whole block, each file tail and each file under
// 4 KB once. The key packs k and len into one word, so an entry is 24
// bytes. The table is thread_local: every machine a thread simulates
// shares it, no two threads do, and it needs no lock. It is empty until
// the first described checksum and grows with the distinct prefixes it
// holds, up to kBlockSumSlots entries; past that, new prefixes replace old
// ones on collision.
//
// It is used only when the slice's content starts at an even offset. Then
// the head before the first block boundary is generated and has even
// length, every later piece -- each whole block, then the prefix of the
// block the slice ends in -- starts at an even offset in the slice, and
// the pieces' uint32_t partial sums add to exactly the sum of one pass over
// the slice. Odd starts are generated whole. A table hit changes no
// simulated cost: the cache key, CPU charge and counters are those of any
// cache miss.

#ifndef SRC_NET_CHECKSUM_H_
#define SRC_NET_CHECKSUM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/iolite/aggregate.h"
#include "src/simos/sim_context.h"

namespace iolnet {

// One's-complement 32-bit accumulation of `n` bytes starting at `data`,
// assuming the run begins at an even byte offset within the message.
//
// RFC 1071 sums big-endian 16-bit words, so the result is (the sum of the
// even-offset bytes << 8) + (the sum of the odd-offset bytes), modulo 2^32.
// The kernels below compute exactly that integer lane-parallel: one vector
// of 64-bit lanes per step (two lanes portably, four with AVX2), even and
// odd bytes summed apart in the lanes' 16-bit fields, and the fields
// flushed into 64-bit totals every 256 steps, before one could overflow.
// The kernel is chosen from the CPU at run time.
uint32_t ChecksumAccumulate(const char* data, size_t n);

// The kernels ChecksumAccumulate chooses between, exposed for differential
// tests. The Avx2 one may run only where HasAvx2Checksum() is true.
bool HasAvx2Checksum();
uint32_t ChecksumAccumulatePortable(const char* data, size_t n);
uint32_t ChecksumAccumulateAvx2(const char* data, size_t n);

// The block-sum table's entry cap (24 bytes each: 768 KB), exposed for
// tests that overflow it.
inline constexpr size_t kBlockSumSlots = size_t{1} << 15;

// The block-sum table's key for the first `len` bytes (0 < len <= 4096) of
// 4 KB block `block` of generated content: (block << 12) | len, with a
// whole block's length written as 0. Distinct (block, len) pairs get
// distinct keys for every block below 2^52, i.e. every content offset.
inline constexpr int kBlockKeyLengthBits = 12;
constexpr uint64_t BlockKey(uint64_t block, size_t len) {
  return (block << kBlockKeyLengthBits) | (len & ((size_t{1} << kBlockKeyLengthBits) - 1));
}

// Folds a 32-bit accumulation into the 16-bit one's-complement sum.
uint16_t ChecksumFold(uint32_t sum);

// Byte-swaps a partial sum; needed when a partial sum is placed at an odd
// byte offset within the surrounding message.
uint32_t ChecksumSwap(uint32_t sum);

// LRU-bounded cache of per-slice partial checksums, in two flat arrays.
// Entries live in one array and are threaded on an index-linked LRU list.
// The index is open-addressed with linear probing, kept at most half full,
// and deletes by backward shift, so no tombstones build up. Each index slot
// holds an entry number and the key's 32-bit hash, so probes and shifts
// never re-hash a key. Both arrays grow with the contents, not with
// `capacity`. At capacity, a Store of a new key recycles the tail entry in
// place, so the steady state (one fresh header generation per
// transmission) runs without heap traffic.
class ChecksumCache {
 public:
  explicit ChecksumCache(size_t capacity = 65536) : capacity_(capacity) {}

  struct Key {
    uint64_t buffer_id;
    uint32_t generation;
    uint64_t offset;
    uint64_t length;
    bool operator==(const Key&) const = default;
  };

  // Returns true and sets *sum on a hit.
  bool Lookup(const Key& key, uint32_t* sum);
  void Store(const Key& key, uint32_t sum);

  size_t size() const { return entries_.size(); }
  size_t capacity() const { return capacity_; }
  void Clear();

 private:
  static constexpr uint32_t kNil = UINT32_MAX;

  struct Entry {
    Key key;
    uint32_t sum;
    uint32_t hash;
    uint32_t prev;  // Toward the most recently used end.
    uint32_t next;  // Toward the least recently used end.
  };

  struct Slot {
    uint32_t entry = kNil;  // kNil marks an empty slot.
    uint32_t hash = 0;
  };

  static uint32_t Hash(const Key& k);
  // The index slot holding `key`, or kNil.
  uint32_t Find(const Key& key, uint32_t hash) const;
  // Puts entry `e` in the first free slot of its probe run.
  void Insert(uint32_t e, uint32_t hash);
  // Empties slot `pos`, shifting later members of its run back into it.
  void Erase(uint32_t pos);
  void Unlink(uint32_t e);
  void PushFront(uint32_t e);
  // Makes `e` the most recently used entry.
  void Touch(uint32_t e);

  size_t capacity_;
  std::vector<Entry> entries_;
  std::vector<Slot> index_;  // Empty, or a power of two at least 2 x size().
  uint32_t head_ = kNil;     // Most recently used.
  uint32_t tail_ = kNil;     // Least recently used: the next victim.
};

// The checksum module used by the TCP send path. When a cache is attached,
// per-slice sums of *sealed, generation-stamped* buffers are cached; CPU
// cost is charged only for bytes actually summed.
class ChecksumModule {
 public:
  // `cache_entries` bounds the LRU cache (tests shrink it to reach the
  // at-capacity recycling steady state quickly).
  ChecksumModule(iolsim::SimContext* ctx, bool cache_enabled, size_t cache_entries = 65536)
      : ctx_(ctx), cache_enabled_(cache_enabled), cache_(cache_entries) {}

  // Computes the Internet checksum of the aggregate's contents.
  uint16_t Checksum(const iolite::Aggregate& agg);

  bool cache_enabled() const { return cache_enabled_; }
  void set_cache_enabled(bool enabled) { cache_enabled_ = enabled; }
  ChecksumCache& cache() { return cache_; }

 private:
  iolsim::SimContext* ctx_;
  bool cache_enabled_;
  ChecksumCache cache_;
};

}  // namespace iolnet

#endif  // SRC_NET_CHECKSUM_H_
