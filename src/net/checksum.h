// Internet checksum (RFC 1071) and the IO-Lite checksum cache (Section 3.9).
//
// Because IO-Lite buffers are immutable and carry generation numbers, the
// pair (buffer id, generation) uniquely identifies buffer *contents*
// system-wide. The TCP/UDP checksum module exploits this: it caches the
// checksum computed for each slice of a buffer aggregate, and when the same
// slice is transmitted again the cached value is reused — eliminating the
// last data-touching operation on the static-content fast path.
//
// The model needs the cache's keys and CPU charges, not the sums: the
// send path (TcpConnection::SendAggregate) calls Charge, which looks each
// slice up, charges and counts exactly as summing it would, and stores a
// miss -- but a slice of a descriptor-backed buffer (buffer.h) is stored
// *lazily*, as the buffer's own descriptor (content seed and content
// offset, folded into one word by ContentOrigin), and no byte of it is
// generated or written. Only a reader forces
// a sum: Checksum, or the delivery check's SliceSum and PeekChecksum (see
// src/httpd/http_server.h). A forced lazy entry
// is summed from the stored descriptor, 4 KB of generated content at a
// time on the stack, and the sum is written back into the entry. Generated
// content is a pure function of (content seed, offset), and an immutable
// buffer's (id, generation) names one descriptor for its whole life, so the
// forced sum is exactly the sum of the bytes data() would write -- and a
// key that named the wrong contents still yields a wrong sum. Eager slices
// are summed when stored, as the bytes are already there. Laziness changes
// no simulated cost: keys, charges and counters are those of summing.
//
// Checksums are really computed over the bytes the buffers hold; partial
// sums are combined with correct odd-offset folding so the cached per-slice
// sums compose into the exact end-to-end checksum.

#ifndef SRC_NET_CHECKSUM_H_
#define SRC_NET_CHECKSUM_H_

#include <cstddef>
#include <cstdint>

#include "src/iolite/aggregate.h"
#include "src/simos/probe_table.h"
#include "src/simos/sim_context.h"
#include "src/simos/slot_pool.h"

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

// Folds a 32-bit accumulation into the 16-bit one's-complement sum.
uint16_t ChecksumFold(uint32_t sum);

// Byte-swaps a partial sum; needed when a partial sum is placed at an odd
// byte offset within the surrounding message.
uint32_t ChecksumSwap(uint32_t sum);

// LRU-bounded cache of per-slice partial checksums. Entries live in a
// SlotPool (slot_pool.h) and are threaded on an index-linked LRU list; the
// index is the one ProbeTable (probe_table.h), holding each entry's number
// under its key's 32-bit hash, so only an eviction hashes its victim's key
// again. An entry holds a sum, or a content descriptor whose sum is
// computed on the first read (see above).
//
// A slice that no lookup can ever name again (a one-shot buffer's, such as
// a response header: a fresh generation per transmission) takes an
// *anonymous* LRU position instead of an entry (StoreAnonymous). Each entry
// counts the anonymous positions between it and the next older entry, and
// one counter holds those newer than every entry. Taking an anonymous
// position, moving an entry to the front (its two neighbouring runs join)
// and evicting the oldest position (shorten the oldest run, or drop the
// tail entry) are O(1). So the hit, miss and eviction sequence and size()
// are exactly those of an LRU in which every such slice held an entry, yet
// only keys that can hit reach the pool and the index. Both grow with the
// entries, not with `capacity`; an evicted entry's slot is reused, so the
// at-capacity steady state runs without heap traffic.
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

  // Returns true and sets *sum on a hit, making the entry the most
  // recently used. A lazy entry's sum is computed and kept first.
  bool Lookup(const Key& key, uint32_t* sum);
  // Lookup without the recency update: reading a sum leaves the eviction
  // order, and so every later hit and miss, as it was.
  bool Peek(const Key& key, uint32_t* sum);
  // Makes `key`'s entry the most recently used without reading its sum;
  // false when absent.
  bool Touch(const Key& key);

  void Store(const Key& key, uint32_t sum);
  // Stores a lazy entry for a slice of a descriptor-backed buffer: bytes
  // [key.offset, key.offset + key.length) of the buffer whose byte 0 is
  // content byte `content_offset` for `content_seed`.
  void StoreDescribed(const Key& key, uint64_t content_seed, uint64_t content_offset);
  // Takes the most recently used position for a slice no lookup will name
  // again, evicting as a Store of a new key would.
  void StoreAnonymous();

  size_t size() const { return entries_.live() + anonymous_; }
  size_t capacity() const { return capacity_; }
  void Clear();

 private:
  static constexpr uint32_t kNil = UINT32_MAX;

  // The key's fields are stored flat, without Key's padding, so an entry
  // is 56 bytes.
  struct Entry {
    uint64_t buffer_id;
    uint64_t offset;
    uint64_t length;
    uint32_t generation;
    uint32_t sum;
    uint32_t prev;  // Toward the most recently used end.
    uint32_t next;  // Toward the least recently used end.
    // Anonymous positions between this entry and the next older one.
    uint32_t anonymous;
    // A lazy entry's descriptor folded into one word, ContentOrigin(content
    // seed, content offset) (dma_fill.h); 0 marks a known sum. A descriptor
    // that folds to 0 is summed when stored.
    uint64_t origin;
  };

  static Key KeyOf(const Entry& e) { return Key{e.buffer_id, e.generation, e.offset, e.length}; }

  static uint32_t Hash(const Key& k);
  // The index slot holding `key`'s entry number, or kNil.
  uint32_t Find(const Key& key, uint32_t hash) const;
  // The entry holding `key`, or kNil.
  uint32_t EntryOf(const Key& key) const;
  void Unlink(uint32_t e);
  void PushFront(uint32_t e);
  // Makes `e` the most recently used entry.
  void MoveToFront(uint32_t e);
  // Drops the least recently used position: an anonymous one, or else the
  // tail entry, whose slot returns to the pool. The cache must not be empty.
  void EvictOldest();
  // Entry `e`'s sum, computed from its descriptor first if lazy.
  uint32_t Force(uint32_t e);
  // The entry `key` is stored in: its own, or a new or recycled one at the
  // front. kNil when the cache holds nothing (capacity 0).
  uint32_t Place(const Key& key);

  size_t capacity_;
  iolsim::SlotPool<Entry> entries_;
  iolsim::ProbeTable<uint32_t> index_;  // Entry numbers by key hash.
  uint32_t head_ = kNil;     // Most recently used entry.
  uint32_t tail_ = kNil;     // Least recently used entry.
  size_t anonymous_ = 0;     // Anonymous positions.
  uint32_t head_anonymous_ = 0;  // Anonymous positions newer than head_.
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

  // The send path's checksum work for the aggregate: per slice, the cache
  // lookup, or the CPU charge, counters and cache store of a miss. A
  // described slice's bytes are neither generated nor written, with the
  // cache on or off; its entry stays lazy until read. A slice of a one-shot
  // buffer (buffer.h) is charged and counted as a miss without a lookup or
  // a sum, and takes an anonymous position; a generation charged twice
  // aborts in Debug, since the second charge would have hit.
  void Charge(const iolite::Aggregate& agg);

  // Charge, and the Internet checksum of the aggregate's contents: lazy
  // entries it hits are forced.
  uint16_t Checksum(const iolite::Aggregate& agg);

  // The partial sum (ChecksumAccumulate) of `s`'s bytes: the cached one,
  // forced if lazy, or else one computed now. Charges, counts and reorders
  // nothing, so a reader outside the send path leaves the run unchanged.
  uint32_t SliceSum(const iolite::Slice& s);

  // Checksum's value from SliceSum's per-slice sums: a reader's checksum,
  // charging, counting and reordering nothing.
  uint16_t PeekChecksum(const iolite::Aggregate& agg);

  bool cache_enabled() const { return cache_enabled_; }
  void set_cache_enabled(bool enabled) { cache_enabled_ = enabled; }
  ChecksumCache& cache() { return cache_; }

 private:
  // Charge's work for one slice. With `force`, returns the slice's partial
  // sum; otherwise returns 0 and sums no described bytes.
  uint32_t Account(const iolite::Slice& s, bool force);

  iolsim::SimContext* ctx_;
  bool cache_enabled_;
  ChecksumCache cache_;
};

}  // namespace iolnet

#endif  // SRC_NET_CHECKSUM_H_
