// ShmMap: fixed-capacity open-addressing hash map in shared memory — the
// cross-process cache directory of the data plane.
//
// Maps a 64-bit key (the plane uses FileIds) to a SliceDesc naming the
// cached payload plus a pin count. The pin count is the cross-process
// analogue of the in-process BufferRef: a proxy serving an object pins its
// entry so eviction cannot retire the payload while its bytes are still
// being read through another mapping; the final consumer unpins.
//
// Concurrency: linear probing over power-of-two slots. Each slot has a
// one-word state machine (empty -> busy -> full, full -> tomb on erase)
// driven by CAS; `busy` doubles as a per-slot spinlock held for the few
// instructions that read or write the 48 bytes of slot payload, so readers
// never observe a half-written value. Tombstones keep probe chains intact.
//
// Two processes racing to insert the same key can both succeed into
// different slots (the claim-then-publish window); lookups then consistently
// find the probe-earlier copy and the loser's payload merely wastes region
// bytes. The plane's miss-fill futures make that window rare (one fill per
// key in flight per proxy worker); the map does not try to close it.
//
// All layouts are ABI — scripts/shm_inspect.py walks the slot array to dump
// live cache metadata from outside the serving processes.

#ifndef SRC_IPC_SHM_MAP_H_
#define SRC_IPC_SHM_MAP_H_

#include <atomic>
#include <cstdint>

#include "src/ipc/shm_region.h"
#include "src/ipc/shm_table.h"
#include "src/ipc/slice_desc.h"

namespace iolipc {

class ShmMap {
 public:
  // At the map's base; 64 bytes. Layout is ABI.
  struct MapHeader {
    uint32_t magic;                   // offset 0: kMapMagic.
    uint32_t capacity;                // offset 4: slots, power of two.
    std::atomic<uint32_t> size;       // offset 8: live entries.
    std::atomic<uint32_t> tombstones; // offset 12.
    std::atomic<uint64_t> bytes;      // offset 16: sum of value lengths.
    std::atomic<uint64_t> clock_hand; // offset 24: eviction scan cursor.
    char pad[32];
  };
  static_assert(sizeof(MapHeader) == 64, "map header layout is ABI");

  struct Slot {
    std::atomic<uint32_t> state;  // offset 0: kEmpty/kBusy/kFull/kTomb.
    std::atomic<int32_t> pins;    // offset 4.
    // Atomic because probes read it before taking the slot lock; the
    // value is re-checked under the lock.
    std::atomic<uint64_t> key;    // offset 8.
    SliceDesc value;              // offset 16.
    char pad[16];
  };
  static_assert(sizeof(Slot) == 64, "map slot layout is ABI");

  static constexpr uint32_t kEmpty = 0;
  static constexpr uint32_t kBusy = 1;
  static constexpr uint32_t kFull = 2;
  static constexpr uint32_t kTomb = 3;

  ShmMap() = default;

  // Carves header + slots and registers the span in `table` under `name`.
  // `capacity` must be a power of two.
  static ShmMap Create(ShmRegion* region, ShmTable* table, const char* name,
                       uint32_t capacity);
  static ShmMap Attach(ShmRegion* region, const ShmTable& table, const char* name);

  bool valid() const { return header_ != nullptr; }
  uint32_t capacity() const { return header_->capacity; }
  uint32_t size() const { return header_->size.load(std::memory_order_acquire); }
  uint64_t bytes() const { return header_->bytes.load(std::memory_order_acquire); }

  // Inserts key -> value. kExists when the key was already present (the
  // existing value wins), kFull when no slot is free.
  enum class InsertResult { kInserted, kExists, kFull, kReplaced, kPinned };
  InsertResult Insert(uint64_t key, const SliceDesc& value);

  // Insert, except that an existing unpinned entry has its value replaced
  // in place under the slot lock (kReplaced): a concurrent lookup sees the
  // old or the new value, never a miss. A pinned entry is left unchanged
  // (kPinned).
  InsertResult Upsert(uint64_t key, const SliceDesc& value);

  // Reads the value without touching the pin count.
  bool Lookup(uint64_t key, SliceDesc* out) const;

  // Reads the value and increments the entry's pin count under the slot
  // lock — the entry cannot be evicted or erased until Unpin.
  bool LookupAndPin(uint64_t key, SliceDesc* out);

  // Drops one pin. False when the key is absent (e.g. already erased by a
  // racing InvalidateFile — callers treat that as a bug in the plane).
  bool Unpin(uint64_t key);

  // Removes the entry unless pinned. False when absent or pinned.
  bool Erase(uint64_t key);

  // Compare-and-erase: removes the entry only while its value still names
  // `expected`'s payload (same offset and length) and nobody pins it. An
  // entry that names another payload is left alone (kOther), pinned or not:
  // with several publishers per key, each removes only what it published.
  enum class EraseResult { kErased, kAbsent, kPinned, kOther };
  EraseResult EraseIfValue(uint64_t key, const SliceDesc& expected);

  // Clock-scan eviction: tombstones the first unpinned entry at or after
  // the shared clock hand. Reports what was evicted so the caller can
  // release the payload. False when every entry is pinned (or the map is
  // empty).
  bool EvictOne(uint64_t* evicted_key, SliceDesc* evicted_value);

  // Current pin count of `key`; -1 when absent. (Diagnostics/tests.)
  int32_t PinsOf(uint64_t key) const;

 private:
  static constexpr uint32_t kMapMagic = 0x494f4c4d;  // "IOLM"

  static uint64_t Mix(uint64_t key);  // splitmix64 finalizer.

  // Erase and EraseIfValue; a null `expected` matches any value.
  EraseResult EraseMatching(uint64_t key, const SliceDesc* expected);

  Slot* slots() const {
    return reinterpret_cast<Slot*>(reinterpret_cast<char*>(header_) + sizeof(MapHeader));
  }

  ShmRegion* region_ = nullptr;
  MapHeader* header_ = nullptr;
  uint32_t mask_ = 0;
};

}  // namespace iolipc

#endif  // SRC_IPC_SHM_MAP_H_
