// ShmMap: fixed-capacity open-addressing hash map in shared memory — the
// cross-process cache directory of the data plane.
//
// Maps a 64-bit key (the plane uses FileIds) to a SliceDesc naming the
// cached payload plus a pin count. The pin count is the cross-process
// analogue of the in-process BufferRef: a proxy serving an object pins its
// entry so eviction cannot retire the payload while its bytes are still
// being read through another mapping; the final consumer unpins.
//
// Concurrency: linear probing over power-of-two slots; tombstones keep
// probe chains intact. Each slot's state (empty -> busy -> full, full ->
// tomb on erase) and pin count share one 64-bit word, changed by CAS.
//
// Every key has one writer — the plane routes each key to one home origin,
// and only that origin's mirror calls Upsert or Erase for it. Only a writer
// ever stores `busy`, and only from an unpinned full slot or a free (empty
// or tomb) one, for the few instructions that write the 48 bytes of key and
// value. Readers never lock: LookupAndPin moves the word from (full, p) to
// (full, p + 1) in one CAS, and Unpin is one fetch_sub. A pinned slot can be
// neither claimed nor rewritten, so a reader reads the value after it pins.
// A reader killed anywhere therefore leaves at most one pin behind (the
// plane's PinLedger sweeps those its workers recorded) and never a locked
// slot; a writer killed while it holds `busy` still wedges that slot.
//
// All layouts are ABI — scripts/shm_inspect.py walks the slot array to dump
// live cache metadata from outside the serving processes.

#ifndef SRC_IPC_SHM_MAP_H_
#define SRC_IPC_SHM_MAP_H_

#include <atomic>
#include <bit>
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
    char pad[40];                     // offset 24.
  };
  static_assert(sizeof(MapHeader) == 64, "map header layout is ABI");

  struct Slot {
    // offset 0: state (kEmpty/kBusy/kFull/kTomb) in the low 32 bits, pin
    // count in the high 32 — the u32 state at offset 0 and the i32 pins at
    // offset 4 on a little-endian host.
    std::atomic<uint64_t> word;
    // Atomic because probes read it before they pin; LookupAndPin re-checks
    // it once the pin holds the slot.
    std::atomic<uint64_t> key;    // offset 8.
    SliceDesc value;              // offset 16.
    char pad[16];
  };
  static_assert(sizeof(Slot) == 64, "map slot layout is ABI");
  static_assert(std::endian::native == std::endian::little,
                "Slot::word's halves sit at the state and pins ABI offsets");

  static constexpr uint32_t kEmpty = 0;
  static constexpr uint32_t kBusy = 1;
  static constexpr uint32_t kFull = 2;
  static constexpr uint32_t kTomb = 3;

  ShmMap() = default;

  // Carves header + slots and registers the span in `table` under `name`.
  // `capacity` must be a power of two.
  static ShmMap Create(ShmRegion* region, ShmTable* table, const char* name,
                       uint32_t capacity);
  static ShmMap Attach(const ShmTable& table, const char* name);

  bool valid() const { return header_ != nullptr; }
  uint32_t capacity() const { return header_->capacity; }
  uint32_t size() const { return header_->size.load(std::memory_order_acquire); }
  uint64_t bytes() const { return header_->bytes.load(std::memory_order_acquire); }

  // Writer: inserts key -> value (kInserted), or replaces an unpinned
  // entry's value in place (kReplaced) — a concurrent lookup sees the old
  // or the new value, never a miss. A pinned entry is left unchanged
  // (kPinned); kFull when the key is absent and no slot is free.
  enum class UpsertResult { kInserted, kReplaced, kPinned, kFull };
  UpsertResult Upsert(uint64_t key, const SliceDesc& value);

  // Writer: removes the entry unless a reader pins it (kPinned: left
  // unchanged).
  enum class EraseResult { kErased, kAbsent, kPinned };
  EraseResult Erase(uint64_t key);

  // Reader: pins the entry and reads its value — the entry cannot be
  // replaced or erased until Unpin.
  bool LookupAndPin(uint64_t key, SliceDesc* out);

  // Reader: drops one pin. False when the key is absent (callers treat that
  // as a bug in the plane: a pinned entry cannot be erased).
  bool Unpin(uint64_t key);

  // Current pin count of `key`; -1 when absent. (Diagnostics/tests.)
  int32_t PinsOf(uint64_t key) const;

 private:
  static constexpr uint32_t kMapMagic = 0x494f4c4d;  // "IOLM"
  static constexpr uint64_t kOnePin = uint64_t{1} << 32;

  static uint32_t StateOf(uint64_t word) { return static_cast<uint32_t>(word); }
  static uint64_t Mix(uint64_t key);  // splitmix64 finalizer.

  // Walks `key`'s probe chain, yielding while a writer holds a slot busy.
  // Returns the full slot holding `key`, with the word it was seen with in
  // *word, or null at the chain's end. `*free` (when non-null) receives the
  // chain's first tomb, else the empty slot that ended it, else null.
  Slot* Probe(uint64_t key, uint64_t* word, Slot** free) const;

  // Writer: claims the full slot `s`, last seen as `word`, unless a reader
  // pins it.
  static bool Claim(Slot* s, uint64_t word);

  Slot* slots() const {
    return reinterpret_cast<Slot*>(reinterpret_cast<char*>(header_) + sizeof(MapHeader));
  }

  MapHeader* header_ = nullptr;
  uint32_t mask_ = 0;
};

}  // namespace iolipc

#endif  // SRC_IPC_SHM_MAP_H_
