// ShmTable: the named-structure directory of a shared region.
//
// zeroipc-style discovery: the table lives at a *fixed place* — payload
// offset 0, i.e. the region's first carved extent — so any process that can
// map the region can enumerate everything in it knowing only the region's
// name. Each entry names one structure (a queue, a map, a future pool, a
// counter block, or a raw span) by a NUL-terminated string and records its
// payload offset, byte size and type. Entries are published with a release
// store of their state word, so a concurrent attacher either sees a fully
// written entry or none.
//
// The table is append-only: structures are registered at plane construction
// and never removed, which keeps the directory lock-free and trivially
// parseable from outside (scripts/shm_inspect.py walks it with nothing but
// struct offsets — every layout below is ABI).

#ifndef SRC_IPC_SHM_TABLE_H_
#define SRC_IPC_SHM_TABLE_H_

#include <atomic>
#include <cstdint>
#include <cstring>

#include "src/ipc/shm_region.h"

namespace iolipc {

// What an entry points at. The inspector uses this to pick a decoder.
enum class ShmType : uint32_t {
  kRaw = 0,      // Uninterpreted span (slabs, doc-size arrays).
  kQueue = 1,    // MpmcQueue state + cells.
  kMap = 2,      // ShmMap header + slots.
  kFutures = 3,  // ShmFuturePool header + slots.
  kCounters = 4, // ShmCounters block.
};

class ShmTable {
 public:
  static constexpr size_t kNameBytes = 32;

  // One directory entry; 64 bytes, published via `state`.
  struct Entry {
    char name[kNameBytes];        // offset 0: NUL-terminated.
    uint64_t offset;              // offset 32: payload offset of the structure.
    uint64_t size;                // offset 40: bytes.
    uint32_t type;                // offset 48: ShmType.
    std::atomic<uint32_t> state;  // offset 52: 0 = empty, 2 = ready.
    uint64_t reserved;            // offset 56.
  };
  static_assert(sizeof(Entry) == 64, "table entry layout is ABI");

  ShmTable() = default;

  // Carves the directory as the region's FIRST extent (asserts nothing was
  // carved before it) so attachers find it at payload offset 0.
  static ShmTable Create(ShmRegion* region, uint32_t capacity);

  // Adopts the directory at payload offset 0. Invalid handle if the region
  // does not start with a table.
  static ShmTable Attach(ShmRegion* region);

  bool valid() const { return header_ != nullptr; }
  uint32_t capacity() const { return header_->capacity; }
  size_t entry_count() const;

  // Registers [offset, offset+size) under `name` (truncated to 31 chars).
  // Returns false when the directory is full or the name already exists.
  bool Publish(const char* name, uint64_t offset, uint64_t size, ShmType type);

  // Finds a published entry; null when absent.
  const Entry* Find(const char* name) const;

  // The mapped base of the published structure `name`, when its entry has
  // `type`, spans at least `min_bytes` and lies wholly inside the region;
  // null otherwise. `*bytes` (when non-null) receives the entry's size.
  // Every Attach resolves its structure here, so a corrupt directory entry
  // yields an invalid handle rather than a pointer outside the mapping.
  char* Locate(const char* name, ShmType type, uint64_t min_bytes, uint64_t* bytes) const;

 private:
  // At the table's base; 64 bytes. Layout is ABI.
  struct TableHeader {
    uint32_t magic;               // offset 0: kTableMagic.
    uint32_t capacity;            // offset 4.
    std::atomic<uint32_t> count;  // offset 8: claimed entries (monotone).
    uint32_t reserved;            // offset 12.
    char pad[48];
  };
  static_assert(sizeof(TableHeader) == 64, "table header layout is ABI");

  static constexpr uint32_t kTableMagic = 0x494f4c54;  // "IOLT"
  static constexpr uint32_t kEntryReady = 2;

  Entry* entries() const { return reinterpret_cast<Entry*>(
      reinterpret_cast<char*>(header_) + sizeof(TableHeader)); }

  ShmRegion* region_ = nullptr;
  TableHeader* header_ = nullptr;
};

}  // namespace iolipc

#endif  // SRC_IPC_SHM_TABLE_H_
