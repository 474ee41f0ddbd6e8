#include "src/ipc/shm_table.h"

#include <cassert>

namespace iolipc {

ShmTable ShmTable::Create(ShmRegion* region, uint32_t capacity) {
  assert(capacity > 0);
  assert(region->bytes_used() == 0 && "the table must be the region's first extent");
  size_t span = sizeof(TableHeader) + static_cast<size_t>(capacity) * sizeof(Entry);
  char* base = region->AllocateExtent(span);
  ShmTable table;
  if (base == nullptr) {
    return table;
  }
  assert(region->OffsetOf(base) == 0 && "the table must sit at payload offset 0");
  std::memset(base, 0, span);
  table.region_ = region;
  table.header_ = reinterpret_cast<TableHeader*>(base);
  table.header_->capacity = capacity;
  table.header_->count.store(0, std::memory_order_relaxed);
  // The magic is published last: an attacher that sees it sees a zeroed,
  // sized directory.
  std::atomic_thread_fence(std::memory_order_release);
  table.header_->magic = kTableMagic;
  return table;
}

ShmTable ShmTable::Attach(ShmRegion* region) {
  ShmTable table;
  if (region->size() < sizeof(TableHeader)) {
    return table;
  }
  auto* header = reinterpret_cast<TableHeader*>(region->At(0));
  if (header->magic != kTableMagic || header->capacity == 0 ||
      sizeof(TableHeader) + static_cast<size_t>(header->capacity) * sizeof(Entry) >
          region->size()) {
    return table;
  }
  table.region_ = region;
  table.header_ = header;
  return table;
}

size_t ShmTable::entry_count() const {
  uint32_t n = header_->count.load(std::memory_order_acquire);
  return n > header_->capacity ? header_->capacity : n;
}

bool ShmTable::Publish(const char* name, uint64_t offset, uint64_t size, ShmType type) {
  if (Find(name) != nullptr) {
    return false;
  }
  uint32_t idx = header_->count.fetch_add(1, std::memory_order_relaxed);
  if (idx >= header_->capacity) {
    // Leave the overshoot in `count`; entry_count clamps.
    return false;
  }
  Entry& e = entries()[idx];
  std::strncpy(e.name, name, kNameBytes - 1);
  e.name[kNameBytes - 1] = '\0';
  e.offset = offset;
  e.size = size;
  e.type = static_cast<uint32_t>(type);
  e.state.store(kEntryReady, std::memory_order_release);
  return true;
}

const ShmTable::Entry* ShmTable::Find(const char* name) const {
  size_t n = entry_count();
  for (size_t i = 0; i < n; ++i) {
    const Entry& e = entries()[i];
    if (e.state.load(std::memory_order_acquire) == kEntryReady &&
        std::strncmp(e.name, name, kNameBytes) == 0) {
      return &e;
    }
  }
  return nullptr;
}

char* ShmTable::Locate(const char* name, ShmType type, uint64_t min_bytes,
                       uint64_t* bytes) const {
  const Entry* e = Find(name);
  if (e == nullptr || e->type != static_cast<uint32_t>(type) || e->size < min_bytes ||
      e->offset > region_->size() || e->size > region_->size() - e->offset) {
    return nullptr;
  }
  if (bytes != nullptr) {
    *bytes = e->size;
  }
  return region_->At(e->offset);
}

}  // namespace iolipc
