#include "src/ipc/shm_map.h"

#include <sched.h>

#include <cassert>
#include <cstring>

namespace iolipc {

uint64_t ShmMap::Mix(uint64_t key) {
  // splitmix64 finalizer: full-avalanche over sequential FileId keys.
  uint64_t x = key + 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

ShmMap ShmMap::Create(ShmRegion* region, ShmTable* table, const char* name,
                      uint32_t capacity) {
  assert(capacity >= 2 && (capacity & (capacity - 1)) == 0 && "capacity must be 2^k");
  size_t span = sizeof(MapHeader) + static_cast<size_t>(capacity) * sizeof(Slot);
  char* base = region->AllocateExtent(span);
  ShmMap map;
  if (base == nullptr) {
    return map;
  }
  std::memset(base, 0, span);
  map.header_ = reinterpret_cast<MapHeader*>(base);
  map.mask_ = capacity - 1;
  map.header_->capacity = capacity;
  std::atomic_thread_fence(std::memory_order_release);
  map.header_->magic = kMapMagic;
  if (table != nullptr &&
      !table->Publish(name, region->OffsetOf(base), span, ShmType::kMap)) {
    return ShmMap{};
  }
  return map;
}

ShmMap ShmMap::Attach(const ShmTable& table, const char* name) {
  ShmMap map;
  uint64_t span = 0;
  auto* header = reinterpret_cast<MapHeader*>(
      table.Locate(name, ShmType::kMap, sizeof(MapHeader), &span));
  if (header == nullptr || header->magic != kMapMagic || header->capacity == 0 ||
      (header->capacity & (header->capacity - 1)) != 0 ||
      sizeof(MapHeader) + uint64_t{header->capacity} * sizeof(Slot) > span) {
    return map;
  }
  map.header_ = header;
  map.mask_ = header->capacity - 1;
  return map;
}

ShmMap::Slot* ShmMap::Probe(uint64_t key, uint64_t* word, Slot** free) const {
  if (free != nullptr) {
    *free = nullptr;
  }
  uint32_t start = static_cast<uint32_t>(Mix(key)) & mask_;
  for (uint32_t i = 0; i <= mask_; ++i) {
    Slot* s = &slots()[(start + i) & mask_];
    uint64_t w = s->word.load(std::memory_order_acquire);
    while (StateOf(w) == kBusy) {
      sched_yield();  // A writer holds the slot for a few instructions.
      w = s->word.load(std::memory_order_acquire);
    }
    if (StateOf(w) == kFull) {
      if (s->key.load(std::memory_order_relaxed) == key) {
        *word = w;
        return s;
      }
      continue;
    }
    if (free != nullptr && *free == nullptr) {
      *free = s;
    }
    if (StateOf(w) == kEmpty) {
      return nullptr;  // Probe chains end at the first never-used slot.
    }
  }
  return nullptr;
}

bool ShmMap::Claim(Slot* s, uint64_t word) {
  // Under its one writer a full slot's word moves only with its pin count.
  do {
    assert(StateOf(word) == kFull && "a key has one writer");
    if (word != kFull) {
      return false;  // A reader pins it.
    }
  } while (!s->word.compare_exchange_weak(word, kBusy, std::memory_order_acquire,
                                          std::memory_order_relaxed));
  return true;
}

ShmMap::UpsertResult ShmMap::Upsert(uint64_t key, const SliceDesc& value) {
  for (;;) {
    uint64_t word = 0;
    Slot* free = nullptr;
    Slot* s = Probe(key, &word, &free);
    if (s != nullptr) {
      if (!Claim(s, word)) {
        return UpsertResult::kPinned;
      }
      header_->bytes.fetch_sub(s->value.length, std::memory_order_relaxed);
      header_->bytes.fetch_add(value.length, std::memory_order_relaxed);
      s->value = value;
      s->word.store(kFull, std::memory_order_release);
      return UpsertResult::kReplaced;
    }
    if (free == nullptr) {
      return UpsertResult::kFull;
    }
    // The key stays absent (this is its one writer); only another key's
    // writer can take the free slot first, and then this one probes again.
    uint64_t seen = free->word.load(std::memory_order_relaxed);
    if ((seen != kEmpty && seen != kTomb) ||
        !free->word.compare_exchange_strong(seen, kBusy, std::memory_order_acquire,
                                            std::memory_order_relaxed)) {
      continue;
    }
    free->key.store(key, std::memory_order_relaxed);
    free->value = value;
    free->word.store(kFull, std::memory_order_release);
    header_->size.fetch_add(1, std::memory_order_release);
    header_->bytes.fetch_add(value.length, std::memory_order_relaxed);
    if (seen == kTomb) {
      header_->tombstones.fetch_sub(1, std::memory_order_relaxed);
    }
    return UpsertResult::kInserted;
  }
}

ShmMap::EraseResult ShmMap::Erase(uint64_t key) {
  uint64_t word = 0;
  Slot* s = Probe(key, &word, nullptr);
  if (s == nullptr) {
    return EraseResult::kAbsent;
  }
  if (!Claim(s, word)) {
    return EraseResult::kPinned;  // A reader still references the payload.
  }
  uint64_t len = s->value.length;
  s->word.store(kTomb, std::memory_order_release);
  header_->size.fetch_sub(1, std::memory_order_release);
  header_->bytes.fetch_sub(len, std::memory_order_relaxed);
  header_->tombstones.fetch_add(1, std::memory_order_relaxed);
  return EraseResult::kErased;
}

bool ShmMap::LookupAndPin(uint64_t key, SliceDesc* out) {
  for (;;) {
    uint64_t word = 0;
    Slot* s = Probe(key, &word, nullptr);
    if (s == nullptr) {
      return false;
    }
    // The pin lands only on a full slot; a writer's claim in between sends
    // the probe round again.
    while (StateOf(word) == kFull &&
           !s->word.compare_exchange_weak(word, word + kOnePin, std::memory_order_acquire,
                                          std::memory_order_relaxed)) {
    }
    if (StateOf(word) != kFull) {
      continue;
    }
    if (s->key.load(std::memory_order_relaxed) == key) {
      if (out != nullptr) {
        *out = s->value;  // No writer can claim the slot while it is pinned.
      }
      return true;
    }
    // Erased and reused for another key between the probe and the pin.
    s->word.fetch_sub(kOnePin, std::memory_order_release);
  }
}

bool ShmMap::Unpin(uint64_t key) {
  uint64_t word = 0;
  Slot* s = Probe(key, &word, nullptr);
  if (s == nullptr) {
    return false;
  }
  assert(word >= kOnePin && "unbalanced Unpin");
  s->word.fetch_sub(kOnePin, std::memory_order_release);
  return true;
}

int32_t ShmMap::PinsOf(uint64_t key) const {
  uint64_t word = 0;
  return Probe(key, &word, nullptr) != nullptr ? static_cast<int32_t>(word >> 32) : -1;
}

}  // namespace iolipc
