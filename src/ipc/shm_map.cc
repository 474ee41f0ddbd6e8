#include "src/ipc/shm_map.h"

#include <sched.h>

#include <cassert>
#include <cstring>

namespace iolipc {

namespace {

// Spin-locks a slot observed kFull (state -> kBusy). Returns false when the
// slot left kFull before the lock landed (erased/evicted under us).
bool LockFull(ShmMap::Slot* s) {
  uint32_t expected = ShmMap::kFull;
  while (!s->state.compare_exchange_weak(expected, ShmMap::kBusy,
                                         std::memory_order_acquire,
                                         std::memory_order_acquire)) {
    if (expected != ShmMap::kFull && expected != ShmMap::kBusy) {
      return false;
    }
    if (expected == ShmMap::kBusy) {
      sched_yield();  // Another mapper holds the slot for a few instructions.
    }
    expected = ShmMap::kFull;
  }
  return true;
}

}  // namespace

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
  map.region_ = region;
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

ShmMap ShmMap::Attach(ShmRegion* region, const ShmTable& table, const char* name) {
  ShmMap map;
  const ShmTable::Entry* e = table.Find(name);
  if (e == nullptr || e->type != static_cast<uint32_t>(ShmType::kMap)) {
    return map;
  }
  auto* header = reinterpret_cast<MapHeader*>(region->At(e->offset));
  if (header->magic != kMapMagic || header->capacity == 0 ||
      (header->capacity & (header->capacity - 1)) != 0) {
    return map;
  }
  map.region_ = region;
  map.header_ = header;
  map.mask_ = header->capacity - 1;
  return map;
}

ShmMap::InsertResult ShmMap::Insert(uint64_t key, const SliceDesc& value) {
  uint32_t start = static_cast<uint32_t>(Mix(key)) & mask_;
  // Pass 1: is the key already present? Probe chains end at the first
  // never-used slot; tombstones keep them intact.
  for (uint32_t i = 0; i <= mask_; ++i) {
    Slot& s = slots()[(start + i) & mask_];
    uint32_t st = s.state.load(std::memory_order_acquire);
    while (st == kBusy) {
      sched_yield();
      st = s.state.load(std::memory_order_acquire);
    }
    if (st == kEmpty) {
      break;
    }
    if (st == kFull && s.key.load(std::memory_order_relaxed) == key) {
      return InsertResult::kExists;
    }
  }
  // Pass 2: claim the first free (empty or tombstone) slot in the chain.
  for (uint32_t i = 0; i <= mask_; ++i) {
    Slot& s = slots()[(start + i) & mask_];
    uint32_t st = s.state.load(std::memory_order_acquire);
    if (st != kEmpty && st != kTomb) {
      continue;
    }
    if (!s.state.compare_exchange_strong(st, kBusy, std::memory_order_acquire)) {
      --i;  // Lost the claim (or the slot went busy); re-inspect this slot.
      sched_yield();
      continue;
    }
    bool reused_tomb = st == kTomb;
    s.key.store(key, std::memory_order_relaxed);
    s.value = value;
    s.pins.store(0, std::memory_order_relaxed);
    s.state.store(kFull, std::memory_order_release);
    header_->size.fetch_add(1, std::memory_order_release);
    header_->bytes.fetch_add(value.length, std::memory_order_relaxed);
    if (reused_tomb) {
      header_->tombstones.fetch_sub(1, std::memory_order_relaxed);
    }
    return InsertResult::kInserted;
  }
  return InsertResult::kFull;
}

ShmMap::InsertResult ShmMap::Upsert(uint64_t key, const SliceDesc& value) {
  uint32_t start = static_cast<uint32_t>(Mix(key)) & mask_;
  for (uint32_t i = 0; i <= mask_; ++i) {
    Slot& s = slots()[(start + i) & mask_];
    uint32_t st = s.state.load(std::memory_order_acquire);
    while (st == kBusy) {
      sched_yield();
      st = s.state.load(std::memory_order_acquire);
    }
    if (st == kEmpty) {
      break;
    }
    if (st == kFull && s.key.load(std::memory_order_relaxed) == key) {
      if (!LockFull(&s)) {
        break;  // Erased under us: insert afresh.
      }
      if (s.key.load(std::memory_order_relaxed) != key) {
        s.state.store(kFull, std::memory_order_release);
        continue;
      }
      if (s.pins.load(std::memory_order_relaxed) > 0) {
        s.state.store(kFull, std::memory_order_release);
        return InsertResult::kPinned;
      }
      header_->bytes.fetch_sub(s.value.length, std::memory_order_relaxed);
      header_->bytes.fetch_add(value.length, std::memory_order_relaxed);
      s.value = value;
      s.state.store(kFull, std::memory_order_release);
      return InsertResult::kReplaced;
    }
  }
  return Insert(key, value);
}

bool ShmMap::Lookup(uint64_t key, SliceDesc* out) const {
  uint32_t start = static_cast<uint32_t>(Mix(key)) & mask_;
  for (uint32_t i = 0; i <= mask_; ++i) {
    Slot& s = slots()[(start + i) & mask_];
    uint32_t st = s.state.load(std::memory_order_acquire);
    while (st == kBusy) {
      sched_yield();
      st = s.state.load(std::memory_order_acquire);
    }
    if (st == kEmpty) {
      return false;
    }
    if (st == kFull && s.key.load(std::memory_order_relaxed) == key) {
      if (!LockFull(&s)) {
        return false;  // Erased between the key check and the lock.
      }
      if (s.key.load(std::memory_order_relaxed) != key) {  // Tomb slot reused for another key meanwhile.
        s.state.store(kFull, std::memory_order_release);
        continue;
      }
      if (out != nullptr) {
        *out = s.value;
      }
      s.state.store(kFull, std::memory_order_release);
      return true;
    }
  }
  return false;
}

bool ShmMap::LookupAndPin(uint64_t key, SliceDesc* out) {
  uint32_t start = static_cast<uint32_t>(Mix(key)) & mask_;
  for (uint32_t i = 0; i <= mask_; ++i) {
    Slot& s = slots()[(start + i) & mask_];
    uint32_t st = s.state.load(std::memory_order_acquire);
    while (st == kBusy) {
      sched_yield();
      st = s.state.load(std::memory_order_acquire);
    }
    if (st == kEmpty) {
      return false;
    }
    if (st == kFull && s.key.load(std::memory_order_relaxed) == key) {
      if (!LockFull(&s)) {
        return false;
      }
      if (s.key.load(std::memory_order_relaxed) != key) {
        s.state.store(kFull, std::memory_order_release);
        continue;
      }
      s.pins.fetch_add(1, std::memory_order_relaxed);
      if (out != nullptr) {
        *out = s.value;
      }
      s.state.store(kFull, std::memory_order_release);
      return true;
    }
  }
  return false;
}

bool ShmMap::Unpin(uint64_t key) {
  uint32_t start = static_cast<uint32_t>(Mix(key)) & mask_;
  for (uint32_t i = 0; i <= mask_; ++i) {
    Slot& s = slots()[(start + i) & mask_];
    uint32_t st = s.state.load(std::memory_order_acquire);
    while (st == kBusy) {
      sched_yield();
      st = s.state.load(std::memory_order_acquire);
    }
    if (st == kEmpty) {
      return false;
    }
    if (st == kFull && s.key.load(std::memory_order_relaxed) == key) {
      if (!LockFull(&s)) {
        return false;
      }
      if (s.key.load(std::memory_order_relaxed) != key) {
        s.state.store(kFull, std::memory_order_release);
        continue;
      }
      assert(s.pins.load(std::memory_order_relaxed) > 0 && "unbalanced Unpin");
      s.pins.fetch_sub(1, std::memory_order_relaxed);
      s.state.store(kFull, std::memory_order_release);
      return true;
    }
  }
  return false;
}

bool ShmMap::Erase(uint64_t key) {
  return EraseMatching(key, nullptr) == EraseResult::kErased;
}

ShmMap::EraseResult ShmMap::EraseIfValue(uint64_t key, const SliceDesc& expected) {
  return EraseMatching(key, &expected);
}

ShmMap::EraseResult ShmMap::EraseMatching(uint64_t key, const SliceDesc* expected) {
  uint32_t start = static_cast<uint32_t>(Mix(key)) & mask_;
  for (uint32_t i = 0; i <= mask_; ++i) {
    Slot& s = slots()[(start + i) & mask_];
    uint32_t st = s.state.load(std::memory_order_acquire);
    while (st == kBusy) {
      sched_yield();
      st = s.state.load(std::memory_order_acquire);
    }
    if (st == kEmpty) {
      return EraseResult::kAbsent;
    }
    if (st == kFull && s.key.load(std::memory_order_relaxed) == key) {
      if (!LockFull(&s)) {
        return EraseResult::kAbsent;
      }
      if (s.key.load(std::memory_order_relaxed) != key) {
        s.state.store(kFull, std::memory_order_release);
        continue;
      }
      if (expected != nullptr && (s.value.offset != expected->offset ||
                                  s.value.length != expected->length)) {
        s.state.store(kFull, std::memory_order_release);
        return EraseResult::kOther;  // Another publisher's payload.
      }
      if (s.pins.load(std::memory_order_relaxed) > 0) {
        s.state.store(kFull, std::memory_order_release);
        return EraseResult::kPinned;  // A reader still references the payload.
      }
      uint64_t len = s.value.length;
      s.state.store(kTomb, std::memory_order_release);
      header_->size.fetch_sub(1, std::memory_order_release);
      header_->bytes.fetch_sub(len, std::memory_order_relaxed);
      header_->tombstones.fetch_add(1, std::memory_order_relaxed);
      return EraseResult::kErased;
    }
  }
  return EraseResult::kAbsent;
}

bool ShmMap::EvictOne(uint64_t* evicted_key, SliceDesc* evicted_value) {
  uint64_t hand = header_->clock_hand.load(std::memory_order_relaxed);
  for (uint32_t i = 0; i <= mask_; ++i) {
    uint32_t idx = static_cast<uint32_t>(hand + i) & mask_;
    Slot& s = slots()[idx];
    if (s.state.load(std::memory_order_acquire) != kFull) {
      continue;
    }
    if (!LockFull(&s)) {
      continue;
    }
    if (s.pins.load(std::memory_order_relaxed) > 0) {
      s.state.store(kFull, std::memory_order_release);
      continue;
    }
    if (evicted_key != nullptr) {
      *evicted_key = s.key.load(std::memory_order_relaxed);
    }
    if (evicted_value != nullptr) {
      *evicted_value = s.value;
    }
    uint64_t len = s.value.length;
    s.state.store(kTomb, std::memory_order_release);
    header_->size.fetch_sub(1, std::memory_order_release);
    header_->bytes.fetch_sub(len, std::memory_order_relaxed);
    header_->tombstones.fetch_add(1, std::memory_order_relaxed);
    header_->clock_hand.store(hand + i + 1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

int32_t ShmMap::PinsOf(uint64_t key) const {
  uint32_t start = static_cast<uint32_t>(Mix(key)) & mask_;
  for (uint32_t i = 0; i <= mask_; ++i) {
    Slot& s = slots()[(start + i) & mask_];
    uint32_t st = s.state.load(std::memory_order_acquire);
    if (st == kEmpty) {
      return -1;
    }
    if ((st == kFull || st == kBusy) && s.key.load(std::memory_order_relaxed) == key) {
      return s.pins.load(std::memory_order_relaxed);
    }
  }
  return -1;
}

}  // namespace iolipc
