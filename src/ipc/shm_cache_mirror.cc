#include "src/ipc/shm_cache_mirror.h"

#include "src/ipc/slice_desc.h"

namespace iolipc {

void ShmCacheMirror::OnInsert(iolfs::FileId file, uint64_t offset,
                              const iolite::Aggregate& data) {
  const iolite::Slice* s = data.slice_count() == 1 ? &data.slices()[0] : nullptr;
  if (offset != 0 || s == nullptr || !region_->Contains(s->data(), s->length())) {
    // Partial, multi-slice or heap-backed: not addressable by other processes.
    ++skipped_;
    DrainDeferred();
    return;
  }
  SliceDesc d{};
  d.offset = region_->OffsetOf(s->data());
  d.length = s->length();
  d.flags = kFrameEnd;
  // Re-insert semantics: a write replaced the entry, so the old mapping (if
  // any) must not win. While a foreign pin blocks the replacement the stale
  // value persists — the payload it names is still valid bytes
  // (immutability), just superseded.
  ApplyOrDefer(Update{static_cast<uint64_t>(file), false, d, s->buffer()});
}

void ShmCacheMirror::OnErase(iolfs::FileId file, uint64_t offset, size_t length) {
  (void)offset;
  (void)length;
  ApplyOrDefer(Update{static_cast<uint64_t>(file), true, SliceDesc{}, {}});
}

void ShmCacheMirror::ApplyOrDefer(const Update& u) {
  // A parked update of the same key is superseded; draining it first could
  // briefly remove the key.
  std::erase_if(deferred_, [&u](const Update& d) { return d.key == u.key; });
  DrainDeferred();
  if (!TryApply(u)) {
    deferred_.push_back(u);
  }
}

bool ShmCacheMirror::TryApply(const Update& u) {
  if (u.erase) {
    auto it = published_.find(u.key);
    if (it == published_.end()) {
      return true;  // Nothing of ours is mapped under this key.
    }
    if (map_->EraseIfValue(u.key, it->second.value) == ShmMap::EraseResult::kPinned) {
      return false;
    }
    published_.erase(it);
    return true;
  }
  ShmMap::InsertResult r = map_->Upsert(u.key, u.value);
  if (r == ShmMap::InsertResult::kPinned) {
    return false;
  }
  if (r == ShmMap::InsertResult::kInserted || r == ShmMap::InsertResult::kReplaced) {
    published_[u.key] = Published{u.value, u.buffer};
  }
  return true;
}

void ShmCacheMirror::DrainDeferred() {
  std::erase_if(deferred_, [this](const Update& u) { return TryApply(u); });
}

}  // namespace iolipc
