#include "src/fs/replacement_policy.h"

#include <cassert>

namespace iolfs {

namespace {

uint32_t Index(EntryId id) {
  assert(id != kNoEntry && id < IdLinks::kNil);
  return static_cast<uint32_t>(id);
}

}  // namespace

// --- PlainLruPolicy ---------------------------------------------------------

void PlainLruPolicy::OnInsert(EntryId id, size_t /*bytes*/) { links_.PushBack(lru_, Index(id)); }

void PlainLruPolicy::OnAccess(EntryId id) { links_.MoveToBack(lru_, Index(id)); }

void PlainLruPolicy::OnErase(EntryId id) { links_.Erase(lru_, Index(id)); }

EntryId PlainLruPolicy::ChooseVictim(const CacheView& /*view*/) {
  return lru_.empty() ? kNoEntry : lru_.head;
}

// --- PaperLruPolicy ---------------------------------------------------------

EntryId PaperLruPolicy::ChooseVictim(const CacheView& view) {
  // Least recently used among currently unreferenced entries...
  for (uint32_t id = lru_.head; id != IdLinks::kNil; id = links_.Next(id)) {
    if (!view.IsReferenced(id)) {
      return id;
    }
  }
  // ...else least recently used among the referenced entries.
  return lru_.empty() ? kNoEntry : lru_.head;
}

// --- GreedyDualSizePolicy ---------------------------------------------------

double GreedyDualSizePolicy::PriorityFor(size_t bytes) const {
  // H = L + cost/size with cost = 1; larger objects get lower priority.
  return inflation_ + 1.0 / static_cast<double>(bytes == 0 ? 1 : bytes);
}

void GreedyDualSizePolicy::Put(size_t i, const Node& node) {
  heap_[i] = node;
  meta_[node.id].pos = static_cast<uint32_t>(i);
}

void GreedyDualSizePolicy::Fix(size_t i) {
  const Node node = heap_[i];
  // Up while it precedes its parent...
  while (i > 0 && Before(node, heap_[(i - 1) / 4])) {
    Put(i, heap_[(i - 1) / 4]);
    i = (i - 1) / 4;
  }
  // ...then down while a child precedes it.
  for (;;) {
    const size_t first = 4 * i + 1;
    if (first >= heap_.size()) {
      break;
    }
    size_t best = first;
    const size_t end = first + 4 < heap_.size() ? first + 4 : heap_.size();
    for (size_t c = first + 1; c < end; ++c) {
      if (Before(heap_[c], heap_[best])) {
        best = c;
      }
    }
    if (!Before(heap_[best], node)) {
      break;
    }
    Put(i, heap_[best]);
    i = best;
  }
  Put(i, node);
}

void GreedyDualSizePolicy::OnInsert(EntryId id, size_t bytes) {
  const uint32_t index = Index(id);
  if (index >= meta_.size()) {
    meta_.resize(index + 1);
  }
  assert(meta_[index].pos == kAbsent);
  meta_[index].bytes = bytes;
  heap_.push_back(Node{PriorityFor(bytes), next_seq_++, index});
  Fix(heap_.size() - 1);
}

void GreedyDualSizePolicy::OnAccess(EntryId id) {
  const Meta& meta = meta_[Index(id)];
  assert(meta.pos != kAbsent);
  heap_[meta.pos].priority = PriorityFor(meta.bytes);
  Fix(meta.pos);
}

void GreedyDualSizePolicy::OnErase(EntryId id) {
  const uint32_t index = Index(id);
  if (index >= meta_.size() || meta_[index].pos == kAbsent) {
    return;
  }
  const uint32_t pos = meta_[index].pos;
  meta_[index].pos = kAbsent;
  const Node last = heap_.back();
  heap_.pop_back();
  if (pos < heap_.size()) {
    Put(pos, last);
    Fix(pos);
  }
}

EntryId GreedyDualSizePolicy::ChooseVictim(const CacheView& /*view*/) {
  if (heap_.empty()) {
    return kNoEntry;
  }
  // Aging: L rises to the evicted priority, so recently-touched entries
  // outrank long-idle ones regardless of size.
  inflation_ = heap_.front().priority;
  return heap_.front().id;
}

}  // namespace iolfs
