// Cache replacement policies for the unified IO-Lite file cache
// (Section 3.7 and 5.6).
//
// Three policies are provided:
//  * PaperLruPolicy — the strategy of Section 3.7: entries are ordered first
//    by current use (is anything other than the cache referencing the
//    buffers?), then by time of last read/write access; the victim is the
//    least-recently-used among currently *unreferenced* entries, else the
//    least-recently-used among referenced entries.
//  * PlainLruPolicy — classic LRU, used in the Figure 11 ablation.
//  * GreedyDualSizePolicy — GDS(1) [Cao & Irani 1997], the policy Flash-Lite
//    installs through IO-Lite's application-specific customization hook;
//    favours keeping small/cheap-to-miss documents.
//
// Policies see entries as opaque ids plus sizes; the cache supplies a view
// for the "currently referenced" predicate.

#ifndef SRC_FS_REPLACEMENT_POLICY_H_
#define SRC_FS_REPLACEMENT_POLICY_H_

#include <cstdint>
#include <list>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>

#include "src/simos/pool_allocator.h"

namespace iolfs {

using EntryId = uint64_t;
constexpr EntryId kNoEntry = 0;

// What a policy may ask the cache about an entry.
class CacheView {
 public:
  virtual ~CacheView() = default;
  // True if any buffer of the entry is referenced outside the cache.
  virtual bool IsReferenced(EntryId id) const = 0;
};

class ReplacementPolicy {
 public:
  virtual ~ReplacementPolicy() = default;
  virtual const char* name() const = 0;

  virtual void OnInsert(EntryId id, size_t bytes) = 0;
  virtual void OnAccess(EntryId id) = 0;
  virtual void OnErase(EntryId id) = 0;

  // Picks the entry to evict, or kNoEntry if the policy tracks nothing.
  virtual EntryId ChooseVictim(const CacheView& view) = 0;
};

// Section 3.7 policy.
class PaperLruPolicy : public ReplacementPolicy {
 public:
  const char* name() const override { return "paper-lru"; }
  void OnInsert(EntryId id, size_t bytes) override;
  void OnAccess(EntryId id) override;
  void OnErase(EntryId id) override;
  EntryId ChooseVictim(const CacheView& view) override;

 private:
  // Front = least recently used. Pool-allocated nodes: insert/erase churn
  // (cache misses, evictions) recycles instead of hitting the heap.
  using LruList = std::list<EntryId, iolsim::PoolAllocator<EntryId>>;
  LruList lru_;
  std::unordered_map<EntryId, LruList::iterator, std::hash<EntryId>, std::equal_to<EntryId>,
                     iolsim::PoolAllocator<std::pair<const EntryId, LruList::iterator>>>
      index_;
};

// Classic LRU ignoring the reference state.
class PlainLruPolicy : public ReplacementPolicy {
 public:
  const char* name() const override { return "lru"; }
  void OnInsert(EntryId id, size_t bytes) override;
  void OnAccess(EntryId id) override;
  void OnErase(EntryId id) override;
  EntryId ChooseVictim(const CacheView& view) override;

 private:
  using LruList = std::list<EntryId, iolsim::PoolAllocator<EntryId>>;
  LruList lru_;
  std::unordered_map<EntryId, LruList::iterator, std::hash<EntryId>, std::equal_to<EntryId>,
                     iolsim::PoolAllocator<std::pair<const EntryId, LruList::iterator>>>
      index_;
};

// Greedy Dual Size with uniform miss cost (GDS(1)).
class GreedyDualSizePolicy : public ReplacementPolicy {
 public:
  const char* name() const override { return "gds"; }
  void OnInsert(EntryId id, size_t bytes) override;
  void OnAccess(EntryId id) override;
  void OnErase(EntryId id) override;
  EntryId ChooseVictim(const CacheView& view) override;

  double inflation() const { return inflation_; }

 private:
  double PriorityFor(size_t bytes) const;

  struct Meta {
    double priority;
    size_t bytes;
  };
  double inflation_ = 0.0;  // The "L" value.
  // Pool-allocated: every access re-keys the entry (erase + insert on
  // queue_), which is warm-path churn for Flash-Lite's cache hits.
  std::set<std::pair<double, EntryId>, std::less<std::pair<double, EntryId>>,
           iolsim::PoolAllocator<std::pair<double, EntryId>>>
      queue_;
  std::unordered_map<EntryId, Meta, std::hash<EntryId>, std::equal_to<EntryId>,
                     iolsim::PoolAllocator<std::pair<const EntryId, Meta>>>
      meta_;
};

}  // namespace iolfs

#endif  // SRC_FS_REPLACEMENT_POLICY_H_
