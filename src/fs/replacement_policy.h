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
// for the "currently referenced" predicate. Ids are small integers the
// cache recycles (its slot numbers, from 1), so every policy keeps its
// per-entry state in arrays indexed by id: an index-linked list for the
// two LRUs (src/fs/id_list.h) and an indexed 4-ary min-heap for GDS. No
// policy allocates per operation once its arrays have grown to the
// cache's largest entry count.
//
// GDS orders entries by (H, insertion sequence), the sequence counting
// OnInsert calls: ties on H go to the entry inserted first, whatever id it
// holds. Over ids that rise with every insert and are never reused, that
// is the same total order as (H, id), so reusing ids does not change the
// victim sequence.

#ifndef SRC_FS_REPLACEMENT_POLICY_H_
#define SRC_FS_REPLACEMENT_POLICY_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/fs/id_list.h"

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

// Classic LRU ignoring the reference state.
class PlainLruPolicy : public ReplacementPolicy {
 public:
  const char* name() const override { return "lru"; }
  void OnInsert(EntryId id, size_t bytes) override;
  void OnAccess(EntryId id) override;
  void OnErase(EntryId id) override;
  EntryId ChooseVictim(const CacheView& view) override;

 protected:
  IdLinks links_;
  IdLinks::List lru_;  // Front = least recently used.
};

// Section 3.7 policy: the same recency list, scanned for the oldest
// unreferenced entry.
class PaperLruPolicy : public PlainLruPolicy {
 public:
  const char* name() const override { return "paper-lru"; }
  EntryId ChooseVictim(const CacheView& view) override;
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
  static constexpr uint32_t kAbsent = UINT32_MAX;

  struct Node {
    double priority;  // H.
    uint64_t seq;     // Insertion sequence: breaks ties on H.
    uint32_t id;
  };

  struct Meta {
    uint32_t pos = kAbsent;  // Index into heap_, or kAbsent.
    size_t bytes = 0;
  };

  static bool Before(const Node& a, const Node& b) {
    return a.priority < b.priority || (a.priority == b.priority && a.seq < b.seq);
  }

  double PriorityFor(size_t bytes) const;
  // Writes `node` at heap index `i` and records its position.
  void Put(size_t i, const Node& node);
  // Restores heap order around index `i` after its node changed.
  void Fix(size_t i);

  double inflation_ = 0.0;  // The "L" value.
  uint64_t next_seq_ = 0;
  std::vector<Node> heap_;  // 4-ary min-heap on (priority, seq).
  std::vector<Meta> meta_;  // Indexed by id.
};

}  // namespace iolfs

#endif  // SRC_FS_REPLACEMENT_POLICY_H_
