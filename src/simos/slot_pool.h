// SlotPool: the one recycling mechanism for state that outlives a
// pipeline stage.
//
// IO-Lite recycles its buffers through pools so that steady-state I/O
// allocates nothing (Section 3). The simulator's per-request state — event
// callbacks, chained acquisitions, transmissions, pending disk reads, CGI
// bodies, proxy tasks, fair-queue nodes, and file-cache and checksum-cache
// entries — rides in SlotPools the same way: a stage parks its state in a
// slot, carries the slot's index in its continuation, and releases it when
// the state is consumed. The caches find their slots by key through the
// one ProbeTable (probe_table.h).
//
// The contract every user relies on:
//   * indices are dense from 0;
//   * Acquire returns the most recently released index (LIFO), or else a
//     new one at size();
//   * the pool never resets an element: a reused slot holds whatever its
//     last user left there, and callers reset what they need;
//   * size() is the high-water mark — released slots stay addressable;
//   * Clear() empties the pool;
//   * once the pool is at its high-water mark it never allocates: the free
//     stack's capacity grows along with the slots.
//
// `Storage` is the slot container: std::vector by default, or std::deque
// for slots whose addresses must survive growth.

#ifndef SRC_SIMOS_SLOT_POOL_H_
#define SRC_SIMOS_SLOT_POOL_H_

#include <cassert>
#include <cstdint>
#include <vector>

namespace iolsim {

template <typename T, typename Storage = std::vector<T>>
class SlotPool {
 public:
  uint32_t Acquire() {
    if (!free_.empty()) {
      uint32_t idx = free_.back();
      free_.pop_back();
      return idx;
    }
    uint32_t idx = size();
    slots_.emplace_back();
    if (free_.capacity() < slots_.size()) {
      free_.reserve(2 * slots_.size());
    }
    return idx;
  }

  // Returns `idx` to the pool; its element is left as it is.
  void Release(uint32_t idx) {
    assert(idx < slots_.size() && free_.size() < slots_.size());
    free_.push_back(idx);
  }

  T& operator[](uint32_t idx) { return slots_[idx]; }
  const T& operator[](uint32_t idx) const { return slots_[idx]; }

  uint32_t size() const { return static_cast<uint32_t>(slots_.size()); }
  // Slots acquired and not yet released.
  uint32_t live() const { return size() - static_cast<uint32_t>(free_.size()); }

  void Clear() {
    slots_.clear();
    free_.clear();
  }

 private:
  Storage slots_;
  std::vector<uint32_t> free_;  // Released indices, most recent last.
};

}  // namespace iolsim

#endif  // SRC_SIMOS_SLOT_POOL_H_
