// ProbeTable: the one open-addressed index under the caches.
//
// The checksum cache finds an entry by its slice key (Section 3.9) and the
// file cache counts its references per buffer (Sections 3.5 and 3.7) through
// this table. A caller supplies a key's 32-bit hash and a predicate that
// recognises the key in a stored value; the table owns the probing:
//   * linear probing over a power-of-two array kept at most half full;
//   * every slot keeps its value's hash, so growth and shifts never call
//     back into the caller to hash a key again;
//   * the array doubles when an insert would pass half full;
//   * Erase shifts later members of the probe run back into the hole
//     (backward shift), so no tombstones build up.
// Slot positions are internal: an insert or erase may move any value, so a
// position from Find is good only until the next Insert or Erase.

#ifndef SRC_SIMOS_PROBE_TABLE_H_
#define SRC_SIMOS_PROBE_TABLE_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace iolsim {

template <typename V>
class ProbeTable {
 public:
  static constexpr uint32_t kNone = UINT32_MAX;

  // The slot holding the value stored under `hash` that `match(value)`
  // accepts, or kNone.
  template <typename Match>
  uint32_t Find(uint32_t hash, Match&& match) const {
    if (slots_.empty()) {
      return kNone;
    }
    const uint32_t tag = hash | kOccupied;
    const uint32_t mask = Mask();
    for (uint32_t pos = hash & mask;; pos = (pos + 1) & mask) {
      const Slot& slot = slots_[pos];
      if (slot.tag == 0) {
        return kNone;
      }
      if (slot.tag == tag && match(slot.value)) {
        return pos;
      }
    }
  }

  V& at(uint32_t pos) { return slots_[pos].value; }
  const V& at(uint32_t pos) const { return slots_[pos].value; }

  // Stores `value` under `hash`; the caller has made sure its key is absent.
  V& Insert(uint32_t hash, const V& value) {
    if (2 * (size_ + 1) > slots_.size()) {
      Grow();
    }
    ++size_;
    return Place(Slot{hash | kOccupied, value});
  }

  // Empties slot `pos` (from Find), shifting later members of its probe run
  // back into the hole.
  void Erase(uint32_t pos) {
    assert(pos < slots_.size() && slots_[pos].tag != 0);
    // A later member may move into the hole only if its home does not lie
    // cyclically within (hole, member]: otherwise a probe from its home
    // would stop at the hole.
    const uint32_t mask = Mask();
    uint32_t hole = pos;
    for (uint32_t next = (hole + 1) & mask; slots_[next].tag != 0; next = (next + 1) & mask) {
      uint32_t home = slots_[next].tag & mask;
      if (((next - home) & mask) >= ((next - hole) & mask)) {
        slots_[hole] = slots_[next];
        hole = next;
      }
    }
    slots_[hole] = Slot{};
    --size_;
  }

  size_t size() const { return size_; }
  // Slots in the array: 0, or a power of two at least twice size().
  size_t capacity() const { return slots_.size(); }

  // Empties the table and keeps its array.
  void Clear() {
    slots_.assign(slots_.size(), Slot{});
    size_ = 0;
  }

 private:
  // Set in every stored tag, so 0 marks an empty slot; homes use only the
  // low bits, which an array of at most 2^31 slots leaves untouched.
  static constexpr uint32_t kOccupied = 0x80000000u;

  struct Slot {
    uint32_t tag = 0;  // The value's hash with kOccupied set.
    V value{};
  };

  uint32_t Mask() const { return static_cast<uint32_t>(slots_.size() - 1); }

  // Puts `slot` in the first empty slot of its probe run.
  V& Place(const Slot& slot) {
    const uint32_t mask = Mask();
    uint32_t pos = slot.tag & mask;
    while (slots_[pos].tag != 0) {
      pos = (pos + 1) & mask;
    }
    slots_[pos] = slot;
    return slots_[pos].value;
  }

  // Doubles the array and re-seats every value from its stored hash.
  void Grow() {
    std::vector<Slot> old(slots_.empty() ? 16 : 2 * slots_.size());
    old.swap(slots_);
    for (const Slot& slot : old) {
      if (slot.tag != 0) {
        Place(slot);
      }
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
};

}  // namespace iolsim

#endif  // SRC_SIMOS_PROBE_TABLE_H_
