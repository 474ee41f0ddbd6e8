// Index-linked recency lists over small integer ids.
//
// The file system's LRU structures (the replacement policies, the
// per-tenant cache lists, the metadata buffer cache) all keep ids that are
// dense from 1: cache slots and file ids. IdLinks threads any number of
// disjoint doubly linked lists through one array indexed by id, so pushing,
// moving to the back and unlinking are O(1) with no node allocation, and
// tearing a list down frees one array.

#ifndef SRC_FS_ID_LIST_H_
#define SRC_FS_ID_LIST_H_

#include <cassert>
#include <cstdint>
#include <vector>

namespace iolfs {

class IdLinks {
 public:
  static constexpr uint32_t kNil = UINT32_MAX;

  // One list's ends. Front = least recently used.
  struct List {
    uint32_t head = kNil;
    uint32_t tail = kNil;
    bool empty() const { return head == kNil; }
  };

  bool Linked(uint32_t id) const { return id < links_.size() && links_[id].linked; }

  uint32_t Next(uint32_t id) const { return links_[id].next; }

  // Appends `id`, which must be on no list, as the most recent member.
  void PushBack(List& list, uint32_t id) {
    if (id >= links_.size()) {
      links_.resize(id + 1);
    }
    Link& l = links_[id];
    assert(!l.linked);
    l = Link{list.tail, kNil, true};
    (list.tail == kNil ? list.head : links_[list.tail].next) = id;
    list.tail = id;
  }

  // Unlinks `id` from `list`; a no-op when it is on no list.
  void Erase(List& list, uint32_t id) {
    if (!Linked(id)) {
      return;
    }
    Link& l = links_[id];
    (l.prev == kNil ? list.head : links_[l.prev].next) = l.next;
    (l.next == kNil ? list.tail : links_[l.next].prev) = l.prev;
    l.linked = false;
  }

  // Makes `id`, a member of `list`, its most recent member.
  void MoveToBack(List& list, uint32_t id) {
    assert(Linked(id));
    if (list.tail != id) {
      Erase(list, id);
      PushBack(list, id);
    }
  }

 private:
  struct Link {
    uint32_t prev = kNil;  // Toward the front.
    uint32_t next = kNil;  // Toward the back.
    bool linked = false;
  };

  std::vector<Link> links_;
};

}  // namespace iolfs

#endif  // SRC_FS_ID_LIST_H_
