// Block arena: a buffer pool's slice of the IO-Lite window (Sections 3.2,
// 3.3 and 4.5).
//
// In IO-Lite a pool gets its storage by carving 64 KB chunks out of the
// window, which costs almost nothing. A BlockArena does the same on the
// heap: it bump-allocates from a few large blocks instead of making one
// heap allocation per request. Blocks grow geometrically from `first_block`
// to `max_block` bytes; a request larger than the next block gets a block
// of its own, and the current block stays current. Storage is not
// zero-filled and lives until the arena is destroyed.
//
// Under AddressSanitizer the part of a block not yet carved is poisoned and
// each carved run is unpoisoned as it is handed out, so a write past the
// end of a run is reported just as a separate allocation's redzone would
// report it.

#ifndef SRC_IOLITE_BLOCK_ARENA_H_
#define SRC_IOLITE_BLOCK_ARENA_H_

#include <cstddef>
#include <memory>
#include <vector>

namespace iolite {

class BlockArena {
 public:
  BlockArena(size_t first_block, size_t max_block)
      : next_block_(first_block), max_block_(max_block) {}

  BlockArena(const BlockArena&) = delete;
  BlockArena& operator=(const BlockArena&) = delete;

  // `n` bytes aligned for any scalar type, valid until the arena is
  // destroyed.
  char* Carve(size_t n);

 private:
  std::vector<std::unique_ptr<char[]>> blocks_;
  char* next_ = nullptr;  // Uncarved rest of the current block.
  size_t left_ = 0;
  size_t next_block_;
  size_t max_block_;
};

}  // namespace iolite

#endif  // SRC_IOLITE_BLOCK_ARENA_H_
