#include "src/iolite/block_arena.h"

#include <algorithm>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#else
#define ASAN_POISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#define ASAN_UNPOISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#endif

namespace iolite {

namespace {
constexpr size_t kAlign = alignof(std::max_align_t);
}  // namespace

char* BlockArena::Carve(size_t n) {
  n = (n + kAlign - 1) & ~(kAlign - 1);
  if (n > left_) {
    if (n > next_block_) {
      // A block of its own, used up at once: the heap guards its end.
      return blocks_.emplace_back(std::make_unique_for_overwrite<char[]>(n)).get();
    }
    next_ = blocks_.emplace_back(std::make_unique_for_overwrite<char[]>(next_block_)).get();
    left_ = next_block_;
    ASAN_POISON_MEMORY_REGION(next_, left_);
    next_block_ = std::min(2 * next_block_, max_block_);
  }
  char* run = next_;
  next_ += n;
  left_ -= n;
  ASAN_UNPOISON_MEMORY_REGION(run, n);
  return run;
}

}  // namespace iolite
