// ACL-scoped buffer pools (Sections 3.3 and 4.5).
//
// IO-Lite maintains cached pools of buffers with a common access control
// list. The pool a buffer is allocated from determines which protection
// domains may see its data, so programs determine the ACL *before* storing
// data in memory (trivial everywhere except early demultiplexing of network
// input, handled in src/net).
//
// Buffers are carved out of *extents*: runs of one or more 64 KB chunks
// whose VM chunk ids are consecutive (a ChunkRange). Objects smaller than a
// chunk share a chunk, so no memory is wasted on small allocations. Extents
// come from the pool's ExtentAllocator; a heap-backed pool's default one
// carves them from its own BlockArena (block_arena.h), so a cold fill makes
// a heap allocation per block, not per extent or per buffer. The Buffer
// objects are carved the same way. Deallocated buffers go on a per-pool
// free list; reusing one bumps its generation and requires no VM work
// beyond re-enabling write permission for an untrusted producer. This is
// the "lazily established pool of read-only shared memory pages" of
// Section 3.2.

#ifndef SRC_IOLITE_BUFFER_POOL_H_
#define SRC_IOLITE_BUFFER_POOL_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/iolite/block_arena.h"
#include "src/iolite/buffer.h"
#include "src/simos/sim_context.h"

namespace iolite {

class BufferPool {
 public:
  // Backing store for extents in place of the heap: returns `n` bytes that
  // stay valid for the pool's lifetime, or nullptr when exhausted. The
  // shared-memory plane's origin carves extents from an mmap'd region this
  // way, so every slice it fills is describable as (offset, len) in any
  // process that maps the region.
  using ExtentAllocator = std::function<char*(size_t n)>;

  // `producer` is the domain that fills buffers allocated here; the kernel
  // (domain 0) is trusted and skips write-permission toggling. Without an
  // `extent_allocator`, extents are carved from the pool's heap arena.
  BufferPool(iolsim::SimContext* ctx, std::string name, iolsim::DomainId producer,
             ExtentAllocator extent_allocator = nullptr);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  const std::string& name() const { return name_; }
  iolsim::DomainId producer() const { return producer_; }

  // True when extents live on the heap (no ExtentAllocator was given): only
  // this process reads the storage, through Buffer::data().
  bool heap_backed() const { return heap_backed_; }

  // Allocates a buffer with capacity >= `n` in the filling state. Prefers a
  // recycled buffer (cheap); otherwise carves new storage and charges the
  // producer's mapping costs. The returned ref is the caller's.
  BufferRef Allocate(size_t n);

  // Convenience: allocate, fill from `src` (charging copy cost), seal.
  BufferRef AllocateFrom(const void* src, size_t n);

  // Convenience: allocate, fill with a deterministic pattern *without*
  // charging CPU (models DMA from a device), seal.
  BufferRef AllocateDma(uint64_t pattern_seed, size_t n);

  // Called by Buffer::Release when the last reference drops; the buffer
  // returns to the free list for recycling.
  void OnBufferUnreferenced(Buffer* buffer);

  // Called by Buffer::Seal to revoke an untrusted producer's write access.
  void OnBufferSealed(Buffer* buffer);

  // --- Introspection ------------------------------------------------------

  // Bytes of storage held by this pool (live + recyclable).
  uint64_t bytes_reserved() const { return bytes_reserved_; }
  size_t free_list_size() const { return free_list_.size(); }
  size_t live_buffers() const { return live_buffers_; }

 private:
  struct Extent {
    iolsim::ChunkRange chunks;
    char* data = nullptr;  // Start of the extent's storage.
    size_t size = 0;
    size_t bump = 0;  // Next free offset for small carving.
  };

  // Creates a new extent spanning >= `n` bytes of whole chunks.
  size_t NewExtent(size_t n);

  // Carves a brand-new buffer of capacity `n`.
  Buffer* CarveBuffer(size_t n);

  void PrepareFill(Buffer* buffer);

  iolsim::SimContext* ctx_;
  std::string name_;
  iolsim::DomainId producer_;
  const bool heap_backed_;
  // Extent storage of a heap-backed pool; unused by a region-backed one.
  BlockArena extent_arena_;
  ExtentAllocator extent_allocator_;
  // Every Buffer this pool made (Buffers are trivially destructible).
  BlockArena buffer_arena_;

  std::vector<Extent> extents_;
  // Free buffers keyed by capacity (first-fit via lower_bound; equal keys
  // stay in release order, as a node handle inserts at the upper bound of
  // its equal range).
  using FreeList = std::multimap<size_t, Buffer*>;
  FreeList free_list_;
  // Nodes extracted by Allocate, reused by the next release: the
  // steady-state release/reallocate cycle of e.g. header buffers recycles
  // the map's own nodes and never allocates.
  std::vector<FreeList::node_type> spare_nodes_;
  size_t live_buffers_ = 0;
  uint64_t bytes_reserved_ = 0;
  uint64_t next_buffer_id_;

  // Atomic: pools are constructed concurrently by threaded plane workers.
  static std::atomic<uint64_t> next_pool_seed_;
};

}  // namespace iolite

#endif  // SRC_IOLITE_BUFFER_POOL_H_
