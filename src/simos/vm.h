// Simulated virtual memory system: protection domains and the IO-Lite window.
//
// IO-Lite buffers live in a region (the "IO-Lite window") that appears at the
// same virtual address in every protection domain, including the kernel
// (Section 3.3). Access control is performed at chunk granularity (64 KB,
// Section 4.5): in a given domain, either all pages of a chunk are accessible
// or none are. Read mappings are established lazily when an aggregate first
// crosses into a domain and persist afterwards, which is what makes warm
// cross-domain transfers approach shared-memory speed (Section 3.2).
//
// Chunk ids are handed out as 1, 2, 3, ... and chunks are freed only with
// their pool, so chunks live in a dense array indexed by id (a freed chunk
// leaves a dead slot). The chunks of one extent are allocated together and
// so are consecutive: an extent names them as a ChunkRange. Each chunk keeps its per-domain states in a small
// inline array: a chunk is mapped in one to three domains (the kernel, its
// producer, a consumer), so a lookup scans a few adjacent words.

#ifndef SRC_SIMOS_VM_H_
#define SRC_SIMOS_VM_H_

#include <cstdint>
#include <ranges>
#include <vector>

#include "src/simos/small_vec.h"

namespace iolsim {

class SimContext;

using DomainId = int32_t;
using ChunkId = int64_t;

constexpr DomainId kKernelDomain = 0;
constexpr ChunkId kInvalidChunk = -1;

// Consecutive chunk ids [first, last): range-for, size() and operator[].
using ChunkRange = std::ranges::iota_view<ChunkId, ChunkId>;

// Per-domain mapping state of one chunk.
enum class MapState : uint8_t {
  kUnmapped = 0,
  kReadOnly = 1,
  kReadWrite = 2,
};

class VmSystem {
 public:
  explicit VmSystem(SimContext* ctx) : ctx_(ctx) {}

  VmSystem(const VmSystem&) = delete;
  VmSystem& operator=(const VmSystem&) = delete;

  // Creates a new protection domain (process address space).
  DomainId CreateDomain();

  // Destroys a domain; its mappings disappear.
  void DestroyDomain(DomainId domain);

  // Allocates a fresh chunk in the IO-Lite window, writable in `producer`
  // (and implicitly accessible to the kernel, which is trusted). Charges the
  // page-mapping cost of the chunk's pages in the producer domain.
  ChunkId AllocateChunk(DomainId producer);

  // Allocates `count` chunks as AllocateChunk does, one after another, so
  // their ids are consecutive.
  ChunkRange AllocateChunks(DomainId producer, size_t count);

  // Frees a chunk entirely (its memory returns to the VM system).
  void FreeChunk(ChunkId chunk);

  // Grants `domain` read access to `chunk`. The first grant charges page
  // mapping costs; thereafter the mapping persists and the call is free.
  // Returns true if mapping work happened (cold transfer).
  bool EnsureReadable(ChunkId chunk, DomainId domain);

  // Toggles write permission for the producer when a buffer is being filled
  // or sealed. Trusted domains (the kernel) hold permanent write permission
  // and toggling is free (Section 3.2).
  void SetWritable(ChunkId chunk, DomainId domain, bool writable);

  // Access checks used by the IO-Lite runtime to enforce protection.
  bool CanRead(ChunkId chunk, DomainId domain) const;
  bool CanWrite(ChunkId chunk, DomainId domain) const;

  MapState StateOf(ChunkId chunk, DomainId domain) const;

  bool ChunkExists(ChunkId chunk) const { return Find(chunk) != nullptr; }
  size_t live_chunks() const { return live_chunks_; }

 private:
  struct Mapping {
    DomainId domain;
    MapState state;
  };

  struct Chunk {
    bool live = false;
    // Mapping state per domain, in no particular order; a domain without
    // an element is unmapped.
    SmallVec<Mapping, 3> mappings;
  };

  // The live chunk `chunk`, or null.
  const Chunk* Find(ChunkId chunk) const;
  Chunk* Find(ChunkId chunk) {
    return const_cast<Chunk*>(static_cast<const VmSystem*>(this)->Find(chunk));
  }
  // `domain`'s state in `chunk`, added as kUnmapped when absent.
  static MapState& StateIn(Chunk& chunk, DomainId domain);

  int PagesPerChunk() const;

  SimContext* ctx_;
  std::vector<Chunk> chunks_;  // Chunk `id` is chunks_[id - 1].
  size_t live_chunks_ = 0;
  DomainId next_domain_ = 1;
};

}  // namespace iolsim

#endif  // SRC_SIMOS_VM_H_
