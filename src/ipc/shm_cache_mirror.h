// ShmCacheMirror: projects a FileCache's membership into a shared-memory
// ShmMap, making the unified cache's *metadata* visible across processes.
//
// The in-process FileCache stays the authority (policies, budget trigger,
// snapshot semantics all unchanged); the mirror is a write-through shadow of
// one fact per file — "file F's bytes live at region offset O, length L" —
// which is everything a foreign proxy worker needs to serve F with zero
// copies. Only entries the plane can actually share are mirrored: whole-file
// (offset 0), single-slice, and resident in the mirror's region. Anything
// else (multi-slice assemblies, partial ranges, heap-backed buffers) is
// silently skipped; a foreign lookup then misses and takes the fill path,
// which is correct, just slower.
//
// Several origins may publish the same key, each naming its own replica;
// the last publication wins. An erase is a compare-and-erase against the
// value this mirror last wrote, so one origin's eviction never removes a
// sibling's publication (the sibling's replica still holds the file).
//
// A re-insert replaces the mapped value in place, so a sibling origin's
// lookup never misses in between. A mirrored entry that a foreign process
// has pinned can be neither replaced nor removed (ShmMap refuses), so the
// mirror parks the update and retries it on later mutations; a newer update
// of the same key supersedes a parked one. The payload is safe either way:
// the origin's pool recycles a buffer once nothing references it, so the
// mirror holds a reference to every buffer it has published until its
// erase of that value lands — a value the map names is never rewritten.

#ifndef SRC_IPC_SHM_CACHE_MIRROR_H_
#define SRC_IPC_SHM_CACHE_MIRROR_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/fs/file_cache.h"
#include "src/ipc/shm_map.h"
#include "src/ipc/shm_region.h"

namespace iolipc {

class ShmCacheMirror : public iolfs::CacheMirror {
 public:
  // `region` and `map` must outlive the mirror (and the cache it watches).
  // The mirror holds references to the buffers it published, so it must be
  // destroyed before their BufferPool.
  ShmCacheMirror(ShmRegion* region, ShmMap* map) : region_(region), map_(map) {}

  void OnInsert(iolfs::FileId file, uint64_t offset,
                const iolite::Aggregate& data) override;
  void OnErase(iolfs::FileId file, uint64_t offset, size_t length) override;

  // Entries skipped because they were not shareable (diagnostics).
  uint64_t skipped() const { return skipped_; }
  // Updates currently parked behind a foreign pin.
  size_t deferred_updates() const { return deferred_.size(); }

 private:
  // A map update: replace the key's value, or erase the value this mirror
  // published for the key.
  struct Update {
    uint64_t key;
    bool erase;
    SliceDesc value;
    iolite::BufferRef buffer;  // Backs `value` (inserts only).
  };
  struct Published {
    SliceDesc value;
    iolite::BufferRef buffer;
  };

  // Applies `u` now, or parks it if a foreign pin blocks it.
  void ApplyOrDefer(const Update& u);
  // False when a foreign pin still blocks `u`.
  bool TryApply(const Update& u);
  void DrainDeferred();

  ShmRegion* region_;
  ShmMap* map_;
  std::vector<Update> deferred_;
  // The value this mirror's last applied update wrote, per key still
  // published: what its erase compares against, and the buffer it pins.
  std::unordered_map<uint64_t, Published> published_;
  uint64_t skipped_ = 0;
};

}  // namespace iolipc

#endif  // SRC_IPC_SHM_CACHE_MIRROR_H_
