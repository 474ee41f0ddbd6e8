// A shared-memory region: the real-transport analogue of the simulated
// IO-Lite window (Section 3.3).
//
// The region is one mmap'd span of memory that more than one process can
// map. Payload placed in it is named by (offset, len) relative to the region
// base, so a descriptor is valid in any mapper regardless of where the
// mapping landed. Preferred backing is POSIX shm_open + mmap (attachable by
// name from unrelated processes); when that is unavailable — sandboxed CI
// commonly mounts no /dev/shm — the region falls back to an anonymous
// MAP_SHARED mapping, which fork()ed children still share.

#ifndef SRC_IPC_SHM_REGION_H_
#define SRC_IPC_SHM_REGION_H_

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <string>

namespace iolipc {

class ShmRegion {
 public:
  // Creates a region of `size` bytes. With a non-empty `name` (e.g.
  // "/iolite-cgi"), POSIX shared memory is tried first; an empty name, or
  // shm_open failure, yields the anonymous MAP_SHARED fallback.
  static std::unique_ptr<ShmRegion> Create(size_t size, const std::string& name = "");

  // Maps an existing named region created by another process. Returns null
  // if the name does not resolve (or names a region of a different size).
  static std::unique_ptr<ShmRegion> Attach(const std::string& name);

  // Unlinks every POSIX shm segment whose name starts with `prefix` (no
  // leading '/'), carries a valid region header, and whose creating process
  // is gone — the leak left behind when a test run dies between shm_open and
  // its destructor. Returns the number of segments reclaimed; 0 when /dev/shm
  // does not exist (anonymous-fallback environments have nothing to sweep).
  static int SweepStale(const std::string& prefix);

  ~ShmRegion();

  ShmRegion(const ShmRegion&) = delete;
  ShmRegion& operator=(const ShmRegion&) = delete;

  char* base() const { return payload_; }
  size_t size() const { return payload_size_; }
  const std::string& name() const { return name_; }

  // True when backed by shm_open (attachable by name); false on the
  // anonymous-mmap fallback (shareable only across fork()).
  bool posix_shm_backed() const { return fd_ >= 0; }

  // --- Offset addressing ---------------------------------------------------

  // Translates between mapper-local pointers and region offsets. Offsets are
  // the only currency that may cross a process boundary.
  uint64_t OffsetOf(const void* p) const {
    assert(Contains(p, 0) && "pointer outside region");
    return static_cast<uint64_t>(static_cast<const char*>(p) - payload_);
  }

  char* At(uint64_t offset) const {
    assert(offset <= payload_size_);
    return payload_ + offset;
  }

  bool Contains(const void* p, size_t len) const {
    const char* c = static_cast<const char*>(p);
    return c >= payload_ && c + len <= payload_ + payload_size_;
  }

  // --- Extent carving -------------------------------------------------------

  // Bump-allocates `n` bytes of stable-offset storage (64-byte aligned).
  // The cursor lives inside the region itself, so creator and attachers see
  // one consistent allocation state. Returns nullptr when exhausted.
  char* AllocateExtent(size_t n);

  uint64_t bytes_used() const;

  // The mapping's first kHeaderSpan bytes hold the region header; the
  // payload starts right after, so payload pointers (and hence extents) are
  // 64-byte aligned in every mapper.
  static constexpr size_t kHeaderSpan = 64;

 private:
  struct Header;  // At mapping offset 0; payload begins after it.

  ShmRegion() = default;

  std::string name_;
  int fd_ = -1;
  void* mapping_ = nullptr;
  size_t mapping_size_ = 0;
  Header* header_ = nullptr;
  char* payload_ = nullptr;
  size_t payload_size_ = 0;
  bool owner_ = false;
};

}  // namespace iolipc

#endif  // SRC_IPC_SHM_REGION_H_
