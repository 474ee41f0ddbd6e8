#include "src/ipc/shm_region.h"

#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace iolipc {

namespace {
constexpr uint32_t kRegionMagic = 0x494f4c53;  // "IOLS"
constexpr size_t kExtentAlign = 64;

// Whether `pid` still names a live process. kill(0) probes without
// signalling; EPERM means "alive but not ours", which still counts.
bool PidAlive(uint64_t pid) {
  if (pid == 0) {
    return false;
  }
  return kill(static_cast<pid_t>(pid), 0) == 0 || errno == EPERM;
}

// Reads the header of the named segment. Returns false when the segment is
// not a region of ours (wrong size or magic). `out` may be null (probe only).
bool ReadHeaderOf(const char* name, uint32_t* magic, uint64_t* owner_pid) {
  int fd = shm_open(name, O_RDONLY, 0);
  if (fd < 0) {
    return false;
  }
  struct stat st;
  if (fstat(fd, &st) != 0 || static_cast<size_t>(st.st_size) < ShmRegion::kHeaderSpan) {
    close(fd);
    return false;
  }
  char buf[ShmRegion::kHeaderSpan];
  ssize_t n = pread(fd, buf, sizeof(buf), 0);
  close(fd);
  if (n != static_cast<ssize_t>(sizeof(buf))) {
    return false;
  }
  std::memcpy(magic, buf, sizeof(*magic));
  std::memcpy(owner_pid, buf + 24, sizeof(*owner_pid));
  return true;
}
}  // namespace

// Lives at offset 0 of the mapping, shared by all mappers. The allocation
// cursor is in here (not in any one process) so that creator and attachers
// agree on what has been carved. The owner pid makes crashed-owner segments
// recognizable: a name whose owner no longer runs is stale and reclaimable
// (see Create's collision path and SweepStale). Layout is ABI — the offsets
// below are mirrored by scripts/shm_inspect.py.
struct ShmRegion::Header {
  uint32_t magic;              // offset 0
  uint32_t reserved;           // offset 4
  uint64_t payload_size;       // offset 8
  std::atomic<uint64_t> bump;  // offset 16: next free payload offset.
  uint64_t owner_pid;          // offset 24: creator, for staleness checks.
};

std::unique_ptr<ShmRegion> ShmRegion::Create(size_t size, const std::string& name) {
  static_assert(sizeof(Header) <= kHeaderSpan, "header must fit in its span");
  static_assert(offsetof(Header, payload_size) == 8, "header layout is ABI");
  static_assert(offsetof(Header, bump) == 16, "header layout is ABI");
  static_assert(offsetof(Header, owner_pid) == 24, "header layout is ABI");
  auto region = std::unique_ptr<ShmRegion>(new ShmRegion());
  size_t mapping_size = kHeaderSpan + size;

  int fd = -1;
  if (!name.empty()) {
    fd = shm_open(name.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
    if (fd < 0 && errno == EEXIST) {
      // The name is taken. If its owner is dead (a previous run crashed
      // between shm_open and its destructor), reclaim the name and retry
      // once: a process still mapping the stale segment keeps its mapping,
      // it just loses the name. If the owner is alive the name is genuinely
      // in use — fall through to the anonymous mapping rather than yanking
      // a live region out from under another process.
      uint32_t magic = 0;
      uint64_t owner = 0;
      bool ours = ReadHeaderOf(name.c_str(), &magic, &owner);
      if (!ours || magic != kRegionMagic || !PidAlive(owner)) {
        shm_unlink(name.c_str());
        fd = shm_open(name.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
      }
    }
    if (fd >= 0 && ftruncate(fd, static_cast<off_t>(mapping_size)) != 0) {
      close(fd);
      shm_unlink(name.c_str());
      fd = -1;
    }
  }

  void* mapping;
  if (fd >= 0) {
    mapping = mmap(nullptr, mapping_size, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
    if (mapping == MAP_FAILED) {
      close(fd);
      shm_unlink(name.c_str());
      fd = -1;
    }
  }
  if (fd < 0) {
    // Sandboxed-CI fallback: anonymous shared mapping, inherited across
    // fork(). Not attachable by name.
    mapping = mmap(nullptr, mapping_size, PROT_READ | PROT_WRITE, MAP_SHARED | MAP_ANONYMOUS,
                   -1, 0);
    if (mapping == MAP_FAILED) {
      return nullptr;
    }
  }

  region->name_ = fd >= 0 ? name : std::string();
  region->fd_ = fd;
  region->mapping_ = mapping;
  region->mapping_size_ = mapping_size;
  region->header_ = static_cast<Header*>(mapping);
  region->payload_ = static_cast<char*>(mapping) + kHeaderSpan;
  region->payload_size_ = size;
  region->owner_ = true;

  region->header_->magic = kRegionMagic;
  region->header_->reserved = 0;
  region->header_->payload_size = size;
  region->header_->bump.store(0, std::memory_order_relaxed);
  region->header_->owner_pid = static_cast<uint64_t>(getpid());
  return region;
}

int ShmRegion::SweepStale(const std::string& prefix) {
  DIR* dir = opendir("/dev/shm");
  if (dir == nullptr) {
    return 0;
  }
  int reclaimed = 0;
  while (struct dirent* ent = readdir(dir)) {
    if (std::strncmp(ent->d_name, prefix.c_str(), prefix.size()) != 0) {
      continue;
    }
    std::string shm_name = "/";
    shm_name += ent->d_name;
    uint32_t magic = 0;
    uint64_t owner = 0;
    if (ReadHeaderOf(shm_name.c_str(), &magic, &owner) && magic == kRegionMagic &&
        !PidAlive(owner)) {
      if (shm_unlink(shm_name.c_str()) == 0) {
        ++reclaimed;
      }
    }
  }
  closedir(dir);
  return reclaimed;
}

std::unique_ptr<ShmRegion> ShmRegion::Attach(const std::string& name) {
  int fd = shm_open(name.c_str(), O_RDWR, 0600);
  if (fd < 0) {
    return nullptr;
  }
  struct stat st;
  if (fstat(fd, &st) != 0 || static_cast<size_t>(st.st_size) < kHeaderSpan) {
    close(fd);
    return nullptr;
  }
  size_t mapping_size = static_cast<size_t>(st.st_size);
  void* mapping = mmap(nullptr, mapping_size, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  if (mapping == MAP_FAILED) {
    close(fd);
    return nullptr;
  }
  auto* header = static_cast<Header*>(mapping);
  if (header->magic != kRegionMagic ||
      header->payload_size != mapping_size - kHeaderSpan) {
    munmap(mapping, mapping_size);
    close(fd);
    return nullptr;
  }

  auto region = std::unique_ptr<ShmRegion>(new ShmRegion());
  region->name_ = name;
  region->fd_ = fd;
  region->mapping_ = mapping;
  region->mapping_size_ = mapping_size;
  region->header_ = header;
  region->payload_ = static_cast<char*>(mapping) + kHeaderSpan;
  region->payload_size_ = header->payload_size;
  region->owner_ = false;
  return region;
}

ShmRegion::~ShmRegion() {
  if (mapping_ != nullptr) {
    munmap(mapping_, mapping_size_);
  }
  if (fd_ >= 0) {
    close(fd_);
    if (owner_ && !name_.empty()) {
      shm_unlink(name_.c_str());
    }
  }
}

char* ShmRegion::AllocateExtent(size_t n) {
  uint64_t offset = header_->bump.load(std::memory_order_relaxed);
  uint64_t aligned;
  uint64_t end;
  do {
    aligned = (offset + kExtentAlign - 1) & ~static_cast<uint64_t>(kExtentAlign - 1);
    end = aligned + n;
    if (end > payload_size_) {
      return nullptr;
    }
  } while (!header_->bump.compare_exchange_weak(offset, end, std::memory_order_relaxed,
                                                std::memory_order_relaxed));
  return payload_ + aligned;
}

uint64_t ShmRegion::bytes_used() const {
  return header_->bump.load(std::memory_order_relaxed);
}

}  // namespace iolipc
