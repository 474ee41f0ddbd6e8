// Physical memory accounting for the simulated machine.
//
// The paper's server has 128 MB. How that memory is divided matters for the
// trace experiments: copy-based servers lose file-cache memory to TCP socket
// send buffers (one Tss per concurrent connection, Section 5.7) and Apache
// additionally loses a resident process per connection; IO-Lite's send
// "buffers" are references into the unified cache, so the cache budget is
// independent of the client population.

#ifndef SRC_SIMOS_MEMORY_MODEL_H_
#define SRC_SIMOS_MEMORY_MODEL_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>

#include "src/simos/pool_allocator.h"

namespace iolsim {

// Category lookups are heterogeneous (string_view against std::string keys)
// and a category whose reservation drops to zero keeps its entry: the
// nonpersistent request path reserves and releases the socket send buffer
// once per connection, and neither a temporary key string nor a map-node
// round trip belongs on that path. Zero-byte entries are invisible to every
// query (they add nothing to used() and reservation() reads 0).
class MemoryModel {
 public:
  explicit MemoryModel(uint64_t total_bytes) : total_(total_bytes) {}

  uint64_t total() const { return total_; }

  // Records `bytes` of memory in use under `category` (e.g. "kernel",
  // "apache_processes", "socket_send_buffers"). Returns false if the
  // reservation would exceed physical memory; the reservation is still
  // recorded (the VM system would page, which the file cache budget then
  // reflects as zero).
  bool Reserve(std::string_view category, uint64_t bytes) {
    Entry(category) += bytes;
    used_ += bytes;
    return used_ <= total_;
  }

  // Releases `bytes` from `category` (clamped at zero).
  void Release(std::string_view category, uint64_t bytes) {
    auto it = reserved_.find(category);
    if (it == reserved_.end()) {
      return;
    }
    uint64_t released = bytes < it->second ? bytes : it->second;
    it->second -= released;
    used_ -= released;
  }

  // Replaces the reservation under `category` with exactly `bytes`.
  void Set(std::string_view category, uint64_t bytes) {
    uint64_t& entry = Entry(category);
    used_ += bytes - entry;
    entry = bytes;
  }

  uint64_t reservation(std::string_view category) const {
    auto it = reserved_.find(category);
    return it == reserved_.end() ? 0 : it->second;
  }

  // Sum of all reservations (maintained incrementally).
  uint64_t used() const { return used_; }

  // Memory left over for the file cache after all other reservations.
  uint64_t CacheBudget() const {
    return used_ >= total_ ? 0 : total_ - used_;
  }

 private:
  uint64_t& Entry(std::string_view category) {
    auto it = reserved_.find(category);
    if (it == reserved_.end()) {
      it = reserved_.emplace(std::string(category), 0).first;
    }
    return it->second;
  }

  uint64_t total_;
  uint64_t used_ = 0;
  std::map<std::string, uint64_t, std::less<>,
           PoolAllocator<std::pair<const std::string, uint64_t>>>
      reserved_;
};

}  // namespace iolsim

#endif  // SRC_SIMOS_MEMORY_MODEL_H_
