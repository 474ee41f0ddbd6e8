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

#include <array>
#include <cstddef>
#include <cstdint>

namespace iolsim {

// What a reservation pays for.
enum class MemCategory : uint8_t {
  kKernel,             // Kernel text, data and fixed tables.
  kIoliteWindow,       // IO-Lite buffer pages (the cache's own data).
  kSocketSendBuffers,  // Send buffers of open connections.
  kServerProcesses,    // Per-connection server processes (persistent runs).
  kConnectionsSteady,  // A nonpersistent population's steady footprint.
  kCount,
};

class MemoryModel {
 public:
  explicit MemoryModel(uint64_t total_bytes) : total_(total_bytes) {}

  uint64_t total() const { return total_; }

  // Records `bytes` of memory in use under `category`. Returns false if the
  // reservation would exceed physical memory; the reservation is still
  // recorded (the VM system would page, which the file cache budget then
  // reflects as zero).
  bool Reserve(MemCategory category, uint64_t bytes) {
    Entry(category) += bytes;
    used_ += bytes;
    return used_ <= total_;
  }

  // Releases `bytes` from `category` (clamped at zero).
  void Release(MemCategory category, uint64_t bytes) {
    uint64_t& entry = Entry(category);
    uint64_t released = bytes < entry ? bytes : entry;
    entry -= released;
    used_ -= released;
  }

  // Replaces the reservation under `category` with exactly `bytes`.
  void Set(MemCategory category, uint64_t bytes) {
    uint64_t& entry = Entry(category);
    used_ += bytes - entry;
    entry = bytes;
  }

  uint64_t reservation(MemCategory category) const {
    return reserved_[static_cast<size_t>(category)];
  }

  // Sum of all reservations (maintained incrementally).
  uint64_t used() const { return used_; }

  // Memory left over for the file cache after all other reservations.
  uint64_t CacheBudget() const {
    return used_ >= total_ ? 0 : total_ - used_;
  }

 private:
  uint64_t& Entry(MemCategory category) { return reserved_[static_cast<size_t>(category)]; }

  uint64_t total_;
  uint64_t used_ = 0;
  std::array<uint64_t, static_cast<size_t>(MemCategory::kCount)> reserved_{};
};

}  // namespace iolsim

#endif  // SRC_SIMOS_MEMORY_MODEL_H_
