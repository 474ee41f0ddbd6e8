// IoLiteRuntime: the system-call layer of IO-Lite (Section 3.4).
//
// Owns the descriptor table and the per-ACL buffer pools, charges syscall
// costs, and enforces the transfer rule of Section 3.1: when a buffer
// aggregate crosses a protection domain boundary, the VM pages (chunks) of
// all its buffers are made readable in the receiving domain — lazily, and
// the mappings persist.

#ifndef SRC_IOLITE_RUNTIME_H_
#define SRC_IOLITE_RUNTIME_H_

#include <memory>
#include <string>
#include <unordered_map>

#include "src/iolite/buffer_pool.h"
#include "src/iolite/stream.h"
#include "src/simos/sim_context.h"

namespace iolite {

class IoLiteRuntime {
 public:
  explicit IoLiteRuntime(iolsim::SimContext* ctx) : ctx_(ctx) {
    // The default kernel pool backs the file cache and network receive path.
    kernel_pool_ = CreatePool("kernel", iolsim::kKernelDomain);
  }

  IoLiteRuntime(const IoLiteRuntime&) = delete;
  IoLiteRuntime& operator=(const IoLiteRuntime&) = delete;

  iolsim::SimContext* ctx() const { return ctx_; }

  // --- Allocation pools (IO-Lite system calls for pool management) --------

  // Creates an allocation pool whose buffers are produced by `producer`.
  BufferPool* CreatePool(const std::string& name, iolsim::DomainId producer);

  BufferPool* kernel_pool() const { return kernel_pool_; }

  // --- Descriptor table ----------------------------------------------------

  // Installs a stream; `owner` is the domain holding the descriptor.
  Fd Open(std::shared_ptr<Stream> stream, iolsim::DomainId owner);
  void Close(Fd fd);
  Stream* StreamOf(Fd fd) const;

  // --- Core API (Figure 2): IOL_read / IOL_write ---------------------------

  // Returns an aggregate with at most `max_bytes`; the aggregate's chunks
  // are made readable in the caller's domain.
  Aggregate IolRead(Fd fd, size_t max_bytes);

  // Writes the aggregate to the descriptor's data object. The caller must
  // have read access to every buffer in the aggregate (conventional access
  // control, Section 3.1); asserted in debug builds.
  size_t IolWrite(Fd fd, const Aggregate& agg);

  // Maps every chunk referenced by `agg` readable in `domain`, charging
  // only for mappings not already present. Returns the number of chunks
  // that needed mapping work (0 on a fully warm path).
  int MapAggregate(const Aggregate& agg, iolsim::DomainId domain);

  // Verifies the domain can read every byte of `agg`.
  bool CheckAccess(const Aggregate& agg, iolsim::DomainId domain) const;

 private:
  iolsim::SimContext* ctx_;
  std::vector<std::unique_ptr<BufferPool>> pools_;
  BufferPool* kernel_pool_ = nullptr;

  struct Descriptor {
    std::shared_ptr<Stream> stream;
    iolsim::DomainId owner;
  };
  std::unordered_map<Fd, Descriptor> descriptors_;
  Fd next_fd_ = 3;  // 0-2 reserved by convention.
};

}  // namespace iolite

#endif  // SRC_IOLITE_RUNTIME_H_
