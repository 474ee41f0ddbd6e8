#include "src/iolite/runtime.h"

#include <cassert>

namespace iolite {

BufferPool* IoLiteRuntime::CreatePool(const std::string& name, iolsim::DomainId producer) {
  pools_.push_back(std::make_unique<BufferPool>(ctx_, name, producer));
  return pools_.back().get();
}

Fd IoLiteRuntime::Open(std::shared_ptr<Stream> stream, iolsim::DomainId owner) {
  Fd fd = next_fd_++;
  descriptors_[fd] = Descriptor{std::move(stream), owner};
  return fd;
}

void IoLiteRuntime::Close(Fd fd) { descriptors_.erase(fd); }

Stream* IoLiteRuntime::StreamOf(Fd fd) const {
  auto it = descriptors_.find(fd);
  return it == descriptors_.end() ? nullptr : it->second.stream.get();
}

Aggregate IoLiteRuntime::IolRead(Fd fd, size_t max_bytes) {
  auto it = descriptors_.find(fd);
  assert(it != descriptors_.end() && "IolRead on closed descriptor");
  ctx_->ChargeCpu(ctx_->cost().SyscallCost());
  ctx_->stats().syscalls++;
  Aggregate agg = it->second.stream->Read(it->second.owner, max_bytes);
  MapAggregate(agg, it->second.owner);
  return agg;
}

size_t IoLiteRuntime::IolWrite(Fd fd, const Aggregate& agg) {
  auto it = descriptors_.find(fd);
  assert(it != descriptors_.end() && "IolWrite on closed descriptor");
  assert(CheckAccess(agg, it->second.owner) && "writer lacks access to aggregate data");
  ctx_->ChargeCpu(ctx_->cost().SyscallCost());
  ctx_->stats().syscalls++;
  return it->second.stream->Write(it->second.owner, agg);
}

int IoLiteRuntime::MapAggregate(const Aggregate& agg, iolsim::DomainId domain) {
  if (domain == iolsim::kKernelDomain) {
    return 0;  // The kernel maps the whole IO-Lite window permanently.
  }
  int cold = 0;
  for (const Slice& s : agg.slices()) {
    for (iolsim::ChunkId c : s.buffer()->chunks()) {
      if (ctx_->vm().EnsureReadable(c, domain)) {
        ++cold;
      }
    }
  }
  return cold;
}

bool IoLiteRuntime::CheckAccess(const Aggregate& agg, iolsim::DomainId domain) const {
  for (const Slice& s : agg.slices()) {
    for (iolsim::ChunkId c : s.buffer()->chunks()) {
      if (!ctx_->vm().CanRead(c, domain)) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace iolite
