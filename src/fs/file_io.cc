#include "src/fs/file_io.h"

#include <cassert>
#include <utility>

namespace iolfs {

iolite::Aggregate FileIoService::ReadExtent(FileId file, uint64_t offset, size_t length,
                                            bool* was_miss) {
  if (was_miss != nullptr) {
    *was_miss = false;
  }
  if (length == 0) {
    return iolite::Aggregate{};
  }
  std::optional<iolite::Aggregate> cached = cache_->Lookup(file, offset, length);
  if (cached.has_value()) {
    return std::move(*cached);
  }
  if (was_miss != nullptr) {
    *was_miss = true;
  }
  // Miss: fetch the whole extent from disk in one sweep and cache it.
  // (Partial coverage is treated as a miss for the full extent; the paper's
  // cache is enlarged by one entry per miss.)
  iolite::BufferRef buffer = fs_->ReadFromDisk(file, offset, length);
  iolite::Aggregate agg = iolite::Aggregate::FromBuffer(std::move(buffer));
  cache_->Insert(file, offset, agg);
  return agg;
}

void FileIoService::ReadExtentAsync(FileId file, uint64_t offset, size_t length,
                                    ReadCallback done) {
  // Stage bodies run under a micro-tally; the async read must be issued
  // from continuation context so the disk acquisition isn't double-counted.
  assert(!ctx_->tally_active() && "issue async reads between stages, not inside one");
  if (length == 0) {
    done(iolite::Aggregate{}, false);
    return;
  }
  std::optional<iolite::Aggregate> cached = cache_->Lookup(file, offset, length);
  if (cached.has_value()) {
    done(std::move(*cached), false);
    return;
  }
  // Miss: measure the transfer's disk demand without advancing the clock
  // (the DMA fill itself costs no CPU), acquire the disk arm for it, and
  // complete — cache insert plus caller continuation — when it finishes.
  iolsim::Tally tally;
  iolite::BufferRef buffer;
  {
    iolsim::TallyScope scope(ctx_, &tally);
    buffer = fs_->ReadFromDisk(file, offset, length);
  }
  assert(tally.cpu == 0 && "disk DMA fill must not charge CPU");
  uint32_t idx = pending_reads_.Acquire();
  PendingRead& pending = pending_reads_[idx];
  pending.file = file;
  pending.offset = offset;
  pending.tenant = ctx_->active_tenant();
  pending.agg = iolite::Aggregate::FromBuffer(std::move(buffer));
  pending.done = std::move(done);
  ctx_->disk().AcquireAsync(&ctx_->events(), tally.disk, [this, idx] { FinishRead(idx); });
}

void FileIoService::FinishRead(uint32_t idx) {
  PendingRead& pending = pending_reads_[idx];
  iolite::Aggregate agg = std::move(pending.agg);
  ReadCallback done = std::move(pending.done);
  FileId file = pending.file;
  uint64_t offset = pending.offset;
  ctx_->set_active_tenant(pending.tenant);
  pending_reads_.Release(idx);
  cache_->Insert(file, offset, agg);
  done(std::move(agg), true);
}

void FileIoService::WriteExtent(FileId file, uint64_t offset, const iolite::Aggregate& data) {
  if (data.empty()) {
    return;
  }
  cache_->Insert(file, offset, data);
  fs_->WriteToDisk(file, offset, data);
}

}  // namespace iolfs
