// File I/O service: the read/write path joining the file system, the
// unified file cache and the IO-Lite runtime.
//
// Reads return aggregates referencing cached immutable buffers (zero copies
// on a hit; one disk DMA fill on a miss). Writes replace the corresponding
// cache extents — earlier readers keep their snapshots. FileStream adapts a
// <file, position> pair to the Stream interface so files can be read with
// IOL_read like any descriptor.

#ifndef SRC_FS_FILE_IO_H_
#define SRC_FS_FILE_IO_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/fs/file_cache.h"
#include "src/fs/sim_file_system.h"
#include "src/iolite/runtime.h"
#include "src/iolite/stream.h"
#include "src/simos/inline_function.h"
#include "src/simos/slot_pool.h"

namespace iolfs {

class FileIoService {
 public:
  FileIoService(iolsim::SimContext* ctx, SimFileSystem* fs, FileCache* cache)
      : ctx_(ctx), fs_(fs), cache_(cache) {}

  FileIoService(const FileIoService&) = delete;
  FileIoService& operator=(const FileIoService&) = delete;

  SimFileSystem& fs() { return *fs_; }
  FileCache& cache() { return *cache_; }

  // Reads [offset, offset+length) through the cache. On a miss the extent
  // is read from disk into a fresh IO-Lite buffer and inserted. If
  // `was_miss` is non-null it reports whether disk I/O happened.
  iolite::Aggregate ReadExtent(FileId file, uint64_t offset, size_t length,
                               bool* was_miss = nullptr);

  // Completion callback of an asynchronous read: the aggregate plus
  // whether disk I/O happened. Inline-stored: captures must fit
  // kInlineCallbackBytes (the servers capture {this, req, size}).
  using ReadCallback = iolsim::InlineFunction<void(iolite::Aggregate, bool /*was_miss*/)>;

  // Asynchronous read through the cache for the staged request pipeline.
  // On a hit `done` runs immediately (in-place cache access, no charge
  // beyond what the caller's stage accounts). On a miss the disk resource
  // is acquired for the access's service demand and `done` runs at the
  // completion event; the extent becomes visible in the cache only then,
  // so concurrent readers of a cold file each pay their own disk access
  // (no read coalescing — matching one-outstanding-I/O-per-request disks).
  // Pending-read state (the filled aggregate and `done`) rides in a
  // SlotPool slot until the disk completion event.
  void ReadExtentAsync(FileId file, uint64_t offset, size_t length, ReadCallback done);

  // Replaces [offset, offset+data.size()) in both the cache and the file.
  void WriteExtent(FileId file, uint64_t offset, const iolite::Aggregate& data);

 private:
  // One outstanding disk read awaiting its completion event.
  struct PendingRead {
    FileId file = kInvalidFile;
    uint64_t offset = 0;
    // Tenant that issued the read: restored before the cache insert and the
    // caller's continuation, so completions are attributed to their owner
    // even when no fair scheduler wraps the disk resource.
    iolsim::TenantId tenant = iolsim::kDefaultTenant;
    iolite::Aggregate agg;
    ReadCallback done;
  };

  void FinishRead(uint32_t idx);

  iolsim::SimContext* ctx_;
  SimFileSystem* fs_;
  FileCache* cache_;
  iolsim::SlotPool<PendingRead> pending_reads_;
};

// Stream over an open file with a cursor, for the descriptor-based API.
class FileStream : public iolite::Stream {
 public:
  FileStream(FileIoService* io, FileId file) : io_(io), file_(file) {
    io_->fs().TouchMetadata(file_);
  }

  iolite::Aggregate Read(iolsim::DomainId /*reader*/, size_t max_bytes) override {
    uint64_t size = io_->fs().SizeOf(file_);
    if (position_ >= size) {
      return iolite::Aggregate{};
    }
    size_t len = max_bytes;
    if (position_ + len > size) {
      len = size - position_;
    }
    iolite::Aggregate agg = io_->ReadExtent(file_, position_, len);
    position_ += agg.size();
    return agg;
  }

  size_t Write(iolsim::DomainId /*writer*/, const iolite::Aggregate& agg) override {
    io_->WriteExtent(file_, position_, agg);
    position_ += agg.size();
    return agg.size();
  }

  void Seek(uint64_t position) { position_ = position; }
  uint64_t position() const { return position_; }
  FileId file() const { return file_; }

 private:
  FileIoService* io_;
  FileId file_;
  uint64_t position_ = 0;
};

}  // namespace iolfs

#endif  // SRC_FS_FILE_IO_H_
