// Simulated file system over a latency-modelled disk.
//
// The paper leaves the file system below the block read/write interface
// unchanged (Section 4.2); what matters for IO-Lite is (a) where file data
// lands — directly in IO-Lite buffers, filled by DMA — and (b) the disk
// service time charged on cache misses. Files have deterministic synthetic
// content (a pure function of <file, offset>) plus a write overlay so
// write-then-read round-trips return the written bytes. A disk read into a
// heap-backed pool writes no bytes when no overlay run touches the range:
// the buffer is sealed over a content descriptor and writes its bytes on
// first data() use (see buffer.h). Region-backed pools are filled at once.
//
// Metadata is cached in a small "old buffer cache" as in 4.4BSD: the first
// open of a file charges a metadata disk access unless its inode block is
// resident.
//
// File ids are handed out as 1, 2, 3, ..., so the files live in a dense
// array indexed by id, and the metadata cache is an index-linked LRU over
// the same ids: SizeOf and a metadata touch cost one array access each.

#ifndef SRC_FS_SIM_FILE_SYSTEM_H_
#define SRC_FS_SIM_FILE_SYSTEM_H_

#include <cassert>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/fs/id_list.h"
#include "src/iolite/aggregate.h"
#include "src/iolite/buffer_pool.h"
#include "src/simos/sim_context.h"

namespace iolfs {

using FileId = int64_t;
constexpr FileId kInvalidFile = -1;

class SimFileSystem {
 public:
  // `pool` is the pool disk DMA fills (normally the kernel pool).
  SimFileSystem(iolsim::SimContext* ctx, iolite::BufferPool* pool)
      : ctx_(ctx), pool_(pool), metadata_cache_(kMetadataCacheSlots) {}

  SimFileSystem(const SimFileSystem&) = delete;
  SimFileSystem& operator=(const SimFileSystem&) = delete;

  // Creates a file of `size` bytes of synthetic content. Returns its id.
  FileId CreateFile(const std::string& name, uint64_t size);

  FileId Lookup(const std::string& name) const;
  uint64_t SizeOf(FileId file) const;
  bool Exists(FileId file) const {
    return file >= 1 && static_cast<uint64_t>(file) <= files_.size();
  }
  size_t file_count() const { return files_.size(); }
  uint64_t total_bytes() const { return total_bytes_; }

  // Charges the metadata access for opening `file` (disk read on a cold
  // inode, free when the inode block is in the metadata buffer cache).
  void TouchMetadata(FileId file);

  // Reads [offset, offset+length) from disk into a fresh IO-Lite buffer.
  // Charges disk service time; the fill itself is DMA (no CPU).
  iolite::BufferRef ReadFromDisk(FileId file, uint64_t offset, size_t length);

  // A sealed buffer from `pool` holding the file's whole content at
  // `version` (see ContentSeed), charging nothing: the bytes another
  // machine's disk holds, as they arrive over a network. Descriptor-backed
  // under the same rules as ReadFromDisk. The file must not be empty.
  iolite::BufferRef ReadSnapshot(FileId file, iolite::BufferPool* pool,
                                 uint64_t version = 0) const;

  // Writes `data` at `offset` (write-through: disk time charged now). The
  // overlay remembers the bytes so later disk reads return them; the file
  // grows if the write extends past the current end. An empty write
  // changes no bytes.
  void WriteToDisk(FileId file, uint64_t offset, const iolite::Aggregate& data);

  // Reference content generator: what a disk read of one byte returns.
  // Exposed so tests can validate reads without going through buffers.
  uint8_t ContentByteAt(FileId file, uint64_t offset) const;

  // The bytes a disk read of [offset, offset+n) returns, written to `dst`
  // without charging anything: the bulk form of ContentByteAt. A nonzero
  // `version` reads that version's bytes instead (see ContentSeed).
  void ReadContent(FileId file, uint64_t offset, char* dst, size_t n,
                   uint64_t version = 0) const;

  // The seed FillContent generates `file`'s unwritten bytes from at
  // `version`. Version 0 is what this disk holds. The CDN consistency plane
  // (src/cdn) models an origin write as a version bump, not a disk write;
  // each later version generates from a seed of its own, so copies of
  // different versions hold different bytes.
  uint64_t ContentSeed(FileId file, uint64_t version = 0) const;

  // True when a write (WriteToDisk) overlaps [offset, offset+n) of `file`.
  bool Written(FileId file, uint64_t offset, size_t n) const {
    return OverlayIntersects(file_at(file), offset, n);
  }

 private:
  static constexpr size_t kMetadataCacheSlots = 512;

  struct File {
    uint64_t size = 0;
    uint64_t content_seed = 0;
    // Sparse write overlay: offset -> written bytes (non-overlapping).
    std::map<uint64_t, std::string> overlay;
  };

  static uint64_t VersionSeed(const File& f, uint64_t version);

  // Writes the content of `f` over [offset, offset+n) to `dst`, its
  // unwritten bytes generated from `seed`.
  static void FillRange(const File& f, uint64_t seed, uint64_t offset, char* dst, size_t n);

  // True when a written run overlaps [offset, offset+n).
  static bool OverlayIntersects(const File& f, uint64_t offset, size_t n);

  // A sealed buffer from `pool` holding [offset, offset+length) of `f`,
  // its unwritten bytes generated from `seed`.
  static iolite::BufferRef ContentBuffer(const File& f, uint64_t seed, uint64_t offset,
                                         size_t length, iolite::BufferPool* pool);

  // LRU set of file ids whose metadata is resident.
  class MetadataCache {
   public:
    explicit MetadataCache(size_t slots) : slots_(slots) {}
    // Returns true on hit; on miss, inserts (evicting LRU).
    bool Touch(FileId file);

   private:
    size_t slots_;
    size_t size_ = 0;
    IdLinks links_;
    IdLinks::List lru_;  // Front = least recently used.
  };

  File& file_at(FileId file) {
    assert(Exists(file));
    return files_[file - 1];
  }
  const File& file_at(FileId file) const {
    assert(Exists(file));
    return files_[file - 1];
  }

  iolsim::SimContext* ctx_;
  iolite::BufferPool* pool_;
  std::vector<File> files_;  // File `id` is files_[id - 1].
  std::unordered_map<std::string, FileId> by_name_;
  uint64_t total_bytes_ = 0;
  MetadataCache metadata_cache_;
};

}  // namespace iolfs

#endif  // SRC_FS_SIM_FILE_SYSTEM_H_
