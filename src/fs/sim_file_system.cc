#include "src/fs/sim_file_system.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "src/iolite/dma_fill.h"

namespace iolfs {

bool SimFileSystem::MetadataCache::Touch(FileId file) {
  assert(file >= 0 && file < IdLinks::kNil);
  const uint32_t id = static_cast<uint32_t>(file);
  if (links_.Linked(id)) {
    links_.MoveToBack(lru_, id);
    return true;
  }
  if (size_ >= slots_) {
    links_.Erase(lru_, lru_.head);
    --size_;
  }
  links_.PushBack(lru_, id);
  ++size_;
  return false;
}

FileId SimFileSystem::CreateFile(const std::string& name, uint64_t size) {
  files_.emplace_back();
  FileId id = static_cast<FileId>(files_.size());
  File& f = files_.back();
  f.size = size;
  f.content_seed = 0x5851f42d4c957f2dull * static_cast<uint64_t>(id) + 0x14057b7ef767814full;
  by_name_[name] = id;
  total_bytes_ += size;
  return id;
}

FileId SimFileSystem::Lookup(const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? kInvalidFile : it->second;
}

uint64_t SimFileSystem::SizeOf(FileId file) const { return file_at(file).size; }

void SimFileSystem::TouchMetadata(FileId file) {
  if (!metadata_cache_.Touch(file)) {
    // Inode block read: one small disk access.
    ctx_->ChargeDisk(ctx_->cost().DiskAccessCost(512));
    ctx_->stats().disk_reads++;
    ctx_->stats().disk_bytes_read += 512;
  }
}

uint8_t SimFileSystem::ContentByteAt(FileId file, uint64_t offset) const {
  const File& f = file_at(file);
  assert(offset < f.size);
  // Most-recent write wins: check the overlay first.
  auto ov = f.overlay.upper_bound(offset);
  if (ov != f.overlay.begin()) {
    --ov;
    if (offset < ov->first + ov->second.size()) {
      return static_cast<uint8_t>(ov->second[offset - ov->first]);
    }
  }
  return iolite::ContentByte(f.content_seed, offset);
}

void SimFileSystem::ReadContent(FileId file, uint64_t offset, char* dst, size_t n,
                                uint64_t version) const {
  const File& f = file_at(file);
  assert(offset + n <= f.size && "read past end of file");
  FillRange(f, VersionSeed(f, version), offset, dst, n);
}

uint64_t SimFileSystem::ContentSeed(FileId file, uint64_t version) const {
  return VersionSeed(file_at(file), version);
}

uint64_t SimFileSystem::VersionSeed(const File& f, uint64_t version) {
  if (version == 0) {
    return f.content_seed;
  }
  // splitmix64 of the pair: distinct versions get unrelated seeds.
  uint64_t z = f.content_seed + version * 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

void SimFileSystem::FillRange(const File& f, uint64_t seed, uint64_t offset, char* dst,
                              size_t n) {
  iolite::FillContent(seed, offset, dst, n);
  // Most-recent write wins: the overlay runs are disjoint, so copying each
  // one that overlaps the range over the generated bytes yields exactly
  // what ContentByteAt returns per byte.
  const uint64_t end = offset + n;
  auto ov = f.overlay.upper_bound(offset);
  if (ov != f.overlay.begin()) {
    --ov;  // The run starting at or before `offset` may reach into the range.
  }
  for (; ov != f.overlay.end() && ov->first < end; ++ov) {
    uint64_t from = std::max(ov->first, offset);
    uint64_t to = std::min(ov->first + ov->second.size(), end);
    if (from < to) {
      std::memcpy(dst + (from - offset), ov->second.data() + (from - ov->first), to - from);
    }
  }
}

iolite::BufferRef SimFileSystem::ContentBuffer(const File& f, uint64_t seed, uint64_t offset,
                                               size_t length, iolite::BufferPool* pool) {
  iolite::BufferRef buffer = pool->Allocate(length);
  if (pool->heap_backed() && !OverlayIntersects(f, offset, length)) {
    // Only data() reads a heap pool's bytes, so they wait for it; the
    // checksum module sums them only if a reader asks for the sum.
    buffer->SealDescribed(seed, offset, length);
  } else {
    // Other processes read a region's bytes directly, and written runs
    // must be copied over the generated bytes: write them now.
    FillRange(f, seed, offset, buffer->writable_data(), length);
    buffer->Seal(length);
  }
  return buffer;
}

bool SimFileSystem::OverlayIntersects(const File& f, uint64_t offset, size_t n) {
  const uint64_t end = offset + n;
  auto ov = f.overlay.upper_bound(offset);
  if (ov != f.overlay.begin()) {
    --ov;  // The run starting at or before `offset` may reach into the range.
  }
  for (; ov != f.overlay.end() && ov->first < end; ++ov) {
    if (std::max(ov->first, offset) < std::min(ov->first + ov->second.size(), end)) {
      return true;
    }
  }
  return false;
}

iolite::BufferRef SimFileSystem::ReadFromDisk(FileId file, uint64_t offset, size_t length) {
  const File& f = file_at(file);
  assert(offset + length <= f.size && "read past end of file");

  ctx_->ChargeDisk(ctx_->cost().DiskAccessCost(length));
  ctx_->stats().disk_reads++;
  ctx_->stats().disk_bytes_read += length;

  // DMA fill: real bytes, no CPU charge.
  return ContentBuffer(f, f.content_seed, offset, length, pool_);
}

iolite::BufferRef SimFileSystem::ReadSnapshot(FileId file, iolite::BufferPool* pool,
                                              uint64_t version) const {
  const File& f = file_at(file);
  return ContentBuffer(f, VersionSeed(f, version), 0, f.size, pool);
}

void SimFileSystem::WriteToDisk(FileId file, uint64_t offset, const iolite::Aggregate& data) {
  File& f = file_at(file);

  size_t length = data.size();
  ctx_->ChargeDisk(ctx_->cost().DiskAccessCost(length));
  ctx_->stats().disk_writes++;

  if (offset + length > f.size) {
    total_bytes_ += offset + length - f.size;
    f.size = offset + length;
  }
  if (length == 0) {
    return;  // Folding an empty run in would replace the bytes at `offset`.
  }

  // Fold the bytes into the overlay. Remove or trim overlapped runs first.
  std::string bytes = data.ToString();
  uint64_t end = offset + length;
  auto ov = f.overlay.lower_bound(offset);
  // A run starting before `offset` may overlap: trim its tail, and if the
  // run extends past `end` (the write lands strictly inside it), preserve
  // the part beyond the write as a new run.
  if (ov != f.overlay.begin()) {
    auto prev = std::prev(ov);
    uint64_t prev_end = prev->first + prev->second.size();
    if (prev_end > offset) {
      if (prev_end > end) {
        f.overlay[end] = prev->second.substr(end - prev->first);
      }
      prev->second.resize(offset - prev->first);
      ov = f.overlay.lower_bound(offset);  // Iterator may be stale after insert.
    }
  }
  // Runs starting inside [offset, end): drop, preserving any tail past end.
  while (ov != f.overlay.end() && ov->first < end) {
    uint64_t run_end = ov->first + ov->second.size();
    if (run_end > end) {
      std::string tail = ov->second.substr(end - ov->first);
      f.overlay[end] = std::move(tail);
      f.overlay.erase(ov);
      break;
    }
    ov = f.overlay.erase(ov);
  }
  f.overlay[offset] = std::move(bytes);
}

}  // namespace iolfs
