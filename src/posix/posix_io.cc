#include "src/posix/posix_io.h"

#include <cassert>
#include <cstring>

namespace iolposix {

size_t PosixIo::Read(iolfs::FileId file, uint64_t offset, char* dst, size_t n) {
  uint64_t size = io_->fs().SizeOf(file);
  if (offset >= size) {
    return 0;
  }
  if (offset + n > size) {
    n = size - offset;
  }
  ctx_->ChargeCpu(ctx_->cost().SyscallCost());
  ctx_->stats().syscalls++;
  iolite::Aggregate agg = io_->ReadExtent(file, offset, n);
  // Copy semantics: move the data into the application's private buffer.
  agg.CopyTo(dst);
  ctx_->ChargeCpu(ctx_->cost().CopyCost(n));
  ctx_->stats().bytes_copied += n;
  return n;
}

size_t PosixIo::Write(iolfs::FileId file, uint64_t offset, const char* src, size_t n) {
  ctx_->ChargeCpu(ctx_->cost().SyscallCost());
  ctx_->stats().syscalls++;
  // Copy the application's bytes into IO-Lite buffers (AllocateFrom
  // charges the copy), then splice them into cache + file.
  iolite::BufferRef buffer = pool_->AllocateFrom(src, n);
  io_->WriteExtent(file, offset, iolite::Aggregate::FromBuffer(std::move(buffer)));
  return n;
}

size_t PosixPipe::Write(const char* src, size_t n) {
  ctx_->ChargeCpu(ctx_->cost().SyscallCost());
  ctx_->stats().syscalls++;
  buffer_.insert(buffer_.end(), src, src + n);
  ctx_->ChargeCpu(ctx_->cost().CopyCost(n));
  ctx_->stats().bytes_copied += n;
  return n;
}

size_t PosixPipe::Read(char* dst, size_t n) {
  ctx_->ChargeCpu(ctx_->cost().SyscallCost());
  ctx_->stats().syscalls++;
  size_t avail = buffer_.size() - read_pos_;
  if (n > avail) {
    n = avail;
  }
  std::memcpy(dst, buffer_.data() + read_pos_, n);
  read_pos_ += n;
  ctx_->ChargeCpu(ctx_->cost().CopyCost(n));
  ctx_->stats().bytes_copied += n;
  Compact();
  return n;
}

void PosixPipe::Compact() {
  if (read_pos_ > 0 && read_pos_ == buffer_.size()) {
    buffer_.clear();
    read_pos_ = 0;
  }
}

MmapRegion::MmapRegion(PosixIo* posix, iolfs::FileId file)
    : posix_(posix), file_(file), length_(posix->io().fs().SizeOf(file)) {
  page_size_ = static_cast<size_t>(posix_->ctx()->cost().params().page_size);
  uint64_t pages = (length_ + page_size_ - 1) / page_size_;
  window_ = std::make_unique<char[]>(pages * page_size_);
  states_.assign(pages, PageState::kUntouched);
  dirty_.assign(pages, false);
  posix_->ctx()->ChargeCpu(posix_->ctx()->cost().SyscallCost());  // mmap(2).
  posix_->ctx()->stats().syscalls++;
}

bool MmapRegion::PageIsAligned(uint64_t page, const iolite::Aggregate& agg) const {
  // The page's bytes must come from one slice, and the slice's placement
  // within its buffer must preserve page alignment. Data read from local
  // disk is page-aligned and page-sized; data received from the network in
  // general is not (Section 3.5).
  uint64_t page_begin = page * page_size_;
  if (agg.slice_count() == 1) {
    const iolite::Slice& s = agg.slices()[0];
    return (s.offset() + page_begin) % page_size_ == 0;
  }
  // Multiple slices: check the slice covering this page covers it fully
  // and with aligned placement.
  uint64_t pos = 0;
  for (const iolite::Slice& s : agg.slices()) {
    uint64_t slice_end = pos + s.length();
    if (page_begin >= pos && page_begin < slice_end) {
      uint64_t page_end = page_begin + page_size_;
      if (page_end > length_) {
        page_end = length_;
      }
      bool covered = page_end <= slice_end;
      bool aligned = (s.offset() + (page_begin - pos)) % page_size_ == 0;
      return covered && aligned;
    }
    pos = slice_end;
  }
  return false;
}

void MmapRegion::FaultRead(uint64_t page) {
  if (states_[page] != PageState::kUntouched) {
    return;
  }
  iolsim::SimContext* ctx = posix_->ctx();
  uint64_t begin = page * page_size_;
  size_t len = page_size_;
  if (begin + len > length_) {
    len = length_ - begin;
  }
  iolite::Aggregate agg = posix_->io().ReadExtent(file_, begin, len);
  agg.CopyTo(window_.get() + begin);  // Host-side materialization.
  ctx->ChargeCpu(ctx->cost().PageMapCost(1));
  ctx->stats().pages_mapped++;
  pages_mapped_++;
  if (PageIsAligned(page, agg)) {
    states_[page] = PageState::kMapped;  // Shared mapping: no copy charged.
  } else {
    // Hardware alignment constraint: lazy per-page copy (Section 3.8).
    ctx->ChargeCpu(ctx->cost().CopyCost(len));
    ctx->stats().bytes_copied += len;
    pages_copied_++;
    states_[page] = PageState::kCopied;
  }
}

void MmapRegion::FaultWrite(uint64_t page) {
  FaultRead(page);
  if (states_[page] == PageState::kMapped) {
    // The page is shared with an immutable IO-Lite buffer: copy on write to
    // preserve the snapshot semantics of earlier IOL_reads.
    iolsim::SimContext* ctx = posix_->ctx();
    uint64_t begin = page * page_size_;
    size_t len = page_size_;
    if (begin + len > length_) {
      len = length_ - begin;
    }
    ctx->ChargeCpu(ctx->cost().CopyCost(len));
    ctx->stats().bytes_copied += len;
    pages_copied_++;
    states_[page] = PageState::kCopied;
  }
  dirty_[page] = true;
}

const char* MmapRegion::EnsureRead(uint64_t offset, size_t len) {
  assert(offset + len <= length_);
  uint64_t first = offset / page_size_;
  uint64_t last = len == 0 ? first : (offset + len - 1) / page_size_;
  for (uint64_t p = first; p <= last; ++p) {
    FaultRead(p);
  }
  return window_.get() + offset;
}

char* MmapRegion::EnsureWrite(uint64_t offset, size_t len) {
  assert(offset + len <= length_);
  uint64_t first = offset / page_size_;
  uint64_t last = len == 0 ? first : (offset + len - 1) / page_size_;
  for (uint64_t p = first; p <= last; ++p) {
    FaultWrite(p);
  }
  return window_.get() + offset;
}

void MmapRegion::Sync() {
  for (uint64_t p = 0; p < dirty_.size(); ++p) {
    if (!dirty_[p]) {
      continue;
    }
    uint64_t begin = p * page_size_;
    size_t len = page_size_;
    if (begin + len > length_) {
      len = length_ - begin;
    }
    // The dirtied page becomes new immutable file contents.
    iolite::BufferRef buffer = posix_->pool()->AllocateFrom(window_.get() + begin, len);
    posix_->io().WriteExtent(file_, begin, iolite::Aggregate::FromBuffer(std::move(buffer)));
    dirty_[p] = false;
  }
}

}  // namespace iolposix
