#include "src/iolite/buffer_pool.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/iolite/dma_fill.h"

namespace iolite {

std::atomic<uint64_t> BufferPool::next_pool_seed_{1};

void Buffer::Seal(size_t filled) {
  assert(!sealed_ && "double seal");
  assert(filled <= capacity_ && "seal beyond capacity");
  size_ = filled;
  sealed_ = true;
  pool_->OnBufferSealed(this);
}

void Buffer::SealDescribed(uint64_t seed, uint64_t offset, size_t n) {
  Seal(n);
  content_seed_ = seed;
  content_offset_ = offset;
  described_ = true;
}

void Buffer::Materialize() const {
  FillContent(content_seed_, content_offset_, data_, size_);
  described_ = false;
}

void Buffer::Release() {
  assert(refcount_ > 0);
  if (--refcount_ == 0) {
    pool_->OnBufferUnreferenced(this);
  }
}

const std::vector<iolsim::ChunkId>& Buffer::chunks() const { return pool_->ChunksOf(*this); }

BufferPool::BufferPool(iolsim::SimContext* ctx, std::string name, iolsim::DomainId producer,
                       ExtentAllocator extent_allocator)
    : ctx_(ctx),
      name_(std::move(name)),
      producer_(producer),
      extent_allocator_(std::move(extent_allocator)) {
  next_buffer_id_ = next_pool_seed_.fetch_add(1, std::memory_order_relaxed) << 32;
}

BufferPool::~BufferPool() {
  for (Extent& e : extents_) {
    for (iolsim::ChunkId c : e.chunks) {
      ctx_->vm().FreeChunk(c);
    }
  }
  ctx_->memory().Release(iolsim::MemCategory::kIoliteWindow, bytes_reserved_);
}

size_t BufferPool::NewExtent(size_t n) {
  const int chunk_size = ctx_->cost().params().chunk_size;
  size_t chunk_count = (n + chunk_size - 1) / chunk_size;
  if (chunk_count == 0) {
    chunk_count = 1;
  }
  Extent e;
  e.size = chunk_count * chunk_size;
  if (extent_allocator_) {
    e.data = extent_allocator_(e.size);
    if (e.data == nullptr) {
      // There is no error path out of Allocate; dying loudly beats handing
      // out a buffer over invalid memory (NDEBUG builds included).
      std::fprintf(stderr, "BufferPool '%s': extent allocator exhausted carving %zu bytes\n",
                   name_.c_str(), e.size);
      std::abort();
    }
  } else {
    // Not zero-filled: every buffer is written before it is read, and
    // nothing reads past a buffer's sealed size.
    e.owned = std::make_unique_for_overwrite<char[]>(e.size);
    e.data = e.owned.get();
  }
  for (size_t i = 0; i < chunk_count; ++i) {
    e.chunks.push_back(ctx_->vm().AllocateChunk(producer_));
  }
  bytes_reserved_ += e.size;
  ctx_->memory().Reserve(iolsim::MemCategory::kIoliteWindow, e.size);
  extents_.push_back(std::move(e));
  return extents_.size() - 1;
}

Buffer* BufferPool::CarveBuffer(size_t n) {
  const int chunk_size = ctx_->cost().params().chunk_size;
  size_t extent_index;
  size_t offset;
  if (n >= static_cast<size_t>(chunk_size)) {
    // Large object: dedicated multi-chunk extent, fully consumed so small
    // allocations can never carve into its storage.
    extent_index = NewExtent(n);
    offset = 0;
    extents_[extent_index].bump = extents_[extent_index].size;
  } else {
    // Small object: carve from the newest small extent, or open one.
    if (extents_.empty() || extents_.back().size - extents_.back().bump < n ||
        extents_.back().size > static_cast<size_t>(chunk_size)) {
      extent_index = NewExtent(chunk_size);
    } else {
      extent_index = extents_.size() - 1;
    }
    offset = extents_[extent_index].bump;
    extents_[extent_index].bump += n;
  }
  char* data = extents_[extent_index].data + offset;
  auto buffer = std::unique_ptr<Buffer>(
      new Buffer(this, next_buffer_id_++, data, n, extent_index, producer_));
  Buffer* raw = buffer.get();
  all_buffers_.push_back(std::move(buffer));
  ctx_->stats().buffers_allocated++;
  return raw;
}

void BufferPool::PrepareFill(Buffer* buffer) {
  if (producer_ == iolsim::kKernelDomain) {
    return;  // Trusted producer holds permanent write permission.
  }
  for (iolsim::ChunkId c : ChunksOf(*buffer)) {
    ctx_->vm().SetWritable(c, producer_, true);
  }
}

BufferRef BufferPool::Allocate(size_t n) {
  assert(n > 0 && "zero-size buffer");
  // First fit from the free list.
  auto it = free_list_.lower_bound(n);
  if (it != free_list_.end()) {
    Buffer* buffer = it->second;
    spare_nodes_.push_back(free_list_.extract(it));
    buffer->ResetForReuse(producer_);
    PrepareFill(buffer);
    ctx_->stats().buffers_recycled++;
    ++live_buffers_;
    return BufferRef(buffer);
  }
  Buffer* buffer = CarveBuffer(n);
  PrepareFill(buffer);
  ++live_buffers_;
  return BufferRef(buffer);
}

BufferRef BufferPool::AllocateFrom(const void* src, size_t n) {
  BufferRef buffer = Allocate(n);
  std::memcpy(buffer->writable_data(), src, n);
  ctx_->ChargeCpu(ctx_->cost().CopyCost(n));
  ctx_->stats().bytes_copied += n;
  buffer->Seal(n);
  return buffer;
}

BufferRef BufferPool::AllocateDma(uint64_t pattern_seed, size_t n) {
  BufferRef buffer = Allocate(n);
  // Deterministic content so checksums and tests are meaningful, filled
  // without CPU charge (DMA).
  FillXorshift(pattern_seed, buffer->writable_data(), n);
  buffer->Seal(n);
  return buffer;
}

const std::vector<iolsim::ChunkId>& BufferPool::ChunksOf(const Buffer& buffer) const {
  return extents_[buffer.extent_index_].chunks;
}

void BufferPool::OnBufferSealed(Buffer* buffer) {
  if (producer_ == iolsim::kKernelDomain) {
    return;  // Trusted producer: write permission is permanent.
  }
  for (iolsim::ChunkId c : ChunksOf(*buffer)) {
    ctx_->vm().SetWritable(c, producer_, false);
  }
}

void BufferPool::OnBufferUnreferenced(Buffer* buffer) {
  // The buffer's storage stays resident and mapped; it is simply available
  // for reuse. Mappings established in consumer domains persist, which is
  // what makes the next use of this buffer copy- and map-free.
  if (spare_nodes_.empty()) {
    free_list_.emplace(buffer->capacity(), buffer);
  } else {
    FreeList::node_type node = std::move(spare_nodes_.back());
    spare_nodes_.pop_back();
    node.key() = buffer->capacity();
    node.mapped() = buffer;
    free_list_.insert(std::move(node));
  }
  --live_buffers_;
  ctx_->stats().buffers_freed++;
}

}  // namespace iolite
