#include "src/iolite/buffer_pool.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <type_traits>

#include "src/iolite/dma_fill.h"

namespace iolite {

namespace {

// A heap pool's extent blocks: 1 MB, doubling up to 16 MB.
constexpr size_t kFirstExtentBlock = size_t{1} << 20;
constexpr size_t kMaxExtentBlock = size_t{16} << 20;
// Its Buffer objects' blocks: 8 KB, doubling up to 512 KB.
constexpr size_t kFirstBufferBlock = size_t{8} << 10;
constexpr size_t kMaxBufferBlock = size_t{512} << 10;

// The pool frees its Buffers with their arena's blocks, destructors unrun.
static_assert(std::is_trivially_destructible_v<Buffer>);

}  // namespace

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

BufferPool::BufferPool(iolsim::SimContext* ctx, std::string name, iolsim::DomainId producer,
                       ExtentAllocator extent_allocator)
    : ctx_(ctx),
      name_(std::move(name)),
      producer_(producer),
      heap_backed_(!extent_allocator),
      extent_arena_(kFirstExtentBlock, kMaxExtentBlock),
      extent_allocator_(std::move(extent_allocator)),
      buffer_arena_(kFirstBufferBlock, kMaxBufferBlock) {
  if (heap_backed_) {
    // Not zero-filled: every buffer is written before it is read, and
    // nothing reads past a buffer's sealed size.
    extent_allocator_ = [this](size_t n) { return extent_arena_.Carve(n); };
  }
  next_buffer_id_ = next_pool_seed_.fetch_add(1, std::memory_order_relaxed) << 32;
}

BufferPool::~BufferPool() {
  for (const Extent& e : extents_) {
    for (iolsim::ChunkId c : e.chunks) {
      ctx_->vm().FreeChunk(c);
    }
  }
  ctx_->memory().Release(iolsim::MemCategory::kIoliteWindow, bytes_reserved_);
}

size_t BufferPool::NewExtent(size_t n) {
  const size_t chunk_size = ctx_->cost().params().chunk_size;
  const size_t chunk_count = std::max<size_t>((n + chunk_size - 1) / chunk_size, 1);
  Extent e;
  e.size = chunk_count * chunk_size;
  e.data = extent_allocator_(e.size);
  if (e.data == nullptr) {
    // There is no error path out of Allocate; dying loudly beats handing
    // out a buffer over invalid memory (NDEBUG builds included).
    std::fprintf(stderr, "BufferPool '%s': extent allocator exhausted carving %zu bytes\n",
                 name_.c_str(), e.size);
    std::abort();
  }
  e.chunks = ctx_->vm().AllocateChunks(producer_, chunk_count);
  bytes_reserved_ += e.size;
  ctx_->memory().Reserve(iolsim::MemCategory::kIoliteWindow, e.size);
  extents_.push_back(e);
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
  const Extent& e = extents_[extent_index];
  Buffer* buffer = new (buffer_arena_.Carve(sizeof(Buffer)))
      Buffer(this, next_buffer_id_++, e.data + offset, n, e.chunks, producer_);
  ctx_->stats().buffers_allocated++;
  return buffer;
}

void BufferPool::PrepareFill(Buffer* buffer) {
  if (producer_ == iolsim::kKernelDomain) {
    return;  // Trusted producer holds permanent write permission.
  }
  for (iolsim::ChunkId c : buffer->chunks()) {
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

void BufferPool::OnBufferSealed(Buffer* buffer) {
  if (producer_ == iolsim::kKernelDomain) {
    return;  // Trusted producer: write permission is permanent.
  }
  for (iolsim::ChunkId c : buffer->chunks()) {
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
