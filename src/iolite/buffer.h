// Immutable IO-Lite buffers (Section 3.1).
//
// A Buffer is allocated with an initial content that may not subsequently be
// modified; all sharing is therefore read-only. Buffers are refcounted
// system-wide so unused buffers can be reclaimed safely, and each carries a
// generation number that is incremented on reallocation: (buffer id,
// generation) uniquely identifies buffer *contents* system-wide, which is
// what enables cross-subsystem optimizations such as checksum caching
// (Section 3.9).
//
// Lifecycle: a buffer is carved out of a pool extent (a run of consecutive
// VM chunks, buffer_pool.h) in the *filling* state, the producer writes its
// content exactly once, then Seal() freezes it. Only sealed buffers may
// appear in aggregates that cross protection domains.
//
// A disk read may instead seal a buffer over a *content descriptor* (the
// file's content seed and offset, SealDescribed): the contents are fixed
// from that moment, but no byte is written yet. The first data() call
// writes them (FillContent) and drops the descriptor, so every reader sees
// the same bytes either way, while readers that only need a function of the
// contents (the checksum module) can generate them without touching the
// buffer's memory. Reuse (a new generation) drops the descriptor too.
//
// Buffers are not thread-safe: data() may write on first call, so a buffer
// is read only by the machine (thread) that owns it. Cross-process and
// cross-thread sharing goes through region-backed pools, whose buffers are
// always written at fill time.

#ifndef SRC_IOLITE_BUFFER_H_
#define SRC_IOLITE_BUFFER_H_

#include <cassert>
#include <cstdint>
#include <cstring>

#include "src/simos/vm.h"

namespace iolite {

class BufferPool;

class Buffer {
 public:
  // Buffers are created only by BufferPool.
  Buffer(const Buffer&) = delete;
  Buffer& operator=(const Buffer&) = delete;

  // Stable identity. The id plays the role of the buffer's address in the
  // IO-Lite window; together with the generation it names the contents.
  uint64_t id() const { return id_; }
  uint32_t generation() const { return generation_; }

  // Capacity carved from the pool; size() is the number of bytes the
  // producer actually filled (fixed at Seal time).
  size_t capacity() const { return capacity_; }
  size_t size() const { return size_; }

  bool sealed() const { return sealed_; }

  // Read access to the immutable contents. Valid only once sealed. A
  // descriptor-backed buffer writes its bytes here, on the first call.
  const char* data() const {
    assert(sealed_ && "reading an unsealed buffer");
    if (described_) {
      Materialize();
    }
    return data_;
  }

  // True while the contents are a descriptor whose bytes are not yet
  // written: byte i is FillContent's byte at content_offset() + i for
  // content_seed(). Valid only once sealed.
  bool described() const { return described_; }
  uint64_t content_seed() const { return content_seed_; }
  uint64_t content_offset() const { return content_offset_; }

  // A one-shot buffer's contents are transmitted once (a response header),
  // so no later checksum lookup names its (id, generation): the checksum
  // cache gives its slices no entry (checksum.h). Reuse clears the mark.
  void MarkOneShot() {
    assert(sealed_ && "marking an unsealed buffer one-shot");
    one_shot_ = true;
  }
  bool one_shot() const { return one_shot_; }
  // Records a checksum charge of this one-shot generation; false if one
  // was already recorded.
  bool FirstOneShotCharge() const {
    const bool first = !one_shot_charged_;
    one_shot_charged_ = true;
    return first;
  }

  // Write access during the fill phase. Asserts immutability afterwards.
  char* writable_data() {
    assert(!sealed_ && "IO-Lite buffers are immutable once sealed");
    return data_;
  }

  // Freezes the first `filled` bytes as the buffer's immutable content and
  // revokes the producer's write permission (unless the producer is the
  // trusted kernel, Section 3.2).
  void Seal(size_t filled);

  // Seals `n` bytes of generated disk content, FillContent(seed, offset),
  // without writing them; data() writes them on first use.
  void SealDescribed(uint64_t seed, uint64_t offset, size_t n);

  // The VM chunks of the extent this buffer's storage lies in (for mapping
  // operations).
  iolsim::ChunkRange chunks() const { return chunks_; }

  BufferPool* pool() const { return pool_; }
  iolsim::DomainId producer() const { return producer_; }

  // Intrusive reference counting. Release() returning the buffer to its
  // pool's free list is what makes warm-path transfers allocation-free.
  void AddRef() { ++refcount_; }
  void Release();
  int refcount() const { return refcount_; }

 private:
  friend class BufferPool;

  Buffer(BufferPool* pool, uint64_t id, char* data, size_t capacity, iolsim::ChunkRange chunks,
         iolsim::DomainId producer)
      : pool_(pool), id_(id), data_(data), capacity_(capacity), chunks_(chunks), producer_(producer) {}

  // Pool-side reuse: bumps the generation, returns to the filling state.
  void ResetForReuse(iolsim::DomainId producer) {
    ++generation_;
    sealed_ = false;
    described_ = false;
    one_shot_ = false;
    one_shot_charged_ = false;
    size_ = 0;
    producer_ = producer;
  }

  // Writes the described bytes and drops the descriptor.
  void Materialize() const;

  BufferPool* pool_;
  uint64_t id_;
  char* data_;
  size_t capacity_;
  iolsim::ChunkRange chunks_;
  iolsim::DomainId producer_;
  uint32_t generation_ = 1;
  size_t size_ = 0;
  bool sealed_ = false;
  mutable bool described_ = false;
  bool one_shot_ = false;
  mutable bool one_shot_charged_ = false;
  uint64_t content_seed_ = 0;
  uint64_t content_offset_ = 0;
  int refcount_ = 0;
};

// Smart pointer managing Buffer refcounts.
class BufferRef {
 public:
  BufferRef() = default;
  explicit BufferRef(Buffer* b) : b_(b) {
    if (b_ != nullptr) {
      b_->AddRef();
    }
  }
  BufferRef(const BufferRef& other) : BufferRef(other.b_) {}
  BufferRef(BufferRef&& other) noexcept : b_(other.b_) { other.b_ = nullptr; }
  BufferRef& operator=(const BufferRef& other) {
    if (this != &other) {
      Reset();
      b_ = other.b_;
      if (b_ != nullptr) {
        b_->AddRef();
      }
    }
    return *this;
  }
  BufferRef& operator=(BufferRef&& other) noexcept {
    if (this != &other) {
      Reset();
      b_ = other.b_;
      other.b_ = nullptr;
    }
    return *this;
  }
  ~BufferRef() { Reset(); }

  void Reset() {
    if (b_ != nullptr) {
      b_->Release();
      b_ = nullptr;
    }
  }

  Buffer* get() const { return b_; }
  Buffer* operator->() const { return b_; }
  Buffer& operator*() const { return *b_; }
  explicit operator bool() const { return b_ != nullptr; }
  bool operator==(const BufferRef& other) const { return b_ == other.b_; }

 private:
  Buffer* b_ = nullptr;
};

}  // namespace iolite

#endif  // SRC_IOLITE_BUFFER_H_
