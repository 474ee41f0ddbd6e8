#include "src/ipc/shm_future.h"

#include <time.h>

#include <cassert>
#include <cstring>

namespace iolipc {

namespace {

constexpr uint32_t kTimedOut = 2;  // The error a waiter fails its future with.

// The generation (high) half of `word` with `low` as its low half: a slot
// word from a handle or a word, or a handle from a word and a slot index.
uint64_t WordOf(uint64_t word, uint32_t low) {
  return (word & ~uint64_t{0xffffffffu}) | low;
}

uint32_t StateOf(uint64_t word) { return static_cast<uint32_t>(word); }

uint64_t NowMicros() {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000ull +
         static_cast<uint64_t>(ts.tv_nsec) / 1000ull;
}

}  // namespace

ShmFuturePool ShmFuturePool::Create(ShmRegion* region, ShmTable* table,
                                    const char* name, uint32_t capacity) {
  assert(capacity > 0);
  size_t span = sizeof(PoolHeader) + static_cast<size_t>(capacity) * sizeof(FutureSlot);
  char* base = region->AllocateExtent(span);
  ShmFuturePool pool;
  if (base == nullptr) {
    return pool;
  }
  std::memset(base, 0, span);
  pool.header_ = reinterpret_cast<PoolHeader*>(base);
  pool.header_->capacity = capacity;
  std::atomic_thread_fence(std::memory_order_release);
  pool.header_->magic = kFutureMagic;
  if (table != nullptr &&
      !table->Publish(name, region->OffsetOf(base), span, ShmType::kFutures)) {
    return ShmFuturePool{};
  }
  return pool;
}

ShmFuturePool ShmFuturePool::Attach(const ShmTable& table, const char* name) {
  ShmFuturePool pool;
  uint64_t span = 0;
  auto* header = reinterpret_cast<PoolHeader*>(
      table.Locate(name, ShmType::kFutures, sizeof(PoolHeader), &span));
  if (header == nullptr || header->magic != kFutureMagic || header->capacity == 0 ||
      sizeof(PoolHeader) + uint64_t{header->capacity} * sizeof(FutureSlot) > span) {
    return pool;
  }
  pool.header_ = header;
  return pool;
}

ShmFuturePool::FutureSlot* ShmFuturePool::SlotOf(FutureHandle h) const {
  uint32_t idx = static_cast<uint32_t>(h & 0xffffffffu);
  return idx < header_->capacity ? &slots()[idx] : nullptr;
}

FutureHandle ShmFuturePool::Acquire() {
  uint32_t cap = header_->capacity;
  uint32_t start = header_->alloc_hint.fetch_add(1, std::memory_order_relaxed);
  for (uint32_t i = 0; i < cap; ++i) {
    uint32_t idx = (start + i) % cap;
    FutureSlot& s = slots()[idx];
    uint64_t word = s.word.load(std::memory_order_relaxed);
    if (StateOf(word) == kFree &&
        s.word.compare_exchange_strong(word, WordOf(word, kPending),
                                       std::memory_order_acquire)) {
      header_->allocated.fetch_add(1, std::memory_order_relaxed);
      return WordOf(word, idx);
    }
  }
  return kInvalidFuture;
}

bool ShmFuturePool::Resolve(FutureHandle h, State to, uint32_t error,
                            const SliceDesc& header, const SliceDesc& body) {
  FutureSlot* s = SlotOf(h);
  // A stale handle, a resolved future and one another filler holds all
  // fail this one CAS; the winner holds the slot exclusively, since the
  // waiter cannot release a kWriting slot.
  uint64_t expected = WordOf(h, kPending);
  if (s == nullptr || !s->word.compare_exchange_strong(expected, WordOf(h, kWriting),
                                                       std::memory_order_acquire)) {
    return false;
  }
  s->error = error;
  s->value[0] = header;
  s->value[1] = body;
  s->word.store(WordOf(h, to), std::memory_order_release);
  return true;
}

bool ShmFuturePool::Complete(FutureHandle h, const SliceDesc& header,
                             const SliceDesc& body) {
  return Resolve(h, kReady, 0, header, body);
}

bool ShmFuturePool::Fail(FutureHandle h, uint32_t error) {
  return Resolve(h, kError, error, SliceDesc{}, SliceDesc{});
}

ShmFuturePool::WaitResult ShmFuturePool::Wait(FutureHandle h, uint64_t timeout_us,
                                              const YieldFn& yield) {
  WaitResult result;
  FutureSlot* s = SlotOf(h);
  if (s == nullptr || (s->word.load(std::memory_order_acquire) >> 32) != (h >> 32)) {
    result.error = 1;
    return result;
  }
  uint64_t deadline = NowMicros() + timeout_us;
  bool failed_it = false;
  bool extended = false;
  for (;;) {
    uint32_t st = StateOf(s->word.load(std::memory_order_acquire));
    if (st == kReady) {
      result.ok = true;
      result.value[0] = s->value[0];
      result.value[1] = s->value[1];
      return result;
    }
    if (st == kError) {
      result.error = s->error;
      result.timed_out = failed_it;
      return result;
    }
    if (NowMicros() >= deadline) {
      // Deadline: try to fail the future ourselves. Losing the race to a
      // filler is fine — the next poll observes its result instead.
      if (Fail(h, kTimedOut)) {
        failed_it = true;
        continue;
      }
      if (StateOf(s->word.load(std::memory_order_acquire)) == kWriting) {
        // A filler holds the slot mid-publish: one more timeout for it,
        // then give up on a filler that died there.
        if (extended) {
          result.timed_out = true;
          result.error = kTimedOut;
          return result;
        }
        extended = true;
        deadline = NowMicros() + timeout_us;
      }
      continue;
    }
    if (yield) {
      yield();
    }
  }
}

void ShmFuturePool::Release(FutureHandle h) {
  FutureSlot* s = SlotOf(h);
  assert(s != nullptr && "Release of an invalid handle");
  uint64_t word = s->word.load(std::memory_order_acquire);
  assert((word >> 32) == (h >> 32) && "Release of a stale handle");
  if (StateOf(word) == kWriting) {
    return;  // Its filler never published: the slot stays allocated.
  }
  assert((StateOf(word) == kReady || StateOf(word) == kError) &&
         "Release before completion");
  // Bump the generation as the slot is freed, in one store: a handle minted
  // before this point can never publish into the slot's next life.
  header_->allocated.fetch_sub(1, std::memory_order_relaxed);
  s->word.store(WordOf(word + (uint64_t{1} << 32), kFree), std::memory_order_release);
}

uint32_t ShmFuturePool::CountInState(State state) const {
  uint32_t n = 0;
  for (uint32_t i = 0; i < header_->capacity; ++i) {
    if (StateOf(slots()[i].word.load(std::memory_order_acquire)) == state) {
      ++n;
    }
  }
  return n;
}

}  // namespace iolipc
