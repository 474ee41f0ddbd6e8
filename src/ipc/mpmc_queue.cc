#include "src/ipc/mpmc_queue.h"

#include <sched.h>

#include <cassert>

namespace iolipc {

MpmcQueue MpmcQueue::Create(ShmRegion* region, ShmTable* table, const char* name,
                            uint32_t capacity) {
  assert(capacity >= 2 && (capacity & (capacity - 1)) == 0 && "capacity must be 2^k");
  size_t span = sizeof(QueueState) + static_cast<size_t>(capacity) * sizeof(Cell);
  char* base = region->AllocateExtent(span);
  MpmcQueue q;
  if (base == nullptr) {
    return q;
  }
  std::memset(base, 0, span);
  q.state_ = reinterpret_cast<QueueState*>(base);
  q.cells_ = reinterpret_cast<Cell*>(base + sizeof(QueueState));
  q.mask_ = capacity - 1;
  q.state_->capacity = capacity;
  for (uint32_t i = 0; i < capacity; ++i) {
    q.cells_[i].seq.store(i, std::memory_order_relaxed);
  }
  std::atomic_thread_fence(std::memory_order_release);
  q.state_->magic = kQueueMagic;
  if (table != nullptr && !table->Publish(name, region->OffsetOf(base), span,
                                          ShmType::kQueue)) {
    return MpmcQueue{};
  }
  return q;
}

MpmcQueue MpmcQueue::Attach(const ShmTable& table, const char* name) {
  MpmcQueue q;
  uint64_t span = 0;
  char* base = table.Locate(name, ShmType::kQueue, sizeof(QueueState), &span);
  auto* state = reinterpret_cast<QueueState*>(base);
  if (state == nullptr || state->magic != kQueueMagic || state->capacity == 0 ||
      (state->capacity & (state->capacity - 1)) != 0 ||
      sizeof(QueueState) + uint64_t{state->capacity} * sizeof(Cell) > span) {
    return q;
  }
  q.state_ = state;
  q.cells_ = reinterpret_cast<Cell*>(base + sizeof(QueueState));
  q.mask_ = state->capacity - 1;
  return q;
}

bool MpmcQueue::TryPush(const SliceDesc& d) {
  uint64_t pos = state_->enqueue_pos.load(std::memory_order_relaxed);
  for (;;) {
    Cell& cell = cells_[pos & mask_];
    uint64_t seq = cell.seq.load(std::memory_order_acquire);
    int64_t dif = static_cast<int64_t>(seq) - static_cast<int64_t>(pos);
    if (dif == 0) {
      if (state_->enqueue_pos.compare_exchange_weak(pos, pos + 1,
                                                    std::memory_order_relaxed)) {
        cell.item = d;
        cell.seq.store(pos + 1, std::memory_order_release);
        if (ClaimSleepers(&state_->sleepers)) {
          Wake();
        }
        return true;
      }
      // CAS reloaded `pos`; retry with the fresher ticket.
    } else if (dif < 0) {
      return false;  // Full: the cell is still occupied from the last lap.
    } else {
      pos = state_->enqueue_pos.load(std::memory_order_relaxed);
    }
  }
}

bool MpmcQueue::TryPop(SliceDesc* out) {
  uint64_t pos = state_->dequeue_pos.load(std::memory_order_relaxed);
  for (;;) {
    Cell& cell = cells_[pos & mask_];
    uint64_t seq = cell.seq.load(std::memory_order_acquire);
    int64_t dif = static_cast<int64_t>(seq) - static_cast<int64_t>(pos + 1);
    if (dif == 0) {
      if (state_->dequeue_pos.compare_exchange_weak(pos, pos + 1,
                                                    std::memory_order_relaxed)) {
        *out = cell.item;
        cell.seq.store(pos + mask_ + 1, std::memory_order_release);
        return true;
      }
    } else if (dif < 0) {
      return false;  // Empty: the cell has not been produced this lap.
    } else {
      pos = state_->dequeue_pos.load(std::memory_order_relaxed);
    }
  }
}

bool MpmcQueue::empty() const {
  for (;;) {
    uint64_t pos = state_->dequeue_pos.load(std::memory_order_acquire);
    uint64_t seq = cells_[pos & mask_].seq.load(std::memory_order_acquire);
    int64_t dif = static_cast<int64_t>(seq) - static_cast<int64_t>(pos + 1);
    if (dif <= 0) {
      return dif < 0;
    }
    // Another consumer popped the head meanwhile: look again.
  }
}

void MpmcQueue::AwaitItem() {
  const uint64_t spin_end = MonotonicNs() + kSpinBudgetNs;
  while (empty() && !closed()) {
    if (MonotonicNs() < spin_end) {
      sched_yield();
    } else {
      Park(kParkTimeoutUs);
    }
  }
}

bool MpmcQueue::Park(uint64_t timeout_us) {
  uint32_t seq = state_->wake_seq.load(std::memory_order_acquire);
  RegisterSleeper(&state_->sleepers);
  // The re-check: a push that landed before the registration saw no
  // sleeper and will not wake us.
  if (!empty() || closed()) {
    return false;
  }
  if (counters_.valid()) {
    counters_.Add(kParks, 1);
  }
  FutexWait(&state_->wake_seq, seq, timeout_us);
  return true;
}

void MpmcQueue::Wake() {
  state_->wake_seq.fetch_add(1, std::memory_order_release);
  FutexWakeAll(&state_->wake_seq);
  if (counters_.valid()) {
    counters_.Add(kWakes, 1);
  }
}

void MpmcQueue::Close() {
  state_->closed.store(1, std::memory_order_release);
  Wake();
}

bool MpmcQueue::drained() const {
  if (!closed()) {
    return false;
  }
  // Acquire on both tickets: after Close, a producer's last publish
  // happens-before the consumer's closed() read in every interleaving the
  // plane uses (close-then-join).
  uint64_t tail = state_->enqueue_pos.load(std::memory_order_acquire);
  uint64_t head = state_->dequeue_pos.load(std::memory_order_acquire);
  return head >= tail;
}

}  // namespace iolipc
