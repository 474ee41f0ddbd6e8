// MpmcQueue: a CAS-based multi-producer/multi-consumer descriptor queue in
// shared memory that lets *fleets* of processes share one channel (N proxy workers pulling client
// requests, M origin workers pulling miss-fills).
//
// The algorithm is the classic bounded MPMC queue (Dmitry Vyukov): each cell
// carries a sequence number; a producer claims a cell by CAS-advancing the
// enqueue ticket when the cell's sequence says "free at this lap", writes
// the 32-byte payload, and publishes with a release store of the sequence.
// Consumers mirror it on the dequeue ticket. No side ever spins on a lock:
// a full/empty queue fails fast and the caller decides how to wait.
//
// Cells carry exactly one SliceDesc (32 bytes). Anything the plane sends —
// client requests, free-slot tokens — is encoded as a 32-byte trivially
// copyable struct and punned through PushAs/PopAs, so the queue stays a
// single well-tested primitive. All layouts below are ABI (read by
// scripts/shm_inspect.py).

#ifndef SRC_IPC_MPMC_QUEUE_H_
#define SRC_IPC_MPMC_QUEUE_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "src/ipc/shm_region.h"
#include "src/ipc/shm_table.h"
#include "src/ipc/slice_desc.h"

namespace iolipc {

class MpmcQueue {
 public:
  // Shared state at the queue's base, followed by `capacity` cells. The
  // ticket counters live on their own cache lines (producers and consumers
  // each contend on exactly one line).
  struct QueueState {
    uint32_t magic;     // offset 0: kQueueMagic.
    uint32_t capacity;  // offset 4: cell count, power of two.
    char pad0[56];
    std::atomic<uint64_t> enqueue_pos;  // offset 64: producer ticket.
    char pad1[56];
    std::atomic<uint64_t> dequeue_pos;  // offset 128: consumer ticket.
    char pad2[56];
    std::atomic<uint32_t> closed;       // offset 192.
    char pad3[60];
  };
  static_assert(sizeof(QueueState) == 256, "queue state layout is ABI");

  struct Cell {
    std::atomic<uint64_t> seq;  // offset 0.
    uint64_t pad;
    SliceDesc item;             // offset 16.
    char pad2[16];
  };
  static_assert(sizeof(Cell) == 64, "queue cell layout is ABI");

  MpmcQueue() = default;

  // Carves state + cells out of `region` and registers the span in `table`
  // under `name` (pass a null table to skip registration). `capacity` must
  // be a power of two. Invalid handle when the region is exhausted.
  static MpmcQueue Create(ShmRegion* region, ShmTable* table, const char* name,
                          uint32_t capacity);

  // Adopts the queue published in `table` under `name`.
  static MpmcQueue Attach(const ShmTable& table, const char* name);

  bool valid() const { return state_ != nullptr; }
  uint32_t capacity() const { return state_->capacity; }

  // Enqueues one descriptor. False when the queue is full (caller backs off)
  // or closed.
  bool TryPush(const SliceDesc& d);

  // Dequeues one descriptor. False when the queue is empty.
  bool TryPop(SliceDesc* out);

  // Typed pun for 32-byte plane messages.
  template <typename T>
  bool PushAs(const T& msg) {
    static_assert(sizeof(T) == sizeof(SliceDesc), "plane messages are 32-byte cells");
    static_assert(std::is_trivially_copyable_v<T>, "messages cross process boundaries");
    SliceDesc d;
    std::memcpy(&d, &msg, sizeof(d));
    return TryPush(d);
  }

  template <typename T>
  bool PopAs(T* msg) {
    static_assert(sizeof(T) == sizeof(SliceDesc), "plane messages are 32-byte cells");
    static_assert(std::is_trivially_copyable_v<T>, "messages cross process boundaries");
    SliceDesc d;
    if (!TryPop(&d)) {
      return false;
    }
    std::memcpy(msg, &d, sizeof(d));
    return true;
  }

  // Producer-side end-of-stream flag. Consumers keep draining after Close;
  // drained() is the termination test of every worker loop.
  void Close() { state_->closed.store(1, std::memory_order_release); }
  bool closed() const { return state_->closed.load(std::memory_order_acquire) != 0; }
  bool drained() const;

 private:
  static constexpr uint32_t kQueueMagic = 0x494f4c51;  // "IOLQ"

  QueueState* state_ = nullptr;
  Cell* cells_ = nullptr;
  uint32_t mask_ = 0;
};

}  // namespace iolipc

#endif  // SRC_IPC_MPMC_QUEUE_H_
