// ShmFuturePool: pooled one-shot futures in shared memory — how a proxy
// worker awaits an origin miss-fill without copying anything.
//
// A future is a fixed slot holding up to two SliceDescs (header span + body
// span): the waiter allocates a slot, ships its handle to the filler inside
// a queue message, and spins/yields until the filler's release store of the
// state word publishes the descriptors. The payload the descriptors name
// never moves — completing a future transfers *references*, the IOL-IPC
// discipline at one more level.
//
// Handles carry a generation number: a slot is only completable while the
// generation matches, so a late filler (or one whose waiter timed out and
// recycled the slot) writes nothing — it gets `false` and walks away. That
// is the crash-recovery story: a waiter whose filler died times out, fails
// the future itself, and the slot is safely reusable even if the filler
// somehow resurfaces.
//
// Layouts are ABI (scripts/shm_inspect.py reports per-state slot counts).

#ifndef SRC_IPC_SHM_FUTURE_H_
#define SRC_IPC_SHM_FUTURE_H_

#include <atomic>
#include <cstdint>
#include <functional>

#include "src/ipc/shm_region.h"
#include "src/ipc/shm_table.h"
#include "src/ipc/slice_desc.h"

namespace iolipc {

// Opaque future handle: (generation << 32) | slot index. Crosses process
// boundaries inside 32-byte plane messages.
using FutureHandle = uint64_t;
constexpr FutureHandle kInvalidFuture = ~0ull;

// How a worker waits: called once per fruitless poll. Forked workers pass
// sched_yield; the in-process pump passes "run the other roles one step",
// which is what makes the same worker code a deterministic simulator.
using YieldFn = std::function<void()>;

class ShmFuturePool {
 public:
  enum State : uint32_t { kFree = 0, kPending = 1, kReady = 2, kError = 3 };

  // At the pool's base; 64 bytes. Layout is ABI.
  struct PoolHeader {
    uint32_t magic;                    // offset 0: kFutureMagic.
    uint32_t capacity;                 // offset 4.
    std::atomic<uint32_t> allocated;   // offset 8: live (pending/ready/error).
    std::atomic<uint32_t> alloc_hint;  // offset 12: rotating scan start.
    char pad[48];
  };
  static_assert(sizeof(PoolHeader) == 64, "future pool header layout is ABI");

  struct FutureSlot {
    std::atomic<uint32_t> state;  // offset 0.
    std::atomic<uint32_t> gen;    // offset 4: bumped on every Release.
    uint32_t error;               // offset 8.
    uint32_t reserved;            // offset 12.
    SliceDesc value[2];           // offset 16: header span, body span.
    char pad[48];
  };
  static_assert(sizeof(FutureSlot) == 128, "future slot layout is ABI");

  struct WaitResult {
    bool ok = false;          // kReady observed.
    bool timed_out = false;   // Deadline hit while still kPending.
    uint32_t error = 0;       // Filler-reported error when !ok && !timed_out.
    SliceDesc value[2] = {};  // Valid when ok.
  };

  ShmFuturePool() = default;

  static ShmFuturePool Create(ShmRegion* region, ShmTable* table, const char* name,
                              uint32_t capacity);
  static ShmFuturePool Attach(const ShmTable& table, const char* name);

  bool valid() const { return header_ != nullptr; }
  uint32_t capacity() const { return header_->capacity; }
  uint32_t allocated() const { return header_->allocated.load(std::memory_order_acquire); }

  // Claims a free slot (kFree -> kPending, generation captured in the
  // handle). kInvalidFuture when the pool is exhausted.
  FutureHandle Acquire();

  // Filler side: publishes the value (kPending -> kReady) or an error
  // (kPending -> kError). False when the handle is stale — the waiter gave
  // up and the slot moved on; the filler must not retry.
  bool Complete(FutureHandle h, const SliceDesc& header, const SliceDesc& body);
  bool Fail(FutureHandle h, uint32_t error);

  // Waiter side: polls until the future leaves kPending or ~`timeout_us`
  // host microseconds elapse, calling `yield` between polls.
  WaitResult Wait(FutureHandle h, uint64_t timeout_us, const YieldFn& yield);

  // Returns the slot to kFree and bumps its generation, invalidating every
  // outstanding handle to it. Only the handle's owner may call this.
  void Release(FutureHandle h);

  // Slot count currently in `s` (diagnostics/tests; approximate).
  uint32_t CountInState(State s) const;

 private:
  static constexpr uint32_t kFutureMagic = 0x494f4c46;  // "IOLF"

  FutureSlot* slots() const {
    return reinterpret_cast<FutureSlot*>(reinterpret_cast<char*>(header_) +
                                         sizeof(PoolHeader));
  }
  FutureSlot* SlotOf(FutureHandle h, uint32_t* gen) const;

  PoolHeader* header_ = nullptr;
};

}  // namespace iolipc

#endif  // SRC_IPC_SHM_FUTURE_H_
