// The plane's one wait policy: how every consumer of a plane queue, and the
// client awaiting a response future, waits when there is nothing to take.
//
// A waiter first spins for kSpinBudgetNs, re-polling between sched_yield
// calls. Then it parks: it registers as a sleeper in the structure's event
// count, re-checks its condition, and sleeps in futex(2) on a 32-bit word of
// the shared region until a producer wakes it or kParkTimeoutUs pass (a
// future's waiter never sleeps past its own deadline). The futex calls carry
// no FUTEX_PRIVATE_FLAG, so the same word parks threads and fork()ed
// processes alike.
//
// The producer's half is ClaimSleepers, right after its publishing store: one
// seq_cst fence and one load of the sleeper count, and a futex wake only when
// someone registered. The fences on both sides make it a Dekker handshake:
// either the producer sees the registration, or the sleeper's re-check sees
// the item. A wake claims every registration at once (the count drops to 0)
// and wakes every sleeper on the word, and a woken sleeper that parks again
// registers again. So a sleeper killed inside futex leaves one stale
// registration, which costs the next producer one wake and is gone.
//
// The spin budget matters for throughput: a futex wake costs more than a
// plane worker's gap between requests under load, so a worker that is
// merely between two requests must not park. The in-process pump never
// parks: its YieldFn runs the other roles instead.

#ifndef SRC_IPC_EVENT_COUNT_H_
#define SRC_IPC_EVENT_COUNT_H_

#include <sched.h>

#include <atomic>
#include <cstdint>
#include <functional>

namespace iolipc {

// How long a waiter polls before it parks, and how long one park lasts.
inline constexpr uint64_t kSpinBudgetNs = 20'000;
inline constexpr uint64_t kParkTimeoutUs = 200'000;

static_assert(sizeof(std::atomic<uint32_t>) == 4 && std::atomic<uint32_t>::is_always_lock_free,
              "futex words are plain 32-bit words in the shared region");

// How a worker waits, called once per fruitless poll. Empty: a concurrent
// worker (thread or forked process), which waits by the policy above on the
// word it awaits. The in-process pump passes "run the other roles one
// step", which is what makes the same worker code a deterministic
// simulator.
using YieldFn = std::function<void()>;

// A wait with nothing narrower to await (a full queue, an exhausted pool):
// `yield` when the caller pumps, else one sched_yield.
inline void Backoff(const YieldFn& yield) {
  if (yield) {
    yield();
  } else {
    sched_yield();
  }
}

// CLOCK_MONOTONIC in nanoseconds.
uint64_t MonotonicNs();

// Sleeps while `*word` reads `expected`, at most `timeout_us`, unless woken.
void FutexWait(std::atomic<uint32_t>* word, uint32_t expected, uint64_t timeout_us);

// Wakes every sleeper on `word`.
void FutexWakeAll(std::atomic<uint32_t>* word);

// The sleeper's half, before its re-check: registers on `sleepers`.
inline void RegisterSleeper(std::atomic<uint32_t>* sleepers) {
  sleepers->fetch_add(1, std::memory_order_seq_cst);
  std::atomic_thread_fence(std::memory_order_seq_cst);
}

// The producer's half, after its publishing store: true when it claimed at
// least one registration and so must wake the word the sleepers park on.
inline bool ClaimSleepers(std::atomic<uint32_t>* sleepers) {
  std::atomic_thread_fence(std::memory_order_seq_cst);
  return sleepers->load(std::memory_order_relaxed) != 0 &&
         sleepers->exchange(0, std::memory_order_acq_rel) != 0;
}

}  // namespace iolipc

#endif  // SRC_IPC_EVENT_COUNT_H_
