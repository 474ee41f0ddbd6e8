// Conservative parallel discrete-event execution: shard lanes + a windowed
// lookahead runner.
//
// A ShardLane is one sequential simulation island (its own SimContext,
// clock, and event queue). The ShardRunner executes N lanes in barrier-
// synchronized rounds: each round drains cross-lane mailboxes, computes the
// global minimum next-event time, and lets every lane run the window
// [min, min + lookahead) in parallel. Lookahead is the minimum cross-lane
// link latency, so any message sent inside a window arrives at or after the
// window's end — no lane can ever receive an event in its past (the
// classic windowed CMB/YAWNS discipline).
//
// Determinism is structural, not scheduled: the round sequence, the window
// boundaries, each lane's intra-window execution, and the mailbox drain
// order (sender 0..N-1, FIFO within a sender) are all functions of the
// simulation state alone. OS threads only *execute* lanes — the
// thread count changes wall-clock time and nothing else, which is what
// makes `shards=N` telemetry byte-identical to `shards=1`.
//
// Mailboxes are fixed-capacity SPSC rings (power-of-two capacity,
// acquire/release head/tail). Overflow spills to a sender-side vector — deterministically:
// once a window spills, it keeps spilling, so the drain (ring first, then
// spill) always replays the exact send order.

#ifndef SRC_SIMOS_SHARD_H_
#define SRC_SIMOS_SHARD_H_

#include <atomic>
#include <cassert>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "src/simos/clock.h"

namespace iolsim {

// "No pending event": lanes return this from NextEventAt when idle. A
// round where every lane is idle (after the drain) terminates the run —
// messages can't be in flight, because every send from window k is drained
// at the start of round k+1, before the idle check.
inline constexpr SimTime kShardIdle = std::numeric_limits<SimTime>::max();

// A cross-lane event in flight. POD on purpose: messages cross thread
// boundaries by value through the rings; `a..d` carry lane-protocol payload
// (request ranks, byte counts, flags — the lanes agree on the encoding).
struct ShardMsg {
  SimTime when = 0;   // Arrival time at the receiver (≥ the window end).
  uint64_t a = 0;
  uint64_t b = 0;
  uint64_t c = 0;
  uint64_t d = 0;
  uint32_t kind = 0;
  uint32_t from = 0;  // Sender lane; filled in by ShardRunner::Send.
};

// One sequential simulation island. Implementations own a SimContext and
// translate messages into locally scheduled events.
class ShardLane {
 public:
  virtual ~ShardLane() = default;

  // Earliest pending local event, or kShardIdle.
  virtual SimTime NextEventAt() = 0;

  // Runs every local event with time < `end`. Must not advance the local
  // clock past the last dispatched event (in particular: not to `end`) —
  // messages arriving later in virtual time would otherwise be clamped.
  virtual void RunWindow(SimTime end) = 0;

  // Delivers a cross-lane message: schedule its effect at msg.when. Called
  // only at round boundaries, on the thread that owns this lane.
  virtual void OnMessage(const ShardMsg& msg) = 0;
};

// Fixed-capacity single-producer single-consumer mailbox ring. Lock-free:
// the producer owns tail_, the consumer owns head_, each published with
// release and observed with acquire.
class ShardMailbox {
 public:
  explicit ShardMailbox(size_t capacity_pow2)
      : slots_(capacity_pow2), mask_(capacity_pow2 - 1) {
    assert((capacity_pow2 & mask_) == 0 && capacity_pow2 >= 2);
  }

  bool TryPush(const ShardMsg& m) {
    size_t tail = tail_.load(std::memory_order_relaxed);
    size_t head = head_.load(std::memory_order_acquire);
    if (tail - head >= slots_.size()) {
      return false;
    }
    slots_[tail & mask_] = m;
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  bool TryPop(ShardMsg* m) {
    size_t head = head_.load(std::memory_order_relaxed);
    size_t tail = tail_.load(std::memory_order_acquire);
    if (head == tail) {
      return false;
    }
    *m = slots_[head & mask_];
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

 private:
  std::vector<ShardMsg> slots_;
  size_t mask_;
  std::atomic<size_t> head_{0};
  std::atomic<size_t> tail_{0};
};

// Executes N lanes in windowed-lookahead rounds across T OS threads.
// Lane i is owned by thread i % T for the whole run; mailboxes are
// per-(sender, receiver) pair, so every ring has exactly one producer
// thread and one consumer thread.
class ShardRunner {
 public:
  struct Options {
    int threads = 1;                 // Clamped to [1, lanes].
    SimTime lookahead = 1;           // Min cross-lane latency; must be > 0.
    size_t mailbox_capacity = 1024;  // Per-pair ring slots (power of two).
  };

  struct Stats {
    uint64_t rounds = 0;         // Barrier rounds executed.
    uint64_t messages = 0;       // Cross-lane messages delivered.
    uint64_t spilled = 0;        // Messages that overflowed a ring.
    int threads = 0;             // Actual thread count used.
    // Host time summed over threads: running lanes inside windows, and
    // waiting at the two barriers of every round (the rest of a round is
    // the mailbox drain).
    uint64_t window_ns = 0;
    uint64_t barrier_wait_ns = 0;
  };

  ShardRunner(std::vector<ShardLane*> lanes, const Options& options);
  ~ShardRunner();

  ShardRunner(const ShardRunner&) = delete;
  ShardRunner& operator=(const ShardRunner&) = delete;

  // Sends `msg` from lane `from` to lane `to`. Only valid while lane
  // `from` is inside RunWindow (i.e. called from its owning thread).
  // msg.when must respect the lookahead: at or after the current window's
  // end — asserted, because a violation would silently break determinism.
  void Send(uint32_t from, uint32_t to, ShardMsg msg);

  // Runs rounds until every lane is idle and no message is in flight.
  Stats Run();

  SimTime lookahead() const { return lookahead_; }
  int lanes() const { return static_cast<int>(lanes_.size()); }

 private:
  struct Pair;  // Mailbox + sender-side spill + counters.

  // One thread's host-time split, on its own cache line.
  struct alignas(64) HostTime {
    uint64_t window_ns = 0;
    uint64_t barrier_wait_ns = 0;
  };

  void ThreadMain(int tid);
  void DrainInboxes(size_t lane);
  void Reduce() noexcept;  // Barrier completion: min next-event → window.

  Pair& PairAt(size_t from, size_t to) { return *pairs_[from * lanes_.size() + to]; }

  std::vector<ShardLane*> lanes_;
  SimTime lookahead_;
  int threads_;
  std::vector<std::unique_ptr<Pair>> pairs_;  // Dense N×N (diagonal unused).
  std::vector<SimTime> next_at_;              // Per lane, written pre-reduce.
  std::vector<HostTime> host_time_;           // Per thread.

  // Round state, written by Reduce() under the barrier, read by all after.
  SimTime window_end_ = 0;
  bool stop_ = false;
  uint64_t rounds_ = 0;

  struct Barriers;  // Hides <barrier> from this header.
  std::unique_ptr<Barriers> barriers_;
};

}  // namespace iolsim

#endif  // SRC_SIMOS_SHARD_H_
