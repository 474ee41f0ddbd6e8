#include "src/simos/shard.h"

#include <barrier>
#include <chrono>
#include <thread>

namespace iolsim {

// A directed (sender → receiver) channel: the lock-free ring plus a
// sender-owned spill for overflow. The spill is only ever touched by the
// sender (during its window) and the receiver (during its drain), and the
// two phases are barrier-separated, so plain vectors are race-free.
struct ShardRunner::Pair {
  explicit Pair(size_t capacity) : ring(capacity) {}
  ShardMailbox ring;
  std::vector<ShardMsg> spill;
  bool spilling = false;   // Sender-side: once a window spills, keep spilling
                           // so the drain replays exact send order.
  uint64_t sent = 0;       // Sender-side counters, aggregated after Run().
  uint64_t spilled = 0;
};

struct ShardRunner::Barriers {
  struct Completion {
    ShardRunner* runner;
    void operator()() noexcept { runner->Reduce(); }
  };
  Barriers(ptrdiff_t n, ShardRunner* runner)
      : reduce(n, Completion{runner}), resume(n) {}
  // Round shape: drain + record → [reduce] → run window → [resume] → …
  std::barrier<Completion> reduce;
  std::barrier<> resume;
};

ShardRunner::ShardRunner(std::vector<ShardLane*> lanes, const Options& options)
    : lanes_(std::move(lanes)),
      lookahead_(options.lookahead),
      threads_(options.threads),
      next_at_(lanes_.size(), kShardIdle) {
  assert(!lanes_.empty());
  assert(lookahead_ > 0);
  if (threads_ < 1) {
    threads_ = 1;
  }
  if (threads_ > static_cast<int>(lanes_.size())) {
    threads_ = static_cast<int>(lanes_.size());
  }
  size_t cap = options.mailbox_capacity;
  assert(cap >= 2 && (cap & (cap - 1)) == 0);
  size_t n = lanes_.size();
  pairs_.reserve(n * n);
  for (size_t i = 0; i < n * n; ++i) {
    pairs_.push_back(std::make_unique<Pair>(cap));
  }
  barriers_ = std::make_unique<Barriers>(threads_, this);
}

ShardRunner::~ShardRunner() = default;

void ShardRunner::Send(uint32_t from, uint32_t to, ShardMsg msg) {
  assert(from < lanes_.size() && to < lanes_.size() && from != to);
  // The lookahead guarantee: inside window [start, end) every event time is
  // ≥ start, so an arrival at send time + (latency ≥ lookahead) is ≥
  // start + lookahead = end. A message before the window end would need to
  // be delivered into a window already running — undetectably wrong later,
  // so fail loudly here.
  assert(msg.when >= window_end_ && "cross-shard message violates lookahead");
  msg.from = from;
  Pair& p = PairAt(from, to);
  ++p.sent;
  if (!p.spilling && p.ring.TryPush(msg)) {
    return;
  }
  p.spilling = true;
  ++p.spilled;
  p.spill.push_back(msg);
}

void ShardRunner::DrainInboxes(size_t lane) {
  // Fixed sender order + FIFO within a sender ⇒ the receiver observes one
  // canonical arrival order, so locally assigned event sequence numbers
  // (the (when, seq) tie-break) are identical run to run and for any
  // thread count.
  for (size_t from = 0; from < lanes_.size(); ++from) {
    if (from == lane) {
      continue;
    }
    Pair& p = PairAt(from, lane);
    ShardMsg m;
    while (p.ring.TryPop(&m)) {
      lanes_[lane]->OnMessage(m);
    }
    if (!p.spill.empty()) {
      for (const ShardMsg& s : p.spill) {
        lanes_[lane]->OnMessage(s);
      }
      p.spill.clear();
      p.spilling = false;
    }
  }
}

void ShardRunner::Reduce() noexcept {
  SimTime min = kShardIdle;
  for (SimTime t : next_at_) {
    if (t < min) {
      min = t;
    }
  }
  if (min == kShardIdle) {
    stop_ = true;
    return;
  }
  window_end_ = min + lookahead_;
  ++rounds_;
}

void ShardRunner::ThreadMain(int tid) {
  using Clock = std::chrono::steady_clock;
  auto ns = [](Clock::duration d) {
    return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
  };
  HostTime& host = host_time_[tid];
  size_t n = lanes_.size();
  while (true) {
    for (size_t i = tid; i < n; i += threads_) {
      DrainInboxes(i);
      next_at_[i] = lanes_[i]->NextEventAt();
    }
    Clock::time_point arrived = Clock::now();
    barriers_->reduce.arrive_and_wait();
    Clock::time_point window_start = Clock::now();
    host.barrier_wait_ns += ns(window_start - arrived);
    if (stop_) {
      return;
    }
    SimTime end = window_end_;
    for (size_t i = tid; i < n; i += threads_) {
      lanes_[i]->RunWindow(end);
    }
    Clock::time_point window_end = Clock::now();
    host.window_ns += ns(window_end - window_start);
    barriers_->resume.arrive_and_wait();
    host.barrier_wait_ns += ns(Clock::now() - window_end);
  }
}

ShardRunner::Stats ShardRunner::Run() {
  stop_ = false;
  rounds_ = 0;
  host_time_.assign(threads_, HostTime{});
  std::vector<std::thread> workers;
  workers.reserve(threads_ - 1);
  for (int t = 1; t < threads_; ++t) {
    workers.emplace_back([this, t] { ThreadMain(t); });
  }
  ThreadMain(0);
  for (std::thread& w : workers) {
    w.join();
  }
  Stats stats;
  stats.rounds = rounds_;
  stats.threads = threads_;
  for (const auto& p : pairs_) {
    stats.messages += p->sent;
    stats.spilled += p->spilled;
  }
  for (const HostTime& t : host_time_) {
    stats.window_ns += t.window_ns;
    stats.barrier_wait_ns += t.barrier_wait_ns;
  }
  return stats;
}

}  // namespace iolsim
