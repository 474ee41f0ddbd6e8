// Differential tests for the EventQueue.
//
// The contract: the queue dispatches events in exact (when, seq) order for
// any schedule/cancel/re-schedule stream. Each stream is replayed against
// the real 4-ary heap and against a small sorted-vector oracle, and the two
// dispatch sequences, cancel results and pending counts must match. The
// golden determinism tests pin the macro behavior; these tests attack the
// queue directly with adversarial shapes — same-instant bursts, sparse
// far-future jumps, populations that grow and shrink by thousands, and
// cancels interleaved with dispatch.

#include <algorithm>
#include <cstdint>
#include <random>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/simos/clock.h"
#include "src/simos/event_queue.h"

namespace iolsim {
namespace {

// One deterministic stream of scheduler operations. Ops reference events by
// stream-local index so both replays make identical choices.
struct OpStream {
  struct Op {
    enum Kind { kSchedule, kCancel, kRunOne, kRunSome } kind;
    SimTime delay = 0;   // kSchedule: offset from now.
    size_t target = 0;   // kCancel: index into scheduled events.
    int count = 0;       // kRunSome.
  };
  std::vector<Op> ops;
};

OpStream MakeRandomStream(uint32_t seed, size_t n_ops, SimTime max_delay) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> kind(0, 99);
  std::uniform_int_distribution<SimTime> delay(0, max_delay);
  std::uniform_int_distribution<size_t> pick(0, 1u << 20);
  std::uniform_int_distribution<int> burst(1, 16);
  OpStream s;
  s.ops.reserve(n_ops);
  for (size_t i = 0; i < n_ops; ++i) {
    int k = kind(rng);
    OpStream::Op op;
    if (k < 55) {
      op.kind = OpStream::Op::kSchedule;
      op.delay = delay(rng);
      if (k < 10) {
        op.delay = 0;  // Same-instant burst pressure.
      }
    } else if (k < 70) {
      op.kind = OpStream::Op::kCancel;
      op.target = pick(rng);
    } else if (k < 90) {
      op.kind = OpStream::Op::kRunOne;
    } else {
      op.kind = OpStream::Op::kRunSome;
      op.count = burst(rng);
    }
    s.ops.push_back(op);
  }
  return s;
}

// Everything observable about one replay: the dispatched (when, tag)
// sequence, where tag is the schedule-op index, plus each Cancel's result
// and the pending count after every op.
struct Trace {
  std::vector<std::pair<SimTime, uint64_t>> dispatched;
  std::vector<bool> cancels;
  std::vector<size_t> sizes;

  bool operator==(const Trace&) const = default;
};

// The reference model: pending (when, tag) keys in a vector kept sorted,
// earliest first. Tags grow with every schedule, so they double as seq.
class SortedVectorOracle {
 public:
  void ScheduleAfter(SimTime delay, uint64_t tag) {
    std::pair<SimTime, uint64_t> key{now_ + delay, tag};
    pending_.insert(std::upper_bound(pending_.begin(), pending_.end(), key), key);
  }

  bool Cancel(uint64_t tag) {
    auto it = std::find_if(pending_.begin(), pending_.end(),
                           [tag](const auto& k) { return k.second == tag; });
    if (it == pending_.end()) {
      return false;
    }
    pending_.erase(it);
    return true;
  }

  bool RunOne(Trace* trace) {
    if (pending_.empty()) {
      return false;
    }
    now_ = pending_.front().first;
    trace->dispatched.push_back(pending_.front());
    pending_.erase(pending_.begin());
    return true;
  }

  size_t size() const { return pending_.size(); }

 private:
  SimTime now_ = 0;
  std::vector<std::pair<SimTime, uint64_t>> pending_;
};

Trace ReplayOracle(const OpStream& stream) {
  SortedVectorOracle q;
  Trace trace;
  uint64_t schedule_count = 0;
  for (const auto& op : stream.ops) {
    switch (op.kind) {
      case OpStream::Op::kSchedule:
        q.ScheduleAfter(op.delay, schedule_count++);
        break;
      case OpStream::Op::kCancel:
        if (schedule_count > 0) {
          trace.cancels.push_back(q.Cancel(op.target % schedule_count));
        }
        break;
      case OpStream::Op::kRunOne:
        q.RunOne(&trace);
        break;
      case OpStream::Op::kRunSome:
        for (int i = 0; i < op.count && q.RunOne(&trace); ++i) {
        }
        break;
    }
    trace.sizes.push_back(q.size());
  }
  while (q.RunOne(&trace)) {
  }
  return trace;
}

Trace ReplayQueue(const OpStream& stream) {
  VirtualClock clock;
  EventQueue q(&clock);
  Trace trace;
  std::vector<EventQueue::EventId> ids;  // Indexed by tag.
  for (const auto& op : stream.ops) {
    switch (op.kind) {
      case OpStream::Op::kSchedule: {
        uint64_t tag = ids.size();
        ids.push_back(q.ScheduleAfter(op.delay, [&trace, &clock, tag] {
          trace.dispatched.emplace_back(clock.now(), tag);
        }));
        break;
      }
      case OpStream::Op::kCancel:
        if (!ids.empty()) {
          // Cancel on an already-fired or cancelled id must return false.
          trace.cancels.push_back(q.Cancel(ids[op.target % ids.size()]));
        }
        break;
      case OpStream::Op::kRunOne:
        q.RunOne();
        break;
      case OpStream::Op::kRunSome:
        for (int i = 0; i < op.count && q.RunOne(); ++i) {
        }
        break;
    }
    trace.sizes.push_back(q.size());
  }
  q.RunAll();
  return trace;
}

void ExpectMatchesOracle(const OpStream& s, uint32_t seed) {
  Trace queue = ReplayQueue(s);
  Trace oracle = ReplayOracle(s);
  ASSERT_FALSE(oracle.dispatched.empty()) << "seed " << seed;
  ASSERT_EQ(queue.dispatched, oracle.dispatched) << "seed " << seed;
  ASSERT_EQ(queue.cancels, oracle.cancels) << "seed " << seed;
  ASSERT_EQ(queue.sizes, oracle.sizes) << "seed " << seed;
}

TEST(SchedulerOracle, RandomStreamsMatchExactly) {
  for (uint32_t seed = 1; seed <= 24; ++seed) {
    ExpectMatchesOracle(MakeRandomStream(seed, 4000, 1'000'000), seed);
  }
}

TEST(SchedulerOracle, SparseFarFutureStreamsMatch) {
  // Delays spanning tens of simulated seconds: long idle gaps between
  // dispatches and keys far apart in time.
  for (uint32_t seed = 100; seed <= 108; ++seed) {
    ExpectMatchesOracle(MakeRandomStream(seed, 1500, SimTime{50'000'000'000}), seed);
  }
}

TEST(SchedulerOracle, DenseSameInstantStreamsMatch) {
  // Tiny delay range: most events collide on the same instants, so the
  // order rests on the seq tie-break alone.
  for (uint32_t seed = 200; seed <= 208; ++seed) {
    ExpectMatchesOracle(MakeRandomStream(seed, 4000, 16), seed);
  }
}

TEST(SchedulerOracle, GrowShrinkCycleMatches) {
  // Pump the population up by thousands, drain to nearly empty, and
  // repeat — every lap grows and shrinks the heap through many levels.
  std::mt19937 rng(7);
  std::uniform_int_distribution<SimTime> delay(0, 200'000);
  OpStream s;
  for (int lap = 0; lap < 4; ++lap) {
    for (int i = 0; i < 3000; ++i) {
      OpStream::Op op;
      op.kind = OpStream::Op::kSchedule;
      op.delay = delay(rng);
      s.ops.push_back(op);
    }
    for (int i = 0; i < 2992; ++i) {
      s.ops.push_back(OpStream::Op{OpStream::Op::kRunOne});
    }
  }
  ExpectMatchesOracle(s, 7);
}

TEST(SchedulerCancel, CancelledEventsNeverRunAndIdsGoStale) {
  VirtualClock clock;
  EventQueue q(&clock);
  int ran = 0;
  auto id_a = q.ScheduleAfter(10, [&ran] { ++ran; });
  auto id_b = q.ScheduleAfter(20, [&ran] { ++ran; });
  q.ScheduleAfter(30, [&ran] { ++ran; });
  EXPECT_EQ(q.size(), 3u);
  EXPECT_TRUE(q.Cancel(id_b));
  EXPECT_FALSE(q.Cancel(id_b));  // Double-cancel rejected.
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.RunAll(), 2u);
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(clock.now(), 30);      // The cancelled event moved no clock.
  EXPECT_FALSE(q.Cancel(id_a));    // Dispatched ⇒ stale.
  EXPECT_TRUE(q.empty());
}

TEST(SchedulerCancel, CancelHeadDoesNotAdvanceClockOrCounter) {
  VirtualClock clock;
  uint64_t dispatched = 0;
  EventQueue q(&clock, &dispatched);
  bool late_ran = false;
  auto head = q.ScheduleAfter(5, [] { ADD_FAILURE() << "cancelled head ran"; });
  q.ScheduleAfter(50, [&late_ran] { late_ran = true; });
  ASSERT_TRUE(q.Cancel(head));
  SimTime when = 0;
  ASSERT_TRUE(q.PeekWhen(&when));  // Purges the cancelled head.
  EXPECT_EQ(when, 50);
  EXPECT_EQ(clock.now(), 0);
  EXPECT_EQ(q.RunAll(), 1u);
  EXPECT_TRUE(late_ran);
  EXPECT_EQ(dispatched, 1u);
}

TEST(SchedulerRunUntil, DeadlineSemantics) {
  VirtualClock clock;
  EventQueue q(&clock);
  std::vector<SimTime> out;
  for (SimTime t : {5, 10, 10, 15, 20}) {
    q.ScheduleAt(t, [&out, &clock] { out.push_back(clock.now()); });
  }
  EXPECT_EQ(q.RunUntil(10), 3u);  // Events exactly at the deadline run.
  EXPECT_EQ(clock.now(), 10);
  EXPECT_EQ(q.RunUntil(100), 2u);
  EXPECT_EQ(out, (std::vector<SimTime>{5, 10, 10, 15, 20}));
}

}  // namespace
}  // namespace iolsim
