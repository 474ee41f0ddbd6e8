// Differential tests for the EventQueue.
//
// The contract: the queue dispatches events in exact (when, seq) order for
// any schedule/cancel/re-schedule stream, whether an event waits in the
// heap or in a sorted completion stream. Each op stream is replayed against
// the real queue and against a small sorted-vector oracle, and the two
// dispatch sequences, cancel results, peeks and pending counts must match.
// The golden determinism tests pin the macro behavior; these tests attack
// the queue directly with adversarial shapes — same-instant bursts, sparse
// far-future jumps, populations that grow and shrink by thousands, cancels
// interleaved with dispatch, and sorted streams tied with the heap and with
// each other.

#include <algorithm>
#include <cstdint>
#include <random>
#include <unordered_map>
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
    enum Kind {
      kSchedule,        // Heap event at now + delay.
      kCancel,          // Cancel a heap event (by index among them).
      kRunOne,
      kRunSome,         // Up to `count` RunOne calls.
      kScheduleSorted,  // Stream `stream`, at max(now, its last time) + delay.
      kScheduleBehind,  // Stream `stream`, `delay` before its last time: out
                        // of order whenever the stream still holds entries.
      kPeek,
      kRunUntil,        // Deadline now + delay.
      kRunWindow,       // The shard lane's loop: PeekWhen, then RunOne while
                        // the next event is before now + delay.
    } kind;
    SimTime delay = 0;   // Schedule ops and deadlines: offset in time.
    size_t target = 0;   // kCancel: index into scheduled heap events.
    int count = 0;       // kRunSome.
    int stream = 0;      // Sorted-stream ops.
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

// Heap events, `streams` sorted streams and every way of draining them.
// Stream delays are drawn from a tenth of the heap's range (a stream is a
// resource's back-to-back completions), and a fifth of them are zero, so
// stream entries tie with each other and with same-instant heap events.
OpStream MakeMixedStream(uint32_t seed, size_t n_ops, SimTime max_delay, int streams) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> kind(0, 99);
  std::uniform_int_distribution<SimTime> delay(0, max_delay);
  std::uniform_int_distribution<SimTime> step(0, max_delay / 10 + 1);
  std::uniform_int_distribution<size_t> pick(0, 1u << 20);
  std::uniform_int_distribution<int> burst(1, 16);
  std::uniform_int_distribution<int> which(0, streams - 1);
  OpStream s;
  s.ops.reserve(n_ops);
  for (size_t i = 0; i < n_ops; ++i) {
    int k = kind(rng);
    OpStream::Op op;
    if (k < 25) {
      op.kind = OpStream::Op::kSchedule;
      op.delay = k < 5 ? 0 : delay(rng);
    } else if (k < 55) {
      op.kind = OpStream::Op::kScheduleSorted;
      op.stream = which(rng);
      op.delay = k < 31 ? 0 : step(rng);
    } else if (k < 57) {
      op.kind = OpStream::Op::kScheduleBehind;
      op.stream = which(rng);
      op.delay = 1 + step(rng);
    } else if (k < 67) {
      op.kind = OpStream::Op::kCancel;
      op.target = pick(rng);
    } else if (k < 77) {
      op.kind = OpStream::Op::kRunOne;
    } else if (k < 84) {
      op.kind = OpStream::Op::kRunSome;
      op.count = burst(rng);
    } else if (k < 90) {
      op.kind = OpStream::Op::kPeek;
    } else if (k < 95) {
      op.kind = OpStream::Op::kRunUntil;
      op.delay = delay(rng) / 4;
    } else {
      op.kind = OpStream::Op::kRunWindow;
      op.delay = delay(rng) / 4;
    }
    s.ops.push_back(op);
  }
  return s;
}

// Everything observable about one replay: the dispatched (when, tag)
// sequence, where tag is the schedule-op index, plus each Cancel's result,
// each peek (-1 when empty), each RunUntil's count and the pending count
// after every op.
struct Trace {
  std::vector<std::pair<SimTime, uint64_t>> dispatched;
  std::vector<bool> cancels;
  std::vector<SimTime> peeks;
  std::vector<uint64_t> until_counts;
  std::vector<size_t> sizes;

  bool operator==(const Trace&) const = default;
};

// The reference model: pending (when, tag) keys in a vector kept sorted,
// earliest first. Tags grow with every schedule, so they double as seq,
// and a sorted stream is just more keys.
class SortedVectorOracle {
 public:
  explicit SortedVectorOracle(Trace* trace) : trace_(trace) {}

  SimTime now() const { return now_; }

  void ScheduleAt(SimTime when, uint64_t tag) {
    std::pair<SimTime, uint64_t> key{std::max(when, now_), tag};
    pending_.insert(std::upper_bound(pending_.begin(), pending_.end(), key), key);
  }

  void ScheduleSorted(int /*stream*/, SimTime when, uint64_t tag) { ScheduleAt(when, tag); }

  bool Cancel(uint64_t tag) {
    auto it = std::find_if(pending_.begin(), pending_.end(),
                           [tag](const auto& k) { return k.second == tag; });
    if (it == pending_.end()) {
      return false;
    }
    pending_.erase(it);
    return true;
  }

  bool PeekWhen(SimTime* when) {
    if (pending_.empty()) {
      return false;
    }
    *when = pending_.front().first;
    return true;
  }

  bool RunOne() {
    if (pending_.empty()) {
      return false;
    }
    now_ = pending_.front().first;
    trace_->dispatched.push_back(pending_.front());
    pending_.erase(pending_.begin());
    return true;
  }

  uint64_t RunUntil(SimTime deadline) {
    uint64_t n = 0;
    while (!pending_.empty() && pending_.front().first <= deadline) {
      RunOne();
      ++n;
    }
    now_ = std::max(now_, deadline);
    return n;
  }

  size_t size() const { return pending_.size(); }

 private:
  Trace* trace_;
  SimTime now_ = 0;
  std::vector<std::pair<SimTime, uint64_t>> pending_;
};

// The real EventQueue behind the oracle's interface. Sorted stream k
// belongs to owners_[k], as a single-unit Resource's stream belongs to it.
class QueueUnderTest {
 public:
  explicit QueueUnderTest(Trace* trace) : trace_(trace), q_(&clock_) {}

  SimTime now() const { return clock_.now(); }

  void ScheduleAt(SimTime when, uint64_t tag) { ids_[tag] = q_.ScheduleAt(when, Record(tag)); }

  void ScheduleSorted(int stream, SimTime when, uint64_t tag) {
    q_.ScheduleSorted(&owners_[stream], &hints_[stream], when, Record(tag));
  }

  bool Cancel(uint64_t tag) { return q_.Cancel(ids_.at(tag)); }
  bool PeekWhen(SimTime* when) { return q_.PeekWhen(when); }
  bool RunOne() { return q_.RunOne(); }
  uint64_t RunUntil(SimTime deadline) { return q_.RunUntil(deadline); }
  size_t size() const { return q_.size(); }
  size_t streams() const { return q_.streams(); }

 private:
  InlineCallback Record(uint64_t tag) {
    return [this, tag] { trace_->dispatched.emplace_back(clock_.now(), tag); };
  }

  Trace* trace_;
  VirtualClock clock_;
  EventQueue q_;
  std::unordered_map<uint64_t, EventQueue::EventId> ids_;  // Heap events by tag.
  int owners_[8] = {};
  uint32_t hints_[8] = {};
};

// Replays `stream` on Q. Event times derive from Q's own clock, so both
// replays schedule the same keys exactly when they agree on every dispatch.
template <typename Q>
Trace Replay(const OpStream& stream) {
  Trace trace;
  Q q(&trace);
  uint64_t tags = 0;
  std::vector<uint64_t> heap_tags;  // Cancel targets: heap events only.
  std::vector<SimTime> last(8, 0);  // Each sorted stream's latest time.
  for (const auto& op : stream.ops) {
    switch (op.kind) {
      case OpStream::Op::kSchedule:
        heap_tags.push_back(tags);
        q.ScheduleAt(q.now() + op.delay, tags++);
        break;
      case OpStream::Op::kCancel:
        if (!heap_tags.empty()) {
          // Cancel on an already-fired or cancelled id must return false.
          trace.cancels.push_back(q.Cancel(heap_tags[op.target % heap_tags.size()]));
        }
        break;
      case OpStream::Op::kRunOne:
        q.RunOne();
        break;
      case OpStream::Op::kRunSome:
        for (int i = 0; i < op.count && q.RunOne(); ++i) {
        }
        break;
      case OpStream::Op::kScheduleSorted: {
        SimTime& t = last[op.stream];
        t = std::max(t, q.now()) + op.delay;
        q.ScheduleSorted(op.stream, t, tags++);
        break;
      }
      case OpStream::Op::kScheduleBehind:
        q.ScheduleSorted(op.stream, last[op.stream] - op.delay, tags++);
        break;
      case OpStream::Op::kPeek: {
        SimTime when = -1;
        q.PeekWhen(&when);
        trace.peeks.push_back(when);
        break;
      }
      case OpStream::Op::kRunUntil:
        trace.until_counts.push_back(q.RunUntil(q.now() + op.delay));
        break;
      case OpStream::Op::kRunWindow: {
        SimTime end = q.now() + op.delay;
        SimTime when;
        while (q.PeekWhen(&when) && when < end) {
          q.RunOne();
        }
        break;
      }
    }
    trace.sizes.push_back(q.size());
  }
  while (q.RunOne()) {
  }
  return trace;
}

void ExpectMatchesOracle(const OpStream& s, uint32_t seed) {
  Trace queue = Replay<QueueUnderTest>(s);
  Trace oracle = Replay<SortedVectorOracle>(s);
  ASSERT_FALSE(oracle.dispatched.empty()) << "seed " << seed;
  ASSERT_EQ(queue.dispatched, oracle.dispatched) << "seed " << seed;
  ASSERT_EQ(queue.cancels, oracle.cancels) << "seed " << seed;
  ASSERT_EQ(queue.peeks, oracle.peeks) << "seed " << seed;
  ASSERT_EQ(queue.until_counts, oracle.until_counts) << "seed " << seed;
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

TEST(SchedulerStreams, MixedStreamsMatchOracle) {
  // Three to five sorted streams beside the heap, drained by RunOne,
  // PeekWhen, RunUntil and the shard lane's window loop.
  for (uint32_t seed = 300; seed <= 323; ++seed) {
    int streams = 3 + static_cast<int>(seed % 3);
    ExpectMatchesOracle(MakeMixedStream(seed, 4000, 1'000'000, streams), seed);
  }
}

TEST(SchedulerStreams, DenseMixedStreamsMatchOracle) {
  // A tiny time range: stream heads tie with each other and with heap
  // events on most instants, so the merge rests on seq alone.
  for (uint32_t seed = 400; seed <= 411; ++seed) {
    ExpectMatchesOracle(MakeMixedStream(seed, 4000, 16, 4), seed);
  }
}

TEST(SchedulerStreams, TiesDispatchInScheduleOrder) {
  VirtualClock clock;
  EventQueue q(&clock);
  int a = 0;
  int b = 0;
  uint32_t ha = UINT32_MAX;
  uint32_t hb = UINT32_MAX;
  std::vector<int> order;
  q.ScheduleSorted(&a, &ha, 10, [&order] { order.push_back(0); });
  q.ScheduleAt(10, [&order] { order.push_back(1); });
  q.ScheduleSorted(&b, &hb, 10, [&order] { order.push_back(2); });
  q.ScheduleSorted(&a, &ha, 10, [&order] { order.push_back(3); });
  q.ScheduleAt(5, [&order] { order.push_back(4); });
  EXPECT_EQ(q.size(), 5u);
  EXPECT_EQ(q.streams(), 2u);
  EXPECT_EQ(q.RunAll(), 5u);
  EXPECT_EQ(order, (std::vector<int>{4, 0, 1, 2, 3}));
}

TEST(SchedulerStreams, OutOfOrderAppendFallsBackToHeap) {
  // An append earlier than the stream's tail cannot join the ring; it
  // waits in the heap and still dispatches in (when, seq) order. One that
  // finds the stream drained joins the ring again.
  VirtualClock clock;
  EventQueue q(&clock);
  int owner = 0;
  uint32_t hint = UINT32_MAX;
  std::vector<std::pair<SimTime, int>> out;
  auto record = [&out, &clock](int tag) {
    return [&out, &clock, tag] { out.emplace_back(clock.now(), tag); };
  };
  q.ScheduleSorted(&owner, &hint, 100, record(0));
  q.ScheduleSorted(&owner, &hint, 200, record(1));
  q.ScheduleSorted(&owner, &hint, 150, record(2));  // Behind the tail.
  q.ScheduleSorted(&owner, &hint, 200, record(3));
  EXPECT_EQ(q.RunUntil(200), 4u);
  q.ScheduleSorted(&owner, &hint, 50, record(4));  // Clamped to now (200).
  EXPECT_EQ(q.RunAll(), 1u);
  EXPECT_EQ(q.streams(), 1u);
  EXPECT_EQ(out, (std::vector<std::pair<SimTime, int>>{
                     {100, 0}, {150, 2}, {200, 1}, {200, 3}, {200, 4}}));
}

TEST(SchedulerStreams, CancelledHeapHeadDoesNotHideStreamHead) {
  VirtualClock clock;
  uint64_t dispatched = 0;
  EventQueue q(&clock, &dispatched);
  int owner = 0;
  uint32_t hint = UINT32_MAX;
  bool ran = false;
  auto head = q.ScheduleAt(5, [] { ADD_FAILURE() << "cancelled head ran"; });
  q.ScheduleSorted(&owner, &hint, 7, [&ran] { ran = true; });
  SimTime when = 0;
  ASSERT_TRUE(q.PeekWhen(&when));
  EXPECT_EQ(when, 5);
  ASSERT_TRUE(q.Cancel(head));
  ASSERT_TRUE(q.PeekWhen(&when));  // The cancel dropped the cached answer.
  EXPECT_EQ(when, 7);
  EXPECT_EQ(q.RunAll(), 1u);
  EXPECT_TRUE(ran);
  EXPECT_EQ(dispatched, 1u);
  EXPECT_EQ(clock.now(), 7);
}

// Jobs arriving at fixed times on a resource with slow and outage windows,
// beside heap timers that land on the same instants. With `heap_only` each
// completion is reserved and scheduled by hand, which is how every
// completion was scheduled before sorted streams existed.
std::vector<std::pair<SimTime, int>> RunFaultedResource(int units, bool heap_only,
                                                        size_t* streams) {
  VirtualClock clock;
  EventQueue q(&clock);
  Resource r(&clock, units);
  r.AddSlowWindow(1'000, 3'000, 5, 2);
  r.AddOutageWindow(2'500, 4'000);
  r.AddOutageWindow(4'000, 4'500);  // Back to back with the first outage.
  r.AddSlowWindow(6'000, 6'400, 3, 1);
  std::vector<std::pair<SimTime, int>> out;
  std::mt19937 rng(17);
  std::uniform_int_distribution<SimTime> service(0, 400);
  int tag = 0;
  for (SimTime t = 0; t < 8'000; t += 100 + (tag % 4) * 75) {
    SimTime s = service(rng);
    int job = tag++;
    int timer = tag++;
    q.ScheduleAt(t, [&, s, job, heap_only] {
      auto done = [&out, &clock, job] { out.emplace_back(clock.now(), job); };
      if (heap_only) {
        q.ScheduleAt(r.Acquire(s), done);
      } else {
        r.AcquireAsync(&q, s, done);
      }
    });
    // A timer on the instant a slow job would finish if it started now.
    q.ScheduleAt(t + s, [&out, &clock, timer] { out.emplace_back(clock.now(), timer); });
  }
  q.RunAll();
  *streams = q.streams();
  return out;
}

TEST(SchedulerStreams, FaultedSingleUnitResourceMatchesHeapOrder) {
  size_t streams = 0;
  size_t heap_streams = 0;
  auto got = RunFaultedResource(1, /*heap_only=*/false, &streams);
  auto want = RunFaultedResource(1, /*heap_only=*/true, &heap_streams);
  EXPECT_EQ(got.size(), 92u);  // 46 jobs and their 46 timers.
  EXPECT_EQ(got, want);
  EXPECT_EQ(streams, 1u);
  EXPECT_EQ(heap_streams, 0u);
}

TEST(SchedulerStreams, MultiUnitResourceStaysOnHeap) {
  size_t streams = 0;
  size_t heap_streams = 0;
  auto got = RunFaultedResource(4, /*heap_only=*/false, &streams);
  auto want = RunFaultedResource(4, /*heap_only=*/true, &heap_streams);
  EXPECT_EQ(got, want);
  EXPECT_EQ(streams, 0u);
}

TEST(SchedulerStreams, ResourceKeepsOneStreamPerQueue) {
  // A resource that alternates between two queues reuses the stream it
  // opened in each instead of opening one per switch.
  VirtualClock clock;
  EventQueue a(&clock);
  EventQueue b(&clock);
  Resource r(&clock);
  int ran = 0;
  for (int i = 0; i < 100; ++i) {
    r.AcquireAsync(i % 2 == 0 ? &a : &b, 10, [&ran] { ++ran; });
  }
  EXPECT_EQ(a.streams(), 1u);
  EXPECT_EQ(b.streams(), 1u);
  EXPECT_EQ(a.RunAll() + b.RunAll(), 100u);
  EXPECT_EQ(ran, 100);
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
