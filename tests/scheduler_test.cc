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
// interleaved with dispatch, sorted streams tied with the heap and with
// each other, and segment trains that step (and leap) in place inside
// RunOne beside all of those.

#include <algorithm>
#include <cstdint>
#include <limits>
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
      kRunWindow,       // The shard lane's loop: RunOne bounded strictly
                        // before now + delay.
      kTrain,           // A train of `count` steps on stream `stream`, each
                        // re-armed `delay` after the last one's dispatch.
    } kind;
    SimTime delay = 0;   // Schedule ops and deadlines: offset in time.
    size_t target = 0;   // kCancel: index into scheduled heap events.
    int count = 0;       // kRunSome; kTrain's steps.
    int stream = 0;      // Sorted-stream and train ops.
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
// With `trains`, a share of the heap schedules become segment trains on the
// same streams, some with zero periods.
OpStream MakeMixedStream(uint32_t seed, size_t n_ops, SimTime max_delay, int streams,
                         bool trains = false) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> kind(0, 99);
  std::uniform_int_distribution<SimTime> delay(0, max_delay);
  std::uniform_int_distribution<SimTime> step(0, max_delay / 10 + 1);
  std::uniform_int_distribution<size_t> pick(0, 1u << 20);
  std::uniform_int_distribution<int> burst(1, 16);
  std::uniform_int_distribution<int> which(0, streams - 1);
  std::uniform_int_distribution<int> steps(1, 40);
  OpStream s;
  s.ops.reserve(n_ops);
  for (size_t i = 0; i < n_ops; ++i) {
    int k = kind(rng);
    OpStream::Op op;
    if (trains && k < 10) {
      op.kind = OpStream::Op::kTrain;
      op.stream = which(rng);
      op.count = steps(rng);
      op.delay = k < 2 ? 0 : step(rng);
    } else if (k < 25) {
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

// Dispatches of train `t`'s step `step`, and the heap event a finished
// train schedules (as a transmission's last segment runs its continuation),
// carry tags outside the range of the replay's own.
constexpr uint64_t kTrainTag = uint64_t{1} << 40;
constexpr uint64_t kFinishTag = uint64_t{1} << 41;

uint64_t TrainTag(uint32_t train, int step) { return kTrainTag + uint64_t{train} * 4096 + step; }

// One train of a replay: its pending step, and how many re-arms follow it.
struct TrainState {
  int stream = 0;
  SimTime period = 0;
  int step = 0;
  int left = 0;
};

// Leaps taken by every QueueUnderTest so far, so train tests can check that
// they exercised the fast-forward rather than only single steps.
uint64_t g_leaped_steps = 0;

// The reference model: pending keys in a vector kept sorted by (when, seq),
// earliest first. It models sorted streams only as far as the trains need:
// which keys joined a stream in order (the rest wait in the heap), and the
// loop RunOne runs after a train step, one step at a time.
class SortedVectorOracle {
 public:
  explicit SortedVectorOracle(Trace* trace) : trace_(trace) {}

  SimTime now() const { return now_; }

  void ScheduleAt(SimTime when, uint64_t tag) { Insert(Key{std::max(when, now_), seq_++, tag}); }

  void ScheduleSorted(int stream, SimTime when, uint64_t tag) { Append(stream, when, tag, -1); }

  void StartTrain(uint32_t train, int stream, int steps, SimTime period) {
    trains_.push_back(TrainState{stream, period, 0, steps - 1});
    Append(stream, now_ + period, TrainTag(train, 0), static_cast<int>(train));
  }

  bool Cancel(uint64_t tag) {
    auto it = std::find_if(pending_.begin(), pending_.end(),
                           [tag](const Key& k) { return k.tag == tag; });
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
    *when = pending_.front().when;
    return true;
  }

  // A train step popped from its stream keeps the loop going while each
  // step re-arms in order on that stream and the earliest key is then
  // that stream's next train step, within `bound`.
  bool RunOne(SimTime bound = std::numeric_limits<SimTime>::max()) {
    if (pending_.empty() || pending_.front().when > bound) {
      return false;
    }
    Key k = Pop();
    if (k.train < 0) {
      return true;
    }
    const int stream = k.stream;
    while (Step(k.train) && stream >= 0) {
      const Key& next = pending_.front();
      if (next.stream != stream || next.train < 0 || next.when > bound) {
        break;
      }
      k = Pop();
    }
    return true;
  }

  uint64_t RunUntil(SimTime deadline) {
    size_t before = trace_->dispatched.size();
    while (RunOne(deadline)) {
    }
    now_ = std::max(now_, deadline);
    return trace_->dispatched.size() - before;
  }

  size_t size() const { return pending_.size(); }

 private:
  struct Key {
    SimTime when;
    uint64_t seq;
    uint64_t tag;
    int stream = -1;  // -1: waits in the heap.
    int train = -1;   // -1: a callback.
  };

  void Insert(const Key& key) {
    auto later = [](const Key& a, const Key& b) {
      return a.when != b.when ? a.when < b.when : a.seq < b.seq;
    };
    pending_.insert(std::upper_bound(pending_.begin(), pending_.end(), key, later), key);
  }

  // Returns true if the key joined the stream (in order), false if it went
  // to the heap.
  bool Append(int stream, SimTime when, uint64_t tag, int train) {
    when = std::max(when, now_);
    bool in_order = count_[stream] == 0 || when >= last_[stream];
    if (in_order) {
      ++count_[stream];
      last_[stream] = when;
    }
    Insert(Key{when, seq_++, tag, in_order ? stream : -1, train});
    return in_order;
  }

  Key Pop() {
    Key k = pending_.front();
    pending_.erase(pending_.begin());
    now_ = k.when;
    trace_->dispatched.emplace_back(k.when, k.tag);
    if (k.stream >= 0) {
      --count_[k.stream];
    }
    return k;
  }

  // True when the step re-armed its train in order on its stream.
  bool Step(int train) {
    TrainState& t = trains_[train];
    if (t.left == 0) {
      ScheduleAt(now_ + t.period, kFinishTag + train);
      return false;
    }
    --t.left;
    ++t.step;
    return Append(t.stream, now_ + t.period, TrainTag(train, t.step), train);
  }

  Trace* trace_;
  SimTime now_ = 0;
  uint64_t seq_ = 0;
  std::vector<Key> pending_;
  std::vector<TrainState> trains_;
  int count_[8] = {};
  SimTime last_[8] = {};
};

// The real EventQueue behind the oracle's interface. Sorted stream k
// belongs to owners_[k], as a single-unit Resource's stream belongs to it,
// and the replay's trains are this object's: it re-arms them with
// ScheduleTrain and takes every leap the queue offers.
class QueueUnderTest final : public TrainHost {
 public:
  explicit QueueUnderTest(Trace* trace) : trace_(trace), q_(&clock_) {}

  SimTime now() const { return clock_.now(); }

  void ScheduleAt(SimTime when, uint64_t tag) { ids_[tag] = q_.ScheduleAt(when, Record(tag)); }

  void ScheduleSorted(int stream, SimTime when, uint64_t tag) {
    q_.ScheduleSorted(&owners_[stream], &hints_[stream], when, Record(tag));
  }

  void StartTrain(uint32_t train, int stream, int steps, SimTime period) {
    trains_.push_back(TrainState{stream, period, 0, steps - 1});
    q_.ScheduleTrain(&owners_[stream], &hints_[stream], clock_.now() + period, this, train);
  }

  bool Cancel(uint64_t tag) { return q_.Cancel(ids_.at(tag)); }
  bool PeekWhen(SimTime* when) { return q_.PeekWhen(when); }
  bool RunOne(SimTime bound = std::numeric_limits<SimTime>::max()) { return q_.RunOne(bound); }
  uint64_t RunUntil(SimTime deadline) { return q_.RunUntil(deadline); }
  size_t size() const { return q_.size(); }
  size_t streams() const { return q_.streams(); }

 private:
  InlineCallback Record(uint64_t tag) {
    return [this, tag] { trace_->dispatched.emplace_back(clock_.now(), tag); };
  }

  void TrainStep(uint32_t train) override {
    TrainState& t = trains_[train];
    trace_->dispatched.emplace_back(clock_.now(), TrainTag(train, t.step));
    if (t.left == 0) {
      q_.ScheduleAt(clock_.now() + t.period, Record(kFinishTag + train));
      return;
    }
    --t.left;
    ++t.step;
    q_.ScheduleTrain(&owners_[t.stream], &hints_[t.stream], clock_.now() + t.period, this,
                     train);
  }

  uint32_t TrainLeap(uint32_t train, SimTime when, SimTime horizon, SimTime* period) override {
    TrainState& t = trains_[train];
    if (t.period <= 0 || horizon < when || t.left == 0) {
      return 0;
    }
    SimTime fit = (horizon - when) / t.period + 1;
    int steps = fit < t.left ? static_cast<int>(fit) : t.left;
    for (int i = 0; i < steps; ++i) {
      trace_->dispatched.emplace_back(when + i * t.period, TrainTag(train, t.step));
      ++t.step;
      --t.left;
    }
    g_leaped_steps += steps;
    *period = t.period;
    return static_cast<uint32_t>(steps);
  }

  Trace* trace_;
  VirtualClock clock_;
  EventQueue q_;
  std::unordered_map<uint64_t, EventQueue::EventId> ids_;  // Heap events by tag.
  std::vector<TrainState> trains_;
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
  uint32_t trains = 0;
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
        while (q.RunOne(end - 1)) {
        }
        break;
      }
      case OpStream::Op::kTrain:
        q.StartTrain(trains++, op.stream, op.count, op.delay);
        break;
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

TEST(SchedulerTrains, MixedTrainsMatchOracle) {
  // Segment trains beside callbacks on the same streams and on others,
  // drained by every loop. A train's re-arm lands behind a later callback
  // entry (and so in the heap) whenever its stream's tail is later.
  uint64_t leaped = g_leaped_steps;
  for (uint32_t seed = 500; seed <= 523; ++seed) {
    int streams = 1 + static_cast<int>(seed % 4);
    ExpectMatchesOracle(MakeMixedStream(seed, 4000, 1'000'000, streams, /*trains=*/true),
                        seed);
  }
  EXPECT_GT(g_leaped_steps, leaped);
}

TEST(SchedulerTrains, DenseTrainsMatchOracle) {
  // A tiny time range: re-armed steps tie the runner-up on most instants,
  // so whether a step runs in place rests on seq alone.
  for (uint32_t seed = 600; seed <= 623; ++seed) {
    int streams = 1 + static_cast<int>(seed % 3);
    ExpectMatchesOracle(MakeMixedStream(seed, 4000, 16, streams, /*trains=*/true), seed);
  }
}

// A train on its own stream that re-arms `period` after each step until
// `left` runs out, recording (time, step) per dispatch, with or without
// taking the queue's leaps.
class CountingTrain final : public TrainHost {
 public:
  CountingTrain(EventQueue* q, VirtualClock* clock, SimTime period, int steps, bool leaps)
      : q_(q), clock_(clock), period_(period), left_(steps - 1), leaps_(leaps) {}

  void Start(SimTime first) { q_->ScheduleTrain(this, &hint_, first, this, 0); }

  std::vector<std::pair<SimTime, int>> out;
  int leaps = 0;

 private:
  void TrainStep(uint32_t) override {
    out.emplace_back(clock_->now(), step_);
    if (left_ > 0) {
      --left_;
      ++step_;
      q_->ScheduleTrain(this, &hint_, clock_->now() + period_, this, 0);
    }
  }

  uint32_t TrainLeap(uint32_t, SimTime when, SimTime horizon, SimTime* period) override {
    if (!leaps_ || horizon < when || left_ == 0) {
      return 0;
    }
    int steps = static_cast<int>(std::min<SimTime>(left_, (horizon - when) / period_ + 1));
    for (int i = 0; i < steps; ++i) {
      out.emplace_back(when + i * period_, step_++);
    }
    left_ -= steps;
    ++leaps;
    *period = period_;
    return static_cast<uint32_t>(steps);
  }

  EventQueue* q_;
  VirtualClock* clock_;
  SimTime period_;
  int left_;
  bool leaps_;
  int step_ = 0;
  uint32_t hint_ = UINT32_MAX;
};

TEST(SchedulerTrains, TiesWithTheRunnerUpGoBySeq) {
  // The first step was scheduled before the heap event tied with it, so it
  // runs first; every re-armed step is newer than the runner-up, so a tie
  // hands the runner-up the turn.
  for (bool leaps : {false, true}) {
    VirtualClock clock;
    uint64_t dispatched = 0;
    EventQueue q(&clock, &dispatched);
    CountingTrain train(&q, &clock, 10, 5, leaps);
    std::vector<std::pair<SimTime, int>> heap;
    train.Start(10);
    q.ScheduleAt(10, [&] { heap.emplace_back(clock.now(), 0); });
    q.ScheduleAt(30, [&] { heap.emplace_back(clock.now(), 1); });
    ASSERT_TRUE(q.RunOne());  // The train at 10, then the heap event's turn.
    EXPECT_EQ(dispatched, 1u);
    ASSERT_TRUE(q.RunOne());
    EXPECT_EQ(heap, (std::vector<std::pair<SimTime, int>>{{10, 0}}));
    ASSERT_TRUE(q.RunOne());  // Steps at 20 and not 30: the timer is older.
    EXPECT_EQ(dispatched, 3u);
    EXPECT_EQ(clock.now(), 20);
    EXPECT_EQ(q.RunAll(), 4u);  // The timer at 30, then steps at 30, 40, 50.
    EXPECT_EQ(heap, (std::vector<std::pair<SimTime, int>>{{10, 0}, {30, 1}}));
    EXPECT_EQ(train.out,
              (std::vector<std::pair<SimTime, int>>{{10, 0}, {20, 1}, {30, 2}, {40, 3}, {50, 4}}));
  }
}

TEST(SchedulerTrains, LoneTrainRunsToTheRunnerUpInOneCall) {
  // A train alone in its stream empties it at every step and refills it
  // with the re-arm: one RunOne runs it up to the next event, and leaps
  // give the same dispatches, counts and clock as single steps.
  for (bool leaps : {false, true}) {
    VirtualClock clock;
    uint64_t dispatched = 0;
    EventQueue q(&clock, &dispatched);
    CountingTrain train(&q, &clock, 100, 37, leaps);
    bool timer = false;
    q.ScheduleAt(2'050, [&timer] { timer = true; });
    train.Start(100);
    ASSERT_TRUE(q.RunOne());
    EXPECT_EQ(dispatched, 20u);  // Steps at 100 .. 2000.
    EXPECT_EQ(clock.now(), 2'000);
    EXPECT_FALSE(timer);
    EXPECT_EQ(q.size(), 2u);
    ASSERT_TRUE(q.RunOne());
    EXPECT_TRUE(timer);
    ASSERT_TRUE(q.RunOne());
    EXPECT_EQ(dispatched, 38u);
    EXPECT_EQ(clock.now(), 3'700);
    EXPECT_TRUE(q.empty());
    ASSERT_EQ(train.out.size(), 37u);
    for (int i = 0; i < 37; ++i) {
      EXPECT_EQ(train.out[i], (std::pair<SimTime, int>{100 * (i + 1), i}));
    }
    EXPECT_EQ(train.leaps > 0, leaps);
  }
}

TEST(SchedulerTrains, BoundsStopTheLoop) {
  // The shard lane's window stops strictly before its end and RunUntil
  // runs up to and including its deadline, in the middle of a train too.
  for (bool leaps : {false, true}) {
    VirtualClock clock;
    uint64_t dispatched = 0;
    EventQueue q(&clock, &dispatched);
    CountingTrain train(&q, &clock, 100, 10, leaps);
    train.Start(100);
    while (q.RunOne(500 - 1)) {
    }
    EXPECT_EQ(dispatched, 4u);
    EXPECT_EQ(clock.now(), 400);
    EXPECT_EQ(q.RunUntil(700), 3u);
    EXPECT_EQ(clock.now(), 700);
    EXPECT_FALSE(q.RunOne(799));
    EXPECT_EQ(q.RunAll(), 3u);
    EXPECT_EQ(clock.now(), 1'000);
  }
}

// `flows` flows of `segments` steps on one resource, each step
// re-acquiring it for `service` at the last one's completion, beside
// timers every 250 ns: as trains (AcquireTrain, leaping through
// AcquireRun) or as the callback chain each segment was before trains.
class SegmentFlows final : public TrainHost {
 public:
  SegmentFlows(EventQueue* q, Resource* r, VirtualClock* clock, SimTime service, bool trains)
      : q_(q), r_(r), clock_(clock), service_(service), trains_(trains) {}

  void Start(uint32_t flow, int segments) {
    if (left_.size() <= flow) {
      left_.resize(flow + 1);
    }
    left_[flow] = segments;
    Send(flow);
  }

  std::vector<std::pair<SimTime, uint32_t>> out;
  uint64_t leaped = 0;

 private:
  void Send(uint32_t flow) {
    --left_[flow];
    if (trains_) {
      r_->AcquireTrain(q_, service_, this, flow);
    } else {
      r_->AcquireAsync(q_, service_, [this, flow] { Done(flow); });
    }
  }

  void Done(uint32_t flow) {
    out.emplace_back(clock_->now(), flow);
    if (left_[flow] > 0) {
      Send(flow);
    }
  }

  void TrainStep(uint32_t flow) override { Done(flow); }

  uint32_t TrainLeap(uint32_t flow, SimTime when, SimTime horizon, SimTime* period) override {
    if (horizon < when || left_[flow] == 0) {
      return 0;
    }
    SimTime steps = std::min<SimTime>(left_[flow], (horizon - when) / service_ + 1);
    if (!r_->AcquireRun(when, service_, static_cast<uint64_t>(steps))) {
      return 0;
    }
    for (SimTime i = 0; i < steps; ++i) {
      out.emplace_back(when + i * service_, flow);
    }
    left_[flow] -= static_cast<int>(steps);
    leaped += static_cast<uint64_t>(steps);
    *period = service_;
    return static_cast<uint32_t>(steps);
  }

  EventQueue* q_;
  Resource* r_;
  VirtualClock* clock_;
  SimTime service_;
  bool trains_;
  std::vector<int> left_;
};

// Reserves and schedules exactly as AcquireAsync does, through the QoS
// hook (as benchmark taps do).
class PassThroughScheduler final : public ResourceScheduler {
 public:
  void Admit(Resource* resource, EventQueue* events, SimTime service,
             InlineCallback done) override {
    events->ScheduleAt(resource->Acquire(service), std::move(done));
  }
};

struct FlowRun {
  std::vector<std::pair<SimTime, uint32_t>> out;
  uint64_t dispatched = 0;
  SimTime busy = 0;
  uint64_t leaped = 0;

  bool operator==(const FlowRun& o) const {
    return out == o.out && dispatched == o.dispatched && busy == o.busy;
  }
};

FlowRun RunSegmentFlows(int units, bool faults, bool scheduled, bool trains) {
  VirtualClock clock;
  uint64_t dispatched = 0;
  EventQueue q(&clock, &dispatched);
  Resource r(&clock, units);
  if (faults) {
    r.AddSlowWindow(1'000, 3'000, 5, 2);
    r.AddOutageWindow(2'500, 4'000);
    r.AddSlowWindow(6'000, 6'400, 3, 1);
  }
  PassThroughScheduler pass;
  if (scheduled) {
    r.set_scheduler(&pass);
  }
  SegmentFlows flows(&q, &r, &clock, 40, trains);
  for (SimTime t = 0; t < 9'000; t += 250) {
    q.ScheduleAt(t, [&flows, &clock, t] { flows.out.emplace_back(clock.now(), 1000 + t); });
  }
  // Flows start at staggered instants, some while others still send.
  for (uint32_t f = 0; f < 6; ++f) {
    q.ScheduleAt(static_cast<SimTime>(f) * 700, [&flows, f] { flows.Start(f, 12 + 7 * f); });
  }
  q.RunAll();
  return FlowRun{flows.out, dispatched, r.busy_time(), flows.leaped};
}

TEST(SchedulerTrains, ResourceTrainsMatchTheCallbackChain) {
  // Completion times, dispatch counts and busy time equal the per-segment
  // callback chain's: on a plain single-unit link (where trains leap), on
  // one with slow and outage windows, on two units, and behind a
  // pass-through scheduler (both fall back to callbacks).
  struct Case {
    int units;
    bool faults;
    bool scheduled;
  };
  for (const Case& c : {Case{1, false, false}, Case{1, true, false}, Case{2, true, false},
                        Case{1, false, true}, Case{1, true, true}}) {
    FlowRun chain = RunSegmentFlows(c.units, c.faults, c.scheduled, /*trains=*/false);
    FlowRun train = RunSegmentFlows(c.units, c.faults, c.scheduled, /*trains=*/true);
    EXPECT_EQ(train, chain) << "units " << c.units << " faults " << c.faults << " scheduled "
                            << c.scheduled;
    EXPECT_EQ(chain.out.size(), 36u + 6 * 12 + 7 * 15);
    EXPECT_EQ(train.leaped > 0, c.units == 1 && !c.faults && !c.scheduled);
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
