// Discrete-event engine driving the simulated machine.
//
// Benchmarks model a closed-loop client population: each client issues a
// request, the request visits a series of Resources (CPU, disk, network
// link), and completion schedules the client's next request. The EventQueue
// orders those completions in virtual time.
//
// The engine is allocation-free in steady state: continuations are
// InlineCallbacks (fixed inline storage, no allocation), and multi-stage
// continuations ride in SlotPool slots (src/simos/slot_pool.h: this
// queue's callbacks, ResourceChain, and the net/fs/httpd/proxy/qos
// per-request state). Pending events sit in one of two places:
//   * a 4-ary heap of lightweight POD keys over a SlotPool of callbacks holds
//     timers, arrivals, cancellable events and multi-unit or QoS-scheduled
//     grants; dispatched events are *moved* out rather than copied;
//   * sorted completion streams hold the completions of single-unit FIFO
//     Resources. One unit finishes its jobs in call order, so each stream
//     is a ring appended at the tail and popped at the head, with no
//     sifting at all.
// Dispatch takes the earlier of the heap top and the stream heads.
//
// A stream entry is either a callback or a *train* entry: a TrainHost and
// a token, for work that re-acquires the same resource at every completion
// (a transmission's per-MSS segments on its link). RunOne dispatches a
// train head in a loop: it advances the clock, counts the event and asks
// the host to step, and the host's re-arm appends the next entry with the
// next seq. While nothing else touched the queue and the stream's new head
// is still a train entry earlier than the runner-up (the second-earliest
// event Settle found) and within the caller's bound, the loop dispatches
// it in place — no rescan, no callback move, no indirect call through an
// InlineCallback. A step that finishes its train (the final segment runs
// its continuation) or schedules or cancels anything else ends the loop.
// When the train's pending entry is its stream's only one, the host may
// leap (TrainHost::TrainLeap): take every uniform step due before the
// runner-up and the bound at once, with the queue advancing the clock,
// the dispatch count and seq as if each had run.
//
// Events dispatch in exactly (when, seq) order — seq is unique across the
// heap and the streams, so the order is a total order independent of where
// an event waits. The golden determinism tests pin this;
// tests/scheduler_test.cc replays randomized schedule/cancel streams, with
// and without sorted streams and trains, against a sorted-vector oracle.

#ifndef SRC_SIMOS_EVENT_QUEUE_H_
#define SRC_SIMOS_EVENT_QUEUE_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "src/simos/clock.h"
#include "src/simos/inline_function.h"
#include "src/simos/slot_pool.h"

namespace iolsim {

// The owner of train entries (EventQueue::ScheduleTrain): its step either
// re-arms the train, typically through Resource::AcquireTrain, or finishes
// it by running whatever continuation the train carries.
class TrainHost {
 public:
  virtual void TrainStep(uint32_t token) = 0;

  // Optional fast-forward. Train `token`'s pending entry is due at `when`,
  // it is its stream's only entry, and no other event can run before
  // `horizon`. A host whose next steps are uniform may take k >= 1 of them
  // at once: the dispatches due at when, when + *period, ...,
  // when + (k - 1) * *period (all by `horizon`), each of which would have
  // re-armed the next one *period later. The host applies every effect of
  // those k steps but the queue's own, without calling into the queue; the
  // queue then advances the clock, the dispatch count, seq and the entry.
  // Returns k; 0 declines.
  virtual uint32_t TrainLeap(uint32_t /*token*/, SimTime /*when*/, SimTime /*horizon*/,
                             SimTime* /*period*/) {
    return 0;
  }

 protected:
  ~TrainHost() = default;
};

// A time-ordered queue of callbacks. Ties are broken by insertion order so
// simulations are deterministic.
class EventQueue {
 public:
  // Handle for Cancel: packs the callback slot and its generation, so a
  // stale handle (the event already dispatched or cancelled) is rejected.
  using EventId = uint64_t;

  // `dispatched_counter`, when given, is incremented once per dispatched
  // event (SimContext points it at SimStats::events_dispatched).
  explicit EventQueue(VirtualClock* clock, uint64_t* dispatched_counter = nullptr)
      : clock_(clock),
        dispatched_(dispatched_counter != nullptr ? dispatched_counter : &own_dispatched_) {}

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Schedules `fn` to run at absolute time `when` (clamped to now). The
  // returned id is valid until the event dispatches (or is cancelled) and
  // may be ignored — almost every caller does.
  EventId ScheduleAt(SimTime when, InlineCallback&& fn) {
    if (when < clock_->now()) {
      when = clock_->now();
    }
    uint32_t slot = slots_.Acquire();
    slots_[slot].fn = std::move(fn);
    heap_.push_back(Event{when, next_seq_++, slot});
    SiftUp(heap_.size() - 1);
    ++live_;
    state_ = kUnsettled;
    return MakeId(slot, slots_[slot].gen);
  }

  // Schedules `fn` to run `delay` after the current time.
  EventId ScheduleAfter(SimTime delay, InlineCallback&& fn) {
    return ScheduleAt(clock_->now() + delay, std::move(fn));
  }

  // Schedules `fn` at `when` (clamped to now) on the sorted completion
  // stream that `owner` holds in this queue. The caller appends in
  // non-decreasing time order (a single-unit FIFO Resource's finish
  // times), so the stream is a ring: append at the tail, dispatch from the
  // head. An entry that would break the order goes to the heap instead,
  // which keeps dispatch exact. `*stream` caches the stream's index; any
  // value is accepted and a stale one is looked up again, so an owner that
  // meets several queues keeps one stream in each. Stream events cannot be
  // cancelled.
  void ScheduleSorted(const void* owner, uint32_t* stream, SimTime when, InlineCallback&& fn) {
    if (!InOrder(owner, stream, &when)) {
      ScheduleAt(when, std::move(fn));
      return;
    }
    Append(*stream, when, nullptr).fn = std::move(fn);
    state_ = kUnsettled;
  }

  // ScheduleSorted for a train entry: at `when`, `host->TrainStep(token)`
  // runs in place of a callback. The host's re-arm from inside that step,
  // on the same stream and in order, is what lets RunOne keep stepping.
  void ScheduleTrain(const void* owner, uint32_t* stream, SimTime when, TrainHost* host,
                     uint32_t token) {
    if (!InOrder(owner, stream, &when)) {
      ScheduleAt(when, [host, token] { host->TrainStep(token); });
      return;
    }
    Append(*stream, when, host).token = token;
    if (state_ == kStepping && *stream == train_stream_) {
      train_stream_ = kNoStream;  // The step's one re-arm; a second one settles.
    } else {
      state_ = kUnsettled;
    }
  }

  // Cancels a pending heap event. Returns false for a stale id (already
  // dispatched, already cancelled, or never valid). O(1): the event's key
  // stays queued and is discarded when it surfaces; the callback (and
  // whatever it captured) is destroyed immediately.
  bool Cancel(EventId id) {
    uint32_t slot = static_cast<uint32_t>(id >> 32);
    uint32_t gen = static_cast<uint32_t>(id);
    if (slot >= slots_.size() || slots_[slot].gen != gen || slots_[slot].cancelled) {
      return false;
    }
    Slot& s = slots_[slot];
    // A live generation match can still be a free slot (never scheduled
    // under this gen) only if the caller forged an id; scheduled slots are
    // exactly those not on the free list with matching gen.
    s.cancelled = true;
    s.fn = InlineCallback();
    ++s.gen;  // Invalidate the handle immediately (double-cancel is a no-op).
    assert(live_ > 0);
    --live_;
    state_ = kUnsettled;
    return true;
  }

  // True if no live events are pending.
  bool empty() const { return live_ == 0; }

  // Number of live (non-cancelled) pending events, streams included.
  size_t size() const { return live_; }

  // Number of sorted completion streams this queue has opened (one per
  // owner that has scheduled into it, empty or not).
  size_t streams() const { return streams_.size(); }

  // Time of the earliest live event; false when none is pending. Purges
  // cancelled keys it surfaces along the way.
  bool PeekWhen(SimTime* when) {
    if (!Settle()) {
      return false;
    }
    *when = next_when_;
    return true;
  }

  // Dispatches the earliest event, advancing the clock to its timestamp,
  // unless the queue is empty or that event is later than `bound` (then it
  // returns false). A train head keeps dispatching its stream's next train
  // entries while they are the earliest events and within `bound`.
  bool RunOne(SimTime bound = std::numeric_limits<SimTime>::max()) {
    if (!Settle() || next_when_ > bound) {
      return false;
    }
    if (next_ != kHeapTop && heads_[next_].train) {
      RunTrain(bound);
      return true;
    }
    state_ = kUnsettled;
    clock_->AdvanceTo(next_when_);
    ++*dispatched_;
    --live_;
    // Move the continuation out and free its place before invoking: the
    // callback is free to schedule into the slot or ring it just vacated.
    InlineCallback fn = next_ == kHeapTop ? TakeHeapTop() : TakeStreamHead(next_);
    fn();
    return true;
  }

  // Runs events until the queue drains or the clock passes `deadline`.
  // Events scheduled exactly at `deadline` still run. Returns the number of
  // events dispatched.
  uint64_t RunUntil(SimTime deadline) {
    uint64_t before = *dispatched_;
    while (RunOne(deadline)) {
    }
    clock_->AdvanceTo(deadline);
    return *dispatched_ - before;
  }

  // Runs until no events remain; returns the number dispatched.
  uint64_t RunAll() {
    uint64_t before = *dispatched_;
    while (RunOne()) {
    }
    return *dispatched_ - before;
  }

 private:
  // The heap orders lightweight POD keys; the continuations themselves
  // sit in a slot pool and never move while queued.
  struct Event {
    SimTime when;
    uint64_t seq;
    uint32_t slot;
  };

  // A pooled continuation plus the bookkeeping Cancel needs: the
  // generation invalidates stale EventIds, and `cancelled` marks a key
  // whose surfacing should be silent (no clock movement, no dispatch).
  struct Slot {
    InlineCallback fn;
    uint32_t gen = 0;
    bool cancelled = false;
  };

  // One sorted completion stream: a power-of-two ring, oldest first.
  // A train entry has a host (and runs host->TrainStep(token)); a
  // callback entry has none and runs fn.
  struct Entry {
    SimTime when = 0;
    uint64_t seq = 0;
    TrainHost* host = nullptr;
    uint32_t token = 0;
    InlineCallback fn;
  };
  struct Stream {
    const void* owner = nullptr;
    std::vector<Entry> ring;
    uint32_t capacity = 0;  // ring.size(), a power of two (or 0).
    uint32_t mask = 0;
    uint32_t head = 0;
    uint32_t count = 0;
    SimTime last_when = 0;
  };

  // The head key of one non-empty stream, and whether the head entry is a
  // train entry. Dispatch scans these, so they sit packed together rather
  // than in the streams.
  struct Head {
    SimTime when;
    uint64_t seq;
    uint32_t stream;
    bool train;
  };

  static constexpr uint32_t kHeapTop = UINT32_MAX;
  static constexpr uint32_t kNoHead = UINT32_MAX;
  static constexpr uint32_t kNoStream = UINT32_MAX;

  // kSettled: Settle's answer below is current. kStepping: a train step is
  // running, and every change to the queue but its one re-arm ends that.
  enum State : uint8_t { kUnsettled, kSettled, kStepping };

  static EventId MakeId(uint32_t slot, uint32_t gen) {
    return (static_cast<uint64_t>(slot) << 32) | gen;
  }

  static bool Earlier(SimTime a_when, uint64_t a_seq, SimTime b_when, uint64_t b_seq) {
    return a_when < b_when || (a_when == b_when && a_seq < b_seq);
  }

  // Finds the earliest live event (the heap top or a stream head) and the
  // runner-up, and keeps them until the queue next changes, so PeekWhen
  // followed by RunOne looks once. False when nothing is pending.
  bool Settle() {
    if (state_ == kSettled) {
      return true;
    }
    if (vacant_ != kNoHead) {
      DropVacant();  // Only a Settle from inside a train step gets here.
    }
    if (live_ == 0) {
      return false;
    }
    while (!heap_.empty() && slots_[heap_[0].slot].cancelled) {
      ReleaseCancelled(PopMinKey().slot);
    }
    uint32_t best = kHeapTop;
    SimTime when = std::numeric_limits<SimTime>::max();
    uint64_t seq = std::numeric_limits<uint64_t>::max();
    if (!heap_.empty()) {
      when = heap_[0].when;
      seq = heap_[0].seq;
    }
    uint32_t runner = kHeapTop;
    SimTime runner_when = std::numeric_limits<SimTime>::max();
    uint64_t runner_seq = std::numeric_limits<uint64_t>::max();
    for (uint32_t i = 0; i < heads_.size(); ++i) {
      const Head& h = heads_[i];
      if (Earlier(h.when, h.seq, when, seq)) {
        runner = best;
        runner_when = when;
        runner_seq = seq;
        best = i;
        when = h.when;
        seq = h.seq;
      } else if (Earlier(h.when, h.seq, runner_when, runner_seq)) {
        runner = i;
        runner_when = h.when;
        runner_seq = h.seq;
      }
    }
    next_ = best;
    next_when_ = when;
    runner_ = runner;
    runner_when_ = runner_when;
    runner_seq_ = runner_seq;
    state_ = kSettled;
    return true;
  }

  // Dispatches the train entry at the head of the stream whose key sits at
  // heads_[next_], then keeps stepping that stream in place. The runner-up
  // Settle found stays the runner-up as long as the only change to the
  // queue is each step's one in-order re-arm on this stream, so the
  // stream's new head is the earliest event exactly when it precedes the
  // runner-up. A stream the step empties keeps its heads_ slot (vacant_)
  // for the re-arm to refill, so a lone transmission stays on one slot.
  void RunTrain(SimTime bound) {
    const uint32_t i = next_;
    const uint32_t s = heads_[i].stream;
    while (true) {
      Stream& st = streams_[s];
      const Entry& e = st.ring[st.head];
      clock_->AdvanceTo(e.when);
      ++*dispatched_;
      --live_;
      TrainHost* host = e.host;
      uint32_t token = e.token;
      st.head = (st.head + 1) & st.mask;
      if (--st.count > 0) {
        SetHead(i, st.ring[st.head]);
      } else {
        vacant_ = i;
      }
      state_ = kStepping;
      train_stream_ = s;
      host->TrainStep(token);
      if (state_ != kStepping || train_stream_ != kNoStream) {
        // The train finished, or the step touched the queue elsewhere.
        train_stream_ = kNoStream;
        if (vacant_ != kNoHead) {
          DropVacant();
        }
        state_ = kUnsettled;
        return;
      }
      if (!Continues(i, bound)) {
        return;
      }
      if (streams_[s].count == 1 && Leap(i, s, bound) && !Continues(i, bound)) {
        return;
      }
    }
  }

  // After a re-arm on the stream whose key sits at heads_[i]: true when its
  // new head is the earliest event, a train entry and within `bound`, so
  // the loop steps it. Otherwise settles on the earliest event (without a
  // rescan where the runner-up's location answers) and returns false.
  bool Continues(uint32_t i, SimTime bound) {
    const Head& h = heads_[i];
    if (Earlier(h.when, h.seq, runner_when_, runner_seq_)) {
      if (h.when <= bound && h.train) {
        return true;
      }
      // Still the earliest, but past the bound or a callback.
      next_ = i;
      next_when_ = h.when;
      state_ = kSettled;
      return false;
    }
    // The runner-up is next. Dispatching a train head needs its own
    // runner-up, which takes a rescan; anything else is settled as is.
    if (runner_ != kHeapTop && heads_[runner_].train) {
      state_ = kUnsettled;
      return false;
    }
    next_ = runner_;
    next_when_ = runner_when_;
    state_ = kSettled;
    return false;
  }

  // Stream s holds only the train's pending entry, and it is the next
  // event: offers its host the steps that fall before the runner-up and
  // `bound` at once (TrainHost::TrainLeap). A re-armed entry's seq is newer
  // than the runner-up's, so a step tied with it in time is not taken.
  // Returns true if the host took any.
  bool Leap(uint32_t i, uint32_t s, SimTime bound) {
    Stream& st = streams_[s];
    Entry& e = st.ring[st.head];
    SimTime period = 0;
    uint32_t k = e.host->TrainLeap(e.token, e.when, std::min(bound, runner_when_ - 1), &period);
    if (k == 0) {
      return false;
    }
    clock_->AdvanceTo(e.when + (k - 1) * period);
    *dispatched_ += k;
    e.when += k * period;
    e.seq = next_seq_ + k - 1;
    next_seq_ += k;
    st.last_when = e.when;
    SetHead(i, e);
    return true;
  }

  InlineCallback TakeHeapTop() {
    uint32_t slot = PopMinKey().slot;
    InlineCallback fn = std::move(slots_[slot].fn);
    ReleaseSlot(slot);
    return fn;
  }

  // Pops the head of the stream whose key sits at heads_[i].
  InlineCallback TakeStreamHead(uint32_t i) {
    Stream& st = streams_[heads_[i].stream];
    InlineCallback fn = std::move(st.ring[st.head].fn);
    st.head = (st.head + 1) & st.mask;
    if (--st.count > 0) {
      SetHead(i, st.ring[st.head]);
    } else {
      heads_[i] = heads_.back();
      heads_.pop_back();
    }
    return fn;
  }

  // Clamps `*when` to now and points `*stream` at `owner`'s stream. False
  // when the entry would land behind the stream's tail: it goes to the heap.
  bool InOrder(const void* owner, uint32_t* stream, SimTime* when) {
    if (*when < clock_->now()) {
      *when = clock_->now();
    }
    if (*stream >= streams_.size() || streams_[*stream].owner != owner) {
      *stream = FindStream(owner);
    }
    const Stream& st = streams_[*stream];
    return st.count == 0 || *when >= st.last_when;
  }

  // Appends an entry at `when` to stream `s`, a train entry when `host` is
  // set, and returns it for the caller to finish. A stream that opens
  // refills the slot a train step vacated for it, or takes a new one.
  Entry& Append(uint32_t s, SimTime when, TrainHost* host) {
    Stream& st = streams_[s];
    if (st.count == st.capacity) {
      GrowRing(&st);
    }
    const Head head{when, next_seq_, s, host != nullptr};
    if (st.count == 0) {
      if (vacant_ != kNoHead && heads_[vacant_].stream == s) {
        heads_[vacant_] = head;
        vacant_ = kNoHead;
      } else {
        heads_.push_back(head);
      }
    }
    Entry& e = st.ring[(st.head + st.count) & st.mask];
    e.when = when;
    e.seq = next_seq_++;
    e.host = host;
    st.last_when = when;
    ++st.count;
    ++live_;
    return e;
  }

  void SetHead(uint32_t i, const Entry& e) {
    heads_[i].when = e.when;
    heads_[i].seq = e.seq;
    heads_[i].train = e.host != nullptr;
  }

  // Releases the heads_ slot a train step vacated and nothing refilled.
  void DropVacant() {
    heads_[vacant_] = heads_.back();
    heads_.pop_back();
    vacant_ = kNoHead;
  }

  uint32_t FindStream(const void* owner) {
    for (uint32_t s = 0; s < streams_.size(); ++s) {
      if (streams_[s].owner == owner) {
        return s;
      }
    }
    streams_.emplace_back().owner = owner;
    return static_cast<uint32_t>(streams_.size() - 1);
  }

  static void GrowRing(Stream* st) {
    std::vector<Entry> ring(st->ring.empty() ? 8 : 2 * st->ring.size());
    for (uint32_t i = 0; i < st->count; ++i) {
      ring[i] = std::move(st->ring[(st->head + i) & st->mask]);
    }
    st->ring = std::move(ring);
    st->capacity = static_cast<uint32_t>(st->ring.size());
    st->mask = st->capacity - 1;
    st->head = 0;
  }

  void ReleaseSlot(uint32_t slot) {
    ++slots_[slot].gen;
    slots_.Release(slot);
  }

  // A cancelled key surfaced: the callback is already destroyed and the
  // generation already bumped (Cancel did both); just recycle the slot.
  void ReleaseCancelled(uint32_t slot) {
    slots_[slot].cancelled = false;
    slots_.Release(slot);
  }

  Event PopMinKey() {
    Event ev = heap_[0];
    Event last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
      SiftDownFromRoot(last);
    }
    return ev;
  }

  // "a dispatches after b". (when, seq) is a total order — seq is unique —
  // so the dispatch order is exactly the old priority_queue's, independent
  // of heap shape or arity.
  static bool After(const Event& a, const Event& b) {
    if (a.when != b.when) {
      return a.when > b.when;
    }
    return a.seq > b.seq;
  }

  static constexpr size_t kArity = 4;

  void SiftUp(size_t i) {
    Event e = heap_[i];
    while (i > 0) {
      size_t parent = (i - 1) / kArity;
      if (!After(heap_[parent], e)) {
        break;
      }
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }

  // Places `e` starting at the (just-vacated) root.
  void SiftDownFromRoot(Event e) {
    size_t n = heap_.size();
    size_t i = 0;
    while (true) {
      size_t first_kid = i * kArity + 1;
      if (first_kid >= n) {
        break;
      }
      size_t best = first_kid;
      size_t end = first_kid + kArity < n ? first_kid + kArity : n;
      for (size_t kid = first_kid + 1; kid < end; ++kid) {
        if (After(heap_[best], heap_[kid])) {
          best = kid;
        }
      }
      if (!After(e, heap_[best])) {
        break;
      }
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = e;
  }

  VirtualClock* clock_;
  uint64_t* dispatched_;
  uint64_t own_dispatched_ = 0;
  uint64_t next_seq_ = 0;
  size_t live_ = 0;  // Pending minus cancelled-but-not-yet-surfaced.
  SlotPool<Slot> slots_;
  std::vector<Event> heap_;
  std::vector<Stream> streams_;
  std::vector<Head> heads_;  // One per non-empty stream, in no order.
  // Settle's answer, valid while kSettled: the earliest event's time and
  // where it waits (kHeapTop, or an index into heads_), and the same for
  // the runner-up (kHeapTop with an infinite key when there is none).
  State state_ = kUnsettled;
  SimTime next_when_ = 0;
  uint32_t next_ = kHeapTop;
  SimTime runner_when_ = 0;
  uint64_t runner_seq_ = 0;
  uint32_t runner_ = kHeapTop;
  // During a train step: the stepping stream until its re-arm lands, and
  // the heads_ slot the step emptied until something refills it.
  uint32_t train_stream_ = kNoStream;
  uint32_t vacant_ = kNoHead;
};

class Resource;

// Admission hook for the multi-tenant QoS plane (src/qos). When a scheduler
// is attached to a Resource, asynchronous acquisitions are handed to it
// instead of being reserved immediately: the scheduler queues the work under
// its own discipline (e.g. per-tenant start-time fair queueing) and performs
// the actual unit reservation only when it dispatches the job. Synchronous
// Acquire/AcquireAfter calls bypass the scheduler — direct-mode callers own
// the machine and have no peers to share with.
class ResourceScheduler {
 public:
  virtual ~ResourceScheduler() = default;

  // Takes ownership of one asynchronous acquisition: `done` must eventually
  // run on `events` at the job's completion time, exactly once.
  virtual void Admit(Resource* resource, EventQueue* events, SimTime service,
                     InlineCallback done) = 0;
};

// A FIFO service resource (CPU, disk arm, network link) with one or more
// identical service units (an N-way CPU is Resource(clock, N)).
//
// A job arriving at time `now` with service demand `d` begins service on
// the earliest-available unit at max(now, unit free time) and completes at
// begin + d. Reservations are made in call order, so service is FIFO by
// arrival; callers that arrive via the event queue inherit its deterministic
// insertion-order tie-breaking. The queue itself is never materialized,
// which keeps the simulation allocation-free on the sync path.
//
// Unit selection is O(1): a single unit is tracked directly, and multi-unit
// resources keep an index heap ordered by (free time, index) — the same
// earliest-free, lowest-index-on-ties rule the old linear scan implemented,
// now at O(log units) per acquire and O(1) for available_at.
class Resource {
 public:
  explicit Resource(VirtualClock* clock, int units = 1)
      : clock_(clock), unit_free_at_(units > 0 ? units : 1, 0), heap_(unit_free_at_.size()) {
    // All-equal keys: ascending indices already satisfy the heap property
    // and encode the lowest-index tie-break.
    for (size_t i = 0; i < heap_.size(); ++i) {
      heap_[i] = static_cast<uint32_t>(i);
    }
  }

  // Reserves a unit for `service` time and returns the completion time.
  // The caller typically schedules an event at the returned time.
  SimTime Acquire(SimTime service) { return AcquireAfter(clock_->now(), service); }

  // Reserves a unit for `service` time starting no earlier than `earliest`
  // (e.g. after an upstream stage completes).
  SimTime AcquireAfter(SimTime earliest, SimTime service) {
    SimTime now = clock_->now();
    SimTime start = earliest > now ? earliest : now;
    SimTime& unit = unit_free_at_[BestUnit()];
    if (unit > start) {
      start = unit;
    }
    if (!fault_windows_.empty()) {
      ApplyFaultWindows(now, &start, &service);
    }
    unit = start + service;
    busy_ += service;
    if (unit_free_at_.size() > 1) {
      SiftRootDown();  // The root's key just grew; restore heap order.
    }
    return unit;
  }

  // Asynchronous acquisition: reserves the earliest-available unit starting
  // now and schedules `done` on `events` at the completion time. FIFO
  // fairness follows from reservation-at-call order; simultaneous
  // completions dispatch in schedule order (EventQueue seq numbers). A
  // single unit finishes its jobs in call order (each starts no earlier
  // than the last one's finish), so its completions go to a sorted stream
  // in `events` rather than the heap; multi-unit completions go to the heap.
  //
  // With a ResourceScheduler attached the acquisition is queued under the
  // scheduler's discipline instead, and the scheduler schedules `done`.
  void AcquireAsync(EventQueue* events, SimTime service, InlineCallback done) {
    if (scheduler_ != nullptr) {
      scheduler_->Admit(this, events, service, std::move(done));
      return;
    }
    SimTime finish = Acquire(service);
    if (unit_free_at_.size() == 1) {
      events->ScheduleSorted(this, &stream_, finish, std::move(done));
    } else {
      events->ScheduleAt(finish, std::move(done));
    }
  }

  // AcquireAsync for a train (see EventQueue::ScheduleTrain): the same
  // reservation, with `host->TrainStep(token)` as the completion. A single
  // unit with no scheduler appends a train entry to its stream; otherwise
  // the completion is a one-line callback into the same step, so QoS
  // admission and multi-unit grants stay exactly AcquireAsync's.
  void AcquireTrain(EventQueue* events, SimTime service, TrainHost* host, uint32_t token) {
    if (scheduler_ != nullptr || unit_free_at_.size() != 1) {
      AcquireAsync(events, service, [host, token] { host->TrainStep(token); });
      return;
    }
    events->ScheduleTrain(this, &stream_, Acquire(service), host, token);
  }

  // The reservations `count` Acquire(service) calls would make, each at
  // the previous one's completion and the first at `from` — for a train
  // leap (TrainHost::TrainLeap). Exact only when `from` is when the single
  // unit next frees and no fault window or scheduler could intervene;
  // otherwise reserves nothing and returns false.
  bool AcquireRun(SimTime from, SimTime service, uint64_t count) {
    if (unit_free_at_.size() != 1 || unit_free_at_[0] != from || scheduler_ != nullptr ||
        !fault_windows_.empty()) {
      return false;
    }
    unit_free_at_[0] = from + static_cast<SimTime>(count) * service;
    busy_ += static_cast<SimTime>(count) * service;
    return true;
  }

  // QoS hook (src/qos): routes AcquireAsync through `scheduler`; null
  // restores the plain reservation-at-call FIFO semantics.
  void set_scheduler(ResourceScheduler* scheduler) { scheduler_ = scheduler; }
  ResourceScheduler* scheduler() const { return scheduler_; }

  // Time at which some unit next becomes free.
  SimTime available_at() const { return unit_free_at_[BestUnit()]; }

  int units() const { return static_cast<int>(unit_free_at_.size()); }

  // Total busy time accumulated across all units (for utilization
  // reporting; divide by units() for per-unit utilization).
  SimTime busy_time() const { return busy_; }

  // --- Fault plane (src/fault) ------------------------------------------
  //
  // Timed degradation windows, armed against the resource before (or
  // during) a run. A job whose service would begin inside a window is
  // degraded:
  //   * fail-slow: its service demand is multiplied by num/den (integer
  //     arithmetic, so faulted runs stay bit-identical across platforms);
  //   * fail-stop (num == 0): the device serves nothing while stopped —
  //     the job's start is deferred to the window end, and queued work
  //     resumes in the original FIFO reservation order.
  // With no windows armed, the acquire path is untouched (a single
  // empty() check), so an empty FaultPlan is byte-identical to the
  // un-faulted engine. Overlapping slow windows do not stack: the
  // earliest-starting one covering the job applies.

  void AddSlowWindow(SimTime start, SimTime end, uint32_t num, uint32_t den) {
    assert(num > 0 && den > 0 && end > start);
    fault_windows_.push_back(FaultWindow{start, end, num, den});
    SortFaultWindows();
  }

  void AddOutageWindow(SimTime start, SimTime end) {
    assert(end > start);
    fault_windows_.push_back(FaultWindow{start, end, 0, 1});
    SortFaultWindows();
  }

  bool has_fault_windows() const { return !fault_windows_.empty(); }

 private:
  struct FaultWindow {
    SimTime start = 0;
    SimTime end = 0;
    uint32_t num = 0;  // 0 = fail-stop (outage); otherwise service *= num/den.
    uint32_t den = 1;
  };

  void SortFaultWindows() {
    // Insertion-time sort (arming is rare, acquiring is hot). Stable order
    // by (start, end) keeps overlapping-window resolution deterministic.
    std::sort(fault_windows_.begin(), fault_windows_.end(),
              [](const FaultWindow& a, const FaultWindow& b) {
                return a.start != b.start ? a.start < b.start : a.end < b.end;
              });
    fault_cursor_ = 0;
  }

  void ApplyFaultWindows(SimTime now, SimTime* start, SimTime* service) {
    // Windows fully in the past can never degrade a new job (start >= now,
    // and now only moves forward), so skip them permanently.
    while (fault_cursor_ < fault_windows_.size() &&
           fault_windows_[fault_cursor_].end <= now) {
      ++fault_cursor_;
    }
    for (size_t i = fault_cursor_; i < fault_windows_.size(); ++i) {
      const FaultWindow& w = fault_windows_[i];
      if (w.start > *start) {
        break;  // Sorted by start: later windows can't cover this start.
      }
      if (*start >= w.end) {
        continue;  // Already over by the time this job would begin.
      }
      if (w.num == 0) {
        *start = w.end;  // Fail-stop: resume when the device comes back.
        continue;        // Back-to-back windows may cover the new start.
      }
      *service = *service * w.num / w.den;
      break;  // One slow multiplier per job; overlapping windows don't stack.
    }
  }

  // Earliest-free unit; ties resolve to the lowest index so unit selection
  // is deterministic. O(1): the single-unit case has no choice to make and
  // the multi-unit case reads the heap root.
  size_t BestUnit() const { return unit_free_at_.size() == 1 ? 0 : heap_[0]; }

  // "unit a is a worse pick than unit b" under (free time, index).
  bool Worse(uint32_t a, uint32_t b) const {
    if (unit_free_at_[a] != unit_free_at_[b]) {
      return unit_free_at_[a] > unit_free_at_[b];
    }
    return a > b;
  }

  void SiftRootDown() {
    size_t n = heap_.size();
    size_t i = 0;
    uint32_t moving = heap_[0];
    while (true) {
      size_t kid = 2 * i + 1;
      if (kid >= n) {
        break;
      }
      if (kid + 1 < n && Worse(heap_[kid], heap_[kid + 1])) {
        ++kid;
      }
      if (!Worse(moving, heap_[kid])) {
        break;
      }
      heap_[i] = heap_[kid];
      i = kid;
    }
    heap_[i] = moving;
  }

  VirtualClock* clock_;
  std::vector<SimTime> unit_free_at_;
  std::vector<uint32_t> heap_;  // Unit indices, min-heap by (free time, index).
  SimTime busy_ = 0;
  ResourceScheduler* scheduler_ = nullptr;
  std::vector<FaultWindow> fault_windows_;  // Sorted by (start, end).
  size_t fault_cursor_ = 0;                 // First window not fully past.
  uint32_t stream_ = UINT32_MAX;  // Index of our stream in the last queue used.
};

// Pooled two-hop acquisition: reserve `first` for `s1`, and at its
// completion event reserve `second` for `s2` with `done` running at that
// completion. The continuation between the hops rides in a pooled node
// — the staged pipeline's disk-then-CPU stages schedule millions of these —
// so steady-state chains never allocate.
class ResourceChain {
 public:
  explicit ResourceChain(EventQueue* events) : events_(events) {}

  ResourceChain(const ResourceChain&) = delete;
  ResourceChain& operator=(const ResourceChain&) = delete;

  void AcquireThenAsync(Resource* first, SimTime s1, Resource* second, SimTime s2,
                        InlineCallback done) {
    uint32_t idx = nodes_.Acquire();
    Node& n = nodes_[idx];
    n.second = second;
    n.s2 = s2;
    n.done = std::move(done);
    first->AcquireAsync(events_, s1, [this, idx] { Resume(idx); });
  }

  size_t pool_size() const { return nodes_.size(); }

 private:
  struct Node {
    Resource* second = nullptr;
    SimTime s2 = 0;
    InlineCallback done;
  };

  void Resume(uint32_t idx) {
    Node& n = nodes_[idx];
    Resource* second = n.second;
    SimTime s2 = n.s2;
    InlineCallback done = std::move(n.done);
    nodes_.Release(idx);
    second->AcquireAsync(events_, s2, std::move(done));
  }

  EventQueue* events_;
  SlotPool<Node> nodes_;
};

}  // namespace iolsim

#endif  // SRC_SIMOS_EVENT_QUEUE_H_
