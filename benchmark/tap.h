// ResourceTap: per-layer measurement from outside the data path.
//
// A pass-through iolsim::ResourceScheduler attached with
// Resource::set_scheduler. It reproduces the default asynchronous
// reservation exactly (Acquire, then one ScheduleAt at the finish time), so
// a tapped run dispatches the same events in the same order as an untapped
// one; the benchmark's fingerprint check holds it to that. On the way
// through it records, per resource kind, the simulated queue wait and
// service of each acquisition and the event-queue depth, and it times the
// host execution of the continuation that runs when the grant completes.
//
// The continuation is parked in a pooled slot, so the callback the tap
// schedules captures only (this, slot) and stays inside InlineCallback's
// 48-byte inline storage.

#ifndef BENCHMARK_TAP_H_
#define BENCHMARK_TAP_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <utility>
#include <vector>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

#include "src/simos/event_queue.h"

namespace iolbench {

enum TapKind { kTapCpu, kTapDisk, kTapLink, kTapProxyCpu, kTapKinds };

inline const char* TapKindName(int kind) {
  static const char* const kNames[kTapKinds] = {"cpu", "disk", "link", "proxy_cpu"};
  return kNames[kind];
}

inline int64_t HostNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The tap reads a clock twice per continuation, tens of millions of times
// a run, so it reads the TSC where there is one (about half the cost of
// steady_clock) and converts to nanoseconds when it closes.
inline int64_t HostTicks() {
#if defined(__x86_64__)
  return static_cast<int64_t>(__rdtsc());
#else
  return HostNs();
#endif
}

// Log-linear histogram of non-negative durations: exact below 32 ns, then
// 32 buckets per power of two (about 3% resolution). Deterministic, so
// simulated-wait percentiles repeat exactly run to run.
class WaitHistogram {
 public:
  void Add(int64_t v) {
    ++counts_[Index(v < 0 ? 0 : static_cast<uint64_t>(v))];
    ++total_;
  }

  void Merge(const WaitHistogram& o) {
    for (size_t i = 0; i < kBuckets; ++i) {
      counts_[i] += o.counts_[i];
    }
    total_ += o.total_;
  }

  // Lower edge of the bucket holding the nearest-rank q-quantile.
  int64_t Quantile(double q) const {
    if (total_ == 0) {
      return 0;
    }
    uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(total_));
    if (rank >= total_) {
      rank = total_ - 1;
    }
    uint64_t seen = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
      seen += counts_[i];
      if (seen > rank) {
        return LowerEdge(i);
      }
    }
    return LowerEdge(kBuckets - 1);
  }

 private:
  static constexpr size_t kSub = 32;
  static constexpr size_t kBuckets = kSub + 59 * kSub;

  static size_t Index(uint64_t v) {
    if (v < kSub) {
      return v;
    }
    int shift = 63 - __builtin_clzll(v) - 5;
    return kSub + static_cast<size_t>(shift) * kSub + ((v >> shift) - kSub);
  }

  static int64_t LowerEdge(size_t i) {
    if (i < kSub) {
      return static_cast<int64_t>(i);
    }
    size_t shift = (i - kSub) / kSub;
    uint64_t top = kSub + (i - kSub) % kSub;
    return static_cast<int64_t>(top << shift);
  }

  uint64_t counts_[kBuckets] = {};
  uint64_t total_ = 0;
};

// One sampled acquisition, exported as a Chrome-trace span.
struct TapSpan {
  int kind = 0;
  int lane = 0;               // Which tap (one per simulated machine).
  iolsim::SimTime at = 0;     // Simulated instant of the request.
  iolsim::SimTime wait = 0;   // Simulated queue wait.
  iolsim::SimTime service = 0;
  int64_t host_start = 0;     // Continuation start and end: ticks until
  int64_t host_end = 0;       // Close(), host ns after.
};

class ResourceTap final : public iolsim::ResourceScheduler {
 public:
  struct KindStats {
    uint64_t acquisitions = 0;
    uint64_t queue_depth_sum = 0;  // EventQueue::size() at each admission.
    int64_t host_ns = 0;           // Continuation host time (ticks until Close).
    WaitHistogram waits;
    iolsim::SimTime busy_ns = 0;      // Filled by Close().
    iolsim::SimTime capacity_ns = 0;  // Filled by Close().
  };

  // Every `sample_every`-th acquisition is kept as a span (0 keeps none).
  ResourceTap(const iolsim::VirtualClock* clock, int lane, uint64_t sample_every)
      : clock_(clock),
        lane_(lane),
        sample_every_(sample_every),
        ns0_(HostNs()),
        ticks0_(HostTicks()) {}

  // A tap outliving its machine must have been closed while the machine
  // was alive; closing here covers the other order.
  ~ResourceTap() override { Close(); }

  ResourceTap(const ResourceTap&) = delete;
  ResourceTap& operator=(const ResourceTap&) = delete;

  void Attach(iolsim::Resource* resource, TapKind kind) {
    resource->set_scheduler(this);
    attached_.emplace_back(resource, kind);
  }

  // Detaches from every resource, adding each one's busy time and capacity
  // (units x simulated time so far) to its kind's totals, and converts the
  // host timings to nanoseconds. Call before the machine is destroyed.
  void Close() {
    if (closed_) {
      return;
    }
    closed_ = true;
    for (auto& [resource, kind] : attached_) {
      kinds_[kind].busy_ns += resource->busy_time();
      kinds_[kind].capacity_ns += resource->units() * clock_->now();
      resource->set_scheduler(nullptr);
    }
    attached_.clear();
    double ns_per_tick = static_cast<double>(HostNs() - ns0_) /
                         static_cast<double>(std::max<int64_t>(1, HostTicks() - ticks0_));
    auto to_ns = [&](int64_t ticks) {
      return static_cast<int64_t>(static_cast<double>(ticks) * ns_per_tick);
    };
    for (KindStats& k : kinds_) {
      k.host_ns = to_ns(k.host_ns);
    }
    for (TapSpan& s : spans_) {
      if (s.host_end != 0) {
        s.host_start = ns0_ + to_ns(s.host_start - ticks0_);
        s.host_end = ns0_ + to_ns(s.host_end - ticks0_);
      }
    }
  }

  void Admit(iolsim::Resource* resource, iolsim::EventQueue* events,
             iolsim::SimTime service, iolsim::InlineCallback done) override {
    int kind = KindOf(resource);
    iolsim::SimTime now = clock_->now();
    KindStats& k = kinds_[kind];
    k.queue_depth_sum += events->size();
    // The default AcquireAsync, step for step: reserve, then schedule.
    iolsim::SimTime finish = resource->Acquire(service);
    iolsim::SimTime wait = finish - service - now;
    k.waits.Add(wait);
    ++k.acquisitions;
    int32_t span = -1;
    if (sample_every_ > 0 && admitted_++ % sample_every_ == 0) {
      span = static_cast<int32_t>(spans_.size());
      spans_.push_back(TapSpan{kind, lane_, now, wait, service, 0, 0});
    }
    uint32_t slot = Park(std::move(done), kind, span);
    events->ScheduleAt(finish, [this, slot] { Resume(slot); });
  }

  // Valid after Close().
  const KindStats& stats(int kind) const { return kinds_[kind]; }
  const std::vector<TapSpan>& spans() const { return spans_; }

 private:
  static constexpr uint32_t kNone = UINT32_MAX;

  struct Parked {
    iolsim::InlineCallback done;
    int kind = 0;
    int32_t span = -1;
    uint32_t next_free = kNone;
  };

  int KindOf(const iolsim::Resource* resource) const {
    for (const auto& [r, kind] : attached_) {
      if (r == resource) {
        return kind;
      }
    }
    return kTapCpu;  // Unreachable: only attached resources route here.
  }

  uint32_t Park(iolsim::InlineCallback done, int kind, int32_t span) {
    uint32_t slot;
    if (free_ != kNone) {
      slot = free_;
      free_ = parked_[slot].next_free;
    } else {
      slot = static_cast<uint32_t>(parked_.size());
      parked_.emplace_back();
    }
    parked_[slot].done = std::move(done);
    parked_[slot].kind = kind;
    parked_[slot].span = span;
    return slot;
  }

  void Resume(uint32_t slot) {
    // Release the slot before running: the continuation may re-enter Admit.
    Parked& p = parked_[slot];
    iolsim::InlineCallback done = std::move(p.done);
    int kind = p.kind;
    int32_t span = p.span;
    p.next_free = free_;
    free_ = slot;
    int64_t t0 = HostTicks();
    done();
    int64_t t1 = HostTicks();
    kinds_[kind].host_ns += t1 - t0;
    if (span >= 0) {
      spans_[span].host_start = t0;
      spans_[span].host_end = t1;
    }
  }

  const iolsim::VirtualClock* clock_;
  int lane_;
  uint64_t sample_every_;
  int64_t ns0_;
  int64_t ticks0_;
  bool closed_ = false;
  uint64_t admitted_ = 0;
  std::vector<std::pair<iolsim::Resource*, TapKind>> attached_;
  KindStats kinds_[kTapKinds];
  std::vector<Parked> parked_;
  uint32_t free_ = kNone;
  std::vector<TapSpan> spans_;
};

}  // namespace iolbench

#endif  // BENCHMARK_TAP_H_
