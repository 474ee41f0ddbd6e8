// Deterministic fault injection: the plan half of the fault plane.
//
// A FaultPlan is a list of clock-scheduled fault events, either hand-placed
// or drawn from a seeded SplitMix64 stream before the run starts. Every
// fault dispatches through the existing machinery — crash/restart flips ride
// the event queue, device degradation rides Resource fault windows — so a
// faulted run is bit-identical given the same seed, and an EMPTY plan leaves
// every code path untouched (the golden determinism tests pin byte-identity
// with today's engine).
//
// Layer map (who arms which kind):
//   kMemberCrash   -> ioldrv::Experiment + iolhttp::HttpServer::Crash/Restart
//                     (in-flight serves are dropped; optionally the crashed
//                     member's share of the unified cache is evicted at
//                     restart — "cold cache").
//   kDiskFailSlow  -> Resource slow window on SimContext::disk().
//   kLinkOutage    -> Resource outage window on SimContext::link() (the
//                     front link a LinkSpec wraps; transmissions queue and
//                     resume FIFO when the partition heals).
//
// The recovery half (timeouts, retries, hedging, health checks) is
// configured by RecoveryConfig in src/fault/recovery.h and implemented by
// ioldrv::Experiment.

#ifndef SRC_FAULT_FAULT_PLAN_H_
#define SRC_FAULT_FAULT_PLAN_H_

#include <cstdint>
#include <vector>

#include "src/simos/clock.h"

namespace iolfault {

enum class FaultKind : uint8_t {
  kMemberCrash,   // target = fleet member; duration = restart delay.
  kDiskFailSlow,  // duration window; service *= slow_num/slow_den.
  kLinkOutage,    // duration window; the front link carries nothing.
};

struct FaultEvent {
  FaultKind kind = FaultKind::kMemberCrash;
  iolsim::SimTime at = 0;        // Window / crash start (absolute sim time).
  iolsim::SimTime duration = 0;  // Window length / restart delay.
  int target = 0;                // kMemberCrash: the fleet member.
  uint32_t slow_num = 4;         // Fail-slow multiplier num/den.
  uint32_t slow_den = 1;
  // Crash only: evict the member's share of the unified cache at restart
  // (1/fleet of the cached bytes — the machine survives, the process's
  // working set does not).
  bool cold_cache = true;
};

// An ordered list of fault events. Builders return *this so plans compose:
//   FaultPlan plan;
//   plan.AddMemberCrash(50 * kMillisecond, 1, 20 * kMillisecond)
//       .AddDiskFailSlow(100 * kMillisecond, 30 * kMillisecond, 8, 1);
class FaultPlan {
 public:
  FaultPlan& Add(const FaultEvent& e) {
    events_.push_back(e);
    return *this;
  }

  FaultPlan& AddMemberCrash(iolsim::SimTime at, int member,
                            iolsim::SimTime restart_delay,
                            bool cold_cache = true);
  FaultPlan& AddDiskFailSlow(iolsim::SimTime at, iolsim::SimTime duration,
                             uint32_t num, uint32_t den);
  FaultPlan& AddLinkOutage(iolsim::SimTime at, iolsim::SimTime duration);

  // Seeded generators (SplitMix64; pure integer arithmetic so the schedule
  // is identical on every platform). Crashes are spread over [0, horizon):
  // each member independently crashes roughly every `mean_uptime`, jittered
  // uniformly in [mean/2, 3*mean/2), and restarts `restart_delay` later.
  FaultPlan& AddRandomCrashes(uint64_t seed, int members,
                              iolsim::SimTime mean_uptime,
                              iolsim::SimTime restart_delay,
                              iolsim::SimTime horizon,
                              bool cold_cache = true);

  // Fail-slow windows of length `window` arriving roughly every
  // `mean_gap` (same jitter scheme) over [0, horizon).
  FaultPlan& AddRandomDiskFailSlow(uint64_t seed, iolsim::SimTime mean_gap,
                                   iolsim::SimTime window, uint32_t num,
                                   uint32_t den, iolsim::SimTime horizon);

  bool empty() const { return events_.empty(); }
  const std::vector<FaultEvent>& events() const { return events_; }

  bool has_member_crashes() const;

 private:
  std::vector<FaultEvent> events_;
};

}  // namespace iolfault

#endif  // SRC_FAULT_FAULT_PLAN_H_
