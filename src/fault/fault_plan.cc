#include "src/fault/fault_plan.h"

#include "src/simos/rng.h"

namespace iolfault {

namespace {

// Uniform in [mean/2, 3*mean/2): jittered-periodic gaps in pure integer
// arithmetic (no libm), so generated schedules are identical everywhere.
iolsim::SimTime JitteredGap(iolsim::Rng* rng, iolsim::SimTime mean) {
  if (mean <= 1) {
    return 1;
  }
  iolsim::SimTime half = mean / 2;
  return half + static_cast<iolsim::SimTime>(
                    rng->NextBelow(static_cast<uint64_t>(mean)));
}

}  // namespace

FaultPlan& FaultPlan::AddMemberCrash(iolsim::SimTime at, int member,
                                     iolsim::SimTime restart_delay,
                                     bool cold_cache) {
  FaultEvent e;
  e.kind = FaultKind::kMemberCrash;
  e.at = at;
  e.duration = restart_delay;
  e.target = member;
  e.cold_cache = cold_cache;
  return Add(e);
}

FaultPlan& FaultPlan::AddDiskFailSlow(iolsim::SimTime at,
                                      iolsim::SimTime duration, uint32_t num,
                                      uint32_t den) {
  FaultEvent e;
  e.kind = FaultKind::kDiskFailSlow;
  e.at = at;
  e.duration = duration;
  e.slow_num = num;
  e.slow_den = den;
  return Add(e);
}

FaultPlan& FaultPlan::AddLinkOutage(iolsim::SimTime at,
                                    iolsim::SimTime duration) {
  FaultEvent e;
  e.kind = FaultKind::kLinkOutage;
  e.at = at;
  e.duration = duration;
  return Add(e);
}

FaultPlan& FaultPlan::AddRandomCrashes(uint64_t seed, int members,
                                       iolsim::SimTime mean_uptime,
                                       iolsim::SimTime restart_delay,
                                       iolsim::SimTime horizon,
                                       bool cold_cache) {
  for (int m = 0; m < members; ++m) {
    // Per-member substream: member schedules are independent of the member
    // count (adding a member never reshuffles the others' crashes).
    iolsim::Rng rng(seed ^ (0x9e3779b97f4a7c15ull * (m + 1)));
    iolsim::SimTime t = JitteredGap(&rng, mean_uptime);
    while (t < horizon) {
      AddMemberCrash(t, m, restart_delay, cold_cache);
      t += restart_delay + JitteredGap(&rng, mean_uptime);
    }
  }
  return *this;
}

FaultPlan& FaultPlan::AddRandomDiskFailSlow(uint64_t seed,
                                            iolsim::SimTime mean_gap,
                                            iolsim::SimTime window,
                                            uint32_t num, uint32_t den,
                                            iolsim::SimTime horizon) {
  iolsim::Rng rng(seed ^ 0xd1b54a32d192ed03ull);
  iolsim::SimTime t = JitteredGap(&rng, mean_gap);
  while (t < horizon) {
    AddDiskFailSlow(t, window, num, den);
    t += window + JitteredGap(&rng, mean_gap);
  }
  return *this;
}

bool FaultPlan::has_member_crashes() const {
  for (const FaultEvent& e : events_) {
    if (e.kind == FaultKind::kMemberCrash) {
      return true;
    }
  }
  return false;
}

}  // namespace iolfault
