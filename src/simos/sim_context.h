// SimContext bundles the simulated machine: clock, event queue, cost model,
// operation counters, memory accounting, and the VM system.
//
// Cost charging has two modes:
//  * Direct mode (default): ChargeCpu advances the virtual clock
//    immediately. Used by the single-program application benchmarks
//    (Figure 13) where one process runs alone on the CPU.
//  * Tally mode: between BeginTally/EndTally, charges accumulate into a
//    Tally instead of moving the clock. The staged HTTP request pipeline
//    runs each stage's body under a micro-tally, then acquires the
//    machine's CPU/disk resources for the measured demand so concurrent
//    requests queue — and overlap — realistically.

#ifndef SRC_SIMOS_SIM_CONTEXT_H_
#define SRC_SIMOS_SIM_CONTEXT_H_

#include <cassert>
#include <memory>

#include "src/simos/clock.h"
#include "src/simos/cost_model.h"
#include "src/simos/event_queue.h"
#include "src/simos/memory_model.h"
#include "src/simos/stats.h"
#include "src/simos/vm.h"

namespace iolsim {

// Accumulated demand of one logical task (e.g. one HTTP request).
struct Tally {
  SimTime cpu = 0;
  SimTime disk = 0;
};

class SimContext {
 public:
  SimContext() : SimContext(CostParams{}) {}

  explicit SimContext(const CostParams& params)
      : cost_(params),
        memory_(params.ram_bytes),
        events_(&clock_, &stats_.events_dispatched),
        cpu_(&clock_, params.cpu_count),
        disk_(&clock_, params.disk_count),
        link_(&clock_),
        chain_(&events_),
        vm_(std::make_unique<VmSystem>(this)) {
    memory_.Set(MemCategory::kKernel, params.kernel_reserved_bytes);
  }

  SimContext(const SimContext&) = delete;
  SimContext& operator=(const SimContext&) = delete;

  VirtualClock& clock() { return clock_; }
  const CostModel& cost() const { return cost_; }
  SimStats& stats() { return stats_; }
  MemoryModel& memory() { return memory_; }
  EventQueue& events() { return events_; }
  VmSystem& vm() { return *vm_; }

  // The machine's contended resources. Staged request pipelines acquire
  // these asynchronously as each stage runs; sequential (direct-mode)
  // callers may ignore them and charge costs straight onto the clock.
  Resource& cpu() { return cpu_; }
  Resource& disk() { return disk_; }
  Resource& link() { return link_; }

  // Pooled two-hop acquisitions over those resources (disk-then-CPU stages).
  ResourceChain& chain() { return chain_; }

  // Charges `t` of CPU time: into the active tally, or directly onto the
  // clock when no tally is active.
  void ChargeCpu(SimTime t) {
    if (t <= 0) {
      return;
    }
    if (tally_ != nullptr) {
      tally_->cpu += t;
    } else {
      clock_.Advance(t);
    }
  }

  // Charges `t` of disk service time.
  void ChargeDisk(SimTime t) {
    if (t <= 0) {
      return;
    }
    if (tally_ != nullptr) {
      tally_->disk += t;
    } else {
      clock_.Advance(t);
    }
  }

  // Begins accumulating charges into `tally`. Not reentrant.
  void BeginTally(Tally* tally) {
    assert(tally_ == nullptr);
    tally_ = tally;
  }

  void EndTally() {
    assert(tally_ != nullptr);
    tally_ = nullptr;
  }

  bool tally_active() const { return tally_ != nullptr; }

  // The tenant on whose behalf the machine is currently working. The QoS
  // plane's fair schedulers restore this before running each dispatched
  // continuation, so downstream stages (disk reads, cache inserts, per-MSS
  // transmits) attribute their demand to the right tenant without
  // per-callsite plumbing. Stays kDefaultTenant in single-tenant runs.
  TenantId active_tenant() const { return active_tenant_; }
  void set_active_tenant(TenantId t) { active_tenant_ = t; }

 private:
  VirtualClock clock_;
  CostModel cost_;
  SimStats stats_;
  MemoryModel memory_;
  EventQueue events_;
  Resource cpu_;
  Resource disk_;
  Resource link_;
  ResourceChain chain_;
  std::unique_ptr<VmSystem> vm_;
  Tally* tally_ = nullptr;
  TenantId active_tenant_ = kDefaultTenant;
};

// RAII helper for tally scopes.
class TallyScope {
 public:
  TallyScope(SimContext* ctx, Tally* tally) : ctx_(ctx) { ctx_->BeginTally(tally); }
  ~TallyScope() { ctx_->EndTally(); }
  TallyScope(const TallyScope&) = delete;
  TallyScope& operator=(const TallyScope&) = delete;

 private:
  SimContext* ctx_;
};

}  // namespace iolsim

#endif  // SRC_SIMOS_SIM_CONTEXT_H_
