// QosPolicy: the per-machine policy plane tying tenants, fair schedulers
// and per-tenant cache accounting together.
//
// The caches consult the policy on every unified/proxy cache probe
// (OnCacheLookup: per-tenant hit/miss accounting) and eviction.
//
// Weighted fair sharing on CPU/disk/link attaches separately via
// AttachWfq(ctx): one FairScheduler per resource, all reading this policy's
// tenant weights. Cache partitioning attaches via FileCache::SetPartitions
// with this policy's CachePlan. Everything is optional and composable —
// a SimContext with no policy attached runs the exact pre-QoS code paths.

#ifndef SRC_QOS_POLICY_H_
#define SRC_QOS_POLICY_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/qos/fair_queue.h"
#include "src/qos/tenant.h"
#include "src/simos/sim_context.h"

namespace iolqos {

// Per-tenant cache accounting, one block per cache tier (unified / proxy).
struct CacheCounters {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;

  double HitRate() const {
    uint64_t lookups = hits + misses;
    return lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups) : 0.0;
  }
};

class QosPolicy {
 public:
  QosPolicy();
  ~QosPolicy();

  QosPolicy(const QosPolicy&) = delete;
  QosPolicy& operator=(const QosPolicy&) = delete;

  // --- Tenants --------------------------------------------------------------

  TenantRegistry& registry() { return registry_; }
  const TenantRegistry& registry() const { return registry_; }

  TenantId Register(std::string name, uint32_t weight = 1);

  // --- Weighted fair sharing ------------------------------------------------

  // Attaches a fair scheduler to one resource (weights seeded from the
  // registry). The scheduler lives until the policy is destroyed.
  FairScheduler* AttachFairQueue(iolsim::SimContext* ctx, iolsim::Resource* resource);

  // Convenience: WFQ on the machine's CPU, disk, and link.
  void AttachWfq(iolsim::SimContext* ctx);

  // Bounded-wait starvation guard applied to all attached fair queues
  // (current and future). 0 disables.
  void SetStarvationBound(iolsim::SimTime max_wait);

  const std::vector<std::unique_ptr<FairScheduler>>& schedulers() const {
    return schedulers_;
  }

  // --- Request events -------------------------------------------------------

  // Fired by FileCache on every probe when attached (see FileCache::
  // AttachQos). Updates per-tenant counters.
  void OnCacheLookup(TenantId t, bool hit, bool proxy_tier);

  // Fired by FileCache when an entry owned by `t` is evicted.
  void OnCacheEviction(TenantId t, bool proxy_tier);

  // --- Per-tenant accounting ------------------------------------------------

  const CacheCounters& cache_counters(TenantId t, bool proxy_tier = false) const;

 private:
  CacheCounters& MutableCounters(TenantId t, bool proxy_tier);

  TenantRegistry registry_;
  std::vector<std::unique_ptr<FairScheduler>> schedulers_;
  std::vector<CacheCounters> unified_counters_;
  std::vector<CacheCounters> proxy_counters_;
  iolsim::SimTime starvation_bound_ = 0;
};

}  // namespace iolqos

#endif  // SRC_QOS_POLICY_H_
