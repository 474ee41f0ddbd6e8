// TenantMix: N tenant workloads x weights x one fleet.
//
// The multi-tenant composition of the experiment engine: each tenant brings
// a closed-loop client population and its own file-request stream (a hot
// Zipf core, a sequential cache-busting scan, ...), and the mix runs them
// against a single fleet. Configure() projects the mix into a QosPolicy —
// tenant registrations and WFQ weights — and into a CachePlan's reserved
// shares, so a bench can sweep the same mix with the policy plane on or off.
//
// The engine resolves the tenant of every arrival via TenantOf (called
// immediately before NextFile), so per-request telemetry records carry the
// tenant tag even when no QosPolicy is attached — the QoS-off contrast run
// of fig_tenant_isolation still reports per-tenant percentiles.

#ifndef SRC_DRIVER_TENANT_MIX_H_
#define SRC_DRIVER_TENANT_MIX_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/driver/workload.h"
#include "src/qos/policy.h"

namespace ioldrv {

// One tenant's slice of the mix.
struct TenantWorkloadSpec {
  std::string name;
  // WFQ weight on CPU/disk/link when the policy plane is attached.
  uint32_t weight = 1;
  // Closed-loop client population (each client re-issues on completion).
  int clients = 1;
  // Per-request file source for this tenant's clients.
  std::function<iolfs::FileId()> next_file;
  // Reserved share under cache partitioning; 0 = bids for the shared pool.
  uint64_t cache_reserved_bytes = 0;
};

class TenantMix : public Workload {
 public:
  explicit TenantMix(std::vector<TenantWorkloadSpec> specs);

  // Registers every tenant with `policy` (names and weights) and,
  // when `plan` is given, its reserved cache share. Tenant ids assigned by
  // a fresh policy match the ids used without one (spec i -> tenant i+1),
  // so QoS-on and QoS-off runs of the same mix report comparable tags.
  void Configure(iolqos::QosPolicy* policy, iolqos::CachePlan* plan = nullptr);

  int initial_clients() const override { return total_clients_; }
  bool closed_loop() const override { return true; }
  iolsim::TenantId TenantOf(size_t client, uint64_t issue_seq) override;
  bool NextFile(iolfs::FileId* file) override;

  size_t tenant_count() const { return specs_.size(); }
  iolsim::TenantId tenant_id(size_t spec_index) const { return ids_[spec_index]; }
  const TenantWorkloadSpec& spec(size_t spec_index) const { return specs_[spec_index]; }

 private:
  std::vector<TenantWorkloadSpec> specs_;
  std::vector<iolsim::TenantId> ids_;   // Spec index -> tenant id.
  std::vector<size_t> client_begin_;    // Spec i owns clients [begin[i], begin[i+1]).
  int total_clients_ = 0;
  size_t last_spec_ = 0;  // Spec resolved by the latest TenantOf (see NextFile).
};

}  // namespace ioldrv

#endif  // SRC_DRIVER_TENANT_MIX_H_
