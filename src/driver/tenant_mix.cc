#include "src/driver/tenant_mix.h"

#include <cassert>

namespace ioldrv {

TenantMix::TenantMix(std::vector<TenantWorkloadSpec> specs)
    : specs_(std::move(specs)) {
  assert(!specs_.empty());
  client_begin_.reserve(specs_.size() + 1);
  for (size_t i = 0; i < specs_.size(); ++i) {
    // Default ids match what a fresh QosPolicy assigns in Configure (the
    // registry pre-seeds tenant 0 as "default").
    ids_.push_back(static_cast<iolsim::TenantId>(i + 1));
    client_begin_.push_back(static_cast<size_t>(total_clients_));
    total_clients_ += specs_[i].clients > 0 ? specs_[i].clients : 0;
  }
  client_begin_.push_back(static_cast<size_t>(total_clients_));
}

void TenantMix::Configure(iolqos::QosPolicy* policy, iolqos::CachePlan* plan) {
  for (size_t i = 0; i < specs_.size(); ++i) {
    const TenantWorkloadSpec& s = specs_[i];
    ids_[i] = policy->Register(s.name, s.weight);
    if (plan != nullptr && s.cache_reserved_bytes > 0) {
      plan->SetReserved(ids_[i], s.cache_reserved_bytes);
    }
  }
}

iolsim::TenantId TenantMix::TenantOf(size_t client, uint64_t issue_seq) {
  (void)issue_seq;
  assert(client < static_cast<size_t>(total_clients_));
  // Populations are static and small in count: a linear scan over specs is
  // cheaper than a binary search for the handful of tenants a mix carries.
  size_t i = 0;
  while (client >= client_begin_[i + 1]) {
    ++i;
  }
  last_spec_ = i;
  return ids_[i];
}

bool TenantMix::NextFile(iolfs::FileId* file) {
  // The engine always resolves TenantOf immediately before NextFile, so
  // last_spec_ names the tenant whose stream supplies this request.
  const TenantWorkloadSpec& s = specs_[last_spec_];
  if (!s.next_file) {
    return false;
  }
  *file = s.next_file();
  return true;
}

}  // namespace ioldrv
