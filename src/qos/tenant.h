// Tenant identity for the multi-tenant QoS plane.
//
// A tenant is a principal that owns requests: a customer, a workload class,
// a virtual host. The registry maps tenant ids (dense, starting at
// kDefaultTenant = 0) to names and weights; weights drive the fair
// schedulers (fair_queue.h). A CachePlan carves the unified cache budget into
// per-tenant reserved shares plus a shared remainder (file_cache.cc).

#ifndef SRC_QOS_TENANT_H_
#define SRC_QOS_TENANT_H_

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

#include "src/simos/clock.h"

namespace iolqos {

using TenantId = iolsim::TenantId;
using iolsim::kDefaultTenant;

struct TenantInfo {
  std::string name;
  uint32_t weight = 1;
};

// Dense tenant table. Id 0 is pre-registered as the default tenant so that
// untagged traffic (every pre-QoS workload) always resolves.
class TenantRegistry {
 public:
  TenantRegistry() { tenants_.push_back({"default", 1}); }

  TenantId Register(std::string name, uint32_t weight = 1) {
    tenants_.push_back({std::move(name), weight > 0 ? weight : 1});
    return static_cast<TenantId>(tenants_.size() - 1);
  }

  size_t size() const { return tenants_.size(); }

  const TenantInfo& info(TenantId t) const {
    assert(t < tenants_.size());
    return tenants_[t];
  }

  uint32_t weight(TenantId t) const {
    return t < tenants_.size() ? tenants_[t].weight : 1;
  }

  const char* name(TenantId t) const {
    return t < tenants_.size() ? tenants_[t].name.c_str() : "?";
  }

 private:
  std::vector<TenantInfo> tenants_;
};

// Per-tenant carve-up of a cache byte budget: each tenant holds a reserved
// share it can never be evicted below while any other tenant sits above its
// own reservation; the remainder (total - sum of reservations) is a shared
// pool tenants bid for by inserting (first-come, evicted back first).
struct CachePlan {
  uint64_t total_bytes = 0;
  std::vector<uint64_t> reserved_bytes;  // Indexed by TenantId; absent => 0.

  uint64_t ReservedFor(TenantId t) const {
    return t < reserved_bytes.size() ? reserved_bytes[t] : 0;
  }

  void SetReserved(TenantId t, uint64_t bytes) {
    if (t >= reserved_bytes.size()) {
      reserved_bytes.resize(t + 1, 0);
    }
    reserved_bytes[t] = bytes;
  }
};

}  // namespace iolqos

#endif  // SRC_QOS_TENANT_H_
