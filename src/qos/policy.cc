#include "src/qos/policy.h"

namespace iolqos {

namespace {
const CacheCounters kZeroCounters;
}  // namespace

QosPolicy::QosPolicy() = default;
QosPolicy::~QosPolicy() = default;

TenantId QosPolicy::Register(std::string name, uint32_t weight) {
  TenantId t = registry_.Register(std::move(name), weight);
  for (std::unique_ptr<FairScheduler>& s : schedulers_) {
    s->queue().SetWeight(t, weight);
  }
  return t;
}

FairScheduler* QosPolicy::AttachFairQueue(iolsim::SimContext* ctx,
                                          iolsim::Resource* resource) {
  schedulers_.push_back(std::make_unique<FairScheduler>(ctx, resource));
  FairScheduler* s = schedulers_.back().get();
  for (TenantId t = 0; t < registry_.size(); ++t) {
    s->queue().SetWeight(t, registry_.weight(t));
  }
  s->queue().set_max_wait(starvation_bound_);
  return s;
}

void QosPolicy::AttachWfq(iolsim::SimContext* ctx) {
  AttachFairQueue(ctx, &ctx->cpu());
  AttachFairQueue(ctx, &ctx->disk());
  AttachFairQueue(ctx, &ctx->link());
}

void QosPolicy::SetStarvationBound(iolsim::SimTime max_wait) {
  starvation_bound_ = max_wait;
  for (std::unique_ptr<FairScheduler>& s : schedulers_) {
    s->queue().set_max_wait(max_wait);
  }
}

void QosPolicy::OnCacheLookup(TenantId t, bool hit, bool proxy_tier) {
  CacheCounters& c = MutableCounters(t, proxy_tier);
  if (hit) {
    ++c.hits;
  } else {
    ++c.misses;
  }
}

void QosPolicy::OnCacheEviction(TenantId t, bool proxy_tier) {
  ++MutableCounters(t, proxy_tier).evictions;
}

const CacheCounters& QosPolicy::cache_counters(TenantId t, bool proxy_tier) const {
  const std::vector<CacheCounters>& v = proxy_tier ? proxy_counters_ : unified_counters_;
  return t < v.size() ? v[t] : kZeroCounters;
}

CacheCounters& QosPolicy::MutableCounters(TenantId t, bool proxy_tier) {
  std::vector<CacheCounters>& v = proxy_tier ? proxy_counters_ : unified_counters_;
  if (t >= v.size()) {
    v.resize(t + 1);
  }
  return v[t];
}

}  // namespace iolqos
