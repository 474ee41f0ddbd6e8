#include "src/cdn/version_authority.h"

namespace iolcdn {

iolsim::SimTime VersionAuthority::ApplyWrite(iolfs::FileId file) {
  iolsim::SimTime now = ctx_->clock().now();
  uint64_t version = ++versions_[file];
  written_at_[file] = now;
  ++writes_;
  ctx_->stats().cdn_writes++;
  iolsim::SimTime ack = now;
  if (mode_ != iolproxy::ConsistencyMode::kInvalidate) {
    return ack;
  }
  // Push an invalidation to every proxy holding the object. Targeting by
  // current membership is the protocol (the origin tracks holders the way
  // AFS tracks callbacks); a fetch in flight right now is not yet a holder
  // — the proxy's ReceiveStage version check catches that race instead.
  for (const Holder& h : holders_) {
    if (!h.proxy->CachesFile(file)) {
      continue;
    }
    ctx_->stats().cdn[h.proxy->consistency().level].invalidations_sent++;
    // The frame takes the cumulative propagation down the tree.
    iolsim::SimTime at = now + h.delay;
    if (at > ack) {
      ack = at;
    }
    iolproxy::ProxyServer* proxy = h.proxy;
    ctx_->events().ScheduleAfter(at - now, [proxy, file, version] {
      proxy->OnInvalidate(file, version);
    });
  }
  return ack;
}

}  // namespace iolcdn
