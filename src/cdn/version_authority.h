// VersionAuthority: the origin-side source of truth for object versions.
//
// Implements iolproxy::VersionSource for the whole hierarchy. A write at
// the origin bumps the object's version and, under kInvalidate, pushes an
// invalidation frame down the tree to every proxy currently holding the
// object: the frame crosses each holder's uplink (cumulative propagation
// delay) and lands as ProxyServer::OnInvalidate at the delivery instant.
// ApplyWrite returns the *acknowledgement* instant — the time the slowest
// invalidation lands — which is the moment from which the protocol
// guarantees no proxy serves a version older than this write (requests
// already in flight may still complete with the bytes they were promised;
// IO-Lite snapshot semantics).
//
// Reading a version is free in the simulated machine: the modeled price of
// freshness is the control traffic this class generates, never the lookup.

#ifndef SRC_CDN_VERSION_AUTHORITY_H_
#define SRC_CDN_VERSION_AUTHORITY_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/proxy/consistency.h"
#include "src/proxy/proxy_server.h"
#include "src/simos/sim_context.h"

namespace iolcdn {

class VersionAuthority : public iolproxy::VersionSource {
 public:
  explicit VersionAuthority(iolsim::SimContext* ctx) : ctx_(ctx) {}

  void set_mode(iolproxy::ConsistencyMode mode) { mode_ = mode; }

  // Registers a proxy as a potential holder. `delay` is the cumulative
  // one-way propagation from the origin down to this proxy (the sum of the
  // link delays of every level from the proxy's up to the top), i.e. how
  // long an invalidation frame travels before it can land.
  void RegisterHolder(iolproxy::ProxyServer* proxy, iolsim::SimTime delay) {
    holders_.push_back(Holder{proxy, delay});
  }

  // One origin write: bumps the version, stamps the write instant, counts
  // SimStats::cdn_writes, and (kInvalidate) pushes invalidations to every
  // registered proxy currently caching the object. Returns the ack instant
  // (== now when nothing had to be invalidated).
  iolsim::SimTime ApplyWrite(iolfs::FileId file);

  uint64_t writes() const { return writes_; }

  // --- VersionSource --------------------------------------------------------
  uint64_t VersionOf(iolfs::FileId file) const override {
    auto it = versions_.find(file);
    return it == versions_.end() ? 0 : it->second;
  }
  iolsim::SimTime WrittenAt(iolfs::FileId file) const override {
    auto it = written_at_.find(file);
    return it == written_at_.end() ? 0 : it->second;
  }

 private:
  struct Holder {
    iolproxy::ProxyServer* proxy;
    iolsim::SimTime delay;  // Origin-to-proxy cumulative propagation.
  };

  iolsim::SimContext* ctx_;
  iolproxy::ConsistencyMode mode_ = iolproxy::ConsistencyMode::kNone;
  std::vector<Holder> holders_;
  std::unordered_map<iolfs::FileId, uint64_t> versions_;
  std::unordered_map<iolfs::FileId, iolsim::SimTime> written_at_;
  uint64_t writes_ = 0;
};

}  // namespace iolcdn

#endif  // SRC_CDN_VERSION_AUTHORITY_H_
