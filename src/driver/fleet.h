// Fleet: the server axis of an experiment.
//
// A Fleet is N server instances behind a pluggable load-balancer policy.
// The members share one simulated machine's front link (and, per the cost
// model, its CPU/disk service units — scale CostParams::cpu_count and
// disk_count with the fleet to model one machine per member), so copy-based
// and IO-Lite fleets can be compared under a single client population. The
// balancer picks a member per request, at arrival, from the members'
// current load (in service + waiting in that member's accept queue).

#ifndef SRC_DRIVER_FLEET_H_
#define SRC_DRIVER_FLEET_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "src/httpd/http_server.h"

namespace ioldrv {

// A member whose load reads kEjected has been ejected by the health checker
// (fault plane, src/fault): balancers skip it. If every member is ejected,
// balancers fall back to their normal pick — arrivals must go somewhere,
// and a uniformly-dead fleet has no better choice.
inline constexpr int kEjected = -1;

class LoadBalancer {
 public:
  virtual ~LoadBalancer() = default;
  // Picks the member for an arriving request; `load[i]` counts requests in
  // service at or queued for member i, or kEjected for a health-ejected
  // member. Must return an index < load.size().
  virtual size_t Pick(const std::vector<int>& load) = 0;
};

// Cycles through the members regardless of load.
class RoundRobinBalancer : public LoadBalancer {
 public:
  size_t Pick(const std::vector<int>& load) override {
    if (load.empty()) {
      return 0;
    }
    size_t n = load.size();
    size_t pick = next_++ % n;
    // Skip ejected members, at most one lap (all-ejected: keep the pick).
    for (size_t i = 0; i < n && load[pick] == kEjected; ++i) {
      pick = next_++ % n;
    }
    return pick;
  }

 private:
  size_t next_ = 0;
};

// Picks the least-loaded member. Ties resolve by scanning from the slot
// after the previous pick, so an all-idle fleet degenerates to round-robin
// instead of hammering member 0.
class LeastConnectionsBalancer : public LoadBalancer {
 public:
  size_t Pick(const std::vector<int>& load) override;

 private:
  size_t last_ = 0;
};

// N servers (non-owning) plus the balancer that spreads requests over them.
// Homogeneous fleets are assumed for memory accounting: member 0's
// per-connection footprint and socket data path stand for all members.
class Fleet {
 public:
  explicit Fleet(std::vector<iolhttp::HttpServer*> servers,
                 std::unique_ptr<LoadBalancer> balancer = nullptr);

  // The degenerate single-server fleet (every classic experiment).
  static Fleet Single(iolhttp::HttpServer* server) {
    return Fleet(std::vector<iolhttp::HttpServer*>{server});
  }

  size_t size() const { return servers_.size(); }
  iolhttp::HttpServer* server(size_t i) const { return servers_[i]; }
  const std::vector<iolhttp::HttpServer*>& servers() const { return servers_; }

  size_t PickServer(const std::vector<int>& load) {
    return balancer_->Pick(load) % servers_.size();
  }
  LoadBalancer* balancer() const { return balancer_.get(); }

 private:
  std::vector<iolhttp::HttpServer*> servers_;
  std::unique_ptr<LoadBalancer> balancer_;
};

}  // namespace ioldrv

#endif  // SRC_DRIVER_FLEET_H_
