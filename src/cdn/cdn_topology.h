// CdnTopology: the shape of a planet-scale CDN hierarchy (src/cdn).
//
// The hierarchy composes existing iolproxy::ProxyServers into an N-level
// tree: level 0 is the edge tier clients talk to, higher levels sit closer
// to the origin, and the top level fetches from the origin fleet itself.
// Each level declares how many proxies it has, the per-proxy cache budget,
// and the WAN uplink every one of its proxies crosses toward its parent:
// propagation delay and payload rate.
//
// Parenting is deterministic: proxy p at level l attaches to proxy
// p % count(l+1) at level l+1, so edges spread over regionals the way
// regionals spread over the origin fleet's balancer. One consistency
// protocol (src/proxy/consistency.h) governs every interior link.

#ifndef SRC_CDN_CDN_TOPOLOGY_H_
#define SRC_CDN_CDN_TOPOLOGY_H_

#include <cstdint>
#include <vector>

#include "src/proxy/consistency.h"
#include "src/simos/clock.h"

namespace iolcdn {

// One level of the tree. Defaults mirror ProxyConfig's single-proxy wire.
struct CdnLevelSpec {
  // Proxies at this level. Edges typically outnumber regionals.
  int count = 1;
  // Per-proxy cache byte budget at this level.
  uint64_t cache_bytes = 8ull * 1024 * 1024;
  // Uplink toward the parent level (the origin fleet for the top level):
  // effective payload rate and one-way propagation.
  double link_bytes_per_sec = 100.0e6 / 8.0 * 0.72;
  iolsim::SimTime link_one_way_delay = 500 * iolsim::kMicrosecond;
};

struct CdnTopology {
  // levels[0] = edge tier ... levels.back() = closest to the origin.
  std::vector<CdnLevelSpec> levels;
  // Consistency protocol run on every interior link.
  iolproxy::ConsistencyMode protocol = iolproxy::ConsistencyMode::kNone;
  // kRevalidate: trust window after a fetch or successful revalidation.
  iolsim::SimTime ttl = 0;

  int edge_count() const { return levels.empty() ? 0 : levels.front().count; }
  int total_proxies() const {
    int n = 0;
    for (const CdnLevelSpec& l : levels) {
      n += l.count;
    }
    return n;
  }
};

}  // namespace iolcdn

#endif  // SRC_CDN_CDN_TOPOLOGY_H_
