// CdnTier: the proxy composition of the experiment API (src/cdn).
//
// Wires a CdnTopology of ProxyServers (src/proxy) in front of an origin
// Fleet — an edge tier clients talk to, interior levels those edges fetch
// through, and a top level that fetches from the origin fleet via its
// balancer — and runs the standard Workload x Fleet x Telemetry engine
// against the edges. Clients pin to their edge (Workload::PinMember;
// EdgeMix populations), and every interior link runs the topology's
// consistency protocol against one VersionAuthority.
//
// The two-tier experiment (one proxy in front of a fleet) is the one-level,
// one-proxy topology: the level's cache_bytes and link fields set the
// proxy's budget and backhaul wire, everything else comes from the
// ProxyConfig. It is the only shape that may use BackhaulMode::kColocated
// (proxy and origin on one machine, talking over loopback or IOL-IPC);
// deeper trees must use kRemote. With no writes, every consistency branch
// is version-0 inert, so the protocol does not change the run
// (tests/proxy_test.cc pins the one-level tree to goldens).

#ifndef SRC_DRIVER_CDN_TIER_H_
#define SRC_DRIVER_CDN_TIER_H_

#include <memory>
#include <utility>
#include <vector>

#include "src/cdn/cdn_topology.h"
#include "src/cdn/version_authority.h"
#include "src/cdn/write_plan.h"
#include "src/driver/experiment.h"
#include "src/driver/fleet.h"
#include "src/proxy/proxy_server.h"

namespace ioldrv {

class CdnTier {
 public:
  // `origins` is the fleet behind the top proxy level; `topo` shapes the
  // tree; `pconfig` supplies everything CdnLevelSpec does not override
  // (data path, CPU costs). The System pieces must outlive the tier.
  // `topo.levels` must be non-empty, each level's count >= 1, and
  // levels.size() <= SimStats::kMaxCdnLevels; `pconfig.backhaul` must be
  // kRemote unless the topology is one level of one proxy. A violation
  // aborts in every build type.
  CdnTier(iolsim::SimContext* ctx, iolnet::NetworkSubsystem* net,
          iolfs::FileIoService* io, iolite::IoLiteRuntime* runtime, Fleet origins,
          iolcdn::CdnTopology topo, iolproxy::ProxyConfig pconfig,
          ExperimentConfig config);

  // Attaches a deterministic origin write process; armed at Run. Not owned.
  void set_write_plan(iolcdn::WritePlan* plan) { write_plan_ = plan; }

  // Runs `workload` against the edge tier (one run per instance). The
  // result carries the proxy fields aggregated over every level plus the
  // cdn_levels and staleness blocks.
  ExperimentResult Run(Workload* workload, Experiment::RequestSource next_file,
                       Telemetry* sink = nullptr);

  iolcdn::VersionAuthority& authority() { return authority_; }
  // Proxy `i` at `level` (level 0 = edges).
  iolproxy::ProxyServer& proxy(int level, int i) { return *proxies_[level][i]; }
  int level_count() const { return static_cast<int>(proxies_.size()); }
  int proxies_at(int level) const {
    return static_cast<int>(proxies_[level].size());
  }

 private:
  iolsim::SimContext* ctx_;
  Fleet origins_;
  iolcdn::CdnTopology topo_;
  iolcdn::VersionAuthority authority_;
  // proxies_[level][i]; level 0 = edge tier.
  std::vector<std::vector<std::unique_ptr<iolproxy::ProxyServer>>> proxies_;
  iolcdn::WritePlan* write_plan_ = nullptr;
  std::unique_ptr<Experiment> experiment_;
};

}  // namespace ioldrv

#endif  // SRC_DRIVER_CDN_TIER_H_
