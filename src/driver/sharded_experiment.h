// ShardedExperiment: a fleet with one machine per member, run in parallel.
//
// A thin owner over Experiment's one-machine-per-member topology: it builds
// each member's machine (System: CPU, disk, cache, link, own clock and
// event queue) and server with the caller's factory, hands them to an
// Experiment, and adds the parallel-engine diagnostics to the result. The
// client population lives on a frontend lane; requests and responses
// cross lanes as ShardMsgs with the client-to-fleet one-way delay as the
// lookahead of the ShardRunner's conservative rounds.
//
// The lanes are fixed by the fleet (the frontend + one per member);
// ExperimentConfig::shard_count only chooses how many OS threads execute
// them. Telemetry is therefore byte-identical for any shard_count — the
// determinism contract the invariance tests pin. Client c is served by
// member c mod M; see ExperimentConfig for the fields this topology rejects.

#ifndef SRC_DRIVER_SHARDED_EXPERIMENT_H_
#define SRC_DRIVER_SHARDED_EXPERIMENT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/driver/experiment.h"
#include "src/driver/telemetry.h"
#include "src/driver/workload.h"
#include "src/httpd/http_server.h"
#include "src/simos/shard.h"
#include "src/system/system.h"

namespace ioldrv {

// One fleet member's machine + server, built by the caller's factory so
// benches control the server kind, cost model and file catalog. Factories
// run sequentially on the calling thread (construction order is part of
// the determinism contract); every member must materialize the same file
// catalog in the same order, since FileIds travel across lanes.
struct ShardMember {
  std::unique_ptr<iolsys::System> sys;
  std::unique_ptr<iolhttp::HttpServer> server;
};
using ShardMemberFactory = std::function<ShardMember(size_t member)>;

// The merged result plus the parallel-engine diagnostics.
struct ShardedResult {
  ExperimentResult result;            // Legacy-shaped: benches reuse JsonReporter.
  std::vector<uint64_t> lane_events;  // [0] = frontend, [1..] = members.
  iolsim::ShardRunner::Stats shard;   // Rounds, messages, spills, host time.
};

class ShardedExperiment {
 public:
  using RequestSource = Experiment::RequestSource;

  ShardedExperiment(size_t members, ShardMemberFactory factory,
                    ExperimentConfig config);
  ~ShardedExperiment();

  ShardedExperiment(const ShardedExperiment&) = delete;
  ShardedExperiment& operator=(const ShardedExperiment&) = delete;

  // Runs `workload` to completion across the lanes. One Run per instance,
  // like every Experiment.
  ShardedResult Run(Workload* workload, RequestSource next_file);

  const Telemetry& telemetry() const { return experiment_->telemetry(); }
  iolsys::System* member_system(size_t m) { return members_[m].sys.get(); }

 private:
  std::vector<ShardMember> members_;  // Outlive experiment_'s connections.
  std::unique_ptr<Experiment> experiment_;
};

}  // namespace ioldrv

#endif  // SRC_DRIVER_SHARDED_EXPERIMENT_H_
