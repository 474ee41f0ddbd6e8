#include "src/driver/sharded_experiment.h"

#include <utility>

namespace ioldrv {

ShardedExperiment::ShardedExperiment(size_t members, ShardMemberFactory factory,
                                     ExperimentConfig config) {
  // Members are built sequentially here, on the calling thread: global
  // construction-order state (e.g. BufferPool's pool-seed counter) must not
  // depend on the thread schedule.
  members_.reserve(members);
  std::vector<iolsys::System*> machines;
  std::vector<iolhttp::HttpServer*> servers;
  for (size_t m = 0; m < members; ++m) {
    members_.push_back(factory(m));
    machines.push_back(members_.back().sys.get());
    servers.push_back(members_.back().server.get());
  }
  experiment_ = std::make_unique<Experiment>(std::move(machines), Fleet(std::move(servers)),
                                             config);
}

ShardedExperiment::~ShardedExperiment() = default;

ShardedResult ShardedExperiment::Run(Workload* workload, RequestSource next_file) {
  ShardedResult out;
  out.result = experiment_->Run(workload, std::move(next_file));
  out.lane_events = experiment_->lane_events();
  out.shard = experiment_->shard_stats();
  return out;
}

}  // namespace ioldrv
