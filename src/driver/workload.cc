#include "src/driver/workload.h"

#include <cstdio>
#include <cstdlib>
#include <utility>

namespace ioldrv {

bool Workload::NextArrival(iolsim::SimTime /*now*/, iolsim::SimTime* /*at*/) {
  return false;
}

bool Workload::NextFile(iolfs::FileId* /*file*/) { return false; }

OpenLoopPoisson::OpenLoopPoisson(double arrivals_per_sec, uint64_t seed, int initial_pool)
    : rate_(arrivals_per_sec), seed_(seed), pool_(initial_pool), rng_(seed) {
  if (!(rate_ > 0)) {
    std::fprintf(stderr, "OpenLoopPoisson: arrivals_per_sec must be > 0 (got %g)\n", rate_);
    std::abort();
  }
}

bool OpenLoopPoisson::NextArrival(iolsim::SimTime now, iolsim::SimTime* at) {
  *at = now + iolsim::ExponentialInterarrival(&rng_, rate_);
  return true;
}

TraceReplay::TraceReplay(const iolwl::TimestampedLog* log, std::vector<iolfs::FileId> ids,
                         int initial_pool)
    : log_(log), ids_(std::move(ids)), pool_(initial_pool) {}

bool TraceReplay::NextArrival(iolsim::SimTime now, iolsim::SimTime* at) {
  if (cursor_ >= log_->entries.size()) {
    return false;
  }
  const iolwl::TimestampedLog::Entry& e = log_->entries[cursor_++];
  if (e.rank >= ids_.size()) {
    // A parsed foreign log can name ranks the materialized trace does not
    // have; die with a usable message instead of an uncaught exception.
    std::fprintf(stderr, "TraceReplay: log entry %zu names rank %u, but only %zu files\n",
                 cursor_ - 1, e.rank, ids_.size());
    std::abort();
  }
  // A log instant already in the past (e.g. service lagging the log under
  // overload) fires immediately — arrivals are never dropped or reordered.
  *at = e.at > now ? e.at : now;
  pending_.push_back(ids_[e.rank]);
  return true;
}

bool TraceReplay::NextFile(iolfs::FileId* file) {
  if (pending_.empty()) {
    return false;
  }
  *file = pending_.front();
  pending_.pop_front();
  return true;
}

}  // namespace ioldrv
