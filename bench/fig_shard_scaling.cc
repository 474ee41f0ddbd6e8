// Shard-scaling sweep: the parallel engine's wall-clock throughput as the
// simulated user population grows.
//
// A 4-member Flash-Lite fleet (each member its own machine: 8-way CPU,
// own cache and link) serves an open-loop Poisson population: N simulated
// users, each thinking kThinkSeconds between requests, so the offered rate
// is N / kThinkSeconds. The sweep crosses users × shard_count (OS threads
// executing the 5 lanes: frontend + 4 members). Each (users, shards) cell
// reports the *host-side* events/s alongside the simulated row; the
// shard-count invariance contract (telemetry byte-identical across shard
// counts) is asserted inline for every users point — a scaling number from
// a run that diverged would be meaningless.
//
// Wall-clock speedup is bounded by min(shards, hardware cores); the row
// prints std::thread::hardware_concurrency() so a 1-core container's flat
// curve reads as what it is. Simulated quantities are identical either way.
//
// JSON: series "shards-N", x = simulated users, one AddExperiment row per
// cell (events_per_sec rides on every row), written as
// BENCH_shard_scaling.json by bench/run_figs.sh.

#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/driver/sharded_experiment.h"

namespace {

using iolbench::ServerKind;

constexpr size_t kMembers = 4;
constexpr double kThinkSeconds = 100.0;  // Per-user think time.
constexpr iolsim::SimTime kOneWayDelay = 1'000'000;  // 1 ms lookahead.
constexpr size_t kDocBytes = 1024;

ioldrv::ShardMember MakeMember(size_t) {
  iolsys::SystemOptions options;
  options.cost.cpu_count = 8;  // One SMP machine per member.
  iolbench::Bench b = iolbench::MakeBench(ServerKind::kFlashLite, options);
  b.sys->fs().CreateFile("doc", kDocBytes);
  return ioldrv::ShardMember{std::move(b.sys), std::move(b.server)};
}

struct Cell {
  ioldrv::ShardedResult sharded;
  double events_per_sec = 0;
};

Cell RunCell(double users, int shards, uint64_t requests, uint64_t warmup) {
  ioldrv::ExperimentConfig config;
  config.max_requests = requests;
  config.warmup_requests = warmup;
  config.persistent_connections = true;
  config.delay.one_way_delay = kOneWayDelay;
  config.shard_count = shards;
  ioldrv::ShardedExperiment exp(kMembers, MakeMember, config);
  iolfs::FileId doc = exp.member_system(0)->fs().Lookup("doc");
  ioldrv::OpenLoopPoisson workload(users / kThinkSeconds, 0x10a111CE, 64);
  Cell cell;
  cell.sharded = exp.Run(&workload, [doc] { return doc; });
  const ioldrv::ExperimentResult& r = cell.sharded.result;
  cell.events_per_sec =
      r.wall_ms > 0 ? r.events_dispatched / (r.wall_ms / 1000.0) : 0;
  return cell;
}

// The invariance contract, enforced where the scaling numbers are made.
void CheckInvariant(const ioldrv::ExperimentResult& base,
                    const ioldrv::ExperimentResult& other, double users, int shards) {
  if (base.requests != other.requests || base.bytes != other.bytes ||
      base.seconds != other.seconds || base.latency.p99_ms != other.latency.p99_ms ||
      base.events_dispatched != other.events_dispatched) {
    std::fprintf(stderr,
                 "shard-count invariance violated at users=%.0f shards=%d "
                 "(requests %llu vs %llu, events %llu vs %llu)\n",
                 users, shards, static_cast<unsigned long long>(base.requests),
                 static_cast<unsigned long long>(other.requests),
                 static_cast<unsigned long long>(base.events_dispatched),
                 static_cast<unsigned long long>(other.events_dispatched));
    std::exit(1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  iolbench::Figure fig("fig_shard_scaling", argc, argv);

  const std::vector<double> user_points =
      fig.smoke() ? std::vector<double>{100'000, 1'000'000}
                  : std::vector<double>{100'000, 1'000'000, 10'000'000};
  const std::vector<int> shard_points{1, 2, 4};
  const uint64_t requests = fig.smoke() ? 400 : 60'000;
  const uint64_t warmup = fig.smoke() ? 40 : 2'000;
  const unsigned cores = std::thread::hardware_concurrency();

  fig.Header(
      "Shard scaling: 4-member Flash-Lite fleet, open-loop population "
      "(rate = users / 100 s think time)",
      "users\tshards\trequests\tMb/s\tp99_ms\tevents\tevents_per_sec\tspeedup\t"
      "window_ms\tbarrier_wait_ms");
  std::printf("# host cores: %u (wall-clock speedup is bounded by min(shards, cores))\n",
              cores);
#ifndef NDEBUG
  std::printf("# NOTE: assert-enabled (Debug) build — compare like with like\n");
#endif

  for (double users : user_points) {
    double base_eps = 0;
    ioldrv::ExperimentResult base;
    for (int shards : shard_points) {
      Cell cell = RunCell(users, shards, requests, warmup);
      const ioldrv::ExperimentResult& r = cell.sharded.result;
      if (shards == shard_points.front()) {
        base = r;
        base_eps = cell.events_per_sec;
      } else {
        CheckInvariant(base, r, users, shards);
      }
      double speedup = base_eps > 0 ? cell.events_per_sec / base_eps : 0;
      // Where the host time went, summed over threads: inside windows vs
      // waiting at the round barriers.
      const iolsim::ShardRunner::Stats& s = cell.sharded.shard;
      std::printf("%8.0f\t%d\t%llu\t%8.2f\t%7.3f\t%llu\t%.0f\t%.2fx\t%.1f\t%.1f\n", users,
                  shards, static_cast<unsigned long long>(r.requests), r.megabits_per_sec,
                  r.latency.p99_ms, static_cast<unsigned long long>(r.events_dispatched),
                  cell.events_per_sec, speedup, s.window_ns / 1e6, s.barrier_wait_ns / 1e6);
      char series[32];
      std::snprintf(series, sizeof(series), "shards-%d", shards);
      fig.json().AddExperiment(series, users, r);
    }
  }
  return fig.Finish("");
}
