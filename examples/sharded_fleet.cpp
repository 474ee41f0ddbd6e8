// The sharded parallel engine, end to end on one experiment.
//
// A 4-member Flash-Lite fleet — each member its own simulated machine
// (8-way CPU, cache, link) with its own event lane — serves a 32-client
// closed-loop population that lives on a frontend lane. The ShardRunner
// executes the 5 lanes under conservative-lookahead rounds (lookahead =
// the 1 ms client↔fleet one-way delay), with requests and responses
// crossing lanes through SPSC mailboxes.
//
// The demo runs the same experiment twice — shard_count=1 (every lane on
// the calling thread) and shard_count=4 — and prints per-lane event
// counts, the engine round/message counters, and the merged telemetry.
// The two runs must agree on every simulated quantity: shard_count only
// picks how many OS threads execute the lanes, never what they compute.
//
// Run:  ./build/example_sharded_fleet

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "bench/bench_util.h"
#include "src/driver/sharded_experiment.h"

namespace {

constexpr size_t kMembers = 4;
constexpr int kClients = 32;
constexpr uint64_t kRequests = 4000;
constexpr uint64_t kWarmup = 200;
constexpr size_t kDocBytes = 8 * 1024;
constexpr iolsim::SimTime kOneWayDelay = 1'000'000;  // 1 ms = the lookahead.

ioldrv::ShardMember MakeMember(size_t) {
  iolsys::SystemOptions options;
  options.cost.cpu_count = 8;
  iolbench::ApplyKindOptions(iolbench::ServerKind::kFlashLite, &options);
  ioldrv::ShardMember m;
  m.sys = std::make_unique<iolsys::System>(options);
  m.server = iolbench::MakeServer(iolbench::ServerKind::kFlashLite, m.sys.get());
  m.sys->fs().CreateFile("doc", kDocBytes);
  return m;
}

ioldrv::ShardedResult RunOnce(int shard_count) {
  ioldrv::ExperimentConfig config;
  config.max_requests = kRequests;
  config.warmup_requests = kWarmup;
  config.persistent_connections = true;
  config.delay.one_way_delay = kOneWayDelay;
  config.shard_count = shard_count;
  ioldrv::ShardedExperiment exp(kMembers, MakeMember, config);
  iolfs::FileId doc = exp.member_system(0)->fs().Lookup("doc");
  ioldrv::ClosedLoop workload(kClients);
  return exp.Run(&workload, [doc] { return doc; });
}

void PrintRun(const char* label, const ioldrv::ShardedResult& r) {
  std::printf("%s (threads=%d)\n", label, r.shard.threads);
  std::printf("  lane events:  frontend=%" PRIu64, r.lane_events[0]);
  for (size_t m = 1; m < r.lane_events.size(); ++m) {
    std::printf("  member%zu=%" PRIu64, m - 1, r.lane_events[m]);
  }
  std::printf("\n  engine:       rounds=%" PRIu64 " messages=%" PRIu64
              " spilled=%" PRIu64 "\n",
              r.shard.rounds, r.shard.messages, r.shard.spilled);
  // Host time summed over threads: lane work inside windows vs waiting at
  // the round barriers.
  std::printf("  host time:    window=%.1f ms barrier_wait=%.1f ms\n",
              r.shard.window_ns / 1e6, r.shard.barrier_wait_ns / 1e6);
  std::printf("  merged:       requests=%" PRIu64 " p50=%.3f ms p99=%.3f ms "
              "%.1f Mb/s events=%" PRIu64 "\n\n",
              r.result.requests, r.result.latency.p50_ms,
              r.result.latency.p99_ms, r.result.megabits_per_sec,
              r.result.events_dispatched);
}

}  // namespace

int main() {
  std::printf("Sharded fleet demo: %zu Flash-Lite members + 1 frontend lane, "
              "%d closed-loop clients\n",
              kMembers, kClients);
  std::printf("host cores: %u\n\n", std::thread::hardware_concurrency());

  ioldrv::ShardedResult serial = RunOnce(1);
  PrintRun("shard_count=1", serial);
  ioldrv::ShardedResult parallel = RunOnce(4);
  PrintRun("shard_count=4", parallel);

  // The determinism contract, demonstrated rather than asserted in a test:
  // every simulated quantity is identical across shard counts.
  bool same = serial.result.requests == parallel.result.requests &&
              serial.result.bytes == parallel.result.bytes &&
              serial.result.latency.p99_ms == parallel.result.latency.p99_ms &&
              serial.result.events_dispatched == parallel.result.events_dispatched &&
              serial.lane_events == parallel.lane_events;
  std::printf("shard-count invariance: %s\n", same ? "OK (byte-identical)" : "VIOLATED");
  return same ? 0 : 1;
}
