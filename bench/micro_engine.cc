// Wall-clock benchmark of the discrete-event engine itself.
//
// Unlike the figure benchmarks (which report *simulated* bandwidth), every
// number here is host-side: how fast the simulator executes. The rows:
//
//  * engine_ring       — raw EventQueue + Resource dispatch: one
//                        self-rescheduling event per step, no request logic.
//  * link_stream       — the hot-50k engine shape with no request logic:
//                        40 transmissions share one single-unit link, each
//                        re-acquiring it per segment, so every completion
//                        rides the link's sorted completion stream.
//  * link_train        — the link_stream flows re-armed through the
//                        train path (Resource::AcquireTrain): each
//                        completion is a train entry that RunOne steps in
//                        place, with no callback per segment.
//  * link_heap         — the same 40 flows on a 2-unit link: the same
//                        number of pending completions, but multi-unit
//                        grants, so every one waits in the event heap.
//  * macro_flash_tiny  — 1M requests through the full staged pipeline
//                        (Flash, 64 B document, persistent): engine-bound
//                        request turnover.
//  * macro_flash /     — the same pipeline with 1 KB documents on the copy
//    macro_flash_lite    and IO-Lite paths: real per-byte work mixed in,
//                        what fig-scale sweeps actually pay.
//  * macro_lite_50k    — the headline macro run: 1M fig03-shaped requests
//                        (Flash-Lite, 50 KB, nonpersistent, 40 clients).
//                        ~36 link-segment events per response and no
//                        payload touching — exactly the per-MSS-segment
//                        path whose per-event allocations motivated the
//                        engine rebuild.
//
// JSON rows use x = simulated requests (0 for the raw rows), value =
// events_per_sec, plus wall_ms/events_per_sec like every experiment row.
// Run with --smoke in CI (tiny counts: path rot check, not a measurement).

#include <chrono>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"

namespace {

using Clock = std::chrono::steady_clock;
using iolbench::ServerKind;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct PerfRow {
  uint64_t requests = 0;  // Simulated requests (0 for the raw rows).
  uint64_t events = 0;
  double wall_ms = 0;
  double events_per_sec = 0;
};

PerfRow MakeRow(uint64_t requests, uint64_t events, double wall_ms) {
  return PerfRow{requests, events, wall_ms, wall_ms > 0 ? events / (wall_ms / 1000.0) : 0};
}

void Report(iolbench::JsonReporter* json, const char* series, const PerfRow& row) {
  std::printf("%-18s requests=%-9llu events=%-9llu wall_ms=%9.2f events_per_sec=%.0f\n",
              series, static_cast<unsigned long long>(row.requests),
              static_cast<unsigned long long>(row.events), row.wall_ms,
              row.events_per_sec);
  json->AddPerf(series, static_cast<double>(row.requests), row.events_per_sec,
                row.wall_ms, row.events_per_sec);
}

// Raw engine throughput: one event per step, each step re-arming itself
// through a Resource acquisition — the skeleton of a pipeline stage with
// zero request logic attached.
PerfRow RunRing(uint64_t steps) {
  iolsim::SimContext ctx;
  struct RingState {
    iolsim::SimContext* ctx;
    uint64_t remaining;
    void Step() {
      if (--remaining == 0) {
        return;
      }
      ctx->cpu().AcquireAsync(&ctx->events(), 10, [this] { Step(); });
    }
  } ring{&ctx, steps};
  Clock::time_point t0 = Clock::now();
  ctx.cpu().AcquireAsync(&ctx.events(), 10, [&ring] { ring.Step(); });
  ctx.events().RunAll();
  return MakeRow(0, ctx.stats().events_dispatched, MsSince(t0));
}

constexpr int kFlows = 40;
constexpr iolsim::SimTime kSegmentNs = 116'800;

// 40 flows sharing one link, each re-acquiring it for one MSS segment
// (1460 B at 100 Mb/s) at every completion until `steps` segments are
// sent: the per-segment transmit loop of a 50 KB response, 40 clients wide.
PerfRow RunLink(int units, uint64_t steps) {
  iolsim::VirtualClock clock;
  uint64_t dispatched = 0;
  iolsim::EventQueue events(&clock, &dispatched);
  iolsim::Resource link(&clock, units);
  struct Flow {
    iolsim::EventQueue* events;
    iolsim::Resource* link;
    uint64_t* remaining;
    void Send() {
      if (*remaining == 0) {
        return;
      }
      --*remaining;
      link->AcquireAsync(events, kSegmentNs, [this] { Send(); });
    }
  };
  uint64_t remaining = steps;
  std::vector<Flow> flows(kFlows, Flow{&events, &link, &remaining});
  Clock::time_point t0 = Clock::now();
  for (Flow& f : flows) {
    f.Send();
  }
  events.RunAll();
  return MakeRow(0, dispatched, MsSince(t0));
}

// RunLink's flows on one unit as segment trains: the flow is the token,
// and each step re-arms it through the train path.
PerfRow RunLinkTrain(uint64_t steps) {
  iolsim::VirtualClock clock;
  uint64_t dispatched = 0;
  iolsim::EventQueue events(&clock, &dispatched);
  iolsim::Resource link(&clock, 1);
  struct Flows final : iolsim::TrainHost {
    iolsim::EventQueue* events;
    iolsim::Resource* link;
    uint64_t remaining;
    void TrainStep(uint32_t flow) override {
      if (remaining == 0) {
        return;
      }
      --remaining;
      link->AcquireTrain(events, kSegmentNs, this, flow);
    }
  } flows;
  flows.events = &events;
  flows.link = &link;
  flows.remaining = steps;
  Clock::time_point t0 = Clock::now();
  for (uint32_t f = 0; f < kFlows; ++f) {
    flows.TrainStep(f);
  }
  events.RunAll();
  return MakeRow(0, dispatched, MsSince(t0));
}

// The macro run: a closed-loop population hammering one cached document
// through the full staged pipeline (parse, cache lookup, header build,
// send, per-segment transmit) on persistent connections — steady-state
// request turnover, which is exactly the path the engine pools keep
// allocation-free.
PerfRow RunMacro(ServerKind kind, size_t doc_bytes, uint64_t requests,
                 bool persistent = true, int clients = 60) {
  iolbench::Cell cell = iolbench::SingleFileCell(kind, doc_bytes, persistent);
  cell.clients = clients;
  cell.config.max_requests = requests;
  cell.config.warmup_requests = 1000;
  ioldrv::ExperimentResult r = iolbench::RunCell(cell).result;
  return MakeRow(r.requests, r.events_dispatched, r.wall_ms);
}

}  // namespace

int main(int argc, char** argv) {
  iolbench::Figure fig("micro_engine", argc, argv);

  const uint64_t ring_steps = fig.smoke() ? 20'000 : 5'000'000;
  const uint64_t macro_requests = fig.smoke() ? 2'000 : 1'000'000;
  const uint64_t lite_requests = fig.smoke() ? 2'000 : 500'000;
  const uint64_t seg_requests = fig.smoke() ? 1'000 : 1'000'000;

  fig.Header("Engine wall-clock microbenchmark (host time, not simulated)",
                        "series\trequests\tevents\twall_ms\tevents_per_sec");
#ifndef NDEBUG
  std::printf("# NOTE: assert-enabled (Debug) build — compare like with like\n");
#endif
  Report(&fig.json(), "engine_ring", RunRing(ring_steps));
  Report(&fig.json(), "link_stream", RunLink(1, ring_steps));
  Report(&fig.json(), "link_train", RunLinkTrain(ring_steps));
  Report(&fig.json(), "link_heap", RunLink(2, ring_steps));
  Report(&fig.json(), "macro_flash_tiny", RunMacro(ServerKind::kFlash, 64, macro_requests));
  Report(&fig.json(), "macro_flash", RunMacro(ServerKind::kFlash, 1024, macro_requests));
  Report(&fig.json(), "macro_flash_lite",
         RunMacro(ServerKind::kFlashLite, 1024, lite_requests));
  Report(&fig.json(), "macro_lite_50k",
         RunMacro(ServerKind::kFlashLite, 50 * 1024, seg_requests,
                  /*persistent=*/false, /*clients=*/40));
  return fig.Finish("");
}
