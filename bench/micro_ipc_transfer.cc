// Microbenchmark / ablation for the Section 3.2 IPC claims: a cold
// cross-domain transfer pays page remapping; a warm transfer (recycled
// buffers, persistent mappings) approaches shared-memory cost — two
// syscalls and the write-permission toggle.
//
// Reported via google-benchmark for the host-side mechanics, with the
// simulated per-transfer costs printed once at the end. The real
// cross-process transport is measured by bench_fig_ipc_plane.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "src/iolite/pipe.h"
#include "src/iolite/runtime.h"
#include "src/simos/sim_context.h"

namespace {

// Host-time of a warm by-reference pipe transfer (allocation + push + pop).
void BM_WarmPipeTransfer(benchmark::State& state) {
  iolsim::SimContext ctx;
  iolite::IoLiteRuntime runtime(&ctx);
  iolsim::DomainId producer = ctx.vm().CreateDomain();
  iolsim::DomainId consumer = ctx.vm().CreateDomain();
  iolite::BufferPool* pool = runtime.CreatePool("bm", producer);
  iolite::PipeEnds pipe = iolite::MakePipe(&runtime, consumer, producer);
  size_t n = state.range(0);

  for (auto _ : state) {
    iolite::BufferRef b = pool->Allocate(n);
    b->Seal(n);
    runtime.IolWrite(pipe.write_fd, iolite::Aggregate::FromBuffer(std::move(b)));
    iolite::Aggregate got = runtime.IolRead(pipe.read_fd, n);
    benchmark::DoNotOptimize(got.size());
  }
  state.SetBytesProcessed(state.iterations() * n);
}
BENCHMARK(BM_WarmPipeTransfer)->Arg(4096)->Arg(65536);

// Simulated-cost comparison printed as a one-shot report.
void ReportSimulatedTransferCosts() {
  iolsim::SimContext ctx;
  iolite::IoLiteRuntime runtime(&ctx);
  iolsim::DomainId producer = ctx.vm().CreateDomain();
  iolsim::DomainId consumer = ctx.vm().CreateDomain();
  iolite::BufferPool* pool = runtime.CreatePool("bm", producer);
  iolite::PipeEnds pipe = iolite::MakePipe(&runtime, consumer, producer);

  auto transfer = [&]() {
    iolite::BufferRef b = pool->Allocate(60000);
    b->Seal(60000);
    runtime.IolWrite(pipe.write_fd, iolite::Aggregate::FromBuffer(std::move(b)));
    runtime.IolRead(pipe.read_fd, 60000);
  };

  iolsim::SimTime t0 = ctx.clock().now();
  transfer();  // Cold: chunk allocation + consumer-side remapping.
  iolsim::SimTime cold = ctx.clock().now() - t0;
  t0 = ctx.clock().now();
  transfer();  // Warm: recycled buffer, persistent mappings.
  iolsim::SimTime warm = ctx.clock().now() - t0;

  std::printf("# simulated 60KB cross-domain transfer: cold=%.1fus warm=%.1fus (%.1fx)\n",
              cold / 1000.0, warm / 1000.0, static_cast<double>(cold) / warm);
  std::printf("# paper (Section 3.2): worst case = page remapping; warm case approaches "
              "shared memory\n");
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  ReportSimulatedTransferCosts();
  return 0;
}
