// Microbenchmarks for the core IO-Lite mechanisms (host-time measurements
// of the library itself, via google-benchmark): aggregate algebra, buffer
// pool allocation/recycling, checksum computation, cache hits and sums of
// generated content.

#include <benchmark/benchmark.h>

#include <string>

#include "src/iolite/aggregate.h"
#include "src/iolite/buffer_pool.h"
#include "src/net/checksum.h"
#include "src/simos/sim_context.h"

namespace {

void BM_AggregateAppend(benchmark::State& state) {
  iolsim::SimContext ctx;
  iolite::BufferPool pool(&ctx, "bm", iolsim::kKernelDomain);
  iolite::BufferRef buffer = pool.AllocateDma(1, 4096);
  for (auto _ : state) {
    iolite::Aggregate agg;
    for (int i = 0; i < state.range(0); ++i) {
      agg.Append(iolite::Slice(buffer, 0, 4096));
    }
    benchmark::DoNotOptimize(agg.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AggregateAppend)->Arg(4)->Arg(64)->Arg(1024);

void BM_AggregateSplitJoin(benchmark::State& state) {
  iolsim::SimContext ctx;
  iolite::BufferPool pool(&ctx, "bm", iolsim::kKernelDomain);
  iolite::BufferRef buffer = pool.AllocateDma(1, 65536);
  iolite::Aggregate base = iolite::Aggregate::FromBuffer(buffer);
  for (auto _ : state) {
    iolite::Aggregate agg = base;
    iolite::Aggregate tail = agg.SplitOff(32768);
    agg.Append(tail);
    benchmark::DoNotOptimize(agg.slice_count());
  }
}
BENCHMARK(BM_AggregateSplitJoin);

void BM_AggregateReaderScan(benchmark::State& state) {
  iolsim::SimContext ctx;
  iolite::BufferPool pool(&ctx, "bm", iolsim::kKernelDomain);
  iolite::Aggregate agg;
  for (int i = 0; i < 16; ++i) {
    agg.Append(iolite::Aggregate::FromBuffer(pool.AllocateDma(i, 4096)));
  }
  for (auto _ : state) {
    uint64_t sum = 0;
    for (iolite::Aggregate::Reader r = agg.NewReader(); !r.AtEnd();) {
      const char* p = r.data();
      size_t n = r.run_length();
      for (size_t i = 0; i < n; ++i) {
        sum += static_cast<uint8_t>(p[i]);
      }
      r.Skip(n);
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetBytesProcessed(state.iterations() * 16 * 4096);
}
BENCHMARK(BM_AggregateReaderScan);

void BM_PoolAllocateRecycle(benchmark::State& state) {
  iolsim::SimContext ctx;
  iolite::BufferPool pool(&ctx, "bm", iolsim::kKernelDomain);
  size_t n = state.range(0);
  for (auto _ : state) {
    iolite::BufferRef b = pool.Allocate(n);
    b->Seal(n);
    benchmark::DoNotOptimize(b.get());
    // Ref dropped: buffer recycles, next Allocate reuses it.
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PoolAllocateRecycle)->Arg(256)->Arg(4096)->Arg(65536);

void BM_ChecksumCold(benchmark::State& state) {
  iolsim::SimContext ctx;
  iolite::BufferPool pool(&ctx, "bm", iolsim::kKernelDomain);
  iolnet::ChecksumModule module(&ctx, /*cache_enabled=*/false);
  iolite::Aggregate agg = iolite::Aggregate::FromBuffer(pool.AllocateDma(3, state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(module.Checksum(agg));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ChecksumCold)->Arg(1460)->Arg(16384)->Arg(262144);

void BM_ChecksumCached(benchmark::State& state) {
  iolsim::SimContext ctx;
  iolite::BufferPool pool(&ctx, "bm", iolsim::kKernelDomain);
  iolnet::ChecksumModule module(&ctx, /*cache_enabled=*/true);
  iolite::Aggregate agg = iolite::Aggregate::FromBuffer(pool.AllocateDma(3, state.range(0)));
  module.Checksum(agg);  // Warm the cache.
  for (auto _ : state) {
    benchmark::DoNotOptimize(module.Checksum(agg));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ChecksumCached)->Arg(1460)->Arg(16384)->Arg(262144);

// Descriptor-backed buffers (generated disk content), a fresh one each
// iteration, so the checksum cache always misses. With a fresh content
// seed per iteration the block-sum table misses too and every byte is
// generated; with one seed throughout every whole 4 KB block's sum comes
// from the table.
void BM_ChecksumDescribed(benchmark::State& state) {
  iolsim::SimContext ctx;
  iolite::BufferPool pool(&ctx, "bm", iolsim::kKernelDomain);
  iolnet::ChecksumModule module(&ctx, /*cache_enabled=*/true);
  const size_t n = state.range(0);
  const bool repeat_seed = state.range(1) != 0;
  uint64_t seed = 1;
  for (auto _ : state) {
    iolite::BufferRef b = pool.Allocate(n);
    b->SealDescribed(repeat_seed ? 1 : seed++, 0, n);
    benchmark::DoNotOptimize(module.Checksum(iolite::Aggregate::FromBuffer(b)));
  }
  state.SetBytesProcessed(state.iterations() * n);
}
BENCHMARK(BM_ChecksumDescribed)
    ->ArgNames({"bytes", "repeat_seed"})
    ->Args({16384, 0})
    ->Args({16384, 1})
    ->Args({262144, 0})
    ->Args({262144, 1});

}  // namespace

BENCHMARK_MAIN();
