// Microbenchmarks for the core IO-Lite mechanisms (host-time measurements
// of the library itself, via google-benchmark): aggregate algebra, buffer
// pool allocation/recycling and cold carving, checksum computation, cache hits, one
// response's checksum work, sums of generated content, the plane client's
// response fold, and the file cache's metadata (GDS rekeys and evictions,
// lookups).

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "src/driver/response_fold.h"
#include "src/fs/file_cache.h"
#include "src/fs/replacement_policy.h"
#include "src/httpd/response_header.h"
#include "src/iolite/aggregate.h"
#include "src/iolite/buffer_pool.h"
#include "src/net/checksum.h"
#include "src/simos/rng.h"
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

// Cold carving: a fresh pool per iteration carves 256 buffers of 64 KB and
// 64 of 256 KB, each a new extent and a new Buffer. Only the carves are
// timed; the items rate reads as carves per second, `carve` as time per
// carve.
void BM_PoolCarveCold(benchmark::State& state) {
  constexpr int kCarves = 256 + 64;
  std::vector<iolite::BufferRef> live;
  live.reserve(kCarves);
  for (auto _ : state) {
    state.PauseTiming();
    auto ctx = std::make_unique<iolsim::SimContext>();
    auto pool = std::make_unique<iolite::BufferPool>(ctx.get(), "bm", iolsim::kKernelDomain);
    state.ResumeTiming();
    for (int i = 0; i < 256; ++i) {
      live.push_back(pool->Allocate(64 * 1024));
    }
    for (int i = 0; i < 64; ++i) {
      live.push_back(pool->Allocate(256 * 1024));
    }
    benchmark::DoNotOptimize(live.data());
    state.PauseTiming();
    live.clear();
    pool.reset();
    ctx.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * kCarves);
  state.counters["carve"] = benchmark::Counter(
      kCarves, benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_PoolCarveCold);

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

// One IO-Lite response's checksum work: a fresh header (MakeIoLiteHeader:
// a recycled buffer's new generation) and a cached 50 KB body slice,
// charged together. The cache is held at capacity, so every header also
// evicts the oldest position.
void BM_ChargeHeaderAndCachedBody(benchmark::State& state) {
  iolsim::SimContext ctx;
  iolite::BufferPool pool(&ctx, "bm", iolsim::kKernelDomain);
  iolnet::ChecksumModule module(&ctx, /*cache_enabled=*/true);
  constexpr size_t kBodyBytes = 50 * 1024;
  const iolite::Aggregate body = iolite::Aggregate::FromBuffer(pool.AllocateDma(3, kBodyBytes));
  auto respond = [&] {
    iolite::Aggregate response =
        iolite::Aggregate::FromBuffer(iolhttp::MakeIoLiteHeader(&ctx, &pool, kBodyBytes));
    response.Append(body);
    module.Charge(response);
  };
  while (module.cache().size() < module.cache().capacity()) {
    respond();
  }
  for (auto _ : state) {
    respond();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ChargeHeaderAndCachedBody);

// The shared-memory plane client's checksum of one static response: a
// 250 B header plus a 1 KB body folded into the running FNV-1a state,
// byte by byte (arg 0) or through ResponseFoldCache (arg 1: both contents
// cached, so each fold is a key, a memcmp and a table step). Items are
// responses.
void BM_FoldResponse(benchmark::State& state) {
  const bool cached = state.range(0) != 0;
  iolsim::Rng rng(5);
  std::vector<char> header(iolhttp::kResponseHeaderBytes);
  iolhttp::BuildResponseHeader(header.data(), 1024);
  std::vector<char> body(1024);
  for (char& c : body) {
    c = static_cast<char>(rng.Next());
  }
  ioldrv::ResponseFoldCache cache;
  uint64_t h = ioldrv::kFnvOffset;
  for (auto _ : state) {
    if (cached) {
      h = cache.Fold(h, header.data(), header.size());
      h = cache.Fold(h, body.data(), body.size());
    } else {
      h = ioldrv::FnvFold(h, header.data(), header.size());
      h = ioldrv::FnvFold(h, body.data(), body.size());
    }
    benchmark::DoNotOptimize(h);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FoldResponse)->ArgName("cached")->Arg(0)->Arg(1);

// A fresh descriptor-backed buffer (generated disk content) each
// iteration, under a fresh content seed, so the checksum cache always
// misses: the send path's Charge, which stores a lazy entry and generates
// nothing, against a reader's Checksum, which generates and sums every
// byte.
void BM_ChecksumDescribed(benchmark::State& state) {
  iolsim::SimContext ctx;
  iolite::BufferPool pool(&ctx, "bm", iolsim::kKernelDomain);
  iolnet::ChecksumModule module(&ctx, /*cache_enabled=*/true);
  const size_t n = state.range(0);
  const bool forced = state.range(1) != 0;
  uint64_t seed = 1;
  for (auto _ : state) {
    iolite::BufferRef b = pool.Allocate(n);
    b->SealDescribed(seed++, 0, n);
    iolite::Aggregate agg = iolite::Aggregate::FromBuffer(b);
    if (forced) {
      benchmark::DoNotOptimize(module.Checksum(agg));
    } else {
      module.Charge(agg);
      benchmark::DoNotOptimize(module.cache().size());
    }
  }
  state.SetBytesProcessed(state.iterations() * n);
}
BENCHMARK(BM_ChecksumDescribed)
    ->ArgNames({"bytes", "forced"})
    ->Args({3072, 0})
    ->Args({3072, 1})
    ->Args({65536, 0})
    ->Args({65536, 1});

constexpr int kMetadataEntries = 10000;

// kMetadataEntries draws below `n`, made before timing starts.
std::vector<uint64_t> Draws(uint64_t n) {
  iolsim::Rng rng(42);
  std::vector<uint64_t> draws(kMetadataEntries);
  for (uint64_t& d : draws) {
    d = rng.NextBelow(n);
  }
  return draws;
}

class NoReferences : public iolfs::CacheView {
 public:
  bool IsReferenced(iolfs::EntryId) const override { return false; }
};

// GDS holding kMetadataEntries entries of mixed sizes. An access rekeys a
// random entry; an eviction takes the victim out and inserts a new entry in
// its id, the steady state of a full cache on a miss stream.
void BM_GdsAccess(benchmark::State& state) {
  iolfs::GreedyDualSizePolicy gds;
  const std::vector<uint64_t> draws = Draws(kMetadataEntries);
  for (int i = 0; i < kMetadataEntries; ++i) {
    gds.OnInsert(i + 1, 512 + draws[i] * 7);
  }
  size_t next = 0;
  for (auto _ : state) {
    gds.OnAccess(draws[next] + 1);
    next = next + 1 == draws.size() ? 0 : next + 1;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GdsAccess);

void BM_GdsEvictInsert(benchmark::State& state) {
  iolfs::GreedyDualSizePolicy gds;
  NoReferences view;
  const std::vector<uint64_t> draws = Draws(kMetadataEntries);
  for (int i = 0; i < kMetadataEntries; ++i) {
    gds.OnInsert(i + 1, 512 + draws[i] * 7);
  }
  size_t next = 0;
  for (auto _ : state) {
    iolfs::EntryId victim = gds.ChooseVictim(view);
    gds.OnErase(victim);
    gds.OnInsert(victim, 512 + draws[next] * 7);
    next = next + 1 == draws.size() ? 0 : next + 1;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GdsEvictInsert);

// FileCache::Lookup of random files among 2 x kMetadataEntries: the first
// half are cached (one 512-byte extent each, slices of one buffer), the
// second half were cached and invalidated. Arg 1 looks up a cached file
// (a hit), arg 0 an invalidated one (a miss).
void BM_FileCacheLookup(benchmark::State& state) {
  iolsim::SimContext ctx;
  iolite::BufferPool pool(&ctx, "bm", iolsim::kKernelDomain);
  iolfs::FileCache cache(&ctx, std::make_unique<iolfs::GreedyDualSizePolicy>());
  iolite::BufferRef buffer = pool.AllocateDma(1, 512);
  for (int f = 1; f <= 2 * kMetadataEntries; ++f) {
    cache.Insert(f, 0, iolite::Aggregate::FromBuffer(buffer));
  }
  for (int f = kMetadataEntries + 1; f <= 2 * kMetadataEntries; ++f) {
    cache.InvalidateFile(f);
  }
  const iolfs::FileId base = state.range(0) != 0 ? 1 : kMetadataEntries + 1;
  const std::vector<uint64_t> draws = Draws(kMetadataEntries);
  size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Lookup(base + draws[next], 0, 512));
    next = next + 1 == draws.size() ? 0 : next + 1;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FileCacheLookup)->ArgName("hit")->Arg(1)->Arg(0);

}  // namespace

BENCHMARK_MAIN();
