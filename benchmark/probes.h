// Probes: host cost of one call into a layer, timed after the run.
//
// A probe calls a public function many times with the run's own inputs and
// reports the median of several batches. A layer's share of a run is then
// (count of that work in the run) x (probe cost) / (run wall time). Probes
// run only in traced passes; they never touch a run before it finishes.

#ifndef BENCHMARK_PROBES_H_
#define BENCHMARK_PROBES_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "benchmark/tap.h"
#include "src/fs/file_cache.h"
#include "src/fs/sim_file_system.h"
#include "src/iolite/buffer_pool.h"
#include "src/net/checksum.h"
#include "src/simos/event_queue.h"
#include "src/simos/rng.h"

namespace iolbench {

// Median over `batches` of the mean host ns per unit of `body(i)`, where
// one batch runs body(0..iters-1) and covers `units_per_batch` units.
template <typename Body>
double MedianNsPerUnit(int batches, int iters, double units_per_batch, Body&& body) {
  std::vector<double> per_unit;
  for (int b = 0; b < batches; ++b) {
    int64_t t0 = HostNs();
    for (int i = 0; i < iters; ++i) {
      body(i);
    }
    int64_t t1 = HostNs();
    per_unit.push_back(static_cast<double>(t1 - t0) / units_per_batch);
  }
  std::sort(per_unit.begin(), per_unit.end());
  return per_unit[per_unit.size() / 2];
}

// EventQueue::ScheduleAt + RunOne at a steady population of `depth`
// pending events (the tapped mean depth of the run).
inline double ProbeDispatchNs(size_t depth) {
  iolsim::VirtualClock clock;
  iolsim::EventQueue queue(&clock);
  iolsim::Rng rng(1);
  const uint64_t horizon = 2 * 1000 * (depth + 1);  // ~1 us mean gap.
  for (size_t i = 0; i < depth; ++i) {
    queue.ScheduleAt(static_cast<iolsim::SimTime>(rng.NextBelow(horizon)), [] {});
  }
  const int kIters = 200000;
  return MedianNsPerUnit(5, kIters, kIters, [&](int) {
    queue.ScheduleAt(clock.now() + 1 + static_cast<iolsim::SimTime>(rng.NextBelow(horizon)),
                     [] {});
    queue.RunOne();
  });
}

// FileCache::Lookup on the first candidate (file, length) that hits.
// Returns 0 when none of the candidates is cached.
inline double ProbeLookupNs(iolfs::FileCache* cache,
                            const std::vector<std::pair<iolfs::FileId, uint64_t>>& candidates) {
  for (const auto& [file, length] : candidates) {
    if (!cache->Lookup(file, 0, length).has_value()) {
      continue;
    }
    const int kIters = 20000;
    return MedianNsPerUnit(5, kIters, kIters, [&](int) { cache->Lookup(file, 0, length); });
  }
  return 0;
}

// SimFileSystem::ReadFromDisk per byte over `files` (whole-file reads).
inline double ProbeFillNsPerByte(iolfs::SimFileSystem* fs,
                                 const std::vector<std::pair<iolfs::FileId, uint64_t>>& files) {
  double bytes = 0;
  for (const auto& f : files) {
    bytes += static_cast<double>(f.second);
  }
  if (bytes == 0) {
    return 0;
  }
  int n = static_cast<int>(files.size());
  return MedianNsPerUnit(5, n, bytes, [&](int i) {
    iolite::BufferRef b = fs->ReadFromDisk(files[i].first, 0, files[i].second);
  });
}

// ChecksumAccumulate per byte over `bytes` of real file content.
inline double ProbeChecksumNsPerByte(iolfs::SimFileSystem* fs, iolfs::FileId file,
                                     uint64_t bytes) {
  if (bytes == 0) {
    return 0;
  }
  iolite::BufferRef content = fs->ReadFromDisk(file, 0, bytes);
  const int kIters = static_cast<int>(std::max<uint64_t>(1, (8u << 20) / bytes));
  volatile uint32_t sink = 0;
  return MedianNsPerUnit(5, kIters, static_cast<double>(kIters) * static_cast<double>(bytes),
                         [&](int) {
                           sink = sink + iolnet::ChecksumAccumulate(content->data(), bytes);
                         });
}

// ChecksumCache Lookup (miss) + Store of a fresh key with the cache at
// capacity, so every Store recycles the least-recently-used entry.
inline double ProbeChecksumCacheNs(size_t capacity) {
  iolnet::ChecksumCache cache(capacity);
  uint64_t next_id = 0;
  auto key = [](uint64_t id) { return iolnet::ChecksumCache::Key{id, 1, 0, 1460}; };
  for (size_t i = 0; i < capacity; ++i) {
    cache.Store(key(next_id++), 0);
  }
  const int kIters = 200000;
  return MedianNsPerUnit(5, kIters, kIters, [&](int) {
    uint32_t sum = 0;
    iolnet::ChecksumCache::Key k = key(next_id++);
    if (!cache.Lookup(k, &sum)) {
      cache.Store(k, sum);
    }
  });
}

// BufferPool::AllocateDma per byte for `bytes`-sized buffers.
inline double ProbeDmaNsPerByte(iolite::BufferPool* pool, uint64_t bytes) {
  if (bytes == 0) {
    return 0;
  }
  const int kIters = static_cast<int>(std::max<uint64_t>(1, (8u << 20) / bytes));
  return MedianNsPerUnit(5, kIters, static_cast<double>(kIters) * static_cast<double>(bytes),
                         [&](int i) { iolite::BufferRef b = pool->AllocateDma(i, bytes); });
}

}  // namespace iolbench

#endif  // BENCHMARK_PROBES_H_
