// Shared helpers for the IO-Lite test suite.

#ifndef TESTS_TEST_UTIL_H_
#define TESTS_TEST_UTIL_H_

#include <string>
#include <utility>

#include "src/fs/file_cache.h"
#include "src/iolite/aggregate.h"
#include "src/iolite/buffer_pool.h"
#include "src/system/system.h"

namespace ioltest {

// Allocates a sealed buffer holding `text` from `pool`.
inline iolite::BufferRef BufferFrom(iolite::BufferPool* pool, const std::string& text) {
  return pool->AllocateFrom(text.data(), text.size());
}

// An aggregate holding exactly `text`.
inline iolite::Aggregate AggFrom(iolite::BufferPool* pool, const std::string& text) {
  return iolite::Aggregate::FromBuffer(BufferFrom(pool, text));
}

// Reference string for the synthetic content of [offset, offset+len) of a
// simulated file.
inline std::string FileContent(iolfs::SimFileSystem& fs, iolfs::FileId file, uint64_t offset,
                               size_t len) {
  std::string out(len, '\0');
  fs.ReadContent(file, offset, out.data(), len);
  return out;
}

// The wrong bodies the delivery check must catch (src/httpd).
enum class Mutant {
  kWrongFile,             // Another file's bytes.
  kStaleLabelledCurrent,  // An older version's bytes under the current tag.
  kOffByOne,              // The file's bytes, one content offset late.
  kDroppedSlice,          // A middle slice missing; a re-read tail pads it.
};

// Plants cache entries tagged `version` so that a lookup of the whole of
// `file` returns a body mutated as `m`, in buffers from `pool` (heap-backed,
// so they stay descriptor-backed). `other` is another file of the same
// size; kStaleLabelledCurrent needs `version` >= 1.
inline void PoisonCache(iolfs::FileCache& cache, const iolfs::SimFileSystem& fs,
                        iolite::BufferPool* pool, iolfs::FileId file, uint64_t version,
                        iolfs::FileId other, Mutant m) {
  const uint64_t size = fs.SizeOf(file);
  switch (m) {
    case Mutant::kWrongFile:
      cache.Insert(file, 0, iolite::Aggregate::FromBuffer(fs.ReadSnapshot(other, pool, version)),
                   version);
      return;
    case Mutant::kStaleLabelledCurrent:
      cache.Insert(file, 0, iolite::Aggregate::FromBuffer(fs.ReadSnapshot(file, pool, version - 1)),
                   version);
      return;
    case Mutant::kOffByOne: {
      iolite::BufferRef late = pool->Allocate(size);
      late->SealDescribed(fs.ContentSeed(file, version), 1, size);
      cache.Insert(file, 0, iolite::Aggregate::FromBuffer(late), version);
      return;
    }
    case Mutant::kDroppedSlice: {
      const iolite::BufferRef whole = fs.ReadSnapshot(file, pool, version);
      const uint64_t third = size / 3;
      iolite::Aggregate gapped;
      gapped.Append(iolite::Slice(whole, 0, third));
      gapped.Append(iolite::Slice(whole, 2 * third, size - 2 * third));
      cache.Insert(file, 0, std::move(gapped), version);
      iolite::Aggregate tail;
      tail.Append(iolite::Slice(whole, size - third, third));
      cache.Insert(file, size - third, std::move(tail), version);
      return;
    }
  }
}

}  // namespace ioltest

#endif  // TESTS_TEST_UTIL_H_
