// Shared helpers for the IO-Lite test suite.

#ifndef TESTS_TEST_UTIL_H_
#define TESTS_TEST_UTIL_H_

#include <string>

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

}  // namespace ioltest

#endif  // TESTS_TEST_UTIL_H_
