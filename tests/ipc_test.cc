// Tests for the shared-memory region under the multi-process data plane
// (src/ipc): offset addressing, extent carving and exhaustion, and POSIX shm
// attachment by name. The plane's queues, map and futures are covered by
// ipc_structures_test; its forked workers by ipc_plane_test.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <string>

#include "src/ipc/shm_region.h"

namespace {

using iolipc::ShmRegion;

// --- ShmRegion --------------------------------------------------------------

TEST(ShmRegionTest, AnonymousFallbackOffsetsRoundTrip) {
  auto region = ShmRegion::Create(1 << 20);
  ASSERT_NE(region, nullptr);
  EXPECT_EQ(region->size(), 1u << 20);

  char* a = region->AllocateExtent(1000);
  char* b = region->AllocateExtent(1000);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a, b);
  // Extents are 64-byte aligned and addressable by offset from any mapper.
  EXPECT_EQ(reinterpret_cast<uintptr_t>(a) % 64, 0u);
  EXPECT_EQ(region->At(region->OffsetOf(a)), a);
  EXPECT_EQ(region->At(region->OffsetOf(b)), b);
  EXPECT_GE(region->OffsetOf(b), region->OffsetOf(a) + 1000);
}

TEST(ShmRegionTest, ExhaustionReturnsNull) {
  auto region = ShmRegion::Create(64 * 1024);
  ASSERT_NE(region, nullptr);
  EXPECT_NE(region->AllocateExtent(60 * 1024), nullptr);
  EXPECT_EQ(region->AllocateExtent(60 * 1024), nullptr);
}

TEST(ShmRegionTest, PosixShmBackedWhenAvailable) {
  std::string name = "/iolite-test-" + std::to_string(getpid());
  auto region = ShmRegion::Create(1 << 20, name);
  ASSERT_NE(region, nullptr);
  if (!region->posix_shm_backed()) {
    GTEST_SKIP() << "no POSIX shm in this sandbox; anonymous fallback used";
  }
  char* p = region->AllocateExtent(128);
  std::memcpy(p, "hello-shm", 9);

  // A second, unrelated mapping of the same name sees the same bytes at the
  // same offset.
  auto other = ShmRegion::Attach(name);
  ASSERT_NE(other, nullptr);
  EXPECT_EQ(std::string(other->At(region->OffsetOf(p)), 9), "hello-shm");
}

}  // namespace
