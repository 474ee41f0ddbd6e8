// Unit tests for immutable buffers, reference counting, generation numbers
// and buffer pools (Sections 3.1-3.3, 4.5).

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/iolite/buffer_pool.h"
#include "src/iolite/runtime.h"
#include "src/simos/rng.h"
#include "src/simos/sim_context.h"
#include "tests/test_util.h"

namespace {

using iolite::Buffer;
using iolite::BufferPool;
using iolite::BufferRef;
using iolsim::SimContext;

class BufferTest : public ::testing::Test {
 protected:
  BufferTest() : pool_(&ctx_, "test", iolsim::kKernelDomain) {}
  SimContext ctx_;
  BufferPool pool_;
};

TEST_F(BufferTest, FillSealRead) {
  BufferRef b = pool_.Allocate(5);
  EXPECT_FALSE(b->sealed());
  std::memcpy(b->writable_data(), "hello", 5);
  b->Seal(5);
  EXPECT_TRUE(b->sealed());
  EXPECT_EQ(b->size(), 5u);
  EXPECT_EQ(std::string(b->data(), 5), "hello");
}

TEST_F(BufferTest, SealCanShorten) {
  BufferRef b = pool_.Allocate(100);
  std::memcpy(b->writable_data(), "abc", 3);
  b->Seal(3);
  EXPECT_EQ(b->size(), 3u);
  EXPECT_EQ(b->capacity(), 100u);
}

#ifndef NDEBUG
TEST_F(BufferTest, WriteAfterSealAsserts) {
  BufferRef b = pool_.Allocate(4);
  b->Seal(0);
  EXPECT_DEATH(b->writable_data(), "immutable");
}

TEST_F(BufferTest, ReadBeforeSealAsserts) {
  BufferRef b = pool_.Allocate(4);
  EXPECT_DEATH(b->data(), "unsealed");
}
#endif

TEST_F(BufferTest, RefcountLifecycle) {
  Buffer* raw = nullptr;
  {
    BufferRef b = ioltest::BufferFrom(&pool_, "data");
    raw = b.get();
    EXPECT_EQ(raw->refcount(), 1);
    {
      BufferRef copy = b;
      EXPECT_EQ(raw->refcount(), 2);
    }
    EXPECT_EQ(raw->refcount(), 1);
    EXPECT_EQ(pool_.free_list_size(), 0u);
  }
  // Last reference dropped: the buffer returned to the pool's free list.
  EXPECT_EQ(pool_.free_list_size(), 1u);
  EXPECT_EQ(ctx_.stats().buffers_freed, 1u);
}

TEST_F(BufferTest, MoveDoesNotChangeRefcount) {
  BufferRef b = ioltest::BufferFrom(&pool_, "data");
  Buffer* raw = b.get();
  BufferRef moved = std::move(b);
  EXPECT_EQ(raw->refcount(), 1);
  EXPECT_FALSE(b);  // NOLINT(bugprone-use-after-move): post-move state check.
  EXPECT_TRUE(moved);
}

TEST_F(BufferTest, RecycleBumpsGeneration) {
  uint64_t id;
  uint32_t gen;
  {
    BufferRef b = ioltest::BufferFrom(&pool_, "aaaa");
    id = b->id();
    gen = b->generation();
  }
  BufferRef again = pool_.Allocate(4);
  EXPECT_EQ(again->id(), id);  // Same storage reused...
  EXPECT_EQ(again->generation(), gen + 1);  // ...new contents identity.
  EXPECT_EQ(ctx_.stats().buffers_recycled, 1u);
}

TEST_F(BufferTest, FreeListFirstFitBySize) {
  {
    BufferRef small = pool_.Allocate(16);
    BufferRef large = pool_.Allocate(1024);
    small->Seal(0);
    large->Seal(0);
  }
  EXPECT_EQ(pool_.free_list_size(), 2u);
  BufferRef b = pool_.Allocate(100);  // Fits only the 1024 buffer.
  EXPECT_GE(b->capacity(), 100u);
  EXPECT_EQ(pool_.free_list_size(), 1u);
}

TEST_F(BufferTest, SmallBuffersShareAChunk) {
  BufferRef a = pool_.Allocate(100);
  BufferRef b = pool_.Allocate(100);
  ASSERT_EQ(a->chunks().size(), 1u);
  ASSERT_EQ(b->chunks().size(), 1u);
  EXPECT_EQ(a->chunks()[0], b->chunks()[0]);  // No memory wasted on pages.
}

TEST_F(BufferTest, LargeBufferSpansChunks) {
  size_t chunk = ctx_.cost().params().chunk_size;
  BufferRef big = pool_.Allocate(3 * chunk + 1);
  EXPECT_EQ(big->chunks().size(), 4u);
}

TEST_F(BufferTest, PoolMemoryIsAccounted) {
  EXPECT_EQ(ctx_.memory().reservation(iolsim::MemCategory::kIoliteWindow), 0u);
  BufferRef b = pool_.Allocate(100);
  EXPECT_EQ(ctx_.memory().reservation(iolsim::MemCategory::kIoliteWindow),
            static_cast<uint64_t>(ctx_.cost().params().chunk_size));
}

TEST_F(BufferTest, AllocateFromChargesCopy) {
  uint64_t copied = ctx_.stats().bytes_copied;
  ioltest::BufferFrom(&pool_, std::string(1000, 'x'));
  EXPECT_EQ(ctx_.stats().bytes_copied, copied + 1000);
}

TEST_F(BufferTest, AllocateDmaChargesNoCpu) {
  iolsim::SimTime before = ctx_.clock().now();
  BufferRef b = pool_.AllocateDma(1, 4096);
  EXPECT_EQ(ctx_.clock().now(), before);
  EXPECT_EQ(b->size(), 4096u);
}

TEST_F(BufferTest, DmaContentDeterministicPerSeed) {
  BufferRef a = pool_.AllocateDma(7, 256);
  BufferRef b = pool_.AllocateDma(7, 256);
  BufferRef c = pool_.AllocateDma(8, 256);
  EXPECT_EQ(std::memcmp(a->data(), b->data(), 256), 0);
  EXPECT_NE(std::memcmp(a->data(), c->data(), 256), 0);
}

// Untrusted producers pay write-permission toggling; the kernel does not.
TEST(BufferPoolDomainTest, UntrustedProducerTogglesWritePermission) {
  SimContext ctx;
  iolsim::DomainId app = ctx.vm().CreateDomain();
  BufferPool pool(&ctx, "app-pool", app);
  {
    BufferRef b = pool.Allocate(64);
    iolsim::ChunkId chunk = b->chunks()[0];
    EXPECT_TRUE(ctx.vm().CanWrite(chunk, app));
    b->Seal(0);
    EXPECT_FALSE(ctx.vm().CanWrite(chunk, app));  // Immutability enforced.
    EXPECT_TRUE(ctx.vm().CanRead(chunk, app));
  }
  // Recycling re-grants write permission for the fill phase.
  BufferRef again = pool.Allocate(64);
  EXPECT_TRUE(ctx.vm().CanWrite(again->chunks()[0], app));
  EXPECT_GE(ctx.stats().page_protect_ops, 2u);
}

TEST(BufferPoolDomainTest, PoolDestructorReleasesMemoryAndChunks) {
  SimContext ctx;
  iolsim::ChunkId chunk;
  {
    BufferPool pool(&ctx, "tmp", iolsim::kKernelDomain);
    BufferRef b = pool.Allocate(10);
    chunk = b->chunks()[0];
    b->Seal(0);
  }
  EXPECT_EQ(ctx.memory().reservation(iolsim::MemCategory::kIoliteWindow), 0u);
  EXPECT_FALSE(ctx.vm().ChunkExists(chunk));
}

// Pins the free list's recycling order: first fit by capacity, and equal
// capacities reused in release order. The stream draws from few sizes, so
// most releases join an equal range that already holds buffers.
TEST(BufferPoolGoldenTest, RecycleOrderOfMixedSizes) {
  SimContext ctx;
  BufferPool pool(&ctx, "golden", iolsim::kKernelDomain);
  constexpr size_t kSizes[] = {64, 64, 100, 128, 128, 1500, 1500, 4096, 70000};
  iolsim::Rng rng(34);
  std::vector<BufferRef> live;
  uint64_t fold = 14695981039346656037ull;  // FNV-1a over the pool-local ids.
  for (int op = 0; op < 20000; ++op) {
    if (live.empty() || rng.NextBelow(2) == 0) {
      BufferRef b = pool.Allocate(kSizes[rng.NextBelow(std::size(kSizes))]);
      b->Seal(0);
      uint32_t local = static_cast<uint32_t>(b->id());
      for (int i = 0; i < 4; ++i) {
        fold = (fold ^ ((local >> (8 * i)) & 0xff)) * 1099511628211ull;
      }
      live.push_back(std::move(b));
    } else {
      size_t k = rng.NextBelow(live.size());
      std::swap(live[k], live.back());
      live.pop_back();
    }
  }
  EXPECT_GT(ctx.stats().buffers_recycled, 5000u);
  EXPECT_EQ(fold, 4890206136198029196ull);
}

// Oracle for the arena-carved pool: seeded allocate/fill/seal/release steps
// on an untrusted producer's pool. After every step each live buffer still
// holds its own bytes, no two carved buffers' storage overlaps, and every
// buffer's chunks are live; destroying the pool frees all of them.
TEST(BufferPoolArenaTest, CarvedBuffersStayDisjointAndIntact) {
  SimContext ctx;
  const size_t chunks_before = ctx.vm().live_chunks();
  iolsim::DomainId app = ctx.vm().CreateDomain();
  {
    BufferPool pool(&ctx, "arena", app);
    iolsim::Rng rng(35);
    std::map<const Buffer*, std::string> live;  // Buffer -> its bytes.
    std::vector<BufferRef> refs;
    std::vector<const Buffer*> carved;  // Every buffer the pool handed out.
    for (int step = 0; step < 600; ++step) {
      if (refs.size() < 40 && (refs.empty() || rng.NextBelow(3) != 0)) {
        size_t n = rng.NextBelow(4) == 0 ? 64 * 1024 + rng.NextBelow(256 * 1024)
                                         : 1 + rng.NextBelow(8 * 1024);
        BufferRef b = pool.Allocate(n);
        std::string bytes(b->capacity(), '\0');
        for (char& c : bytes) {
          c = static_cast<char>(rng.Next());
        }
        std::memcpy(b->writable_data(), bytes.data(), bytes.size());
        b->Seal(bytes.size());
        if (std::find(carved.begin(), carved.end(), b.get()) == carved.end()) {
          carved.push_back(b.get());
        }
        live[b.get()] = std::move(bytes);
        refs.push_back(std::move(b));
      } else {
        size_t k = rng.NextBelow(refs.size());
        live.erase(refs[k].get());
        std::swap(refs[k], refs.back());
        refs.pop_back();
      }
      for (const auto& [buffer, bytes] : live) {
        ASSERT_EQ(std::memcmp(buffer->data(), bytes.data(), bytes.size()), 0)
            << "step " << step << ": buffer " << buffer->id() << " lost its bytes";
      }
      std::vector<const Buffer*> by_address = carved;
      std::sort(by_address.begin(), by_address.end(), [](const Buffer* a, const Buffer* b) {
        return std::less<const char*>()(a->data(), b->data());
      });
      for (size_t i = 1; i < by_address.size(); ++i) {
        const Buffer* prev = by_address[i - 1];
        ASSERT_LE(prev->data() + prev->capacity(), by_address[i]->data()) << "step " << step;
      }
      for (const Buffer* buffer : carved) {
        ASSERT_GE(buffer->chunks().size(), 1u);
        for (iolsim::ChunkId c : buffer->chunks()) {
          ASSERT_TRUE(ctx.vm().ChunkExists(c)) << "step " << step;
        }
      }
    }
    EXPECT_GT(ctx.stats().buffers_recycled, 50u);
    EXPECT_GT(ctx.vm().live_chunks(), chunks_before);
  }
  EXPECT_EQ(ctx.vm().live_chunks(), chunks_before);
  EXPECT_EQ(ctx.memory().reservation(iolsim::MemCategory::kIoliteWindow), 0u);
}

#if defined(__SANITIZE_ADDRESS__)
// Extents share heap blocks, so a write past an extent lands in the block's
// uncarved rest, which the arena keeps poisoned: AddressSanitizer still
// reports it, as it reported a separate allocation's redzone.
TEST(BufferPoolArenaDeathTest, WritePastACarvedExtentIsReported) {
  SimContext ctx;
  BufferPool pool(&ctx, "overrun", iolsim::kKernelDomain);
  BufferRef b = pool.Allocate(64 * 1024);  // Exactly one chunk: a whole extent.
  volatile char* end = b->writable_data() + b->capacity();
  EXPECT_DEATH(*end = 1, "AddressSanitizer");
}
#endif

}  // namespace
