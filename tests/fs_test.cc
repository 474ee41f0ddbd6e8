// Tests for the simulated file system, the unified file cache, replacement
// policies and the eviction trigger (Sections 3.5, 3.7, 4.2). The flat
// cache metadata (GDS's indexed heap, the sorted per-file extent vectors)
// is checked after every operation of random streams against the
// node-based structures it replaced, kept here as oracles.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/fs/file_cache.h"
#include "src/fs/file_io.h"
#include "src/fs/replacement_policy.h"
#include "src/fs/sim_file_system.h"
#include "src/simos/rng.h"
#include "src/system/system.h"
#include "tests/test_util.h"

namespace {

using iolfs::EvictionTrigger;
using iolfs::FileCache;
using iolfs::FileId;
using iolfs::GreedyDualSizePolicy;
using iolfs::PaperLruPolicy;
using iolfs::PlainLruPolicy;
using iolsys::System;

class FsTest : public ::testing::Test {
 protected:
  System sys_;
};

TEST_F(FsTest, CreateAndLookup) {
  FileId f = sys_.fs().CreateFile("a.html", 1000);
  EXPECT_EQ(sys_.fs().Lookup("a.html"), f);
  EXPECT_EQ(sys_.fs().Lookup("missing"), iolfs::kInvalidFile);
  EXPECT_EQ(sys_.fs().SizeOf(f), 1000u);
  EXPECT_EQ(sys_.fs().file_count(), 1u);
}

TEST_F(FsTest, FileStreamReadsAndWritesAtItsCursor) {
  FileId f = sys_.fs().CreateFile("s", 100);
  iolfs::FileStream stream(&sys_.io(), f);
  iolite::Aggregate head = stream.Read(iolsim::kKernelDomain, 60);
  EXPECT_EQ(head.size(), 60u);
  EXPECT_EQ(stream.Read(iolsim::kKernelDomain, 60).size(), 40u) << "short read at end of file";
  EXPECT_EQ(stream.Read(iolsim::kKernelDomain, 60).size(), 0u) << "end of stream";
  stream.Seek(10);
  EXPECT_EQ(stream.Write(iolsim::kKernelDomain, head), 60u);
  EXPECT_EQ(stream.position(), 70u);
  stream.Seek(10);
  EXPECT_EQ(stream.Read(iolsim::kKernelDomain, 60).ToString(), head.ToString());
}

TEST_F(FsTest, DiskReadReturnsDeterministicContent) {
  FileId f = sys_.fs().CreateFile("a", 4096);
  iolite::BufferRef b1 = sys_.fs().ReadFromDisk(f, 100, 200);
  std::string expected = ioltest::FileContent(sys_.fs(), f, 100, 200);
  EXPECT_EQ(std::string(b1->data(), 200), expected);
  // Reading again regenerates identical bytes.
  iolite::BufferRef b2 = sys_.fs().ReadFromDisk(f, 100, 200);
  EXPECT_EQ(std::memcmp(b1->data(), b2->data(), 200), 0);
}

TEST_F(FsTest, DifferentFilesDifferentContent) {
  FileId a = sys_.fs().CreateFile("a", 256);
  FileId b = sys_.fs().CreateFile("b", 256);
  EXPECT_NE(ioltest::FileContent(sys_.fs(), a, 0, 256),
            ioltest::FileContent(sys_.fs(), b, 0, 256));
}

TEST_F(FsTest, DiskReadChargesDiskTime) {
  FileId f = sys_.fs().CreateFile("a", 64 * 1024);
  iolsim::SimTime before = sys_.ctx().clock().now();
  sys_.fs().ReadFromDisk(f, 0, 64 * 1024);
  EXPECT_GT(sys_.ctx().clock().now() - before, 8 * iolsim::kMillisecond);
  EXPECT_EQ(sys_.ctx().stats().disk_reads, 1u);
  EXPECT_EQ(sys_.ctx().stats().disk_bytes_read, 64u * 1024);
}

TEST_F(FsTest, WriteOverlayWinsOnLaterReads) {
  FileId f = sys_.fs().CreateFile("a", 1000);
  std::string payload = "WRITTEN-DATA";
  iolite::Aggregate data = ioltest::AggFrom(sys_.runtime().kernel_pool(), payload);
  sys_.fs().WriteToDisk(f, 100, data);
  iolite::BufferRef b = sys_.fs().ReadFromDisk(f, 90, 40);
  EXPECT_EQ(std::string(b->data() + 10, payload.size()), payload);
  // Bytes before and after the write are untouched synthetic content.
  EXPECT_EQ(std::string(b->data(), 10), ioltest::FileContent(sys_.fs(), f, 90, 10));
}

TEST_F(FsTest, OverlappingWritesLastWins) {
  FileId f = sys_.fs().CreateFile("a", 100);
  auto* pool = sys_.runtime().kernel_pool();
  sys_.fs().WriteToDisk(f, 10, ioltest::AggFrom(pool, "aaaaaaaaaa"));  // [10,20)
  sys_.fs().WriteToDisk(f, 15, ioltest::AggFrom(pool, "bbbbbbbbbb"));  // [15,25)
  iolite::BufferRef b = sys_.fs().ReadFromDisk(f, 10, 15);
  EXPECT_EQ(std::string(b->data(), 15), "aaaaabbbbbbbbbb");
}

// The bulk read path (generated fill + overlay copies) agrees byte for byte
// with the per-byte reference across overlapping, adjacent, splitting and
// past-EOF writes, at aligned and unaligned windows.
TEST_F(FsTest, BulkReadsMatchPerByteContentUnderWrites) {
  FileId f = sys_.fs().CreateFile("a", 10000);
  auto* pool = sys_.runtime().kernel_pool();
  auto write = [&](uint64_t offset, size_t len, char c) {
    sys_.fs().WriteToDisk(f, offset, ioltest::AggFrom(pool, std::string(len, c)));
  };
  write(100, 100, 'a');    // [100, 200)
  write(150, 150, 'b');    // Overlaps the tail of 'a': [150, 300).
  write(300, 100, 'c');    // Adjacent to 'b': [300, 400).
  write(160, 10, 'd');     // Lands strictly inside 'b', splitting it.
  write(50, 60, 'e');      // Overlaps the head of 'a': [50, 110).
  write(4090, 20, 'f');    // Straddles a 4 KB boundary.
  write(9990, 30, 'g');    // Extends the file past its end: size 10020.
  write(10100, 10, 'h');   // Past EOF with a hole [10020, 10100).
  const uint64_t size = sys_.fs().SizeOf(f);
  ASSERT_EQ(size, 10110u);

  struct Window {
    uint64_t offset;
    size_t len;
  };
  for (Window w : {Window{0, size}, Window{1, 400}, Window{155, 10}, Window{165, 200},
                   Window{299, 2}, Window{4000, 200}, Window{9980, 130}, Window{10050, 55}}) {
    iolite::BufferRef b = sys_.fs().ReadFromDisk(f, w.offset, w.len);
    std::string bulk = ioltest::FileContent(sys_.fs(), f, w.offset, w.len);
    for (size_t i = 0; i < w.len; ++i) {
      uint8_t want = sys_.fs().ContentByteAt(f, w.offset + i);
      ASSERT_EQ(static_cast<uint8_t>(b->data()[i]), want) << "disk read at " << w.offset + i;
      ASSERT_EQ(static_cast<uint8_t>(bulk[i]), want) << "ReadContent at " << w.offset + i;
    }
  }
  EXPECT_EQ(sys_.fs().ContentByteAt(f, 165), 'd');
  EXPECT_EQ(sys_.fs().ContentByteAt(f, 170), 'b');
  EXPECT_EQ(sys_.fs().ContentByteAt(f, 105), 'e');
}

TEST_F(FsTest, WriteExtendsFile) {
  FileId f = sys_.fs().CreateFile("a", 10);
  auto* pool = sys_.runtime().kernel_pool();
  sys_.fs().WriteToDisk(f, 8, ioltest::AggFrom(pool, "0123456789"));
  EXPECT_EQ(sys_.fs().SizeOf(f), 18u);
}

// An empty write folds nothing into the overlay: an empty run at the start
// of a written run, or at its split-off tail, would hide the written bytes.
TEST_F(FsTest, EmptyWriteKeepsOverlayBytes) {
  auto* pool = sys_.runtime().kernel_pool();
  for (uint64_t at : {10u, 15u}) {
    FileId f = sys_.fs().CreateFile("a" + std::to_string(at), 100);
    sys_.fs().WriteToDisk(f, 10, ioltest::AggFrom(pool, "aaaaaaaaaa"));  // [10,20)
    uint64_t writes = sys_.ctx().stats().disk_writes;
    iolsim::SimTime before = sys_.ctx().clock().now();
    sys_.fs().WriteToDisk(f, at, iolite::Aggregate());
    EXPECT_EQ(sys_.ctx().stats().disk_writes, writes + 1);
    EXPECT_GT(sys_.ctx().clock().now(), before);
    EXPECT_EQ(sys_.fs().ContentByteAt(f, 12), 'a') << "empty write at " << at;
    EXPECT_EQ(sys_.fs().ContentByteAt(f, 17), 'a') << "empty write at " << at;
    EXPECT_EQ(ioltest::FileContent(sys_.fs(), f, 10, 10), "aaaaaaaaaa");
    EXPECT_EQ(std::string(sys_.fs().ReadFromDisk(f, 10, 10)->data(), 10), "aaaaaaaaaa");
  }
}

// A disk read into the heap-backed kernel pool writes no bytes: the buffer
// is sealed over a content descriptor, and its first data() call writes
// exactly what ReadContent returns, at every alignment and length.
TEST_F(FsTest, DescribedReadsMaterializeTheFileContent) {
  constexpr size_t kMaxLen = 3 * 4096 + 1;
  iolsim::Rng rng(17);
  struct Read {
    uint64_t offset;
    size_t len;
  };
  std::vector<Read> reads;
  for (uint64_t offset : {0u, 1u, 2u, 7u, 4095u, 4096u}) {
    for (size_t len : {size_t{1}, size_t{2}, size_t{63}, size_t{64}, size_t{65}, size_t{4095},
                       size_t{4096}, size_t{4097}, size_t{8192}, kMaxLen}) {
      reads.push_back({offset, len});
    }
  }
  for (int i = 0; i < 60; ++i) {
    reads.push_back({rng.NextBelow(20000), 1 + rng.NextBelow(kMaxLen)});
  }
  for (size_t i = 0; i < reads.size(); ++i) {
    const Read& r = reads[i];
    FileId f = sys_.fs().CreateFile("r" + std::to_string(i), r.offset + r.len + rng.NextBelow(9));
    iolite::BufferRef b = sys_.fs().ReadFromDisk(f, r.offset, r.len);
    ASSERT_TRUE(b->described());
    EXPECT_EQ(b->size(), r.len);
    std::string want = ioltest::FileContent(sys_.fs(), f, r.offset, r.len);
    ASSERT_EQ(std::string(b->data(), r.len), want) << "offset " << r.offset << " len " << r.len;
    EXPECT_FALSE(b->described());
    EXPECT_EQ(std::string(b->data(), r.len), want);
  }
}

// Written bytes are copied in at read time: a range any written run
// touches is filled eagerly; a range clear of every run stays a descriptor.
TEST_F(FsTest, OverlaidRangeFillsEagerly) {
  FileId f = sys_.fs().CreateFile("a", 1000);
  sys_.fs().WriteToDisk(f, 100, ioltest::AggFrom(sys_.runtime().kernel_pool(), "WRITTEN"));
  iolite::BufferRef touching = sys_.fs().ReadFromDisk(f, 50, 51);  // Ends on byte 100.
  EXPECT_FALSE(touching->described());
  EXPECT_EQ(std::string(touching->data(), 51), ioltest::FileContent(sys_.fs(), f, 50, 51));
  iolite::BufferRef inside = sys_.fs().ReadFromDisk(f, 102, 3);
  EXPECT_FALSE(inside->described());
  EXPECT_EQ(std::string(inside->data(), 3), "ITT");
  iolite::BufferRef before = sys_.fs().ReadFromDisk(f, 0, 100);
  iolite::BufferRef after = sys_.fs().ReadFromDisk(f, 107, 893);
  EXPECT_TRUE(before->described());
  EXPECT_TRUE(after->described());
  EXPECT_EQ(std::string(after->data(), 893), ioltest::FileContent(sys_.fs(), f, 107, 893));
}

// Reuse starts a new generation with new contents: the recycled buffer
// holds what its new producer wrote, not the old descriptor's bytes.
TEST_F(FsTest, RecycledBufferDropsItsDescriptor) {
  FileId f = sys_.fs().CreateFile("a", 8192);
  const iolite::Buffer* first;
  {
    iolite::BufferRef b = sys_.fs().ReadFromDisk(f, 0, 5000);
    ASSERT_TRUE(b->described());
    first = b.get();
  }
  const std::string text(5000, 'z');
  iolite::BufferRef again = ioltest::BufferFrom(sys_.runtime().kernel_pool(), text);
  ASSERT_EQ(again.get(), first) << "the freed buffer is recycled first";
  EXPECT_FALSE(again->described());
  EXPECT_EQ(std::string(again->data(), text.size()), text);
}

// Buffers of a pool with an ExtentAllocator live in memory other processes
// read directly, so a disk read writes their bytes at once.
TEST_F(FsTest, ExtentAllocatorPoolStaysEager) {
  std::vector<std::unique_ptr<char[]>> extents;
  iolite::BufferPool region(&sys_.ctx(), "region", iolsim::kKernelDomain, [&](size_t n) {
    extents.push_back(std::make_unique<char[]>(n));
    return extents.back().get();
  });
  iolfs::SimFileSystem fs(&sys_.ctx(), &region);
  FileId f = fs.CreateFile("a", 10000);
  iolite::BufferRef b = fs.ReadFromDisk(f, 3, 9000);
  EXPECT_FALSE(b->described());
  EXPECT_EQ(std::string(b->data(), 9000), ioltest::FileContent(fs, f, 3, 9000));
  iolite::BufferRef snap = fs.ReadSnapshot(f, &region);
  EXPECT_FALSE(snap->described());
}

// ReadSnapshot hands out the file's current content from any pool, at no
// disk or CPU cost: described while no write touches it, eager after.
TEST_F(FsTest, ReadSnapshotHoldsCurrentContentUncharged) {
  FileId f = sys_.fs().CreateFile("a", 10000);
  iolite::BufferPool* pool = sys_.runtime().CreatePool("other", iolsim::kKernelDomain);
  iolsim::SimTime now = sys_.ctx().clock().now();
  uint64_t reads = sys_.ctx().stats().disk_reads;
  iolite::BufferRef clean = sys_.fs().ReadSnapshot(f, pool);
  EXPECT_EQ(sys_.ctx().clock().now(), now);
  EXPECT_EQ(clean->pool(), pool);
  EXPECT_TRUE(clean->described());
  EXPECT_EQ(std::string(clean->data(), 10000), ioltest::FileContent(sys_.fs(), f, 0, 10000));
  sys_.fs().WriteToDisk(f, 9998, ioltest::AggFrom(pool, "tail"));
  now = sys_.ctx().clock().now();
  iolite::BufferRef written = sys_.fs().ReadSnapshot(f, pool);
  EXPECT_EQ(sys_.ctx().clock().now(), now);
  EXPECT_EQ(sys_.ctx().stats().disk_reads, reads);
  EXPECT_FALSE(written->described());
  EXPECT_EQ(written->size(), 10002u);
  EXPECT_EQ(std::string(written->data(), 10002), ioltest::FileContent(sys_.fs(), f, 0, 10002));
}

TEST_F(FsTest, MetadataCacheAvoidsRepeatInodeReads) {
  FileId f = sys_.fs().CreateFile("a", 10);
  uint64_t reads_before = sys_.ctx().stats().disk_reads;
  sys_.fs().TouchMetadata(f);
  EXPECT_EQ(sys_.ctx().stats().disk_reads, reads_before + 1);
  sys_.fs().TouchMetadata(f);
  EXPECT_EQ(sys_.ctx().stats().disk_reads, reads_before + 1);  // Hit.
}

// The metadata cache holds 512 inodes. Random touches over more files than
// that miss exactly when a std::list LRU of 512 ids misses.
TEST_F(FsTest, MetadataCacheMatchesAListLruOracle) {
  constexpr size_t kSlots = 512;
  std::vector<FileId> files;
  for (int i = 0; i < 700; ++i) {
    files.push_back(sys_.fs().CreateFile("m" + std::to_string(i), 10));
  }
  std::list<FileId> lru;  // Front = most recently used.
  std::unordered_map<FileId, std::list<FileId>::iterator> pos;
  iolsim::Rng rng(3);
  for (int op = 0; op < 20000; ++op) {
    // Mostly a hot set that fits, sometimes a cold file that evicts.
    const FileId f = files[rng.NextBelow(4) == 0 ? rng.NextBelow(files.size()) : rng.NextBelow(400)];
    bool want_hit = pos.count(f) > 0;
    if (want_hit) {
      lru.splice(lru.begin(), lru, pos[f]);
    } else {
      if (lru.size() >= kSlots) {
        pos.erase(lru.back());
        lru.pop_back();
      }
      lru.push_front(f);
      pos[f] = lru.begin();
    }
    const uint64_t reads = sys_.ctx().stats().disk_reads;
    sys_.fs().TouchMetadata(f);
    ASSERT_EQ(sys_.ctx().stats().disk_reads, reads + (want_hit ? 0 : 1)) << "op " << op;
  }
}

// File ids are 1..n: nothing else exists.
TEST_F(FsTest, ExistsOnlyForHandedOutIds) {
  EXPECT_FALSE(sys_.fs().Exists(iolfs::kInvalidFile));
  EXPECT_FALSE(sys_.fs().Exists(0));
  EXPECT_FALSE(sys_.fs().Exists(1));
  FileId a = sys_.fs().CreateFile("a", 10);
  FileId b = sys_.fs().CreateFile("b", 20);
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 2);
  EXPECT_TRUE(sys_.fs().Exists(a));
  EXPECT_TRUE(sys_.fs().Exists(b));
  EXPECT_FALSE(sys_.fs().Exists(0));
  EXPECT_FALSE(sys_.fs().Exists(3));
  EXPECT_FALSE(sys_.fs().Exists(iolfs::kInvalidFile));
  EXPECT_EQ(sys_.fs().SizeOf(b), 20u);
  EXPECT_EQ(sys_.fs().file_count(), 2u);
}

// --- FileIoService / cache behaviour ----------------------------------------

TEST_F(FsTest, ReadExtentCachesAndHits) {
  FileId f = sys_.fs().CreateFile("a", 8192);
  bool miss = false;
  iolite::Aggregate first = sys_.io().ReadExtent(f, 0, 8192, &miss);
  EXPECT_TRUE(miss);
  iolite::Aggregate second = sys_.io().ReadExtent(f, 0, 8192, &miss);
  EXPECT_FALSE(miss);
  EXPECT_TRUE(first.ContentEquals(second));
  // The hit shares the same physical buffer: single copy in memory.
  EXPECT_EQ(first.slices()[0].buffer().get(), second.slices()[0].buffer().get());
  EXPECT_EQ(sys_.ctx().stats().disk_reads, 1u);
}

TEST_F(FsTest, SubrangeOfCachedExtentIsAHit) {
  FileId f = sys_.fs().CreateFile("a", 8192);
  sys_.io().ReadExtent(f, 0, 8192);
  bool miss = true;
  iolite::Aggregate mid = sys_.io().ReadExtent(f, 1000, 500, &miss);
  EXPECT_FALSE(miss);
  EXPECT_EQ(mid.ToString(), ioltest::FileContent(sys_.fs(), f, 1000, 500));
}

TEST_F(FsTest, AdjacentEntriesAssembleACoveringRead) {
  FileId f = sys_.fs().CreateFile("a", 8192);
  sys_.io().ReadExtent(f, 0, 4096);
  sys_.io().ReadExtent(f, 4096, 4096);
  bool miss = true;
  iolite::Aggregate spanning = sys_.io().ReadExtent(f, 4000, 200, &miss);
  EXPECT_FALSE(miss);
  EXPECT_EQ(spanning.slice_count(), 2u);
  EXPECT_EQ(spanning.ToString(), ioltest::FileContent(sys_.fs(), f, 4000, 200));
}

TEST_F(FsTest, SnapshotSemanticsAcrossWrite) {
  // Section 3.5: an IOL_read followed by an IOL_write to the same range —
  // the reader's aggregate must keep showing the old data.
  FileId f = sys_.fs().CreateFile("a", 1024);
  iolite::Aggregate snapshot = sys_.io().ReadExtent(f, 0, 1024);
  std::string old_content = snapshot.ToString();

  std::string new_content(1024, 'N');
  sys_.io().WriteExtent(f, 0, ioltest::AggFrom(sys_.runtime().kernel_pool(), new_content));

  // New readers see the write...
  EXPECT_EQ(sys_.io().ReadExtent(f, 0, 1024).ToString(), new_content);
  // ...the old snapshot is untouched (buffers persist while referenced).
  EXPECT_EQ(snapshot.ToString(), old_content);
}

TEST_F(FsTest, WriteReplacesOverlappedPortionOnly) {
  FileId f = sys_.fs().CreateFile("a", 3000);
  sys_.io().ReadExtent(f, 0, 3000);
  std::string mid(1000, 'M');
  sys_.io().WriteExtent(f, 1000, ioltest::AggFrom(sys_.runtime().kernel_pool(), mid));
  bool miss = true;
  iolite::Aggregate all = sys_.io().ReadExtent(f, 0, 3000, &miss);
  EXPECT_FALSE(miss);  // Remainders were re-inserted, still fully cached.
  EXPECT_EQ(all.ToString().substr(1000, 1000), mid);
  EXPECT_EQ(all.ToString().substr(0, 1000),
            ioltest::FileContent(sys_.fs(), f, 0, 1000));
}

TEST_F(FsTest, CacheBytesTrackEntries) {
  FileId f = sys_.fs().CreateFile("a", 4096);
  EXPECT_EQ(sys_.cache().bytes(), 0u);
  sys_.io().ReadExtent(f, 0, 4096);
  EXPECT_EQ(sys_.cache().bytes(), 4096u);
  sys_.cache().InvalidateFile(f);
  EXPECT_EQ(sys_.cache().bytes(), 0u);
  EXPECT_EQ(sys_.cache().entry_count(), 0u);
}

TEST_F(FsTest, EnforceBudgetEvictsDownToBudget) {
  for (int i = 0; i < 10; ++i) {
    FileId f = sys_.fs().CreateFile("f" + std::to_string(i), 10000);
    sys_.io().ReadExtent(f, 0, 10000);
  }
  EXPECT_EQ(sys_.cache().bytes(), 100000u);
  int evicted = sys_.cache().EnforceBudget(35000);
  EXPECT_EQ(evicted, 7);
  EXPECT_LE(sys_.cache().bytes(), 35000u);
}

TEST_F(FsTest, EvictedDataPersistsWhileReferenced) {
  FileId f = sys_.fs().CreateFile("a", 2048);
  iolite::Aggregate held = sys_.io().ReadExtent(f, 0, 2048);
  std::string content = held.ToString();
  sys_.cache().EnforceBudget(0);  // Evict everything.
  EXPECT_EQ(sys_.cache().entry_count(), 0u);
  EXPECT_EQ(held.ToString(), content);  // Reference keeps the buffer alive.
}

TEST_F(FsTest, IsReferencedSeesOutsideHolders) {
  FileId f = sys_.fs().CreateFile("a", 512);
  {
    iolite::Aggregate held = sys_.io().ReadExtent(f, 0, 512);
    // One entry; the server still holds the aggregate.
    EXPECT_TRUE(sys_.cache().IsReferenced(1));
  }
  // Dropped: only the cache holds it now.
  EXPECT_FALSE(sys_.cache().IsReferenced(1));
}

// --- Replacement policies ----------------------------------------------------

TEST(PolicyTest, PlainLruEvictsLeastRecentlyUsed) {
  PlainLruPolicy p;
  EXPECT_STREQ(p.name(), "lru");
  p.OnInsert(1, 100);
  p.OnInsert(2, 100);
  p.OnInsert(3, 100);
  p.OnAccess(1);  // 1 is now most recent.

  // CacheView is unused by PlainLru; a trivial stub suffices.
  class NullView : public iolfs::CacheView {
   public:
    bool IsReferenced(iolfs::EntryId) const override { return false; }
  } view;

  EXPECT_EQ(p.ChooseVictim(view), 2u);
  p.OnErase(2);
  EXPECT_EQ(p.ChooseVictim(view), 3u);
}

TEST(PolicyTest, PaperLruPrefersUnreferencedEntries) {
  PaperLruPolicy p;
  EXPECT_STREQ(p.name(), "paper-lru");
  p.OnInsert(1, 100);
  p.OnInsert(2, 100);
  p.OnInsert(3, 100);

  // Entry 1 is the LRU but is currently referenced outside the cache.
  class View : public iolfs::CacheView {
   public:
    bool IsReferenced(iolfs::EntryId id) const override { return id == 1; }
  } view;

  // LRU among unreferenced: 2.
  EXPECT_EQ(p.ChooseVictim(view), 2u);
  p.OnErase(2);
  p.OnErase(3);
  // Only the referenced entry remains: fall back to LRU among referenced.
  EXPECT_EQ(p.ChooseVictim(view), 1u);
}

TEST(PolicyTest, GdsFavorsSmallObjects) {
  GreedyDualSizePolicy p;
  p.OnInsert(1, 1000000);  // Large: low priority.
  p.OnInsert(2, 100);      // Small: high priority.

  class NullView : public iolfs::CacheView {
   public:
    bool IsReferenced(iolfs::EntryId) const override { return false; }
  } view;

  EXPECT_EQ(p.ChooseVictim(view), 1u);
}

TEST(PolicyTest, GdsAgingLetsIdleSmallObjectsGo) {
  GreedyDualSizePolicy p;
  class NullView : public iolfs::CacheView {
   public:
    bool IsReferenced(iolfs::EntryId) const override { return false; }
  } view;

  p.OnInsert(1, 100);  // Small but never touched again.
  // A churn of slightly larger entries: each eviction raises the inflation
  // value L, so the idle entry's stale priority eventually loses even
  // though it is the smallest object in the cache.
  for (int i = 0; i < 50; ++i) {
    iolfs::EntryId id = 100 + i;
    p.OnInsert(id, 150);
    p.OnAccess(id);
    iolfs::EntryId victim = p.ChooseVictim(view);
    p.OnErase(victim);
    if (victim == 1) {
      SUCCEED();  // Aged out despite being small.
      return;
    }
  }
  FAIL() << "small idle entry never aged out";
}

TEST(PolicyTest, GdsRecencyBeatsSizeAfterAging) {
  GreedyDualSizePolicy p;
  class NullView : public iolfs::CacheView {
   public:
    bool IsReferenced(iolfs::EntryId) const override { return false; }
  } view;
  p.OnInsert(1, 500);
  p.OnInsert(2, 500);
  p.OnErase(p.ChooseVictim(view));  // Raises L.
  p.OnInsert(3, 500);               // Inserted at L + 1/500.
  // Whichever of {1,2} survived was inserted at the old L: lower priority.
  iolfs::EntryId victim = p.ChooseVictim(view);
  EXPECT_NE(victim, 3u);
}

// --- Eviction trigger (Section 3.7) ------------------------------------------

TEST_F(FsTest, EvictionTriggerFiresOnIoPageMajority) {
  for (int i = 0; i < 4; ++i) {
    FileId f = sys_.fs().CreateFile("t" + std::to_string(i), 4096);
    sys_.io().ReadExtent(f, 0, 4096);
  }
  EvictionTrigger trigger(&sys_.cache());
  size_t entries_before = sys_.cache().entry_count();

  // A single I/O page is already a majority of one: the rule fires.
  EXPECT_TRUE(trigger.OnPageSelected(true));
  EXPECT_EQ(sys_.cache().entry_count(), entries_before - 1);

  // After the window reset, non-I/O pages keep it quiet.
  EXPECT_FALSE(trigger.OnPageSelected(false));
  EXPECT_FALSE(trigger.OnPageSelected(false));
  EXPECT_FALSE(trigger.OnPageSelected(true));  // 1/3: not a majority.
  EXPECT_EQ(sys_.cache().entry_count(), entries_before - 1);

  // Two more I/O pages: 3/5 is a majority -> evict one entry.
  EXPECT_FALSE(trigger.OnPageSelected(true));  // 2/4: not > half.
  EXPECT_TRUE(trigger.OnPageSelected(true));   // 3/5: fires.
  EXPECT_EQ(sys_.cache().entry_count(), entries_before - 2);
  EXPECT_EQ(trigger.evictions(), 2u);
}

TEST_F(FsTest, CustomPolicyHookSwapsPolicies) {
  // Flash-Lite's customization: replace the default policy with GDS while
  // entries exist; the cache re-registers them.
  for (int i = 0; i < 3; ++i) {
    FileId f = sys_.fs().CreateFile("c" + std::to_string(i), 1000 * (i + 1));
    sys_.io().ReadExtent(f, 0, 1000 * (i + 1));
  }
  sys_.cache().SetPolicy(std::make_unique<GreedyDualSizePolicy>());
  EXPECT_STREQ(sys_.cache().policy().name(), "gds");
  // GDS evicts the largest (lowest 1/size priority) first.
  uint64_t before = sys_.cache().bytes();
  sys_.cache().EvictOne();
  EXPECT_EQ(sys_.cache().bytes(), before - 3000);
}

// A swapped-in policy sees the existing entries in the order they were
// inserted, so plain LRU then evicts them oldest first.
TEST_F(FsTest, SetPolicyReRegistersInInsertionOrder) {
  std::vector<FileId> files;
  for (int i = 0; i < 5; ++i) {
    files.push_back(sys_.fs().CreateFile("o" + std::to_string(i), 100 * (i + 1)));
    sys_.io().ReadExtent(files.back(), 0, 100 * (i + 1));
  }
  sys_.cache().SetPolicy(std::make_unique<PlainLruPolicy>());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(sys_.cache().EvictOne());
    for (int j = 0; j < 5; ++j) {
      EXPECT_EQ(sys_.cache().Contains(files[j]), j > i) << "after eviction " << i;
    }
  }
}

// Remainders of a trimmed entry share its buffer. The cache counts both
// slices as its own, so neither entry is referenced until something
// outside holds the buffer.
TEST_F(FsTest, RemaindersSharingABufferAreNotReferenced) {
  iolite::BufferPool& pool = *sys_.runtime().kernel_pool();
  iolite::BufferRef shared = pool.AllocateFrom(std::string(300, 'a').data(), 300);
  iolite::Buffer* raw = shared.get();
  sys_.cache().Insert(5, 0, iolite::Aggregate::FromBuffer(std::move(shared)));
  sys_.cache().Insert(5, 100, ioltest::AggFrom(&pool, std::string(100, 'b')));
  ASSERT_EQ(sys_.cache().entry_count(), 3u);
  ASSERT_EQ(raw->refcount(), 2);
  // Ids are slots: the trimmed entry's slot 1 went to the left remainder,
  // slot 2 to the right one, slot 3 to the written run.
  EXPECT_FALSE(sys_.cache().IsReferenced(1));
  EXPECT_FALSE(sys_.cache().IsReferenced(2));
  std::optional<iolite::Aggregate> held = sys_.cache().Lookup(5, 250, 10);
  ASSERT_TRUE(held.has_value());
  EXPECT_TRUE(sys_.cache().IsReferenced(1));
  EXPECT_TRUE(sys_.cache().IsReferenced(2));
  EXPECT_FALSE(sys_.cache().IsReferenced(3));
}

// --- Flat metadata against the node-based oracles ------------------------------

class NullView : public iolfs::CacheView {
 public:
  bool IsReferenced(iolfs::EntryId) const override { return false; }
};

// GDS as it was: a std::set on (H, id) beside a hash map of each entry's H
// and size. Its ids rise with every insert, as the cache's once did.
class SetGdsOracle {
 public:
  void OnInsert(uint64_t id, size_t bytes) {
    double h = PriorityFor(bytes);
    meta_[id] = {h, bytes};
    queue_.emplace(h, id);
  }
  void OnAccess(uint64_t id) {
    std::pair<double, size_t>& m = meta_.at(id);
    queue_.erase({m.first, id});
    m.first = PriorityFor(m.second);
    queue_.emplace(m.first, id);
  }
  void OnErase(uint64_t id) {
    auto it = meta_.find(id);
    if (it != meta_.end()) {
      queue_.erase({it->second.first, id});
      meta_.erase(it);
    }
  }
  uint64_t ChooseVictim() {
    if (queue_.empty()) {
      return 0;
    }
    inflation_ = queue_.begin()->first;
    return queue_.begin()->second;
  }
  double inflation() const { return inflation_; }

 private:
  double PriorityFor(size_t bytes) const {
    return inflation_ + 1.0 / static_cast<double>(bytes == 0 ? 1 : bytes);
  }
  double inflation_ = 0.0;
  std::set<std::pair<double, uint64_t>> queue_;
  std::unordered_map<uint64_t, std::pair<double, size_t>> meta_;
};

// Sizes come from a set of three, so between two evictions every insert of
// one size ties on H with the others. The heap sees the cache's recycled
// slot ids, last freed first; the oracle sees ids that rise with every
// insert. After every operation both are copied and drained, and the whole
// victim sequences must match.
TEST(GdsHeapOracleTest, RandomStreamsMatchTheSetOracle) {
  NullView view;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    iolsim::Rng rng(seed);
    GreedyDualSizePolicy heap;
    SetGdsOracle oracle;
    std::vector<uint64_t> free_slots;
    uint64_t slot_count = 0;
    uint64_t next_oracle_id = 1;
    std::map<uint64_t, uint64_t> to_oracle;  // Live slot -> oracle id.
    std::map<uint64_t, uint64_t> to_slot;    // Oracle id -> slot.
    auto random_live = [&] {
      auto it = to_oracle.begin();
      std::advance(it, rng.NextBelow(to_oracle.size()));
      return it->first;
    };
    auto erase = [&](uint64_t slot) {
      heap.OnErase(slot);
      oracle.OnErase(to_oracle.at(slot));
      to_slot.erase(to_oracle.at(slot));
      to_oracle.erase(slot);
      free_slots.push_back(slot);
    };
    for (int op = 0; op < 2000; ++op) {
      const uint64_t kind = rng.NextBelow(20);
      if (kind < 8 || to_oracle.empty()) {
        uint64_t slot;
        if (free_slots.empty()) {
          slot = ++slot_count;
        } else {
          slot = free_slots.back();
          free_slots.pop_back();
        }
        constexpr size_t kSizes[] = {100, 250, 4096};
        const size_t bytes = kSizes[rng.NextBelow(3)];
        heap.OnInsert(slot, bytes);
        oracle.OnInsert(next_oracle_id, bytes);
        to_oracle[slot] = next_oracle_id;
        to_slot[next_oracle_id++] = slot;
      } else if (kind < 13) {
        const uint64_t slot = random_live();
        heap.OnAccess(slot);
        oracle.OnAccess(to_oracle.at(slot));
      } else if (kind < 15) {
        erase(random_live());
      } else {
        const uint64_t victim = heap.ChooseVictim(view);
        ASSERT_EQ(victim, to_slot.at(oracle.ChooseVictim())) << "seed " << seed << " op " << op;
        erase(victim);
      }
      ASSERT_EQ(heap.inflation(), oracle.inflation());
      GreedyDualSizePolicy heap_copy = heap;
      SetGdsOracle oracle_copy = oracle;
      for (size_t left = to_oracle.size(); left > 0; --left) {
        const uint64_t victim = heap_copy.ChooseVictim(view);
        const uint64_t want = oracle_copy.ChooseVictim();
        ASSERT_EQ(victim, to_slot.at(want))
            << "seed " << seed << " op " << op << " with " << left << " left";
        heap_copy.OnErase(victim);
        oracle_copy.OnErase(want);
      }
      ASSERT_EQ(heap_copy.ChooseVictim(view), iolfs::kNoEntry);
    }
  }
}

// The cache's extent bookkeeping as it was: per file a std::map from offset
// to entry id, entries in a hash map under ids that rise with every insert,
// and a std::list recency order for the policy under test (plain LRU, or
// the Section 3.7 policy's oldest-unreferenced scan). Each entry keeps its
// bytes and, per byte, the test buffer holding it: an entry is referenced
// when any of its buffers is pinned by the test.
class MapCacheOracle {
 public:
  explicit MapCacheOracle(bool paper_lru) : paper_lru_(paper_lru) {}

  void Insert(FileId file, uint64_t offset, const std::string& bytes,
              const std::vector<int>& buffers, uint64_t version) {
    std::map<uint64_t, uint64_t>& runs = by_file_[file];
    const uint64_t end = offset + bytes.size();
    std::vector<uint64_t> overlapping;
    auto it = runs.upper_bound(offset);
    if (it != runs.begin()) {
      const Entry& e = entries_.at(std::prev(it)->second);
      if (e.offset + e.bytes.size() > offset) {
        overlapping.push_back(std::prev(it)->second);
      }
    }
    for (; it != runs.end() && it->first < end; ++it) {
      overlapping.push_back(it->second);
    }
    std::vector<Entry> remainders;
    for (uint64_t id : overlapping) {
      const Entry e = entries_.at(id);
      const uint64_t e_end = e.offset + e.bytes.size();
      if (e.offset < offset) {
        remainders.push_back(Slice(e, e.offset, offset));
      }
      if (e_end > end) {
        remainders.push_back(Slice(e, end, e_end));
      }
      Erase(id);
    }
    for (const Entry& r : remainders) {
      Add(r);
    }
    Add(Entry{file, offset, bytes, buffers, version});
  }

  std::optional<std::string> Lookup(FileId file, uint64_t offset, size_t length) {
    auto fit = by_file_.find(file);
    if (fit == by_file_.end()) {
      return std::nullopt;
    }
    auto it = fit->second.upper_bound(offset);
    if (it == fit->second.begin()) {
      return std::nullopt;
    }
    --it;
    std::string out;
    std::vector<uint64_t> touched;
    uint64_t pos = offset;
    const uint64_t want_end = offset + length;
    for (; pos < want_end; ++it) {
      if (it == fit->second.end() || it->first > pos) {
        return std::nullopt;
      }
      const Entry& e = entries_.at(it->second);
      const uint64_t e_end = e.offset + e.bytes.size();
      if (e_end <= pos) {
        return std::nullopt;
      }
      const uint64_t to = std::min(e_end, want_end);
      out += e.bytes.substr(pos - e.offset, to - pos);
      touched.push_back(it->second);
      pos = to;
    }
    for (uint64_t id : touched) {
      lru_.splice(lru_.end(), lru_, lru_pos_.at(id));
    }
    return out;
  }

  void InvalidateFile(FileId file) {
    for (uint64_t id : IdsOf(file)) {
      Erase(id);
    }
  }

  int InvalidateOlderThan(FileId file, uint64_t min_version) {
    int dropped = 0;
    for (uint64_t id : IdsOf(file)) {
      if (entries_.at(id).version < min_version) {
        Erase(id);
        ++dropped;
      }
    }
    return dropped;
  }

  int EnforceBudget(uint64_t budget, const std::set<int>& pinned) {
    int evicted = 0;
    while (bytes_ > budget && !lru_.empty()) {
      uint64_t victim = lru_.front();
      if (paper_lru_) {
        for (uint64_t id : lru_) {
          const std::vector<int>& bufs = entries_.at(id).buffers;
          if (std::none_of(bufs.begin(), bufs.end(), [&](int b) { return pinned.count(b) > 0; })) {
            victim = id;
            break;
          }
        }
      }
      Erase(victim);
      ++evicted;
    }
    return evicted;
  }

  uint64_t VersionOf(FileId file) const {
    uint64_t version = 0;
    auto fit = by_file_.find(file);
    if (fit != by_file_.end()) {
      for (const auto& [off, id] : fit->second) {
        version = std::max(version, entries_.at(id).version);
      }
    }
    return version;
  }

  bool Contains(FileId file) const {
    auto fit = by_file_.find(file);
    return fit != by_file_.end() && !fit->second.empty();
  }

  std::set<std::tuple<FileId, uint64_t, size_t>> Extents() const {
    std::set<std::tuple<FileId, uint64_t, size_t>> out;
    for (const auto& [id, e] : entries_) {
      out.emplace(e.file, e.offset, e.bytes.size());
    }
    return out;
  }

  uint64_t bytes() const { return bytes_; }
  size_t entry_count() const { return entries_.size(); }

 private:
  struct Entry {
    FileId file;
    uint64_t offset;
    std::string bytes;
    std::vector<int> buffers;  // Per byte.
    uint64_t version;
  };

  // The part of `e` covering file range [from, to).
  static Entry Slice(const Entry& e, uint64_t from, uint64_t to) {
    const size_t at = from - e.offset;
    const size_t n = to - from;
    return Entry{e.file, from, e.bytes.substr(at, n),
                 std::vector<int>(e.buffers.begin() + at, e.buffers.begin() + at + n), e.version};
  }

  std::vector<uint64_t> IdsOf(FileId file) const {
    std::vector<uint64_t> ids;
    auto fit = by_file_.find(file);
    if (fit != by_file_.end()) {
      for (const auto& [off, id] : fit->second) {
        ids.push_back(id);
      }
    }
    return ids;
  }

  void Add(Entry e) {
    const uint64_t id = next_id_++;
    bytes_ += e.bytes.size();
    by_file_[e.file][e.offset] = id;
    lru_pos_[id] = lru_.insert(lru_.end(), id);
    entries_.emplace(id, std::move(e));
  }

  void Erase(uint64_t id) {
    const Entry& e = entries_.at(id);
    bytes_ -= e.bytes.size();
    by_file_[e.file].erase(e.offset);
    lru_.erase(lru_pos_.at(id));
    lru_pos_.erase(id);
    entries_.erase(id);
  }

  bool paper_lru_;
  std::unordered_map<uint64_t, Entry> entries_;
  std::map<FileId, std::map<uint64_t, uint64_t>> by_file_;
  std::list<uint64_t> lru_;  // Front = least recently used.
  std::unordered_map<uint64_t, std::list<uint64_t>::iterator> lru_pos_;
  uint64_t next_id_ = 1;
  uint64_t bytes_ = 0;
};

// Sees every extent the cache creates and drops.
class ExtentMirror : public iolfs::CacheMirror {
 public:
  void OnInsert(FileId file, uint64_t offset, const iolite::Aggregate& data) override {
    EXPECT_TRUE(live.emplace(file, offset, data.size()).second);
  }
  void OnErase(FileId file, uint64_t offset, size_t length) override {
    EXPECT_EQ(live.erase({file, offset, length}), 1u);
  }
  std::set<std::tuple<FileId, uint64_t, size_t>> live;
};

class FileCacheOracleTest : public ::testing::TestWithParam<bool> {};

// Random overlapping inserts of one- and two-buffer aggregates over four
// small files, lookups, invalidations and budget evictions, with buffers
// pinned and unpinned by the test. After every operation the cache's
// extents (seen through a mirror), bytes, entry count and per-file
// version and membership equal the oracle's; every lookup returns the
// same bytes, and every budget pass evicts as many entries.
TEST_P(FileCacheOracleTest, RandomStreamsMatchTheMapOracle) {
  const bool paper_lru = GetParam();
  constexpr FileId kFiles = 4;
  constexpr uint64_t kFileBytes = 256;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    iolsim::SimContext ctx;
    iolite::BufferPool pool(&ctx, "cache", iolsim::kKernelDomain);
    std::unique_ptr<iolfs::ReplacementPolicy> policy;
    if (paper_lru) {
      policy = std::make_unique<PaperLruPolicy>();
    } else {
      policy = std::make_unique<PlainLruPolicy>();
    }
    FileCache cache(&ctx, std::move(policy));
    ExtentMirror mirror;
    cache.set_mirror(&mirror);
    MapCacheOracle oracle(paper_lru);
    std::map<int, iolite::BufferRef> pinned;
    std::set<int> pinned_ids;
    int next_buffer = 0;
    iolsim::Rng rng(seed);
    for (int op = 0; op < 3000; ++op) {
      const FileId file = static_cast<FileId>(rng.NextBelow(kFiles));
      const uint64_t kind = rng.NextBelow(20);
      if (kind < 8) {
        const uint64_t offset = rng.NextBelow(kFileBytes - 64);
        iolite::Aggregate data;
        std::string bytes;
        std::vector<int> buffers;
        for (uint64_t part = 0, parts = 1 + rng.NextBelow(2); part < parts; ++part) {
          const size_t n = 1 + rng.NextBelow(32);
          std::string chunk(n, '\0');
          for (char& c : chunk) {
            c = static_cast<char>('a' + rng.NextBelow(26));
          }
          iolite::BufferRef b = pool.AllocateFrom(chunk.data(), n);
          if (rng.NextBelow(4) == 0) {
            pinned[next_buffer] = b;
            pinned_ids.insert(next_buffer);
          }
          data.Append(iolite::Aggregate::FromBuffer(std::move(b)));
          bytes += chunk;
          buffers.insert(buffers.end(), n, next_buffer++);
        }
        const uint64_t version = rng.NextBelow(4);
        cache.Insert(file, offset, std::move(data), version);
        oracle.Insert(file, offset, bytes, buffers, version);
      } else if (kind < 13) {
        const uint64_t offset = rng.NextBelow(kFileBytes);
        const size_t length = 1 + rng.NextBelow(64);
        std::optional<iolite::Aggregate> got = cache.Lookup(file, offset, length);
        std::optional<std::string> want = oracle.Lookup(file, offset, length);
        ASSERT_EQ(got.has_value(), want.has_value()) << "seed " << seed << " op " << op;
        if (got.has_value()) {
          ASSERT_EQ(got->ToString(), *want) << "seed " << seed << " op " << op;
        }
      } else if (kind < 14) {
        cache.InvalidateFile(file);
        oracle.InvalidateFile(file);
      } else if (kind < 16) {
        const uint64_t min_version = rng.NextBelow(5);
        ASSERT_EQ(cache.InvalidateOlderThan(file, min_version),
                  oracle.InvalidateOlderThan(file, min_version));
      } else if (kind < 18) {
        const uint64_t budget = oracle.bytes() * rng.NextBelow(101) / 100;
        ASSERT_EQ(cache.EnforceBudget(budget), oracle.EnforceBudget(budget, pinned_ids))
            << "seed " << seed << " op " << op;
      } else if (!pinned.empty()) {
        auto it = pinned.begin();
        std::advance(it, rng.NextBelow(pinned.size()));
        pinned_ids.erase(it->first);
        pinned.erase(it);
      }
      ASSERT_EQ(mirror.live, oracle.Extents()) << "seed " << seed << " op " << op;
      ASSERT_EQ(cache.bytes(), oracle.bytes());
      ASSERT_EQ(cache.entry_count(), oracle.entry_count());
      for (FileId f = 0; f <= kFiles; ++f) {
        ASSERT_EQ(cache.Contains(f), oracle.Contains(f)) << "file " << f;
        ASSERT_EQ(cache.VersionOf(f), oracle.VersionOf(f)) << "file " << f;
      }
    }
    cache.set_mirror(nullptr);
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, FileCacheOracleTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "PaperLru" : "PlainLru";
                         });

}  // namespace
