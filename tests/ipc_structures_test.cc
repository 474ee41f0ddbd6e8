// Tests for the shared-memory data-plane primitives (src/ipc v2): the
// named-structure directory, the MPMC descriptor queue, the shared cache
// map, pooled futures, counters, and the FileCache mirror — plus a
// threads-mode run of the whole plane.
//
// Everything here is single-process (std::thread at most): this file is the
// TSan surface of the plane. Fork-based multi-process tests live in
// ipc_plane_test.cc.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <deque>
#include <memory>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "src/driver/process_tier.h"
#include "src/fs/file_cache.h"
#include "src/fs/replacement_policy.h"
#include "src/iolite/buffer_pool.h"
#include "src/ipc/mpmc_queue.h"
#include "src/ipc/process_plane.h"
#include "src/ipc/shm_cache_mirror.h"
#include "src/ipc/shm_counters.h"
#include "src/ipc/shm_future.h"
#include "src/ipc/shm_map.h"
#include "src/ipc/shm_region.h"
#include "src/ipc/shm_table.h"
#include "src/simos/sim_context.h"
#include "src/simos/vm.h"

namespace {

using iolipc::MpmcQueue;
using iolipc::ShmCounters;
using iolipc::ShmFuturePool;
using iolipc::ShmMap;
using iolipc::ShmRegion;
using iolipc::ShmTable;
using iolipc::SliceDesc;

std::unique_ptr<ShmRegion> AnonRegion(size_t bytes = 4u << 20) {
  return ShmRegion::Create(bytes);  // Anonymous: no /dev/shm dependency.
}

SliceDesc Desc(uint64_t offset, uint64_t length) {
  SliceDesc d{};
  d.offset = offset;
  d.length = length;
  return d;
}

// --- ShmTable ---------------------------------------------------------------

TEST(ShmTableTest, PublishFindAttach) {
  auto region = AnonRegion();
  ShmTable table = ShmTable::Create(region.get(), 8);
  ASSERT_TRUE(table.valid());
  EXPECT_EQ(table.entry_count(), 0u);

  EXPECT_TRUE(table.Publish("alpha", 4096, 64, iolipc::ShmType::kRaw));
  EXPECT_TRUE(table.Publish("beta", 8192, 128, iolipc::ShmType::kQueue));
  EXPECT_FALSE(table.Publish("alpha", 1, 1, iolipc::ShmType::kRaw)) << "duplicate name";

  const ShmTable::Entry* e = table.Find("beta");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->offset, 8192u);
  EXPECT_EQ(e->size, 128u);
  EXPECT_EQ(e->type, static_cast<uint32_t>(iolipc::ShmType::kQueue));
  EXPECT_EQ(table.Find("gamma"), nullptr);

  // A second handle (another process's view) sees the same directory.
  ShmTable attached = ShmTable::Attach(region.get());
  ASSERT_TRUE(attached.valid());
  EXPECT_EQ(attached.entry_count(), 2u);
  ASSERT_NE(attached.Find("alpha"), nullptr);
  EXPECT_EQ(attached.Find("alpha")->offset, 4096u);
}

TEST(ShmTableTest, CapacityIsEnforced) {
  auto region = AnonRegion();
  ShmTable table = ShmTable::Create(region.get(), 2);
  ASSERT_TRUE(table.valid());
  EXPECT_TRUE(table.Publish("a", 0, 1, iolipc::ShmType::kRaw));
  EXPECT_TRUE(table.Publish("b", 0, 1, iolipc::ShmType::kRaw));
  EXPECT_FALSE(table.Publish("c", 0, 1, iolipc::ShmType::kRaw));
}

// --- MpmcQueue --------------------------------------------------------------

TEST(MpmcQueueTest, FifoAndFullEmpty) {
  auto region = AnonRegion();
  ShmTable table = ShmTable::Create(region.get(), 4);
  MpmcQueue q = MpmcQueue::Create(region.get(), &table, "q", 4);
  ASSERT_TRUE(q.valid());

  SliceDesc out;
  EXPECT_FALSE(q.TryPop(&out)) << "fresh queue is empty";
  for (uint64_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(q.TryPush(Desc(i, i * 10)));
  }
  EXPECT_FALSE(q.TryPush(Desc(99, 99))) << "full queue rejects";
  for (uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(q.TryPop(&out));
    EXPECT_EQ(out.offset, i);
    EXPECT_EQ(out.length, i * 10);
  }
  EXPECT_FALSE(q.TryPop(&out));

  EXPECT_FALSE(q.closed());
  q.Close();
  EXPECT_TRUE(q.closed());
  EXPECT_TRUE(q.drained());
}

TEST(MpmcQueueTest, TypedMessagePun) {
  auto region = AnonRegion();
  ShmTable table = ShmTable::Create(region.get(), 4);
  MpmcQueue q = MpmcQueue::Create(region.get(), &table, "q", 8);
  iolipc::ClientRequestMsg in{7, 0xdeadbeefcafe, 1, 2, 3};
  ASSERT_TRUE(q.PushAs(in));
  iolipc::ClientRequestMsg out{};
  ASSERT_TRUE(q.PopAs(&out));
  EXPECT_EQ(out.file_id, 7u);
  EXPECT_EQ(out.future, 0xdeadbeefcafeu);
  EXPECT_EQ(out.kind, 1u);
  EXPECT_EQ(out.flags, 2u);
  EXPECT_EQ(out.reserved, 3u);
}

TEST(MpmcQueueTest, ThreadedMpmcDeliversEveryItemExactlyOnce) {
  auto region = AnonRegion();
  ShmTable table = ShmTable::Create(region.get(), 4);
  MpmcQueue q = MpmcQueue::Create(region.get(), &table, "q", 64);
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr uint64_t kPerProducer = 5000;

  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&q, p] {
      for (uint64_t i = 0; i < kPerProducer; ++i) {
        // Unique id: producer in the high bits.
        while (!q.TryPush(Desc((static_cast<uint64_t>(p) << 32) | i, 1))) {
          std::this_thread::yield();
        }
      }
    });
  }
  std::atomic<uint64_t> popped{0};
  std::atomic<uint64_t> sum{0};
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      SliceDesc d;
      for (;;) {
        if (q.TryPop(&d)) {
          sum.fetch_add(d.offset, std::memory_order_relaxed);
          if (popped.fetch_add(1, std::memory_order_relaxed) + 1 ==
              kProducers * kPerProducer) {
            return;
          }
        } else if (popped.load(std::memory_order_relaxed) >= kProducers * kPerProducer) {
          return;
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(popped.load(), kProducers * kPerProducer);
  // Sum of all unique ids: per producer, p<<32 * kPerProducer + sum(0..n-1).
  uint64_t expect = 0;
  for (uint64_t p = 0; p < kProducers; ++p) {
    expect += (p << 32) * kPerProducer + kPerProducer * (kPerProducer - 1) / 2;
  }
  EXPECT_EQ(sum.load(), expect);
}

// Several producers push in bursts while one consumer takes them, parking
// on the queue between pushes through the park primitive itself, with a
// timeout far past the test's delivery deadline. Each round ends in a
// lined-up race: once the consumer has taken everything else, it and the
// round's closing producer start together from one flag, the consumer into
// a park and the producer into the closing push, each after a random delay
// of up to kJitterNs. A wake-up lost in that race (a registration the
// producer did not see, an item the re-check did not see) leaves the
// closing item undelivered until the deadline.
TEST(MpmcQueueTest, ParkedConsumerMissesNoWakeUp) {
  constexpr int kProducers = 3;
  constexpr uint64_t kBurst = 3;
  constexpr uint64_t kPerRound = kProducers * kBurst;
  constexpr uint64_t kRounds = 2000;
  constexpr uint64_t kJitterNs = 400;
  constexpr uint64_t kParkUs = 30'000'000;
  constexpr uint64_t kDeadlineNs = 2'000'000'000;
  auto region = AnonRegion();
  ShmTable table = ShmTable::Create(region.get(), 4);
  MpmcQueue q = MpmcQueue::Create(region.get(), &table, "q", 64);
  ShmCounters counters = ShmCounters::Create(region.get(), &table, "c");
  ASSERT_TRUE(q.valid() && counters.valid());
  q.CountWaitsIn(counters);

  std::atomic<uint64_t> round{0};      // Producers push round r once it reads r + 1.
  std::atomic<uint64_t> armed{0};      // The consumer's "round r's rest is taken": r + 1.
  std::atomic<uint64_t> go{0};         // The closer's start signal: r + 1.
  std::atomic<uint64_t> delivered{0};  // Items the consumer took.
  std::atomic<bool> stop{false};
  // Spins until `done`, yielding after a while in case the other side
  // shares this CPU; false once the test stops.
  auto spin_until = [&](auto done) {
    for (int i = 0; !done(); ++i) {
      if (stop.load(std::memory_order_relaxed)) {
        return false;
      }
      if (i > 4000) {
        std::this_thread::yield();
      }
    }
    return true;
  };
  auto jitter = [](uint64_t* rng) {
    *rng ^= *rng << 13;
    *rng ^= *rng >> 7;
    *rng ^= *rng << 17;
    uint64_t until = iolipc::MonotonicNs() + *rng % kJitterNs;
    while (iolipc::MonotonicNs() < until) {
    }
  };
  // Takes one item, parking while there is none; false once the queue closed.
  auto take = [&] {
    SliceDesc d;
    while (!q.TryPop(&d)) {
      if (q.closed()) {
        return false;
      }
      q.Park(kParkUs);
    }
    delivered.fetch_add(1, std::memory_order_release);
    return true;
  };
  std::thread consumer([&] {
    uint64_t rng = 0x2545f4914f6cdd1dull;
    for (uint64_t r = 0; r < kRounds; ++r) {
      for (uint64_t i = 1; i < kPerRound; ++i) {
        if (!take()) {
          return;
        }
      }
      armed.store(r + 1, std::memory_order_release);
      if (!spin_until([&] { return go.load(std::memory_order_acquire) > r; })) {
        return;
      }
      jitter(&rng);
      if (!take()) {
        return;
      }
    }
  });
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      uint64_t rng = 0x9e3779b97f4a7c15ull * static_cast<uint64_t>(p + 1);
      auto push = [&] {
        while (!q.TryPush(Desc(0, 1))) {
          std::this_thread::yield();
        }
      };
      for (uint64_t r = 0; r < kRounds; ++r) {
        if (!spin_until([&] { return round.load(std::memory_order_acquire) > r; })) {
          return;
        }
        bool closer = r % kProducers == static_cast<uint64_t>(p);
        for (uint64_t i = closer ? 1 : 0; i < kBurst; ++i) {
          push();
        }
        if (closer) {
          if (!spin_until([&] { return armed.load(std::memory_order_acquire) > r; })) {
            return;
          }
          go.store(r + 1, std::memory_order_release);
          jitter(&rng);
          push();
        }
      }
    });
  }
  uint64_t stalled_round = kRounds;
  for (uint64_t r = 0; r < kRounds && stalled_round == kRounds; ++r) {
    round.store(r + 1, std::memory_order_release);
    uint64_t deadline = iolipc::MonotonicNs() + kDeadlineNs;
    while (delivered.load(std::memory_order_acquire) < (r + 1) * kPerRound) {
      if (iolipc::MonotonicNs() > deadline) {
        stalled_round = r;
        break;
      }
      std::this_thread::yield();
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : producers) {
    t.join();
  }
  q.Close();  // Always wakes: also frees a consumer a lost wake-up stranded.
  consumer.join();
  EXPECT_EQ(stalled_round, kRounds)
      << "round " << stalled_round << " still undelivered 2 s after its pushes";
  EXPECT_GT(counters.Get(iolipc::kParks), kRounds / 4) << "the consumer seldom parked";
  EXPECT_GT(counters.Get(iolipc::kWakes), 0u);
}

// --- ShmMap -----------------------------------------------------------------

// Reads `key` the way a plane reader does: pin, copy the value, unpin.
bool Peek(ShmMap* map, uint64_t key, SliceDesc* v) {
  if (!map->LookupAndPin(key, v)) {
    return false;
  }
  EXPECT_TRUE(map->Unpin(key));
  return true;
}

TEST(ShmMapTest, UpsertPinUnpinErase) {
  auto region = AnonRegion();
  ShmTable table = ShmTable::Create(region.get(), 4);
  ShmMap map = ShmMap::Create(region.get(), &table, "m", 16);
  ASSERT_TRUE(map.valid());

  EXPECT_EQ(map.Upsert(42, Desc(100, 1000)), ShmMap::UpsertResult::kInserted);
  SliceDesc v;
  ASSERT_TRUE(Peek(&map, 42, &v));
  EXPECT_EQ(v.offset, 100u);
  EXPECT_EQ(v.length, 1000u);
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(map.bytes(), 1000u);
  EXPECT_FALSE(map.LookupAndPin(43, &v));
  EXPECT_FALSE(map.Unpin(43));
  EXPECT_EQ(map.PinsOf(43), -1);

  // Pins block erase, and each pin needs its own unpin.
  ASSERT_TRUE(map.LookupAndPin(42, &v));
  ASSERT_TRUE(map.LookupAndPin(42, &v));
  EXPECT_EQ(map.PinsOf(42), 2);
  EXPECT_EQ(map.Erase(42), ShmMap::EraseResult::kPinned) << "pinned entries cannot be erased";
  ASSERT_TRUE(map.Unpin(42));
  EXPECT_EQ(map.Erase(42), ShmMap::EraseResult::kPinned);
  ASSERT_TRUE(map.Unpin(42));
  EXPECT_EQ(map.PinsOf(42), 0);
  EXPECT_EQ(map.Erase(42), ShmMap::EraseResult::kErased);
  EXPECT_EQ(map.Erase(42), ShmMap::EraseResult::kAbsent);
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.bytes(), 0u);
  EXPECT_FALSE(Peek(&map, 42, &v));

  // The tombstone is reusable.
  EXPECT_EQ(map.Upsert(42, Desc(200, 5)), ShmMap::UpsertResult::kInserted);
  ASSERT_TRUE(Peek(&map, 42, &v));
  EXPECT_EQ(v.offset, 200u);
}

TEST(ShmMapTest, UpsertReplacesUnpinnedValuesInPlace) {
  auto region = AnonRegion();
  ShmTable table = ShmTable::Create(region.get(), 4);
  ShmMap map = ShmMap::Create(region.get(), &table, "m", 16);
  EXPECT_EQ(map.Upsert(42, Desc(100, 1000)), ShmMap::UpsertResult::kInserted);
  EXPECT_EQ(map.Upsert(42, Desc(300, 30)), ShmMap::UpsertResult::kReplaced);
  SliceDesc v;
  ASSERT_TRUE(map.LookupAndPin(42, &v));
  EXPECT_EQ(v.offset, 300u);
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(map.bytes(), 30u);
  EXPECT_EQ(map.Upsert(42, Desc(500, 5)), ShmMap::UpsertResult::kPinned);
  ASSERT_TRUE(map.Unpin(42));
  ASSERT_TRUE(Peek(&map, 42, &v));
  EXPECT_EQ(v.offset, 300u) << "a pinned value is left unchanged";
}

TEST(ShmMapTest, FillsToCapacityThenRejects) {
  auto region = AnonRegion();
  ShmTable table = ShmTable::Create(region.get(), 4);
  ShmMap map = ShmMap::Create(region.get(), &table, "m", 8);
  for (uint64_t k = 0; k < 8; ++k) {
    EXPECT_EQ(map.Upsert(k, Desc(k, 1)), ShmMap::UpsertResult::kInserted);
  }
  EXPECT_EQ(map.Upsert(100, Desc(0, 1)), ShmMap::UpsertResult::kFull);
  // Every key is still findable despite full-table probe chains.
  SliceDesc v;
  for (uint64_t k = 0; k < 8; ++k) {
    ASSERT_TRUE(Peek(&map, k, &v)) << "key " << k;
    EXPECT_EQ(v.offset, k);
  }
  // A full table with a tombstone takes the new key there.
  EXPECT_EQ(map.Erase(3), ShmMap::EraseResult::kErased);
  EXPECT_EQ(map.Upsert(100, Desc(0, 1)), ShmMap::UpsertResult::kInserted);
  EXPECT_EQ(map.size(), 8u);
  EXPECT_FALSE(Peek(&map, 3, &v));
}

// The plane's contract: each key has one writer (here thread key % T),
// and every thread pins, checks and unpins any key.
TEST(ShmMapTest, ThreadedTortureKeepsAccountingConsistent) {
  auto region = AnonRegion();
  ShmTable table = ShmTable::Create(region.get(), 4);
  ShmMap map = ShmMap::Create(region.get(), &table, "m", 256);
  constexpr int kThreads = 6;
  constexpr int kOpsPerThread = 4000;
  constexpr uint64_t kKeySpace = 60;  // A multiple of kThreads.
  // A value is {key * 1024 + n, n}: a torn read breaks the relation.
  auto value_of = [](uint64_t key, uint64_t n) { return Desc(key * 1024 + n, n); };
  auto intact = [](uint64_t key, const SliceDesc& v) {
    return v.length > 0 && v.length < 1024 && v.offset == key * 1024 + v.length;
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      uint64_t rng = 0x9e3779b97f4a7c15ull * (t + 1);
      for (int i = 0; i < kOpsPerThread; ++i) {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        uint64_t key = rng % kKeySpace;
        uint64_t own = key - key % kThreads + t;
        switch ((rng >> 32) % 4) {
          case 0:
            map.Upsert(own, value_of(own, 1 + (rng >> 40) % 1023));
            break;
          case 1:
            map.Erase(own);
            break;
          default: {
            SliceDesc v;
            if (map.LookupAndPin(key, &v)) {
              EXPECT_TRUE(intact(key, v)) << "key " << key;
              ASSERT_TRUE(map.Unpin(key));
            }
            break;
          }
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  // Quiesced invariants: header accounting matches a slot scan, no pins
  // leaked, every surviving value intact.
  uint32_t live = 0;
  uint64_t bytes = 0;
  for (uint64_t key = 0; key < kKeySpace; ++key) {
    SliceDesc v;
    if (Peek(&map, key, &v)) {
      ++live;
      bytes += v.length;
      EXPECT_TRUE(intact(key, v)) << "key " << key;
      EXPECT_EQ(map.PinsOf(key), 0) << "leaked pin on key " << key;
    }
  }
  EXPECT_GT(live, 0u);
  EXPECT_EQ(map.size(), live);
  EXPECT_EQ(map.bytes(), bytes);
}

// --- ShmFuturePool ----------------------------------------------------------

TEST(ShmFutureTest, CompleteAndWait) {
  auto region = AnonRegion();
  ShmTable table = ShmTable::Create(region.get(), 4);
  ShmFuturePool pool = ShmFuturePool::Create(region.get(), &table, "f", 4);
  ASSERT_TRUE(pool.valid());

  iolipc::FutureHandle h = pool.Acquire();
  ASSERT_NE(h, iolipc::kInvalidFuture);
  EXPECT_EQ(pool.allocated(), 1u);
  ASSERT_TRUE(pool.Complete(h, Desc(10, 20), Desc(30, 40)));
  ShmFuturePool::WaitResult r = pool.Wait(h, 1000, {});
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.value[0].offset, 10u);
  EXPECT_EQ(r.value[1].length, 40u);
  pool.Release(h);
  EXPECT_EQ(pool.allocated(), 0u);

  // Stale handle: the released generation can no longer be completed.
  EXPECT_FALSE(pool.Complete(h, Desc(0, 0), Desc(0, 0)));
  EXPECT_FALSE(pool.Fail(h, 7));
}

TEST(ShmFutureTest, FailDeliversError) {
  auto region = AnonRegion();
  ShmTable table = ShmTable::Create(region.get(), 4);
  ShmFuturePool pool = ShmFuturePool::Create(region.get(), &table, "f", 4);
  iolipc::FutureHandle h = pool.Acquire();
  ASSERT_TRUE(pool.Fail(h, 42));
  ShmFuturePool::WaitResult r = pool.Wait(h, 1000, {});
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, 42u);
  EXPECT_FALSE(pool.Complete(h, Desc(1, 1), Desc(1, 1))) << "already resolved";
  pool.Release(h);
}

TEST(ShmFutureTest, TimeoutFailsTheFutureAndLateFillerIsRejected) {
  auto region = AnonRegion();
  ShmTable table = ShmTable::Create(region.get(), 4);
  ShmFuturePool pool = ShmFuturePool::Create(region.get(), &table, "f", 4);
  iolipc::FutureHandle h = pool.Acquire();
  // Nobody fills: the waiter times out (error 2) rather than hanging.
  ShmFuturePool::WaitResult r = pool.Wait(h, 2000, {});
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(r.timed_out);
  // A filler arriving after the timeout must be told it lost.
  EXPECT_FALSE(pool.Complete(h, Desc(1, 1), Desc(1, 1)));
  pool.Release(h);
  EXPECT_EQ(pool.allocated(), 0u);
}

TEST(ShmFutureTest, ExhaustionAndThreadedHandoff) {
  auto region = AnonRegion();
  ShmTable table = ShmTable::Create(region.get(), 4);
  ShmFuturePool pool = ShmFuturePool::Create(region.get(), &table, "f", 2);
  iolipc::FutureHandle a = pool.Acquire();
  iolipc::FutureHandle b = pool.Acquire();
  ASSERT_NE(a, iolipc::kInvalidFuture);
  ASSERT_NE(b, iolipc::kInvalidFuture);
  EXPECT_EQ(pool.Acquire(), iolipc::kInvalidFuture) << "pool exhausted";

  // Real handoff: a filler thread completes while the owner waits.
  std::thread filler([&] { ASSERT_TRUE(pool.Complete(a, Desc(5, 6), Desc(7, 8))); });
  ShmFuturePool::WaitResult r =
      pool.Wait(a, 5'000'000, [] { std::this_thread::yield(); });
  filler.join();
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.value[1].offset, 7u);
  ASSERT_TRUE(pool.Fail(b, 1));
  pool.Release(a);
  pool.Release(b);
  EXPECT_EQ(pool.CountInState(ShmFuturePool::kFree), 2u);
}

// A waiter with no YieldFn parks on its slot; the filler's resolution wakes
// it long before the park would time out.
TEST(ShmFutureTest, ParkedWaiterIsWokenByItsFiller) {
  auto region = AnonRegion();
  ShmTable table = ShmTable::Create(region.get(), 4);
  ShmFuturePool pool = ShmFuturePool::Create(region.get(), &table, "f", 2);
  ShmCounters counters = ShmCounters::Create(region.get(), &table, "c");
  pool.CountWaitsIn(counters);
  iolipc::FutureHandle h = pool.Acquire();
  ASSERT_NE(h, iolipc::kInvalidFuture);

  std::thread filler([&] {
    while (counters.Get(iolipc::kParks) == 0) {
      std::this_thread::yield();
    }
    ASSERT_TRUE(pool.Complete(h, Desc(5, 6), Desc(7, 8)));
  });
  uint64_t t0 = iolipc::MonotonicNs();
  ShmFuturePool::WaitResult r = pool.Wait(h, 30'000'000, {});
  uint64_t waited_ns = iolipc::MonotonicNs() - t0;
  filler.join();
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.value[1].offset, 7u);
  EXPECT_LT(waited_ns, iolipc::kParkTimeoutUs * 1000 / 4) << "woken by the park timeout";
  EXPECT_GE(counters.Get(iolipc::kWakes), 1u);
  pool.Release(h);
}

// --- ShmCounters ------------------------------------------------------------

TEST(ShmCountersTest, AddGetAndAttach) {
  auto region = AnonRegion();
  ShmTable table = ShmTable::Create(region.get(), 4);
  ShmCounters c = ShmCounters::Create(region.get(), &table, "c");
  ASSERT_TRUE(c.valid());
  c.Add(iolipc::kBytesServed, 100);
  c.Add(iolipc::kBytesServed, 23);
  c.Add(iolipc::kFutureErrors, 1);
  EXPECT_EQ(c.Get(iolipc::kBytesServed), 123u);
  EXPECT_EQ(c.Get(iolipc::kBytesCopiedCrossProcess), 0u);

  ShmCounters attached = ShmCounters::Attach(table, "c");
  ASSERT_TRUE(attached.valid());
  EXPECT_EQ(attached.Get(iolipc::kBytesServed), 123u);
  EXPECT_EQ(attached.Get(iolipc::kFutureErrors), 1u);
  EXPECT_STREQ(iolipc::PlaneCounterName(iolipc::kBytesCopiedCrossProcess),
               "bytes_copied_cross_process");

  // The name table follows the slots, one NUL-padded entry per counter.
  const char* names = table.Locate("c", iolipc::ShmType::kCounters, 0, nullptr) + sizeof(ShmCounters::CountersHeader) +
                      iolipc::kCounterCount * sizeof(uint64_t);
  for (uint32_t i = 0; i < iolipc::kCounterCount; ++i) {
    EXPECT_STREQ(names + i * ShmCounters::kNameBytes, iolipc::PlaneCounterName(i)) << i;
  }
  EXPECT_EQ(table.Find("c")->size,
            sizeof(ShmCounters::CountersHeader) +
                iolipc::kCounterCount * (sizeof(uint64_t) + ShmCounters::kNameBytes));
}

// --- Attach validation --------------------------------------------------------

// Doubles the u32 at offset 4 of `name`'s header — every structure's slot
// capacity (the counter count, for ShmCounters) — so the header claims more
// slots than its directory entry spans.
void OverrunCapacity(const ShmTable& table, const char* name, iolipc::ShmType type) {
  auto* capacity = reinterpret_cast<uint32_t*>(table.Locate(name, type, 8, nullptr) + 4);
  *capacity *= 2;
}

TEST(ShmAttachTest, AHeaderCapacityOverrunningItsEntryGivesAnInvalidHandle) {
  auto region = AnonRegion();
  ShmTable table = ShmTable::Create(region.get(), 8);
  ASSERT_TRUE(MpmcQueue::Create(region.get(), &table, "q", 8).valid());
  ASSERT_TRUE(ShmMap::Create(region.get(), &table, "m", 8).valid());
  ASSERT_TRUE(ShmFuturePool::Create(region.get(), &table, "f", 4).valid());
  ASSERT_TRUE(ShmCounters::Create(region.get(), &table, "c").valid());
  ASSERT_TRUE(MpmcQueue::Attach(table, "q").valid());
  ASSERT_TRUE(ShmMap::Attach(table, "m").valid());
  ASSERT_TRUE(ShmFuturePool::Attach(table, "f").valid());
  ASSERT_TRUE(ShmCounters::Attach(table, "c").valid());
  EXPECT_FALSE(ShmMap::Attach(table, "q").valid()) << "a queue entry is not a map";

  OverrunCapacity(table, "q", iolipc::ShmType::kQueue);
  EXPECT_FALSE(MpmcQueue::Attach(table, "q").valid());
  OverrunCapacity(table, "m", iolipc::ShmType::kMap);
  EXPECT_FALSE(ShmMap::Attach(table, "m").valid());
  OverrunCapacity(table, "f", iolipc::ShmType::kFutures);
  EXPECT_FALSE(ShmFuturePool::Attach(table, "f").valid());
  OverrunCapacity(table, "c", iolipc::ShmType::kCounters);
  EXPECT_FALSE(ShmCounters::Attach(table, "c").valid());
  // A block holding fewer counters than this build indexes is refused too.
  *reinterpret_cast<uint32_t*>(table.Locate("c", iolipc::ShmType::kCounters, 8, nullptr) + 4) =
      iolipc::kCounterCount - 1;
  EXPECT_FALSE(ShmCounters::Attach(table, "c").valid());

  // An entry that reaches past the region, or cannot hold its header,
  // resolves to nothing.
  ASSERT_TRUE(table.Publish("far", region->size() - 64, 128, iolipc::ShmType::kMap));
  EXPECT_EQ(table.Locate("far", iolipc::ShmType::kMap, 0, nullptr), nullptr);
  EXPECT_FALSE(ShmMap::Attach(table, "far").valid());
  ASSERT_TRUE(table.Publish("tiny", 0, 16, iolipc::ShmType::kMap));
  EXPECT_FALSE(ShmMap::Attach(table, "tiny").valid());
}

TEST(ShmAttachTest, APlaneWithAnOverrunStructureDoesNotAttach) {
  const std::pair<const char*, iolipc::ShmType> kStructures[] = {
      {iolipc::kPlaneClientQueue, iolipc::ShmType::kQueue},
      {"plane.q.origin.0", iolipc::ShmType::kQueue},
      {iolipc::kPlaneCgiQueue, iolipc::ShmType::kQueue},
      {iolipc::kPlaneHeaderFree, iolipc::ShmType::kQueue},
      {iolipc::kPlaneBodyFree, iolipc::ShmType::kQueue},
      {iolipc::kPlaneCacheMap, iolipc::ShmType::kMap},
      {iolipc::kPlaneFutures, iolipc::ShmType::kFutures},
      {iolipc::kPlaneCounters, iolipc::ShmType::kCounters},
  };
  iolipc::PlaneConfig pc;
  pc.queue_capacity = 32;
  pc.map_capacity = 64;
  pc.future_capacity = 8;
  pc.header_slots = 8;
  pc.body_slots = 4;
  pc.body_slot_bytes = 4096;
  for (const auto& [name, type] : kStructures) {
    auto region = AnonRegion();
    iolipc::PlaneShared plane = iolipc::CreatePlane(region.get(), pc, 1);
    ASSERT_TRUE(plane.valid());
    ASSERT_TRUE(iolipc::AttachPlane(region.get()).valid()) << name;
    OverrunCapacity(plane.table, name, type);
    EXPECT_FALSE(iolipc::AttachPlane(region.get()).valid()) << name;
  }
}

// --- ShmCacheMirror ---------------------------------------------------------

TEST(ShmCacheMirrorTest, ProjectsCacheMembershipIntoTheMap) {
  auto region = AnonRegion(8u << 20);
  ShmTable table = ShmTable::Create(region.get(), 4);
  ShmMap map = ShmMap::Create(region.get(), &table, "m", 64);

  iolsim::SimContext ctx;
  iolite::BufferPool pool(&ctx, "t", iolsim::kKernelDomain,
                          [&region](size_t n) { return region->AllocateExtent(n); });
  iolipc::ShmCacheMirror mirror(region.get(), &map);
  iolfs::FileCache cache(&ctx, std::make_unique<iolfs::PlainLruPolicy>());
  cache.set_mirror(&mirror);

  iolite::BufferRef buf = pool.AllocateDma(1, 4096);
  cache.Insert(7, 0, iolite::Aggregate::FromBuffer(buf));
  SliceDesc v;
  ASSERT_TRUE(Peek(&map, 7, &v));
  EXPECT_EQ(v.length, 4096u);
  EXPECT_EQ(region->At(v.offset), buf->data()) << "mirror names the same bytes";

  // Erase follows InvalidateFile…
  cache.InvalidateFile(7);
  EXPECT_FALSE(Peek(&map, 7, &v));
  EXPECT_EQ(map.size(), 0u);

  // …but a foreign pin defers it until the pin drops.
  iolite::BufferRef buf2 = pool.AllocateDma(2, 2048);
  cache.Insert(9, 0, iolite::Aggregate::FromBuffer(buf2));
  ASSERT_TRUE(map.LookupAndPin(9, &v));
  cache.InvalidateFile(9);
  EXPECT_TRUE(Peek(&map, 9, &v)) << "pinned entry survives the erase";
  EXPECT_EQ(mirror.deferred_updates(), 1u);
  ASSERT_TRUE(map.Unpin(9));
  // Any later mutation drains the deferred erase.
  iolite::BufferRef buf3 = pool.AllocateDma(3, 1024);
  cache.Insert(11, 0, iolite::Aggregate::FromBuffer(buf3));
  EXPECT_FALSE(Peek(&map, 9, &v));
  EXPECT_EQ(mirror.deferred_updates(), 0u);

  // Multi-slice and partial-offset entries are skipped, not published.
  uint64_t skipped = mirror.skipped();
  cache.Insert(13, 100, iolite::Aggregate::FromBuffer(pool.AllocateDma(4, 512)));
  EXPECT_GT(mirror.skipped(), skipped);
  EXPECT_FALSE(Peek(&map, 13, &v));
}

TEST(ShmCacheMirrorTest, ReinsertNeverHidesTheKeyFromAConcurrentPin) {
  // One origin re-inserts a key through its mirror while a sibling pins and
  // unpins it through its own map handle. The key is present throughout, so
  // no LookupAndPin may miss — whether the re-insert replaces the value in
  // place or finds it pinned.
  auto region = AnonRegion(8u << 20);
  ShmTable table = ShmTable::Create(region.get(), 4);
  ShmMap map = ShmMap::Create(region.get(), &table, "m", 64);
  iolsim::SimContext ctx;
  iolite::BufferPool pool(&ctx, "t", iolsim::kKernelDomain,
                          [&region](size_t n) { return region->AllocateExtent(n); });
  iolipc::ShmCacheMirror mirror(region.get(), &map);
  iolite::Aggregate versions[2] = {iolite::Aggregate::FromBuffer(pool.AllocateDma(1, 4096)),
                                   iolite::Aggregate::FromBuffer(pool.AllocateDma(2, 4096))};
  mirror.OnInsert(7, 0, versions[0]);

  ShmMap sibling = ShmMap::Attach(table, "m");
  ASSERT_TRUE(sibling.valid());
  std::atomic<bool> done{false};
  uint64_t lookups = 0;
  uint64_t misses = 0;
  std::thread reader([&] {
    SliceDesc v;
    while (!done.load(std::memory_order_acquire)) {
      ++lookups;
      if (sibling.LookupAndPin(7, &v)) {
        sibling.Unpin(7);
      } else {
        ++misses;
      }
    }
  });
  for (int i = 0; i < 200000; ++i) {
    mirror.OnInsert(7, 0, versions[i % 2]);
  }
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_GT(lookups, 0u);
  EXPECT_EQ(misses, 0u) << "of " << lookups << " lookups";
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(map.bytes(), 4096u);
}

TEST(ShmCacheMirrorTest, ReinsertBlockedByAPinNeverRemovesTheKeyLater) {
  // Two origins fill the same file into one map. The second fill lands
  // while a proxy pins the first origin's entry, so its replacement is
  // parked. Once the pin drops, draining the parked update must publish the
  // new value — not remove the key, which the first origin's cache still
  // holds and will never re-insert.
  auto region = AnonRegion(8u << 20);
  ShmTable table = ShmTable::Create(region.get(), 4);
  ShmMap map = ShmMap::Create(region.get(), &table, "m", 64);
  iolsim::SimContext ctx;
  iolite::BufferPool pool(&ctx, "t", iolsim::kKernelDomain,
                          [&region](size_t n) { return region->AllocateExtent(n); });
  iolipc::ShmCacheMirror first(region.get(), &map);
  iolipc::ShmCacheMirror second(region.get(), &map);
  iolite::BufferRef a = pool.AllocateDma(1, 4096);
  iolite::BufferRef b = pool.AllocateDma(2, 4096);
  first.OnInsert(2, 0, iolite::Aggregate::FromBuffer(a));

  SliceDesc v;
  ASSERT_TRUE(map.LookupAndPin(2, &v));
  second.OnInsert(2, 0, iolite::Aggregate::FromBuffer(b));
  EXPECT_EQ(second.deferred_updates(), 1u);
  ASSERT_TRUE(map.Unpin(2));
  second.OnInsert(3, 0, iolite::Aggregate::FromBuffer(pool.AllocateDma(3, 4096)));
  EXPECT_EQ(second.deferred_updates(), 0u);
  ASSERT_TRUE(map.LookupAndPin(2, &v)) << "the parked update removed the key";
  EXPECT_EQ(region->At(v.offset), b->data()) << "the parked update was applied";
}

// Live map slots holding `key`, read from the slot array the way
// scripts/shm_inspect.py walks it.
int SlotsHolding(const iolipc::PlaneShared& s, uint64_t key) {
  const auto* slots = reinterpret_cast<const ShmMap::Slot*>(
      s.table.Locate(iolipc::kPlaneCacheMap, iolipc::ShmType::kMap, 0, nullptr) +
      sizeof(ShmMap::MapHeader));
  int n = 0;
  for (uint32_t i = 0; i < s.cache_map.capacity(); ++i) {
    if (static_cast<uint32_t>(slots[i].word.load()) == ShmMap::kFull &&
        slots[i].key.load() == key) {
      ++n;
    }
  }
  return n;
}

// Two origins with a one-document budget behind one proxy, stepped by hand
// on one plane. The proxy never waits: it answers a hit itself and passes a
// miss on to the key's home origin (key % 2), which answers the client in
// one hop. So each document is filled, cached and published by that origin
// alone: no key ever occupies two map slots, and a document's bytes are
// filled once each time its home origin evicted it.
TEST(PlaneOriginTest, EveryFillGoesToTheKeysHomeOriginAndHoldsOneSlot) {
  auto region = AnonRegion(16u << 20);
  iolipc::PlaneShared s = iolipc::CreatePlane(region.get(), iolipc::PlaneConfig{}, 2);
  ASSERT_TRUE(s.valid());
  ASSERT_EQ(s.origin_qs.size(), 2u);
  iolproxy::PlaneDocSet docs;
  docs.doc_count = 4;
  docs.doc_bytes = 4096;
  std::deque<iolproxy::OriginWorker> origins;
  origins.emplace_back(&s, docs, 0, false, docs.doc_bytes);
  origins.emplace_back(&s, docs, 1, false, docs.doc_bytes);
  iolproxy::ProxyWorker proxy(&s, false);
  const iolipc::YieldFn no_wait = [] { ADD_FAILURE() << "a worker waited"; };

  uint64_t held[2] = {0, 0};  // The document each origin's budget keeps.
  uint64_t misses = 0;
  uint64_t hits = 0;
  for (uint64_t file : {1, 2, 3, 4, 1, 1, 2, 4, 3, 2, 1, 4, 4, 3}) {
    int home = static_cast<int>(file % 2);
    bool expect_hit = held[home] == file;
    iolipc::FutureHandle f = s.futures.Acquire();
    iolipc::ClientRequestMsg m{file, f, static_cast<uint32_t>(iolipc::RequestKind::kStatic),
                               0, 0};
    ASSERT_TRUE(s.client_q.PushAs(m));
    ASSERT_TRUE(proxy.Step(no_wait));
    EXPECT_EQ(s.futures.allocated(), 1u) << "the proxy took a future of its own";
    int server = -1;  // The origin that answered this request.
    for (int o = 0; o < 2; ++o) {
      if (origins[o].Step(no_wait)) {
        EXPECT_EQ(server, -1) << "two origins served one request";
        server = o;
      }
    }
    ShmFuturePool::WaitResult r = s.futures.Wait(f, 1'000'000, no_wait);
    s.futures.Release(f);
    ASSERT_TRUE(r.ok) << "file " << file << " error " << r.error;
    EXPECT_EQ(r.value[1].length, docs.doc_bytes);
    ASSERT_TRUE(r.value[1].flags & iolipc::kRespPinned);
    EXPECT_EQ(r.value[1].ticket, file);
    EXPECT_EQ(s.cache_map.PinsOf(file), 1);
    iolipc::ReturnResponse(&s, r.value[0], r.value[1]);
    EXPECT_EQ(s.cache_map.PinsOf(file), 0);
    if (expect_hit) {
      ++hits;
      EXPECT_EQ(server, -1) << "file " << file << " was cached but refilled";
    } else {
      ++misses;
      EXPECT_EQ(server, home) << "file " << file << " filled away from its home";
      held[home] = file;
    }
    for (uint64_t k = 1; k <= 4; ++k) {
      bool cached = held[k % 2] == k;
      EXPECT_EQ(SlotsHolding(s, k), cached ? 1 : 0) << "key " << k << " after " << file;
      EXPECT_EQ(origins[k % 2].cache().Contains(static_cast<iolfs::FileId>(k)), cached);
      EXPECT_FALSE(origins[1 - k % 2].cache().Contains(static_cast<iolfs::FileId>(k)))
          << "key " << k << " cached away from its home";
    }
  }
  EXPECT_EQ(s.counters.Get(iolipc::kCacheHits), hits);
  EXPECT_EQ(s.counters.Get(iolipc::kOriginFills), misses);
  // Each origin's first fill evicts nothing; every later one evicts one
  // document, which is filled again only if asked for again.
  EXPECT_EQ(s.counters.Get(iolipc::kMapEvictions), misses - 2);
  EXPECT_EQ(s.counters.Get(iolipc::kBytesFilledOrigin), misses * docs.doc_bytes);
}

// A proxy whose next queue is full keeps the request and waits for room:
// its YieldFn runs until the CGI queue frees a cell, then the push lands.
TEST(PlaneOriginTest, AProxyWaitsForRoomInAFullQueue) {
  auto region = AnonRegion(16u << 20);
  iolipc::PlaneConfig pc;
  pc.queue_capacity = 2;
  iolipc::PlaneShared s = iolipc::CreatePlane(region.get(), pc, 1);
  ASSERT_TRUE(s.valid());
  const uint32_t cgi = static_cast<uint32_t>(iolipc::RequestKind::kCgi);
  for (uint64_t id : {1, 2, 3}) {
    iolipc::ClientRequestMsg m{id, iolipc::kInvalidFuture, cgi, 0, 0};
    ASSERT_TRUE((id < 3 ? s.cgi_q : s.client_q).PushAs(m));
  }
  iolproxy::ProxyWorker proxy(&s, false);
  int yields = 0;
  ASSERT_TRUE(proxy.Step([&] {
    ++yields;
    iolipc::ClientRequestMsg taken;
    EXPECT_TRUE(s.cgi_q.PopAs(&taken));
  }));
  EXPECT_EQ(yields, 1);
  EXPECT_EQ(s.counters.Get(iolipc::kQueueFullYields), 1u);
  iolipc::ClientRequestMsg m;
  ASSERT_TRUE(s.cgi_q.PopAs(&m));
  EXPECT_EQ(m.file_id, 2u);
  ASSERT_TRUE(s.cgi_q.PopAs(&m));
  EXPECT_EQ(m.file_id, 3u) << "the request the proxy held on to";
}

// The same routing end to end: two origins behind two proxies with a
// budget that evicts, all concurrent. Every request must succeed with the
// right bytes.
TEST(ProcessPlaneTest, ThreadsModeBudgetedMultiOriginServesEveryRequest) {
  ioldrv::ProcessTierConfig cfg;
  cfg.region_name.clear();
  cfg.mode = iolipc::PlaneMode::kThreads;
  cfg.requests = 600;
  cfg.inflight = 8;
  cfg.docs.doc_count = 12;
  cfg.docs.doc_bytes = 4096;
  cfg.cgi_every = 0;
  cfg.proxy_workers = 2;
  cfg.origin_workers = 2;
  cfg.cgi_workers = 0;
  cfg.origin_cache_budget = 2 * cfg.docs.doc_bytes;
  ioldrv::ProcessTierResult r = ioldrv::RunProcessTier(cfg);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.future_errors, 0u);
  EXPECT_EQ(r.errors, 0u);
  EXPECT_EQ(r.requests, 600u);
  EXPECT_TRUE(r.byte_identical);
  EXPECT_EQ(r.leaked_pins, 0u);
}

// Every role's Run parks once its queue stays empty, and Close wakes it at
// once: the run ends well inside the park timeout, so joining a fleet never
// waits one out.
TEST(ProcessPlaneTest, CloseWakesEveryParkedWorkerPromptly) {
  auto region = AnonRegion(16u << 20);
  iolipc::PlaneShared s = iolipc::CreatePlane(region.get(), iolipc::PlaneConfig{}, 1);
  ASSERT_TRUE(s.valid());
  iolproxy::PlaneDocSet docs;
  docs.doc_count = 2;
  docs.doc_bytes = 1024;
  iolproxy::ProxyWorker proxy(&s, false);
  iolproxy::OriginWorker origin(&s, docs, 0, false, 0);
  iolproxy::CgiWorker cgi(&s, 1024);
  std::vector<std::thread> workers;
  workers.emplace_back([&] { proxy.Run(); });
  workers.emplace_back([&] { origin.Run(); });
  workers.emplace_back([&] { cgi.Run(); });
  MpmcQueue* inputs[] = {&s.client_q, &s.origin_qs[0], &s.cgi_q};
  uint64_t deadline = iolipc::MonotonicNs() + 10'000'000'000ull;
  auto all_parked = [&] {
    for (MpmcQueue* q : inputs) {
      if (q->sleepers() == 0) {
        return false;
      }
    }
    return s.counters.Get(iolipc::kParks) >= 3;
  };
  while (!all_parked() && iolipc::MonotonicNs() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_TRUE(all_parked()) << "a worker never parked on its empty queue";
  uint64_t t0 = iolipc::MonotonicNs();
  for (MpmcQueue* q : inputs) {
    q->Close();
  }
  for (std::thread& t : workers) {
    t.join();
  }
  uint64_t joined_ns = iolipc::MonotonicNs() - t0;
  EXPECT_LT(joined_ns, iolipc::kParkTimeoutUs * 1000 / 4)
      << "a parked worker waited for its park timeout instead of the Close";
  EXPECT_GE(s.counters.Get(iolipc::kWakes), 3u);
}

// --- The plane, threads mode (the TSan-checkable full stack) ----------------

TEST(ProcessPlaneTest, ThreadsModeMatchesInProcessByteForByte) {
  ioldrv::ProcessTierConfig cfg;
  cfg.region_name.clear();  // Anonymous region: runs in any sandbox.
  cfg.requests = 120;
  cfg.inflight = 6;
  cfg.docs.doc_count = 12;
  cfg.docs.doc_bytes = 8 * 1024;
  cfg.cgi_every = 6;
  cfg.cgi_body_bytes = 512;
  cfg.proxy_workers = 2;
  cfg.origin_workers = 2;
  cfg.cgi_workers = 1;

  cfg.mode = iolipc::PlaneMode::kInProcess;
  ioldrv::ProcessTierResult sim = ioldrv::RunProcessTier(cfg);
  ASSERT_TRUE(sim.ok);
  EXPECT_EQ(sim.errors, 0u);
  EXPECT_TRUE(sim.byte_identical);
  EXPECT_EQ(sim.requests, 120u);

  cfg.mode = iolipc::PlaneMode::kThreads;
  ioldrv::ProcessTierResult thr = ioldrv::RunProcessTier(cfg);
  ASSERT_TRUE(thr.ok);
  EXPECT_EQ(thr.errors, 0u);
  EXPECT_TRUE(thr.byte_identical);
  EXPECT_EQ(thr.response_checksum, sim.response_checksum)
      << "same workers, same bytes, regardless of execution shape";
  EXPECT_EQ(thr.bytes_copied_cross_process, 0u);
  EXPECT_EQ(thr.bytes_served, sim.bytes_served);
}

TEST(ProcessPlaneTest, CopyModeCopiesEveryStaticBodyButStaysIdentical) {
  // CGI bodies and copy-mode copies share one body slab.
  ioldrv::ProcessTierConfig cfg;
  cfg.region_name.clear();
  cfg.requests = 60;
  cfg.inflight = 4;
  cfg.docs.doc_count = 6;
  cfg.docs.doc_bytes = 4096;
  cfg.cgi_every = 4;
  cfg.cgi_body_bytes = 1000;
  cfg.mode = iolipc::PlaneMode::kThreads;

  ioldrv::ProcessTierResult zero = ioldrv::RunProcessTier(cfg);
  cfg.copy_data_path = true;
  ioldrv::ProcessTierResult copy = ioldrv::RunProcessTier(cfg);
  ASSERT_TRUE(zero.ok);
  ASSERT_TRUE(copy.ok);
  EXPECT_EQ(copy.errors, 0u);
  EXPECT_EQ(copy.cgi_requests, 15u);
  EXPECT_EQ(zero.bytes_copied_cross_process, 0u);
  EXPECT_EQ(copy.bytes_copied_cross_process, (60u - 15u) * 4096u)
      << "copy mode pays one body copy per static response";
  EXPECT_EQ(copy.response_checksum, zero.response_checksum);
  EXPECT_TRUE(copy.byte_identical);
}

}  // namespace
