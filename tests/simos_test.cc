// Unit tests for the simulated-OS substrate: clock, event queue, resources,
// cost model, memory accounting and the VM system.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <unordered_map>
#include <vector>

#include "src/simos/cost_model.h"
#include "src/simos/event_queue.h"
#include "src/simos/memory_model.h"
#include "src/simos/probe_table.h"
#include "src/simos/rng.h"
#include "src/simos/sim_context.h"
#include "src/simos/vm.h"

namespace {

using iolsim::CostModel;
using iolsim::CostParams;
using iolsim::EventQueue;
using iolsim::ChunkId;
using iolsim::DomainId;
using iolsim::kKernelDomain;
using iolsim::kMicrosecond;
using iolsim::kSecond;
using iolsim::MapState;
using iolsim::MemCategory;
using iolsim::MemoryModel;
using iolsim::Resource;
using iolsim::SimContext;
using iolsim::SimTime;
using iolsim::TrainHost;
using iolsim::VirtualClock;

TEST(VirtualClockTest, StartsAtZeroAndAdvances) {
  VirtualClock clock;
  EXPECT_EQ(clock.now(), 0);
  clock.Advance(100);
  EXPECT_EQ(clock.now(), 100);
  clock.Advance(-5);  // Negative deltas ignored.
  EXPECT_EQ(clock.now(), 100);
  clock.AdvanceTo(50);  // Backwards jumps ignored.
  EXPECT_EQ(clock.now(), 100);
  clock.AdvanceTo(500);
  EXPECT_EQ(clock.now(), 500);
}

TEST(EventQueueTest, DispatchesInTimeOrder) {
  VirtualClock clock;
  EventQueue q(&clock);
  std::vector<int> order;
  q.ScheduleAt(300, [&] { order.push_back(3); });
  q.ScheduleAt(100, [&] { order.push_back(1); });
  q.ScheduleAt(200, [&] { order.push_back(2); });
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(clock.now(), 300);
}

TEST(EventQueueTest, TiesBreakByInsertionOrder) {
  VirtualClock clock;
  EventQueue q(&clock);
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.ScheduleAt(42, [&order, i] { order.push_back(i); });
  }
  q.RunAll();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(EventQueueTest, ScheduledInPastRunsNow) {
  VirtualClock clock;
  clock.Advance(1000);
  EventQueue q(&clock);
  bool ran = false;
  q.ScheduleAt(10, [&] { ran = true; });
  q.RunOne();
  EXPECT_TRUE(ran);
  EXPECT_EQ(clock.now(), 1000);  // No time travel backwards.
}

TEST(EventQueueTest, RunUntilStopsAtDeadline) {
  VirtualClock clock;
  EventQueue q(&clock);
  int count = 0;
  for (SimTime t = 100; t <= 1000; t += 100) {
    q.ScheduleAt(t, [&] { ++count; });
  }
  // A train stepping every 30 from 430 crosses the deadline: one RunOne
  // runs several of its steps, and RunUntil counts every one of them.
  struct Train final : TrainHost {
    EventQueue* q;
    VirtualClock* clock;
    std::vector<SimTime> steps;
    uint32_t hint = UINT32_MAX;
    void TrainStep(uint32_t) override {
      steps.push_back(clock->now());
      q->ScheduleTrain(this, &hint, clock->now() + 30, this, 0);
    }
  } train;
  train.q = &q;
  train.clock = &clock;
  q.ScheduleTrain(&train, &train.hint, 430, &train, 0);
  uint64_t dispatched = q.RunUntil(500);
  EXPECT_EQ(dispatched, 5u + 3u);
  EXPECT_EQ(count, 5);
  EXPECT_EQ(train.steps, (std::vector<SimTime>{430, 460, 490}));
  EXPECT_EQ(clock.now(), 500);
  EXPECT_EQ(q.size(), 6u);  // Five timers and the step at 520.
}

TEST(EventQueueTest, EventsCanScheduleEvents) {
  VirtualClock clock;
  EventQueue q(&clock);
  int chain = 0;
  std::function<void()> step = [&] {
    if (++chain < 5) {
      q.ScheduleAfter(10, step);
    }
  };
  q.ScheduleAt(0, step);
  q.RunAll();
  EXPECT_EQ(chain, 5);
  EXPECT_EQ(clock.now(), 40);
}

TEST(ResourceTest, FifoQueueing) {
  VirtualClock clock;
  Resource r(&clock);
  // Two jobs back to back: the second queues behind the first.
  EXPECT_EQ(r.Acquire(100), 100);
  EXPECT_EQ(r.Acquire(50), 150);
  EXPECT_EQ(r.busy_time(), 150);
}

TEST(ResourceTest, AcquireAfterRespectsEarliestStart) {
  VirtualClock clock;
  Resource r(&clock);
  EXPECT_EQ(r.AcquireAfter(1000, 10), 1010);
  // Resource is busy until 1010, so an earlier-eligible job still queues.
  EXPECT_EQ(r.AcquireAfter(500, 10), 1020);
}

TEST(ResourceTest, IdleGapsDoNotAccumulate) {
  VirtualClock clock;
  Resource r(&clock);
  r.Acquire(100);
  clock.Advance(1000);
  // Starts at now (1000), not at 100.
  EXPECT_EQ(r.Acquire(10), 1010);
}

TEST(CostModelTest, CopyCostScalesLinearly) {
  CostModel cost;
  EXPECT_EQ(cost.CopyCost(0), 0);
  SimTime one_mb = cost.CopyCost(1 << 20);
  SimTime two_mb = cost.CopyCost(2 << 20);
  EXPECT_NEAR(static_cast<double>(two_mb), 2.0 * static_cast<double>(one_mb),
              static_cast<double>(one_mb) * 0.01);
  // 1 MB at the configured copy rate.
  EXPECT_NEAR(iolsim::ToSeconds(one_mb), (1 << 20) / cost.params().copy_bytes_per_sec, 1e-4);
}

TEST(CostModelTest, ChecksumCheaperThanCopy) {
  CostModel cost;
  EXPECT_LT(cost.ChecksumCost(100000), cost.CopyCost(100000));
}

TEST(CostModelTest, PacketCostCountsMssSegments) {
  CostModel cost;
  const CostParams& p = cost.params();
  EXPECT_EQ(cost.PacketProcessingCost(1), p.per_packet_cost);
  EXPECT_EQ(cost.PacketProcessingCost(p.mtu_bytes), p.per_packet_cost);
  EXPECT_EQ(cost.PacketProcessingCost(p.mtu_bytes + 1), 2 * p.per_packet_cost);
  EXPECT_EQ(cost.PacketProcessingCost(10 * p.mtu_bytes), 10 * p.per_packet_cost);
}

TEST(CostModelTest, WireTimeUsesAggregateNicRate) {
  CostParams p;
  p.nic_count = 5;
  p.nic_bits_per_sec = 100e6;
  p.wire_efficiency = 0.8;
  CostModel cost(p);
  // 400 Mb/s effective: 50 MB takes one second.
  EXPECT_NEAR(iolsim::ToSeconds(cost.WireTime(50 * 1000 * 1000)), 1.0, 0.01);
}

TEST(CostModelTest, DiskCostHasSeekAndTransfer) {
  CostModel cost;
  SimTime small = cost.DiskAccessCost(512);
  // Dominated by positioning.
  EXPECT_GT(small, 8 * kMicrosecond * 1000);
  // Large transfers are split into max-transfer pieces, each paying a seek.
  SimTime big = cost.DiskAccessCost(256 * 1024);
  EXPECT_GT(big, 4 * small / 2);
}

TEST(CostModelTest, PagesForRoundsUp) {
  CostModel cost;
  EXPECT_EQ(cost.PagesFor(1), 1);
  EXPECT_EQ(cost.PagesFor(4096), 1);
  EXPECT_EQ(cost.PagesFor(4097), 2);
  EXPECT_EQ(cost.PagesFor(0), 0);
}

TEST(MemoryModelTest, ReserveReleaseAndBudget) {
  MemoryModel mem(128ull << 20);
  EXPECT_EQ(mem.CacheBudget(), 128ull << 20);
  mem.Reserve(MemCategory::kKernel, 24ull << 20);
  mem.Reserve(MemCategory::kSocketSendBuffers, 4ull << 20);
  EXPECT_EQ(mem.used(), 28ull << 20);
  EXPECT_EQ(mem.CacheBudget(), 100ull << 20);
  mem.Release(MemCategory::kSocketSendBuffers, 4ull << 20);
  EXPECT_EQ(mem.CacheBudget(), 104ull << 20);
  EXPECT_EQ(mem.reservation(MemCategory::kKernel), 24ull << 20);
}

TEST(MemoryModelTest, SetReplacesReservation) {
  MemoryModel mem(1 << 20);
  mem.Set(MemCategory::kConnectionsSteady, 300);
  mem.Set(MemCategory::kServerProcesses, 50);
  mem.Set(MemCategory::kConnectionsSteady, 100);
  EXPECT_EQ(mem.reservation(MemCategory::kConnectionsSteady), 100u);
  EXPECT_EQ(mem.used(), 150u);
  mem.Set(MemCategory::kConnectionsSteady, 0);
  EXPECT_EQ(mem.used(), 50u);
}

TEST(MemoryModelTest, OvercommitYieldsZeroBudget) {
  MemoryModel mem(10 << 20);
  EXPECT_FALSE(mem.Reserve(MemCategory::kServerProcesses, 20 << 20));
  EXPECT_EQ(mem.CacheBudget(), 0u);
}

TEST(MemoryModelTest, ReleaseClampsAtZero) {
  MemoryModel mem(1 << 20);
  mem.Reserve(MemCategory::kKernel, 100);
  mem.Release(MemCategory::kKernel, 500);
  EXPECT_EQ(mem.reservation(MemCategory::kKernel), 0u);
  EXPECT_EQ(mem.used(), 0u);
  mem.Release(MemCategory::kIoliteWindow, 500);  // Never reserved: a no-op.
  EXPECT_EQ(mem.used(), 0u);
}

TEST(RngTest, DeterministicPerSeed) {
  iolsim::Rng a(42);
  iolsim::Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DoubleInUnitInterval) {
  iolsim::Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, LognormalPositive) {
  iolsim::Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GT(rng.NextLognormal(0.0, 1.4), 0.0);
  }
}

// --- VM system --------------------------------------------------------------

class VmTest : public ::testing::Test {
 protected:
  SimContext ctx_;
};

TEST_F(VmTest, KernelHasImplicitAccess) {
  iolsim::ChunkId c = ctx_.vm().AllocateChunk(iolsim::kKernelDomain);
  EXPECT_TRUE(ctx_.vm().CanRead(c, iolsim::kKernelDomain));
  EXPECT_TRUE(ctx_.vm().CanWrite(c, iolsim::kKernelDomain));
}

TEST_F(VmTest, OtherDomainsStartWithoutAccess) {
  iolsim::DomainId d = ctx_.vm().CreateDomain();
  iolsim::ChunkId c = ctx_.vm().AllocateChunk(iolsim::kKernelDomain);
  EXPECT_FALSE(ctx_.vm().CanRead(c, d));
  EXPECT_FALSE(ctx_.vm().CanWrite(c, d));
}

TEST_F(VmTest, EnsureReadableChargesOnlyFirstTime) {
  iolsim::DomainId d = ctx_.vm().CreateDomain();
  iolsim::ChunkId c = ctx_.vm().AllocateChunk(iolsim::kKernelDomain);
  SimTime before = ctx_.clock().now();
  EXPECT_TRUE(ctx_.vm().EnsureReadable(c, d));  // Cold: mapping work.
  SimTime cold = ctx_.clock().now() - before;
  EXPECT_GT(cold, 0);
  before = ctx_.clock().now();
  EXPECT_FALSE(ctx_.vm().EnsureReadable(c, d));  // Warm: mapping persists.
  EXPECT_EQ(ctx_.clock().now(), before);
  EXPECT_TRUE(ctx_.vm().CanRead(c, d));
}

TEST_F(VmTest, ProducerGetsWriteAccessOnAllocation) {
  iolsim::DomainId d = ctx_.vm().CreateDomain();
  iolsim::ChunkId c = ctx_.vm().AllocateChunk(d);
  EXPECT_TRUE(ctx_.vm().CanWrite(c, d));
  EXPECT_TRUE(ctx_.vm().CanRead(c, d));
}

TEST_F(VmTest, WriteToggleRevokesAndRestores) {
  iolsim::DomainId d = ctx_.vm().CreateDomain();
  iolsim::ChunkId c = ctx_.vm().AllocateChunk(d);
  ctx_.vm().SetWritable(c, d, false);
  EXPECT_FALSE(ctx_.vm().CanWrite(c, d));
  EXPECT_TRUE(ctx_.vm().CanRead(c, d));  // Read survives the seal.
  ctx_.vm().SetWritable(c, d, true);
  EXPECT_TRUE(ctx_.vm().CanWrite(c, d));
  EXPECT_EQ(ctx_.stats().page_protect_ops, 2u);
}

TEST_F(VmTest, KernelWriteToggleIsFree) {
  iolsim::ChunkId c = ctx_.vm().AllocateChunk(iolsim::kKernelDomain);
  SimTime before = ctx_.clock().now();
  ctx_.vm().SetWritable(c, iolsim::kKernelDomain, false);
  ctx_.vm().SetWritable(c, iolsim::kKernelDomain, true);
  EXPECT_EQ(ctx_.clock().now(), before);  // Trusted producer: permanent write.
  EXPECT_TRUE(ctx_.vm().CanWrite(c, iolsim::kKernelDomain));
}

TEST_F(VmTest, DestroyDomainDropsMappings) {
  iolsim::DomainId d = ctx_.vm().CreateDomain();
  iolsim::ChunkId c = ctx_.vm().AllocateChunk(iolsim::kKernelDomain);
  ctx_.vm().EnsureReadable(c, d);
  ctx_.vm().DestroyDomain(d);
  EXPECT_FALSE(ctx_.vm().CanRead(c, d));
}

TEST_F(VmTest, FreeChunkInvalidates) {
  iolsim::ChunkId c = ctx_.vm().AllocateChunk(iolsim::kKernelDomain);
  ctx_.vm().FreeChunk(c);
  EXPECT_FALSE(ctx_.vm().ChunkExists(c));
  EXPECT_FALSE(ctx_.vm().CanRead(c, iolsim::kKernelDomain));
}

TEST_F(VmTest, TallyModeAccumulatesInsteadOfAdvancing) {
  iolsim::Tally tally;
  iolsim::DomainId d = ctx_.vm().CreateDomain();
  iolsim::ChunkId c = ctx_.vm().AllocateChunk(iolsim::kKernelDomain);
  SimTime before = ctx_.clock().now();
  {
    iolsim::TallyScope scope(&ctx_, &tally);
    ctx_.vm().EnsureReadable(c, d);
  }
  EXPECT_EQ(ctx_.clock().now(), before);
  EXPECT_GT(tally.cpu, 0);
}

// The VM system's chunk table as it was: a hash map of chunks, each with a
// hash map of per-domain states, and the same charging rules, counted in
// three tallies.
class MapVmOracle {
 public:
  explicit MapVmOracle(int pages_per_chunk) : pages_(pages_per_chunk) {}

  ChunkId AllocateChunk(DomainId producer) {
    ChunkId id = next_chunk_++;
    std::unordered_map<DomainId, MapState>& m = chunks_[id];
    m[kKernelDomain] = MapState::kReadWrite;
    if (producer != kKernelDomain) {
      m[producer] = MapState::kReadWrite;
      pages_mapped += pages_;
    }
    chunk_map_ops++;
    return id;
  }
  void FreeChunk(ChunkId chunk) { chunks_.erase(chunk); }
  bool EnsureReadable(ChunkId chunk, DomainId domain) {
    MapState& state = chunks_.at(chunk)[domain];
    if (state != MapState::kUnmapped) {
      return false;
    }
    state = MapState::kReadOnly;
    pages_mapped += pages_;
    chunk_map_ops++;
    return true;
  }
  void SetWritable(ChunkId chunk, DomainId domain, bool writable) {
    if (domain == kKernelDomain) {
      return;
    }
    MapState& state = chunks_.at(chunk)[domain];
    MapState target = writable ? MapState::kReadWrite : MapState::kReadOnly;
    if (state == target) {
      return;
    }
    if (state == MapState::kUnmapped) {
      pages_mapped += pages_;
      chunk_map_ops++;
    } else {
      page_protect_ops++;
    }
    state = target;
  }
  void DestroyDomain(DomainId domain) {
    for (auto& [id, m] : chunks_) {
      m.erase(domain);
    }
  }
  bool ChunkExists(ChunkId chunk) const { return chunks_.count(chunk) > 0; }
  MapState StateOf(ChunkId chunk, DomainId domain) const {
    auto it = chunks_.find(chunk);
    if (it == chunks_.end()) {
      return MapState::kUnmapped;
    }
    auto mit = it->second.find(domain);
    return mit == it->second.end() ? MapState::kUnmapped : mit->second;
  }
  size_t live_chunks() const { return chunks_.size(); }
  ChunkId next_chunk() const { return next_chunk_; }
  const std::map<ChunkId, std::unordered_map<DomainId, MapState>>& chunks() const {
    return chunks_;
  }

  uint64_t pages_mapped = 0;
  uint64_t chunk_map_ops = 0;
  uint64_t page_protect_ops = 0;

 private:
  int pages_;
  ChunkId next_chunk_ = 1;
  std::map<ChunkId, std::unordered_map<DomainId, MapState>> chunks_;
};

// Random domain creation and destruction (the kernel's included), chunk
// allocation by any domain, frees, read grants and write toggles. After
// every operation each (chunk, domain) pair in range -- freed chunks, ids
// never handed out and -1 included -- reads the same state, access and
// existence from both, and the mapping counters agree.
TEST_F(VmTest, RandomStreamsMatchTheMapOracle) {
  const CostParams& p = ctx_.cost().params();
  MapVmOracle oracle(p.chunk_size / p.page_size);
  const iolsim::SimStats base = ctx_.stats();
  iolsim::Rng rng(7);
  DomainId max_domain = 0;
  for (int op = 0; op < 1500; ++op) {
    const uint64_t kind = rng.NextBelow(20);
    const DomainId domain = static_cast<DomainId>(rng.NextBelow(max_domain + 2));
    std::vector<ChunkId> live;
    for (const auto& [id, m] : oracle.chunks()) {
      live.push_back(id);
    }
    const ChunkId chunk = live.empty() ? iolsim::kInvalidChunk : live[rng.NextBelow(live.size())];
    if (max_domain == 0 || (kind < 1 && max_domain < 6)) {
      max_domain = ctx_.vm().CreateDomain();
    } else if (kind < 2) {
      ctx_.vm().DestroyDomain(domain);
      oracle.DestroyDomain(domain);
    } else if (live.empty() || (kind < 6 && live.size() < 12)) {
      const DomainId producer = std::min(domain, max_domain);
      ASSERT_EQ(ctx_.vm().AllocateChunk(producer), oracle.AllocateChunk(producer));
    } else if (kind < 7) {
      ctx_.vm().FreeChunk(chunk);
      oracle.FreeChunk(chunk);
    } else if (kind < 14) {
      ASSERT_EQ(ctx_.vm().EnsureReadable(chunk, domain), oracle.EnsureReadable(chunk, domain));
    } else {
      const bool writable = rng.NextBelow(2) == 0;
      ctx_.vm().SetWritable(chunk, domain, writable);
      oracle.SetWritable(chunk, domain, writable);
    }
    ASSERT_EQ(ctx_.vm().live_chunks(), oracle.live_chunks()) << "op " << op;
    ASSERT_EQ(ctx_.stats().pages_mapped - base.pages_mapped, oracle.pages_mapped);
    ASSERT_EQ(ctx_.stats().chunk_map_ops - base.chunk_map_ops, oracle.chunk_map_ops);
    ASSERT_EQ(ctx_.stats().page_protect_ops - base.page_protect_ops, oracle.page_protect_ops);
    for (ChunkId c = -1; c <= oracle.next_chunk(); ++c) {
      ASSERT_EQ(ctx_.vm().ChunkExists(c), oracle.ChunkExists(c)) << "op " << op << " chunk " << c;
      for (DomainId d = -1; d <= max_domain + 1; ++d) {
        const MapState want = oracle.StateOf(c, d);
        ASSERT_EQ(ctx_.vm().StateOf(c, d), want) << "op " << op << " chunk " << c << " domain " << d;
        const bool exists = oracle.ChunkExists(c);
        ASSERT_EQ(ctx_.vm().CanRead(c, d),
                  d == kKernelDomain ? exists : want != MapState::kUnmapped);
        ASSERT_EQ(ctx_.vm().CanWrite(c, d), d == kKernelDomain ? exists : want == MapState::kReadWrite);
      }
    }
  }
}

// --- ProbeTable: the index under the checksum and file caches --------------

// A seeded insert/erase stream against std::unordered_map. The hash sends
// every key home to one of the array's last eight slots, so probe runs are
// long and wrap the array's end, and the stream's population crosses
// several doublings. Every key of the universe is looked up after every
// operation.
TEST(ProbeTableTest, MatchesAnUnorderedMapUnderAPoorHash) {
  struct Item {
    uint32_t key = 0;
    uint64_t value = 0;
  };
  auto poor_hash = [](uint32_t key) { return UINT32_MAX - key % 8; };
  constexpr uint32_t kKeys = 160;
  iolsim::ProbeTable<Item> table;
  std::unordered_map<uint32_t, uint64_t> oracle;
  iolsim::Rng rng(34);
  size_t growths = 0;
  size_t most = 0;
  for (int op = 0; op < 3000; ++op) {
    // Fill for the first third, drain for the second, churn after.
    const uint64_t insert_odds = op < 1000 ? 8 : op < 2000 ? 2 : 5;
    const uint32_t key = static_cast<uint32_t>(rng.NextBelow(kKeys));
    auto holds = [key](const Item& item) { return item.key == key; };
    const uint32_t pos = table.Find(poor_hash(key), holds);
    if (rng.NextBelow(10) < insert_odds) {
      const uint64_t value = rng.Next();
      if (pos == table.kNone) {
        const size_t before = table.capacity();
        table.Insert(poor_hash(key), Item{key, value});
        growths += table.capacity() != before;
      } else {
        table.at(pos).value = value;
      }
      oracle[key] = value;
    } else if (pos != table.kNone) {
      table.Erase(pos);
      oracle.erase(key);
    }
    ASSERT_EQ(table.size(), oracle.size()) << "op " << op;
    ASSERT_LE(2 * table.size(), table.capacity()) << "op " << op;
    most = std::max(most, table.size());
    for (uint32_t k = 0; k < kKeys; ++k) {
      const uint32_t at = table.Find(poor_hash(k), [k](const Item& item) { return item.key == k; });
      auto it = oracle.find(k);
      ASSERT_EQ(at != table.kNone, it != oracle.end()) << "op " << op << " key " << k;
      if (at != table.kNone) {
        ASSERT_EQ(table.at(at).value, it->second) << "op " << op << " key " << k;
      }
    }
  }
  EXPECT_GE(growths, 3u);
  EXPECT_GT(most, 64u) << "runs from eight homes must wrap the array";
  table.Clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.Find(poor_hash(1), [](const Item&) { return true; }), table.kNone);
}

}  // namespace
