// Multi-process tests for the shared-memory data plane: the primitives
// exercised by real fork()ed processes, crash recovery, cross-mode byte
// identity of the full plane, and the out-of-process verification surface
// (fresh region attach + scripts/shm_inspect.py).
//
// Everything fork-based lives here (ctest labels "ipc;fork") so the TSan job
// can run ipc_structures_test without fork-under-sanitizer caveats.

#include <gtest/gtest.h>
#include <libgen.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "src/driver/process_tier.h"
#include "src/ipc/mpmc_queue.h"
#include "src/ipc/process_plane.h"
#include "src/ipc/shm_counters.h"
#include "src/ipc/shm_future.h"
#include "src/ipc/shm_map.h"
#include "src/ipc/shm_region.h"
#include "src/ipc/shm_table.h"

namespace {

using iolipc::MpmcQueue;
using iolipc::PlaneMode;
using iolipc::ShmFuturePool;
using iolipc::ShmMap;
using iolipc::ShmRegion;
using iolipc::ShmTable;
using iolipc::SliceDesc;
using iolipc::WorkerGroup;

bool HaveDevShm() { return access("/dev/shm", W_OK) == 0; }

uint64_t XorShift(uint64_t* s) {
  *s ^= *s << 13;
  *s ^= *s >> 7;
  *s ^= *s << 17;
  return *s;
}

// Shared scratch carved out of the region so forked workers can report back
// and claim a per-worker id. Must be trivially constructible from zeroes.
struct ForkScratch {
  std::atomic<uint32_t> ticket;   // Worker-id dispenser.
  std::atomic<uint64_t> popped;   // Items consumed so far.
  std::atomic<uint64_t> sum;      // Fold of consumed payloads.
};

ForkScratch* CarveScratch(ShmRegion* region) {
  auto* s = reinterpret_cast<ForkScratch*>(region->AllocateExtent(sizeof(ForkScratch)));
  std::memset(reinterpret_cast<void*>(s), 0, sizeof(*s));
  return s;
}

// --- Randomized MPMC property test across forked processes ------------------

TEST(ForkPlaneTest, MpmcQueueDeliversEveryItemExactlyOnceAcrossProcesses) {
  constexpr int kProducers = 2;
  constexpr int kConsumers = 2;  // 4 forked processes total.
  constexpr uint64_t kPerProducer = 20000;
  constexpr uint64_t kTotal = kProducers * kPerProducer;

  auto region = ShmRegion::Create(4u << 20);  // Anonymous: fork-shared.
  ASSERT_NE(region, nullptr);
  ShmTable table = ShmTable::Create(region.get(), 4);
  MpmcQueue q = MpmcQueue::Create(region.get(), &table, "q", 128);
  ASSERT_TRUE(q.valid());
  ForkScratch* scratch = CarveScratch(region.get());

  // Producers push pseudo-random payloads from per-producer deterministic
  // seeds; the parent recomputes the expected fold without sharing state.
  WorkerGroup producers;
  ASSERT_TRUE(producers.Launch(PlaneMode::kProcesses, kProducers, [&] {
    uint32_t id = scratch->ticket.fetch_add(1, std::memory_order_relaxed);
    uint64_t rng = 0x9e3779b97f4a7c15ull * (id + 1);
    for (uint64_t i = 0; i < kPerProducer; ++i) {
      SliceDesc d{};
      d.offset = XorShift(&rng);
      d.length = 1;
      while (!q.TryPush(d)) {
        sched_yield();
      }
    }
  }));
  WorkerGroup consumers;
  ASSERT_TRUE(consumers.Launch(PlaneMode::kProcesses, kConsumers, [&] {
    SliceDesc d;
    for (;;) {
      if (q.TryPop(&d)) {
        scratch->sum.fetch_add(d.offset, std::memory_order_relaxed);
        if (scratch->popped.fetch_add(1, std::memory_order_relaxed) + 1 == kTotal) {
          return;
        }
      } else if (scratch->popped.load(std::memory_order_relaxed) >= kTotal) {
        return;
      } else {
        sched_yield();
      }
    }
  }));
  EXPECT_EQ(producers.JoinAll(), 0);
  EXPECT_EQ(consumers.JoinAll(), 0);

  uint64_t expect = 0;
  for (int id = 0; id < kProducers; ++id) {
    uint64_t rng = 0x9e3779b97f4a7c15ull * (id + 1);
    for (uint64_t i = 0; i < kPerProducer; ++i) {
      expect += XorShift(&rng);
    }
  }
  EXPECT_EQ(scratch->popped.load(), kTotal);
  EXPECT_EQ(scratch->sum.load(), expect)
      << "every pushed payload consumed exactly once";
  SliceDesc leftover;
  EXPECT_FALSE(q.TryPop(&leftover));
}

// --- ShmMap torture across forked processes ---------------------------------

// A map value {key * 1024 + n, n}, n in [1, 1023]: a torn read breaks the
// relation.
SliceDesc MapValue(uint64_t key, uint64_t n) {
  SliceDesc v{};
  v.offset = key * 1024 + n;
  v.length = n;
  return v;
}

bool IntactMapValue(uint64_t key, const SliceDesc& v) {
  return v.length > 0 && v.length < 1024 && v.offset == key * 1024 + v.length;
}

// The plane's contract across processes: worker w is the one writer of the
// keys with key % W == w, and every worker pins, checks and unpins any key.
TEST(ForkPlaneTest, MapTortureAcrossProcessesKeepsAccountingConsistent) {
  constexpr int kWorkers = 3;
  constexpr int kOpsPerWorker = 20000;
  constexpr uint64_t kKeySpace = 48;  // A multiple of kWorkers.

  auto region = ShmRegion::Create(4u << 20);
  ASSERT_NE(region, nullptr);
  ShmTable table = ShmTable::Create(region.get(), 4);
  ShmMap map = ShmMap::Create(region.get(), &table, "m", 128);
  ASSERT_TRUE(map.valid());

  WorkerGroup workers;
  ASSERT_TRUE(workers.Launch(PlaneMode::kProcesses, kWorkers, [&](int w) {
    uint64_t rng = 0xda3e39cb94b95bdbull * (w + 1);
    for (int i = 0; i < kOpsPerWorker; ++i) {
      uint64_t r = XorShift(&rng);
      uint64_t key = r % kKeySpace;
      uint64_t own = key - key % kWorkers + w;
      switch ((r >> 32) % 4) {
        case 0:
          map.Upsert(own, MapValue(own, 1 + (r >> 40) % 1023));
          break;
        case 1:
          map.Erase(own);
          break;
        default: {
          SliceDesc out;
          if (map.LookupAndPin(key, &out)) {
            if (!IntactMapValue(key, out)) {
              _exit(7);  // Torn value observed: fail loudly from the child.
            }
            map.Unpin(key);
          }
          break;
        }
      }
    }
  }));
  EXPECT_EQ(workers.JoinAll(), 0) << "a child observed a torn map value";

  // Quiesced: header accounting must match a full rescan, no pins leaked.
  uint32_t live = 0;
  uint64_t bytes = 0;
  for (uint64_t key = 0; key < kKeySpace; ++key) {
    SliceDesc v;
    if (map.LookupAndPin(key, &v)) {
      ++live;
      bytes += v.length;
      EXPECT_TRUE(IntactMapValue(key, v)) << "key " << key;
      EXPECT_EQ(map.PinsOf(key), 1) << "leaked pin on key " << key;
      EXPECT_TRUE(map.Unpin(key));
    }
  }
  EXPECT_GT(live, 0u);
  EXPECT_EQ(map.size(), live);
  EXPECT_EQ(map.bytes(), bytes);
}

// --- Killed readers ------------------------------------------------------------

// Slots of `table`'s map `name` whose state word reads kBusy, read raw at
// their ABI offsets (the u32 state at offset 0 of each 64-byte slot, after
// the 64-byte header) the way scripts/shm_inspect.py reads them. No probe:
// a wedged slot is counted, never waited on.
int BusySlots(const ShmTable& table, const char* name) {
  uint64_t bytes = 0;
  const char* base = table.Locate(name, iolipc::ShmType::kMap, 64, &bytes);
  int busy = 0;
  for (uint64_t at = 64; at + 64 <= bytes; at += 64) {
    uint32_t state = 0;
    std::memcpy(&state, base + at, sizeof(state));
    busy += state == ShmMap::kBusy;
  }
  return busy;
}

// Readers SIGKILLed at random instants — mid-probe, mid-pin, holding a
// ledgered pin — must leave no slot kBusy, or the keys' one writer (here
// the parent) would wait on it forever. The supervisor's ledger sweep
// returns the pins a dead reader had recorded; a kill between LookupAndPin
// and PinLedger::Record, or between Clear and Unpin, leaks that one pin.
TEST(ForkPlaneTest, KilledReadersWedgeNoSlot) {
  constexpr int kReaders = 3;
  constexpr int kKills = 40;
  constexpr uint64_t kKeySpace = 16;

  auto region = ShmRegion::Create(4u << 20);
  ASSERT_NE(region, nullptr);
  ShmTable table = ShmTable::Create(region.get(), 4);
  ShmMap map = ShmMap::Create(region.get(), &table, "m", 32);
  iolipc::PinLedger ledger = iolipc::PinLedger::Create(region.get(), &table, "pins");
  ASSERT_TRUE(map.valid());
  ASSERT_TRUE(ledger.valid());
  struct ReaderScratch {
    std::atomic<uint32_t> stop;
    std::atomic<uint32_t> torn;  // Values that failed IntactMapValue.
  };
  auto* scratch = reinterpret_cast<ReaderScratch*>(region->AllocateExtent(sizeof(ReaderScratch)));
  std::memset(reinterpret_cast<void*>(scratch), 0, sizeof(*scratch));
  for (uint64_t key = 0; key < kKeySpace; ++key) {
    ASSERT_EQ(map.Upsert(key, MapValue(key, 1)), ShmMap::UpsertResult::kInserted);
  }

  WorkerGroup readers;
  bool wedged = false;
  uint64_t swept = 0;
  readers.set_on_death([&](int slot) {
    if (BusySlots(table, "m") > 0) {
      wedged = true;  // Sweeping would probe, and a probe would wait forever.
      return;
    }
    uint64_t t = ledger.Take(static_cast<uint32_t>(slot));
    if (t != 0) {
      EXPECT_TRUE(map.Unpin(t - 1));
      ++swept;
    }
  });
  ASSERT_TRUE(readers.Launch(PlaneMode::kProcesses, kReaders, [&](int slot) {
    uint64_t rng = 0x2545f4914f6cdd1dull * static_cast<uint64_t>(getpid());
    while (scratch->stop.load(std::memory_order_relaxed) == 0) {
      uint64_t key = XorShift(&rng) % kKeySpace;
      SliceDesc v;
      if (!map.LookupAndPin(key, &v)) {
        continue;
      }
      ledger.Record(static_cast<uint32_t>(slot), key);
      if (!IntactMapValue(key, v)) {
        scratch->torn.fetch_add(1, std::memory_order_relaxed);
      }
      ledger.Clear(static_cast<uint32_t>(slot));
      map.Unpin(key);
    }
  }));

  uint64_t rng = 0x5eed;
  int kills = 0;
  while (kills < kKills && !wedged) {
    // The parent writes every key: replacements, erases and re-inserts.
    for (uint64_t op = XorShift(&rng) % 64; op > 0; --op) {
      uint64_t r = XorShift(&rng);
      uint64_t key = r % kKeySpace;
      if ((r >> 32) % 4 == 0) {
        map.Erase(key);
      } else {
        map.Upsert(key, MapValue(key, 1 + (r >> 40) % 1023));
      }
    }
    usleep(static_cast<useconds_t>(XorShift(&rng) % 2000));
    pid_t victim = readers.pids()[XorShift(&rng) % kReaders];
    ASSERT_EQ(kill(victim, SIGKILL), 0);
    ++kills;
    while (readers.Poll() == 0) {  // Reap, sweep (on_death), respawn.
      sched_yield();
    }
  }
  scratch->stop.store(1, std::memory_order_relaxed);
  if (wedged) {
    for (pid_t pid : readers.pids()) {
      kill(pid, SIGKILL);  // Live readers may be waiting on the wedged slot.
    }
  }
  int abnormal = readers.JoinAll();
  ASSERT_FALSE(wedged) << "a reader killed by kill " << kills << " left a slot kBusy";
  EXPECT_EQ(abnormal, 0);
  EXPECT_EQ(readers.abnormal_exits(), static_cast<uint64_t>(kKills));
  EXPECT_EQ(readers.respawns(), static_cast<uint64_t>(kKills));
  EXPECT_EQ(scratch->torn.load(), 0u) << "torn values read";
  EXPECT_EQ(BusySlots(table, "m"), 0);

  // Each kill leaks at most the one pin its reader had not yet ledgered.
  uint64_t pinned = 0;
  uint32_t live = 0;
  for (uint64_t key = 0; key < kKeySpace; ++key) {
    int32_t pins = map.PinsOf(key);
    if (pins >= 0) {
      ++live;
      pinned += static_cast<uint64_t>(pins);
    }
  }
  EXPECT_LE(pinned, static_cast<uint64_t>(kKills)) << swept << " pins swept";
  EXPECT_EQ(map.size(), live);
}

// --- Crash recovery ----------------------------------------------------------

// A filler process takes the request and dies without completing. The
// waiter must time out, fail the future itself, and leave the slot cleanly
// reusable — no deadlock, no stuck kPending slot.
TEST(ForkPlaneTest, CrashedFillerResolvesTheFutureByTimeout) {
  auto region = ShmRegion::Create(4u << 20);
  ASSERT_NE(region, nullptr);
  ShmTable table = ShmTable::Create(region.get(), 8);
  MpmcQueue fill_q = MpmcQueue::Create(region.get(), &table, "fills", 8);
  ShmFuturePool futures = ShmFuturePool::Create(region.get(), &table, "f", 4);
  ASSERT_TRUE(fill_q.valid());
  ASSERT_TRUE(futures.valid());

  WorkerGroup crasher;
  ASSERT_TRUE(crasher.Launch(PlaneMode::kProcesses, 1, [&] {
    iolipc::ClientRequestMsg msg;
    while (!fill_q.PopAs(&msg)) {
      sched_yield();
    }
    _exit(1);  // Crash while holding the request.
  }));

  iolipc::FutureHandle h = futures.Acquire();
  ASSERT_NE(h, iolipc::kInvalidFuture);
  iolipc::ClientRequestMsg msg{};
  msg.file_id = 1;
  msg.future = h;
  ASSERT_TRUE(fill_q.PushAs(msg));

  ShmFuturePool::WaitResult r =
      futures.Wait(h, /*timeout_us=*/200'000, [] { sched_yield(); });
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(r.timed_out) << "the waiter itself failed the abandoned future";
  EXPECT_EQ(futures.CountInState(ShmFuturePool::kPending), 0u);
  futures.Release(h);
  EXPECT_EQ(futures.allocated(), 0u);
  // The slot is immediately reusable for the next request.
  iolipc::FutureHandle h2 = futures.Acquire();
  EXPECT_NE(h2, iolipc::kInvalidFuture);
  ASSERT_TRUE(futures.Fail(h2, 1));
  futures.Release(h2);

  EXPECT_EQ(crasher.JoinAll(), 1) << "exactly the one deliberate abnormal exit";
}

// A filler killed between claiming a future (kPending -> kWriting) and
// publishing it leaves the slot claimed for good. Its waiter must still
// time out, and Release must leave the slot allocated rather than free a
// slot the dead filler holds. The wait runs in a forked child under an
// alarm, so a waiter that spins forever fails the test instead of hanging
// it.
TEST(ForkPlaneTest, FillerKilledMidPublishTimesOutItsWaiter) {
  auto region = ShmRegion::Create(1u << 20);
  ASSERT_NE(region, nullptr);
  ShmTable table = ShmTable::Create(region.get(), 4);
  ShmFuturePool futures = ShmFuturePool::Create(region.get(), &table, "f", 4);
  ASSERT_TRUE(futures.valid());
  iolipc::FutureHandle h = futures.Acquire();
  ASSERT_NE(h, iolipc::kInvalidFuture);
  // The dead filler's claim, written at the ABI offsets: slot (h's low 32
  // bits) after the 64-byte pool header, 128 bytes a slot, state at +0.
  char* pool = table.Locate("f", iolipc::ShmType::kFutures, 64, nullptr);
  uint32_t writing = ShmFuturePool::kWriting;
  ASSERT_EQ(writing, 4u);
  std::memcpy(pool + 64 + (h & 0xffffffffu) * 128, &writing, sizeof(writing));

  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    alarm(5);
    ShmFuturePool::WaitResult r = futures.Wait(h, 100'000, [] { sched_yield(); });
    futures.Release(h);
    _exit(!r.ok && r.timed_out && futures.allocated() == 1 ? 0 : 3);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_FALSE(WIFSIGNALED(status)) << "the waiter spun until signal " << WTERMSIG(status);
  EXPECT_EQ(WEXITSTATUS(status), 0) << "the waiter did not time out, or freed the slot";
  EXPECT_EQ(futures.allocated(), 1u);
  EXPECT_EQ(futures.CountInState(ShmFuturePool::kWriting), 1u);
}

// A full plane whose origin fleet never answers (zero origin workers): every
// static miss must come back as an error within the client's timeout, the
// run must terminate, and the workers must exit cleanly.
TEST(ForkPlaneTest, PlaneWithNoOriginWorkersFailsRequestsInsteadOfHanging) {
  ioldrv::ProcessTierConfig cfg;
  cfg.mode = PlaneMode::kProcesses;
  cfg.region_name.clear();
  cfg.requests = 6;
  cfg.inflight = 2;
  cfg.docs.doc_count = 4;
  cfg.docs.doc_bytes = 4096;
  cfg.cgi_every = 0;
  cfg.proxy_workers = 2;
  cfg.origin_workers = 0;  // Nobody answers a miss: every future is orphaned.
  cfg.cgi_workers = 0;
  cfg.client_wait_us = 100'000;

  ioldrv::ProcessTierResult r = ioldrv::RunProcessTier(cfg);
  EXPECT_TRUE(r.ok) << "workers joined cleanly";
  EXPECT_EQ(r.requests, 0u);
  EXPECT_EQ(r.errors, 6u) << "every request resolved, all with errors";
  EXPECT_EQ(r.abnormal_worker_exits, 0);
}

// --- The real multi-process plane --------------------------------------------

TEST(ForkPlaneTest, ProcessesModeIsByteIdenticalWithZeroCrossProcessCopies) {
  ioldrv::ProcessTierConfig cfg;
  cfg.region_name = "iolite-test-ident";
  cfg.requests = 200;
  cfg.inflight = 8;
  cfg.docs.doc_count = 16;
  cfg.docs.doc_bytes = 12 * 1024;
  cfg.cgi_every = 5;
  cfg.cgi_body_bytes = 777;
  cfg.proxy_workers = 2;
  cfg.origin_workers = 1;
  cfg.cgi_workers = 1;

  cfg.mode = PlaneMode::kInProcess;
  ioldrv::ProcessTierResult sim = ioldrv::RunProcessTier(cfg);
  ASSERT_TRUE(sim.ok);
  ASSERT_EQ(sim.errors, 0u);
  ASSERT_TRUE(sim.byte_identical);

  cfg.mode = PlaneMode::kProcesses;
  ioldrv::ProcessTierResult proc = ioldrv::RunProcessTier(cfg);
  ASSERT_TRUE(proc.ok);
  EXPECT_EQ(proc.errors, 0u);
  EXPECT_EQ(proc.abnormal_worker_exits, 0);
  EXPECT_TRUE(proc.byte_identical) << "every response verified against the reference";
  EXPECT_EQ(proc.response_checksum, sim.response_checksum)
      << "forked processes serve the exact byte stream of the simulator";
  EXPECT_EQ(proc.requests, 200u);

  // The PR's central claim, checked from outside the serving processes: the
  // counters come from a fresh attach of the region by name when POSIX shm
  // is available, and the warm path copied zero payload bytes.
  EXPECT_EQ(proc.bytes_copied_cross_process, 0u);
  if (HaveDevShm()) {
    EXPECT_TRUE(proc.counters_out_of_process)
        << "counters must be read through a fresh attach, not in-place";
  }
  EXPECT_GT(proc.cache_hits, 0u);
  EXPECT_GT(proc.origin_fills, 0u);
  EXPECT_GT(proc.cgi_requests, 0u);
}

// --- Supervision: crash at the worst instant, recover, finish the run --------

TEST(ForkPlaneTest, SupervisorRespawnsDeadProxyAndSweepsItsPin) {
  ioldrv::ProcessTierConfig cfg;
  cfg.mode = PlaneMode::kProcesses;
  cfg.region_name.clear();
  cfg.requests = 160;
  cfg.inflight = 4;
  cfg.docs.doc_count = 8;
  cfg.docs.doc_bytes = 8 * 1024;
  cfg.cgi_every = 0;
  cfg.proxy_workers = 2;
  cfg.origin_workers = 1;
  cfg.cgi_workers = 0;
  cfg.supervise = true;
  // The proxy that takes the fleet's 5th pin _Exit(9)s on the spot: ledger
  // slot recorded, map pin held, client future unresolved — the worst
  // possible instant. Counted fleet-wide, so the crash fires whichever
  // proxy the shared client queue happens to feed.
  cfg.proxy_die_after_pins = 5;
  cfg.client_retries = 2;  // The orphaned request times out and is re-issued.
  cfg.client_wait_us = 500'000;

  ioldrv::ProcessTierResult r = ioldrv::RunProcessTier(cfg);
  ASSERT_TRUE(r.ok) << "final join clean despite the injected crash";
  EXPECT_GE(r.abnormal_worker_exits, 1);
  EXPECT_GE(r.worker_respawns, 1u) << "the dead slot was relaunched";
  EXPECT_GE(r.pins_swept, 1u) << "the crashed worker's ledgered pin was reclaimed";
  EXPECT_EQ(r.leaked_pins, 0u) << "no doc key still pinned after quiesce";
  EXPECT_EQ(r.requests + r.errors, 160u) << "every request resolved";
  EXPECT_GE(r.client_retries_used, 1u);
  EXPECT_EQ(r.errors, 0u) << "retries converted the crash into late successes";
  EXPECT_TRUE(r.byte_identical);
}

// --- Region lifecycle: sweeping segments left by dead processes --------------

TEST(ForkPlaneTest, SweepStaleReclaimsRegionsOfDeadOwnersOnly) {
  if (!HaveDevShm()) {
    GTEST_SKIP() << "no /dev/shm in this environment";
  }
  constexpr char kStaleName[] = "/iolite-test-sweep-victim";
  constexpr char kLiveName[] = "/iolite-test-sweep-live";
  ShmRegion::SweepStale("iolite-test-sweep");  // Clean slate.

  // A child creates a named region and dies without running destructors —
  // exactly the leak SweepStale exists for.
  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    auto leaked = ShmRegion::Create(1u << 20, kStaleName);
    _exit(leaked != nullptr && leaked->posix_shm_backed() ? 0 : 3);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  if (!WIFEXITED(status) || WEXITSTATUS(status) == 3) {
    GTEST_SKIP() << "POSIX shm not usable here; nothing to sweep";
  }
  ASSERT_EQ(WEXITSTATUS(status), 0);
  EXPECT_EQ(access("/dev/shm/iolite-test-sweep-victim", F_OK), 0)
      << "the child's segment outlived it";

  auto live = ShmRegion::Create(1u << 20, kLiveName);
  ASSERT_NE(live, nullptr);

  EXPECT_EQ(ShmRegion::SweepStale("iolite-test-sweep"), 1)
      << "exactly the dead owner's segment reclaimed";
  EXPECT_NE(access("/dev/shm/iolite-test-sweep-victim", F_OK), 0);
  EXPECT_EQ(access("/dev/shm/iolite-test-sweep-live", F_OK), 0)
      << "a live owner's segment must survive the sweep";
}

// --- The Python inspector ----------------------------------------------------

std::string InspectorPath() {
  char buf[4096];
  std::snprintf(buf, sizeof(buf), "%s", __FILE__);
  std::string dir = dirname(buf);
  std::string path = dir + "/../scripts/shm_inspect.py";
  return access(path.c_str(), R_OK) == 0 ? path : std::string();
}

TEST(ForkPlaneTest, ShmInspectDumpsALivePlaneFromOutside) {
  if (!HaveDevShm()) {
    GTEST_SKIP() << "no /dev/shm in this environment";
  }
  if (std::system("python3 -c pass >/dev/null 2>&1") != 0) {
    GTEST_SKIP() << "python3 unavailable";
  }
  std::string script = InspectorPath();
  if (script.empty()) {
    GTEST_SKIP() << "scripts/shm_inspect.py not found from " << __FILE__;
  }

  auto region = ShmRegion::Create(8u << 20, "/iolite-test-inspect");
  ASSERT_NE(region, nullptr);
  if (!region->posix_shm_backed()) {
    GTEST_SKIP() << "POSIX shm not usable here";
  }
  iolipc::PlaneConfig pc;
  pc.queue_capacity = 32;
  pc.map_capacity = 64;
  pc.future_capacity = 8;
  pc.header_slots = 8;
  pc.body_slots = 4;
  pc.body_slot_bytes = 4096;
  iolipc::PlaneShared plane = iolipc::CreatePlane(region.get(), pc, 1);
  ASSERT_TRUE(plane.valid());
  plane.counters.Add(iolipc::kBytesServed, 12345);
  plane.pin_ledger.Record(5, 4242);  // Worker slot 5 holds a pin on key 4242.
  SliceDesc v{};
  v.offset = 4096;
  v.length = 512;
  ASSERT_EQ(plane.cache_map.Upsert(7, v), ShmMap::UpsertResult::kInserted);

  std::string shm_name = region->name();
  if (!shm_name.empty() && shm_name.front() == '/') {
    shm_name.erase(0, 1);
  }
  std::string cmd = "python3 " + script + " " + shm_name + " 2>/dev/null";
  FILE* pipe = popen(cmd.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  std::string out;
  char chunk[512];
  while (fgets(chunk, sizeof(chunk), pipe) != nullptr) {
    out += chunk;
  }
  int rc = pclose(pipe);
  ASSERT_TRUE(WIFEXITED(rc)) << out;
  EXPECT_EQ(WEXITSTATUS(rc), 0) << out;

  // The inspector saw the directory and decoded the structures with nothing
  // but the ABI offsets.
  EXPECT_NE(out.find("plane.q.client"), std::string::npos) << out;
  EXPECT_NE(out.find("plane.q.origin.0"), std::string::npos) << out;
  EXPECT_NE(out.find("plane.map.cache"), std::string::npos) << out;
  EXPECT_NE(out.find("\"bytes_served\": 12345"), std::string::npos) << out;
  // The block names its own counters: every name comes from the region.
  for (uint32_t i = 0; i < iolipc::kCounterCount; ++i) {
    std::string key = std::string("\"") + iolipc::PlaneCounterName(i) + "\": ";
    EXPECT_NE(out.find(key), std::string::npos) << key << out;
  }
  EXPECT_NE(out.find("\"key\": 7"), std::string::npos) << out;
  EXPECT_NE(out.find("\"payload_length\": 512"), std::string::npos) << out;
  // The pin ledger, decoded slot -> key.
  EXPECT_NE(out.find("\"plane.pins\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"5\": 4242"), std::string::npos) << out;
}

}  // namespace
