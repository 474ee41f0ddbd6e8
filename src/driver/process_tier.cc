#include "src/driver/process_tier.h"

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <deque>
#include <optional>
#include <vector>

#include "src/driver/response_fold.h"
#include "src/fs/sim_file_system.h"
#include "src/httpd/response_header.h"
#include "src/iolite/buffer_pool.h"
#include "src/simos/sim_context.h"
#include "src/simos/vm.h"

namespace ioldrv {

namespace {

using iolipc::SliceDesc;

double NowMs() {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
}

uint32_t PowTwoAtLeast(uint32_t n) {
  uint32_t p = 2;
  while (p < n) {
    p <<= 1;
  }
  return p;
}

// Origin queues the plane gets: one per origin worker, and one even with
// no origin worker, so that misses are queued and time out at the client
// instead of failing to queue.
int OriginQueues(const ProcessTierConfig& cfg) { return std::max(cfg.origin_workers, 1); }

// The floor of the region's size; workloads that need more get more.
constexpr size_t kMinRegionBytes = 32u << 20;

// Tailors slab/future capacities to the workload so no resource can
// deadlock the plane (slots are returned only by the client, so every
// bound must cover the inflight window plus the hands of every worker that
// responds: proxies, origins and CGI), and the directory to the plane's 10
// structures plus its origin queues.
iolipc::PlaneConfig TailorPlane(const ProcessTierConfig& cfg) {
  iolipc::PlaneConfig pc;
  pc.table_capacity =
      std::max(pc.table_capacity, static_cast<uint32_t>(10 + OriginQueues(cfg)));
  uint32_t window = static_cast<uint32_t>(cfg.inflight);
  uint32_t hands = static_cast<uint32_t>(cfg.proxy_workers + cfg.origin_workers +
                                         cfg.cgi_workers + 2);
  pc.future_capacity = std::max(pc.future_capacity, window + hands + 4);
  pc.header_slots = std::max(pc.header_slots, window + hands);
  pc.body_slots = std::max(pc.body_slots, window + hands);
  pc.body_slot_bytes = std::max<uint32_t>(
      pc.body_slot_bytes, static_cast<uint32_t>(std::max(cfg.docs.doc_bytes, cfg.cgi_body_bytes)));
  pc.map_capacity =
      std::max(pc.map_capacity, PowTwoAtLeast(static_cast<uint32_t>(cfg.docs.doc_count) * 4));
  pc.queue_capacity = std::max(pc.queue_capacity, PowTwoAtLeast(window * 4));
  return pc;
}

struct Pending {
  iolipc::FutureHandle h;
  uint64_t file_id;
  iolipc::RequestKind kind;
};

double SelfCpuSeconds() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return iolipc::CpuSecondsOf(ru);
}

}  // namespace

ProcessTierResult RunProcessTier(const ProcessTierConfig& cfg) {
  ProcessTierResult result;

  // Reclaim segments leaked by crashed prior runs, then build the region.
  std::string shm_name;
  if (!cfg.region_name.empty()) {
    iolipc::ShmRegion::SweepStale(cfg.region_name);
    shm_name = "/" + cfg.region_name + "." + std::to_string(getpid());
  }
  iolipc::PlaneConfig pc = TailorPlane(cfg);
  // Size the region from the workload: structures + slabs + fill payload.
  // Each document is cached by its home origin only, so the origins hold
  // one copy of the set between them; the payload share is x8 that, the
  // headroom for budgeted re-fills and pool chunking.
  uint64_t structures =
      64 * 1024 +
      static_cast<uint64_t>(4 + OriginQueues(cfg)) *
          (256 + static_cast<uint64_t>(pc.queue_capacity) * 64) +
      static_cast<uint64_t>(pc.map_capacity) * 64 +
      static_cast<uint64_t>(pc.future_capacity) * 128;
  uint64_t slabs = static_cast<uint64_t>(pc.header_slots) * iolipc::kHeaderSlotBytes +
                   static_cast<uint64_t>(pc.body_slots) * pc.body_slot_bytes;
  uint64_t payload = static_cast<uint64_t>(cfg.docs.doc_count) * cfg.docs.doc_bytes * 8;
  size_t region_bytes =
      std::max<size_t>(kMinRegionBytes, structures + slabs + payload + (1u << 20));
  std::unique_ptr<iolipc::ShmRegion> region =
      iolipc::ShmRegion::Create(region_bytes, shm_name);
  if (region == nullptr) {
    return result;
  }
  iolipc::PlaneShared s = iolipc::CreatePlane(region.get(), pc, OriginQueues(cfg));
  if (!s.valid()) {
    return result;
  }

  // Independent reference system for verification: same doc population,
  // heap-backed, never touches the plane.
  iolsim::SimContext ref_ctx;
  iolite::BufferPool ref_pool(&ref_ctx, "ref", iolsim::kKernelDomain);
  iolfs::SimFileSystem ref_fs(&ref_ctx, &ref_pool);
  {
    char name[32];
    for (int i = 0; i < cfg.docs.doc_count; ++i) {
      std::snprintf(name, sizeof(name), "doc-%05d", i);
      ref_fs.CreateFile(name, cfg.docs.doc_bytes);
    }
  }

  // The queues of the workers behind the proxies: every origin's and CGI's.
  auto close_worker_queues = [&s] {
    for (iolipc::MpmcQueue& q : s.origin_qs) {
      q.Close();
    }
    s.cgi_q.Close();
  };

  // Launch the fleet (no-op for the in-process pump). Worker bodies take
  // their slot id so supervision can respawn into the same PinLedger slot:
  // proxies occupy ledger slots [0, P), origins [P, P+O).
  iolipc::WorkerGroup proxies;
  iolipc::WorkerGroup origins;
  iolipc::WorkerGroup cgis;
  // Pin-crash injection arms every first-generation proxy; whichever takes
  // the fleet's Nth hit pin dies. Forked children inherit the flag's value at
  // fork time, and the parent disarms it right after the initial Launch, so
  // supervisor respawns come up healthy. kProcesses only: a thread _Exit
  // would take the whole harness down with it.
  bool proxy_die_armed =
      cfg.mode == iolipc::PlaneMode::kProcesses && cfg.proxy_die_after_pins > 0;
  if (cfg.mode != iolipc::PlaneMode::kInProcess) {
    bool launched =
        proxies.Launch(cfg.mode, cfg.proxy_workers,
                       [&](int slot) {
                         uint32_t die = proxy_die_armed
                             ? static_cast<uint32_t>(cfg.proxy_die_after_pins)
                             : 0;
                         iolproxy::ProxyWorker w(&s, cfg.copy_data_path,
                                                 static_cast<uint32_t>(slot), die);
                         w.Run();
                       }) &&
        origins.Launch(cfg.mode, cfg.origin_workers,
                       [&](int slot) {
                         iolproxy::OriginWorker w(
                             &s, cfg.docs, slot, cfg.copy_data_path, cfg.origin_cache_budget,
                             static_cast<uint32_t>(cfg.proxy_workers + slot));
                         w.Run();
                       }) &&
        cgis.Launch(cfg.mode, cfg.cgi_workers, [&] {
          iolproxy::CgiWorker w(&s, cfg.cgi_body_bytes);
          w.Run();
        });
    if (!launched) {
      s.client_q.Close();
      close_worker_queues();
      proxies.JoinAll();
      origins.JoinAll();
      cgis.JoinAll();
      return result;
    }
    if (proxy_die_armed) {
      proxy_die_armed = false;  // Initial forks done: respawns spawn healthy.
    }
    // Arm the death hooks: count the abnormal exit and sweep the dead
    // worker's transient pin before its replacement is spawned. CGI workers
    // take no pins; their slots lie past the ledger, where Take finds none.
    auto arm_sweep = [&s](iolipc::WorkerGroup* g, int slot_base) {
      g->set_on_death([&s, slot_base](int i) {
        s.counters.Add(iolipc::kWorkerAbnormalExits, 1);
        uint64_t t = s.pin_ledger.Take(static_cast<uint32_t>(slot_base + i));
        if (t != 0) {
          s.cache_map.Unpin(t - 1);
          s.counters.Add(iolipc::kPinsSwept, 1);
        }
      });
    };
    arm_sweep(&proxies, 0);
    arm_sweep(&origins, cfg.proxy_workers);
    arm_sweep(&cgis, iolipc::kPinLedgerSlots);
  }

  const bool supervising =
      cfg.supervise && cfg.mode == iolipc::PlaneMode::kProcesses;
  auto supervise_poll = [&] {
    if (!supervising) {
      return;
    }
    int n = proxies.Poll() + origins.Poll() + cgis.Poll();
    if (n > 0) {
      s.counters.Add(iolipc::kWorkerRespawns, static_cast<uint64_t>(n));
    }
  };

  // In-process pump: one proxy, one origin per origin queue and one CGI,
  // yielded into each other. Elsewhere the client waits by the plane's
  // wait policy (an empty YieldFn): it parks on its response futures.
  std::optional<iolproxy::ProxyWorker> pump_proxy;
  std::deque<iolproxy::OriginWorker> pump_origins;
  std::optional<iolproxy::CgiWorker> pump_cgi;
  iolipc::YieldFn client_yield;
  if (cfg.mode == iolipc::PlaneMode::kInProcess) {
    pump_proxy.emplace(&s, cfg.copy_data_path);
    for (int o = 0; o < OriginQueues(cfg); ++o) {
      pump_origins.emplace_back(&s, cfg.docs, o, cfg.copy_data_path, cfg.origin_cache_budget);
    }
    pump_cgi.emplace(&s, cfg.cgi_body_bytes);
    // Origins and CGI wait on nothing but a free slab slot, which TailorPlane
    // guarantees them, so they are stepped with no YieldFn.
    iolipc::YieldFn pump_oc = [&] {
      for (iolproxy::OriginWorker& o : pump_origins) {
        o.Step({});
      }
      pump_cgi->Step({});
    };
    client_yield = [&, pump_oc] {
      pump_proxy->Step(pump_oc);
      pump_oc();
    };
  }

  // The client: submit with a bounded window, collect in submission order.
  std::deque<Pending> window;
  uint64_t checksum = kFnvOffset;
  ResponseFoldCache fold;
  char expect_hdr[iolhttp::kResponseHeaderBytes];
  std::vector<char> expect_body(std::max(cfg.docs.doc_bytes, cfg.cgi_body_bytes));

  auto submit = [&](Pending* p) {
    iolipc::FutureHandle h;
    while ((h = s.futures.Acquire()) == iolipc::kInvalidFuture) {
      iolipc::Backoff(client_yield);
    }
    p->h = h;
    iolipc::ClientRequestMsg msg{p->file_id, h, static_cast<uint32_t>(p->kind),
                                 0, 0};
    while (!s.client_q.PushAs(msg)) {
      iolipc::Backoff(client_yield);
    }
  };

  auto collect_one = [&] {
    Pending p = window.front();
    window.pop_front();
    iolipc::ShmFuturePool::WaitResult r;
    int tries = 0;
    for (;;) {
      r = s.futures.Wait(p.h, cfg.client_wait_us, client_yield);
      s.futures.Release(p.h);
      if (r.ok || tries >= cfg.client_retries) {
        break;
      }
      // Recovery: reap (and respawn) whoever died holding this request,
      // then re-submit the same file id on a fresh future.
      ++tries;
      ++result.client_retries_used;
      supervise_poll();
      submit(&p);
    }
    if (!r.ok) {
      ++result.errors;
      return;
    }
    const SliceDesc& hd = r.value[0];
    const SliceDesc& bd = r.value[1];
    const char* hbytes = region->At(hd.offset);
    const char* bbytes = region->At(bd.offset);
    checksum = fold.Fold(checksum, hbytes, hd.length);
    checksum = fold.Fold(checksum, bbytes, bd.length);
    uint64_t expect_len = p.kind == iolipc::RequestKind::kCgi ? cfg.cgi_body_bytes
                                                              : cfg.docs.doc_bytes;
    if (hd.length != iolhttp::kResponseHeaderBytes || bd.length != expect_len) {
      result.byte_identical = false;
    } else if (cfg.verify) {
      iolhttp::BuildResponseHeader(expect_hdr, expect_len);
      if (std::memcmp(hbytes, expect_hdr, sizeof(expect_hdr)) != 0) {
        result.byte_identical = false;
      }
      if (p.kind == iolipc::RequestKind::kCgi) {
        for (uint64_t j = 0; j < expect_len; ++j) {
          expect_body[j] = static_cast<char>(iolproxy::CgiByteAt(p.file_id, j));
        }
      } else {
        ref_fs.ReadContent(static_cast<iolfs::FileId>(p.file_id), 0, expect_body.data(),
                           expect_len);
      }
      if (std::memcmp(bbytes, expect_body.data(), expect_len) != 0) {
        result.byte_identical = false;
      }
    }
    iolipc::ReturnResponse(&s, hd, bd);  // Hand every resource back to the plane.
    ++result.requests;
  };

  double t0 = NowMs();
  double cpu0 = SelfCpuSeconds();
  uint64_t rng = 0x853c49e6748fea9bull;  // Deterministic id stream, all modes.
  for (int i = 0; i < cfg.requests; ++i) {
    supervise_poll();
    bool cgi = cfg.cgi_every > 0 && (i % cfg.cgi_every) == cfg.cgi_every - 1;
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    uint64_t file_id =
        cgi ? 1000000ull + static_cast<uint64_t>(i)
            : 1 + (rng % static_cast<uint64_t>(cfg.docs.doc_count));
    Pending p{iolipc::kInvalidFuture, file_id,
              cgi ? iolipc::RequestKind::kCgi : iolipc::RequestKind::kStatic};
    submit(&p);
    window.push_back(p);
    if (static_cast<int>(window.size()) >= cfg.inflight) {
      collect_one();
    }
  }
  while (!window.empty()) {
    collect_one();
  }
  result.wall_ms = NowMs() - t0;
  double client_cpu_s = SelfCpuSeconds() - cpu0;

  // Quiesce the fleet in pipeline order. Join-time abnormal exits are kept
  // apart from supervised ones: `ok` means the *final* join was clean.
  int join_abnormal = 0;
  s.client_q.Close();
  join_abnormal += proxies.JoinAll();
  close_worker_queues();
  join_abnormal += origins.JoinAll();
  join_abnormal += cgis.JoinAll();
  if (join_abnormal > 0) {
    s.counters.Add(iolipc::kWorkerAbnormalExits,
                   static_cast<uint64_t>(join_abnormal));
  }
  result.abnormal_worker_exits =
      join_abnormal + static_cast<int>(proxies.abnormal_exits() +
                                       origins.abnormal_exits() +
                                       cgis.abnormal_exits());
  result.worker_respawns =
      proxies.respawns() + origins.respawns() + cgis.respawns();
  if (cfg.mode == iolipc::PlaneMode::kProcesses) {
    result.client_cpu_s = client_cpu_s;
    result.proxy_cpu_s = proxies.cpu_seconds();
    result.origin_cpu_s = origins.cpu_seconds();
    result.cgi_cpu_s = cgis.cpu_seconds();
  }
  // Post-quiesce pin audit over the doc keys: every pin was either unpinned
  // by its consumer or swept by the supervisor.
  for (int i = 1; i <= cfg.docs.doc_count; ++i) {
    int32_t pins = s.cache_map.PinsOf(static_cast<uint64_t>(i));
    if (pins > 0) {
      result.leaked_pins += static_cast<uint64_t>(pins);
    }
  }

  // Read the warm-path counters — through a fresh attach-by-name when the
  // region supports it, i.e. the way an unrelated process would.
  auto fill_counters = [&result](iolipc::ShmCounters& c) {
    result.bytes_served = c.Get(iolipc::kBytesServed);
    result.bytes_copied_cross_process = c.Get(iolipc::kBytesCopiedCrossProcess);
    result.cache_hits = c.Get(iolipc::kCacheHits);
    result.cache_misses = c.Get(iolipc::kCacheMisses);
    result.origin_fills = c.Get(iolipc::kOriginFills);
    result.cgi_requests = c.Get(iolipc::kCgiRequests);
    result.future_errors = c.Get(iolipc::kFutureErrors);
    result.pins_swept = c.Get(iolipc::kPinsSwept);
  };
  if (region->posix_shm_backed()) {
    std::unique_ptr<iolipc::ShmRegion> fresh = iolipc::ShmRegion::Attach(region->name());
    if (fresh != nullptr) {
      iolipc::PlaneShared v = iolipc::AttachPlane(fresh.get());
      if (v.valid()) {
        fill_counters(v.counters);
        result.counters_out_of_process = true;
      }
    }
  }
  if (!result.counters_out_of_process) {
    fill_counters(s.counters);
  }

  result.response_checksum = checksum;
  double wall_s = result.wall_ms > 0 ? result.wall_ms / 1e3 : 1e-9;
  result.requests_per_sec = static_cast<double>(result.requests) / wall_s;
  result.mbits_per_sec = static_cast<double>(result.bytes_served) * 8.0 / 1e6 / wall_s;
  result.ok = join_abnormal == 0;
  return result;
}

}  // namespace ioldrv
