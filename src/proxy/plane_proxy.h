// The data plane's worker roles: proxy, origin and CGI, each written once
// and runnable three ways.
//
// Every role is a Step() that processes at most one message plus a Run()
// loop around it. The YieldFn a role polls with decides the execution
// shape: sched_yield makes it a real concurrent worker (forked process or
// thread); "run the other roles one step" makes the identical code a
// deterministic single-threaded simulator — which is how the in-process
// baseline of the A/B comparison is produced, and why byte-identity across
// modes is a meaningful check of the plane rather than of two separate
// implementations.
//
// Topology (descriptors flow along the arrows; payload never moves):
//
//   client --ClientRequestMsg--> proxy --hit-----------------------------+
//     ^                            |--miss, same msg--> origin (id % O) --+
//     |                            +--dynamic, same msg--> CGI -----------+
//     +<--------- response future, completed by its producer -------------+
//
// Whichever worker produces a response completes the client's future
// itself, through one Respond: the proxy on a hit, the key's home origin on
// a miss, the CGI worker for a dynamic request. The proxy is a router that
// never waits on another worker.
//
// The origin worker is where the unified cache goes multi-process: it runs
// a replica SimFileSystem + FileCache whose buffers are carved from the
// shared region, with a ShmCacheMirror projecting every cache entry into
// plane.map.cache. A proxy sends each miss to the key's home origin
// (PlaneShared::home_queue), so each document is filled, cached and
// published by one origin only: the map's entry for a key has one writer,
// as IO-Lite's unified cache keeps one copy of each file. SimFileSystem
// content is a pure function of (file id, offset), and file ids are
// assigned sequentially from 1, so a replica created with the same
// PlaneDocSet generates byte-identical content to the driver's reference
// system — no content ever crosses the fork.

#ifndef SRC_PROXY_PLANE_PROXY_H_
#define SRC_PROXY_PLANE_PROXY_H_

#include <cstdint>
#include <memory>

#include "src/fs/file_cache.h"
#include "src/fs/file_io.h"
#include "src/fs/sim_file_system.h"
#include "src/iolite/buffer_pool.h"
#include "src/ipc/process_plane.h"
#include "src/ipc/shm_cache_mirror.h"
#include "src/simos/sim_context.h"

namespace iolproxy {

// The document population: `doc_count` files of `doc_bytes` each, created
// in name order so ids are 1..doc_count in every replica.
struct PlaneDocSet {
  int doc_count = 32;
  uint64_t doc_bytes = 16384;
};

// Deterministic dynamic-content generator shared by the CGI worker and the
// driver's verifier (the CGI analogue of SimFileSystem::ContentByteAt).
inline uint8_t CgiByteAt(uint64_t request_key, uint64_t i) {
  uint64_t x = request_key * 0x9e3779b97f4a7c15ull + i * 0xbf58476d1ce4e5b9ull;
  x ^= x >> 29;
  return static_cast<uint8_t>(x * 0x94d049bb133111ebull >> 56);
}

// Future error codes the plane reports (ShmFuturePool reserves 1 = stale
// handle, 2 = wait timeout).
constexpr uint32_t kPlaneErrNoFile = 10;
constexpr uint32_t kPlaneErrUnshareable = 11;

// --- Origin -----------------------------------------------------------------

// Serves the misses of the keys it is home to: reads the file through its
// replica unified cache (region-backed buffers, metadata mirrored to
// plane.map.cache), pins the entry on behalf of the client and answers the
// client's future with the pinned descriptor.
class OriginWorker {
 public:
  // `origin` indexes PlaneShared::origin_qs: the worker pops only that
  // queue. `copy_data_path`: see ProxyWorker. `cache_budget_bytes` = 0
  // disables budget enforcement. `pin_slot` is the worker's PinLedger slot
  // (kNoPinSlot = unledgered); supervised workers get one so a crash
  // between pin and hand-off can be swept.
  OriginWorker(iolipc::PlaneShared* shared, const PlaneDocSet& docs, int origin,
               bool copy_data_path, uint64_t cache_budget_bytes,
               uint32_t pin_slot = iolipc::kNoPinSlot);

  // Serves one miss; false when its plane.q.origin.<o> yielded nothing.
  // `yield` is polled while waiting for a free slab slot.
  bool Step(const iolipc::YieldFn& yield);

  // Until its queue is closed and drained.
  void Run(const iolipc::YieldFn& idle);

  iolfs::FileCache& cache() { return cache_; }

 private:
  iolipc::PlaneShared* s_;
  iolipc::MpmcQueue* misses_;
  bool copy_data_path_;
  uint64_t budget_;
  iolsim::SimContext ctx_;
  iolite::BufferPool pool_;  // Region-backed: every fill is region-resident.
  iolfs::SimFileSystem fs_;
  iolfs::FileCache cache_;
  iolfs::FileIoService io_;
  iolipc::ShmCacheMirror mirror_;
  uint32_t pin_slot_;
};

// --- CGI --------------------------------------------------------------------

// Serves dynamic requests: writes the body into a body slab slot and answers
// the client's future directly — the response flows CGI -> client without
// re-entering the proxy, the co-located IOL-IPC shape taken cross-process.
class CgiWorker {
 public:
  CgiWorker(iolipc::PlaneShared* shared, uint64_t body_bytes);

  // Serves one dynamic request; false when plane.q.cgi yielded nothing.
  // `yield` is polled while waiting for a free slab slot.
  bool Step(const iolipc::YieldFn& yield);

  void Run(const iolipc::YieldFn& idle);

 private:
  iolipc::PlaneShared* s_;
  uint64_t body_bytes_;
};

// --- Proxy ------------------------------------------------------------------

// The front tier: pops client requests, answers static hits from the
// shared cache map (warm path: pin + header build, zero payload bytes
// touched), and passes each miss on to the key's home origin and each
// dynamic request to the CGI queue. With `copy_data_path` every static
// response degenerates to a memcpy into a body slab slot — the measured
// contrast that shows what the descriptor discipline saves.
class ProxyWorker {
 public:
  // `pin_slot`: see OriginWorker — the proxy holds a transient pin on the
  // warm path (LookupAndPin -> Complete).
  // `die_after_pins`: deterministic fault injection for supervision tests —
  // the worker _Exit(9)s if it takes the fleet's Nth hit pin (counted across
  // all proxies in kProxyPins), i.e. at the exact point where it holds a
  // ledgered pin and nothing else (no queue mid-state, no lock), so the
  // supervisor's sweep is the only thing standing between the crash and a
  // permanently wedged cache entry. Counting fleet-wide makes the crash
  // independent of which proxy the shared client queue favours: exactly
  // one armed proxy takes the Nth pin. 0 = never.
  ProxyWorker(iolipc::PlaneShared* shared, bool copy_data_path,
              uint32_t pin_slot = iolipc::kNoPinSlot, uint32_t die_after_pins = 0);

  // Takes one client request: answers a hit, or passes the request on;
  // false when plane.q.client yielded nothing. `yield` is polled while
  // waiting for a free slab slot or queue cell.
  bool Step(const iolipc::YieldFn& yield);

  void Run(const iolipc::YieldFn& yield);

 private:
  // Ledgers the pin, then dies if the injection count just came up.
  void RecordPin(uint64_t ticket);

  iolipc::PlaneShared* s_;
  bool copy_data_path_;
  uint32_t pin_slot_;
  uint32_t die_after_pins_;
};

}  // namespace iolproxy

#endif  // SRC_PROXY_PLANE_PROXY_H_
