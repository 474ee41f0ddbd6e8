// The shared-memory data plane: everything proxy, origin and CGI workers
// need to cooperate across process boundaries, assembled from the src/ipc
// primitives and discoverable through the ShmTable by name alone.
//
// One region holds (names as published in the directory):
//
//   plane.q.client    MpmcQueue   client -> proxy workers (ClientRequestMsg)
//   plane.q.origin.<o> MpmcQueue  proxy -> origin o       (the same message)
//   plane.q.cgi       MpmcQueue   proxy -> CGI workers    (the same message)
//   plane.q.hdrfree   MpmcQueue   free-list of response-header slab slots
//   plane.q.bodyfree  MpmcQueue   free-list of body slab slots (CGI bodies
//                                 and copy-mode copies)
//   plane.map.cache   ShmMap      FileId -> cached payload (offset, len) + pins;
//                                 readers pin and unpin, never lock a slot
//   plane.futures     ShmFuturePool   the client's response futures
//   plane.counters    ShmCounters     warm-path counters (ABI, see shm_counters.h)
//   plane.pins        PinLedger       per-worker transient-pin tickets (fault plane)
//   plane.slab.*      raw spans       the slab storage the free-lists carve
//
// A proxy answers a hit itself and passes every other request on unchanged,
// so the worker that produces a response — proxy, origin or CGI — completes
// the client's future itself, and no worker ever waits on another.
//
// Every key has one home origin, `key % origins`: proxies push its misses
// to that origin's queue only, so one process fills, caches and publishes
// each key and no two writers ever race on a plane.map.cache entry. Only
// that writer claims the key's map slot; proxies, the client and the
// supervisor's sweep only pin and unpin it (see shm_map.h).
//
// Free-lists are themselves MPMC queues of SliceDescs — a slot *is* a
// descriptor whose `reserved` field carries the slot's capacity — so the
// plane needs no shared-memory allocator beyond the region's bump cursor.
//
// This header is pure mechanism: no file-system or HTTP knowledge. The
// worker roles that give the plane its behaviour live in
// src/proxy/plane_proxy.h; composition and measurement in
// src/driver/process_tier.h.

#ifndef SRC_IPC_PROCESS_PLANE_H_
#define SRC_IPC_PROCESS_PLANE_H_

#include <sys/resource.h>
#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "src/ipc/mpmc_queue.h"
#include "src/ipc/shm_counters.h"
#include "src/ipc/shm_future.h"
#include "src/ipc/shm_map.h"
#include "src/ipc/shm_region.h"
#include "src/ipc/shm_table.h"

namespace iolipc {

// Directory names of the plane's structures.
inline constexpr char kPlaneClientQueue[] = "plane.q.client";
inline constexpr char kPlaneOriginQueue[] = "plane.q.origin";  // + ".<o>"
inline constexpr char kPlaneCgiQueue[] = "plane.q.cgi";
inline constexpr char kPlaneHeaderFree[] = "plane.q.hdrfree";
inline constexpr char kPlaneBodyFree[] = "plane.q.bodyfree";
inline constexpr char kPlaneCacheMap[] = "plane.map.cache";
inline constexpr char kPlaneFutures[] = "plane.futures";
inline constexpr char kPlaneCounters[] = "plane.counters";
inline constexpr char kPlanePinLedger[] = "plane.pins";

// --- Pin ledger (fault plane) ------------------------------------------------

// One slot per worker, fixed at plane creation (worker slot ids are assigned
// by the driver: proxies [0, P), origins [P, P+O)).
inline constexpr uint32_t kPinLedgerSlots = 64;

// The crash-recovery ledger for transient cache pins. A worker that takes a
// map pin on a requester's behalf records the key in its own slot *while it
// holds the pin* and clears the slot immediately before handing the pin off
// (completing the future that carries it). If the worker dies mid-serve,
// the supervisor Take()s the slot and unpins the key — without the sweep,
// a SIGKILL'd worker's pin would wedge that cache entry against eviction
// forever. Clear-before-handoff means a sweep can never double-unpin a pin
// the consumer also releases; the cost is a one-instruction window (between
// Clear and the future Complete) where a crash leaks the pin instead.
class PinLedger {
 public:
  PinLedger() = default;

  static PinLedger Create(ShmRegion* region, ShmTable* table, const char* name);
  static PinLedger Attach(const ShmTable& table, const char* name);

  bool valid() const { return slots_ != nullptr; }

  // Records "worker `slot` holds a transient pin on `ticket`". Slots out of
  // range (notably kNoPinSlot) are ignored, so unledgered workers cost one
  // compare. A worker holds at most one transient pin at a time (its Step
  // serves one request end to end), so plain stores suffice.
  void Record(uint32_t slot, uint64_t ticket) {
    if (slot < kPinLedgerSlots) {
      slots_[slot].store(ticket + 1, std::memory_order_release);
    }
  }
  void Clear(uint32_t slot) {
    if (slot < kPinLedgerSlots) {
      slots_[slot].store(0, std::memory_order_release);
    }
  }
  // Claims the slot's entry for sweeping: returns ticket + 1, or 0 if none.
  uint64_t Take(uint32_t slot) {
    return slot < kPinLedgerSlots
               ? slots_[slot].exchange(0, std::memory_order_acq_rel)
               : 0;
  }

 private:
  std::atomic<uint64_t>* slots_ = nullptr;
};

// Workers constructed without a ledger slot (in-process pump, legacy tests).
inline constexpr uint32_t kNoPinSlot = UINT32_MAX;

struct PlaneConfig {
  // Capacities. Queues and the map must be powers of two.
  uint32_t table_capacity = 16;
  uint32_t queue_capacity = 256;
  uint32_t map_capacity = 1024;
  uint32_t future_capacity = 64;
  // Slabs. Header slots (kHeaderSlotBytes each) hold one built response
  // header; body slots hold one CGI body or, on the copy-mode contrast
  // path, one copied document, so they must hold the larger of the two.
  uint32_t header_slots = 64;
  uint32_t body_slots = 32;
  uint32_t body_slot_bytes = 16384;
};

// A header slab slot: room for one built response header.
inline constexpr uint32_t kHeaderSlotBytes = 256;

// Attached handles to every plane structure. Value type: copies are cheap
// handle copies onto the same shared state (what a forked worker uses).
struct PlaneShared {
  ShmRegion* region = nullptr;
  ShmTable table;
  MpmcQueue client_q;
  std::vector<MpmcQueue> origin_qs;  // One queue per origin, never empty.
  MpmcQueue cgi_q;
  MpmcQueue header_free;
  MpmcQueue body_free;
  ShmMap cache_map;
  ShmFuturePool futures;
  ShmCounters counters;
  PinLedger pin_ledger;

  bool valid() const {
    return region != nullptr && table.valid() && client_q.valid() &&
           !origin_qs.empty() && cgi_q.valid() && header_free.valid() &&
           body_free.valid() && cache_map.valid() && futures.valid() &&
           counters.valid() && pin_ledger.valid();
  }

  // The queue of `key`'s home origin.
  MpmcQueue& home_queue(uint64_t key) { return origin_qs[key % origin_qs.size()]; }
};

// Builds the plane inside `region` (which must be freshly created: the
// table must land at payload offset 0) with `origins` (>= 1) origin queues,
// and seeds the slab free-lists.
PlaneShared CreatePlane(ShmRegion* region, const PlaneConfig& config, int origins);

// Adopts a plane built by another process, by directory lookup only.
PlaneShared AttachPlane(ShmRegion* region);

// --- Wire messages ---------------------------------------------------------

// Everything crossing a plane queue is a 32-byte trivially copyable struct
// punned through MpmcQueue::PushAs/PopAs.

enum class RequestKind : uint32_t { kStatic = 0, kCgi = 1 };

// Client -> proxy, and unchanged proxy -> origin (a miss) or proxy -> CGI
// (a dynamic request). `future` is the client's response future; whichever
// worker produces the response completes it with (header desc, body desc).
struct ClientRequestMsg {
  uint64_t file_id;
  FutureHandle future;
  uint32_t kind;  // RequestKind.
  uint32_t flags;
  uint64_t reserved;
};
static_assert(sizeof(ClientRequestMsg) == 32, "queue messages are 32-byte cells");

// --- Response-descriptor flags ---------------------------------------------

// Set in SliceDesc::flags of future values; they tell the consumer how to
// give the resource back (bit 0 is kFrameEnd from slice_desc.h).
constexpr uint32_t kRespHeaderSlab = 1u << 1;  // Return slot to plane.q.hdrfree.
constexpr uint32_t kRespPinned = 1u << 2;      // Unpin cache_map key `ticket`.
constexpr uint32_t kRespBodySlab = 1u << 3;    // Return slot to plane.q.bodyfree.

// Gives back every resource a response's descriptors hold, as their flags
// say: slab slots to their free-lists (restored to full capacity from
// `reserved`), pins to the cache map. The consumer of a delivered response
// calls it, and so does a producer whose client gave up.
void ReturnResponse(PlaneShared* s, const SliceDesc& header, const SliceDesc& body);

// --- Worker harness --------------------------------------------------------

// User + system CPU seconds in `ru` (getrusage, wait4).
double CpuSecondsOf(const struct rusage& ru);

enum class PlaneMode {
  kInProcess,  // No concurrency: the driver pumps roles deterministically.
  kThreads,    // One std::thread per worker (the TSan-checkable mode).
  kProcesses,  // One fork()ed process per worker (the real data plane).
};

// Launches and joins one group of identical workers. `body` runs once per
// worker — in a forked child (kProcesses), a thread (kThreads), or not at
// all (kInProcess: the driver pumps roles itself). Groups are joined in
// pipeline order: close a group's input queue, join the group, repeat.
class WorkerGroup {
 public:
  WorkerGroup() = default;
  ~WorkerGroup();

  WorkerGroup(const WorkerGroup&) = delete;
  WorkerGroup& operator=(const WorkerGroup&) = delete;

  // Starts `n` workers. Forked children run `body(slot)` then _exit(0);
  // `slot` is the worker's index in [0, n), stable across respawns — it is
  // what a worker hands to PinLedger. The no-arg overload serves bodies
  // that don't care which slot they are. A forked worker is SIGKILLed when
  // the thread that forked it exits, so launch, poll and join from one
  // thread that outlives the group.
  bool Launch(PlaneMode mode, int n, const std::function<void(int)>& body);
  bool Launch(PlaneMode mode, int n, const std::function<void()>& body);

  // Waits for every worker. Returns the number that ended abnormally
  // (non-zero exit or signal); always 0 for threads. Workers already
  // reaped by Poll() are not re-counted.
  int JoinAll();

  // --- Supervision (fault plane) ---------------------------------------
  // Reaps workers that have exited (kProcesses only, non-blocking). A
  // clean exit retires the slot — the worker drained its queue and left
  // legitimately. An abnormal exit (non-zero status or signal) fires
  // on_death(slot) — the supervisor's chance to sweep the dead worker's
  // pins — and then respawns the stored body into the same slot, where it
  // re-attaches to the plane through the same PlaneShared handles the
  // original worker used. Returns the number of workers respawned.
  int Poll();
  void set_on_death(std::function<void(int)> fn) { on_death_ = std::move(fn); }
  uint64_t abnormal_exits() const { return abnormal_exits_; }
  uint64_t respawns() const { return respawns_; }
  // User + system CPU seconds of every worker process reaped so far, by
  // JoinAll or Poll (from wait4's rusage; 0 for threads).
  double cpu_seconds() const { return cpu_seconds_; }

  const std::vector<pid_t>& pids() const { return pids_; }

 private:
  pid_t Spawn(int slot);

  std::vector<pid_t> pids_;  // -1 marks a slot retired by Poll().
  std::vector<std::thread> threads_;
  PlaneMode mode_ = PlaneMode::kInProcess;
  std::function<void(int)> body_;
  std::function<void(int)> on_death_;
  uint64_t abnormal_exits_ = 0;
  uint64_t respawns_ = 0;
  double cpu_seconds_ = 0;
};

}  // namespace iolipc

#endif  // SRC_IPC_PROCESS_PLANE_H_
