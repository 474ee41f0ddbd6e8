// ProcessTier: the driver that composes the shared-memory data plane into a
// runnable proxy + origin + CGI deployment, measures it, and *proves* its
// claims.
//
// One RunProcessTier call builds a plane in a shared region, runs the same
// worker roles in one of three modes — deterministic in-process pump, one
// thread per worker, or one fork()ed process per worker — plays a
// deterministic request mix against it, and verifies every response against
// an independent reference system (content is a pure function of file id, so
// the reference never touches the plane). Because the request sequence and
// the content are deterministic, the response byte stream — folded into
// `response_checksum` in submission order — must be identical across all
// three modes; that is the cross-mode byte-identity check.
//
// The second claim, "zero cross-process payload copies on the warm path",
// is asserted from *outside*: after the workers have exited, the driver
// re-attaches the region by name as a fresh mapping (when POSIX-shm backed)
// and reads kBytesCopiedCrossProcess through the ShmTable, the same way
// scripts/shm_inspect.py does.

#ifndef SRC_DRIVER_PROCESS_TIER_H_
#define SRC_DRIVER_PROCESS_TIER_H_

#include <cstdint>
#include <string>

#include "src/ipc/process_plane.h"
#include "src/proxy/plane_proxy.h"

namespace ioldrv {

struct ProcessTierConfig {
  iolipc::PlaneMode mode = iolipc::PlaneMode::kInProcess;

  // Region backing. A non-empty name requests POSIX shm ("<name>.<pid>" is
  // the actual segment, enabling out-of-process verification and
  // shm_inspect.py); empty, or shm-less environments, fall back to an
  // anonymous fork-shared mapping.
  std::string region_name = "iolite-plane";

  // Workload: `requests` total, at most `inflight` outstanding, file ids
  // drawn deterministically from the doc set; every `cgi_every`-th request
  // is dynamic (0 disables CGI traffic).
  int requests = 256;
  int inflight = 8;
  iolproxy::PlaneDocSet docs;
  int cgi_every = 8;
  uint64_t cgi_body_bytes = 1024;

  // Fleet shape. Origin o fills, caches and publishes the documents whose
  // id % origin_workers is o.
  int proxy_workers = 2;
  int origin_workers = 1;
  int cgi_workers = 1;

  // Data-path variant: false = descriptor discipline (zero payload copies),
  // true = memcpy-per-response contrast path.
  bool copy_data_path = false;

  // Origin replica cache budget in bytes (0 = unlimited).
  uint64_t origin_cache_budget = 0;

  // Verify every response byte against the reference system. Off for pure
  // timing runs; the checksum is computed either way.
  bool verify = true;

  // The plane's only timeout: the client waiting on a response. No worker
  // waits on another, so a request that no worker answers (its worker died,
  // or no origin serves its key) surfaces here, as a client error.
  uint64_t client_wait_us = 5'000'000;

  // --- Fault plane (src/fault) ---------------------------------------------
  // Poll the worker groups from the client loop (kProcesses only): abnormal
  // exits are respawned into the same slot — the replacement re-attaches to
  // the plane through the shared handles — and the dead worker's transient
  // pin, if any, is swept via the PinLedger.
  bool supervise = false;
  // Deterministic crash injection at the worst instant: the first-
  // generation proxy worker that takes the fleet's Nth hit pin
  // _Exit(9)s holding it — ledger slot recorded, map pin held — so the run
  // proves the supervisor's sweep, not just respawn (0 = never; kProcesses
  // only; the fleet count reaches N once and respawned workers come up
  // healthy, so the injection fires exactly once).
  int proxy_die_after_pins = 0;
  // Client-side recovery: re-submit a request up to this many times after
  // its future resolves with an error or times out.
  int client_retries = 0;
};

struct ProcessTierResult {
  bool ok = false;  // Plane built and every worker joined cleanly.

  uint64_t requests = 0;  // Responses collected successfully.
  uint64_t errors = 0;    // Futures that resolved with an error or timed out.
  uint64_t bytes_served = 0;
  double wall_ms = 0;
  double requests_per_sec = 0;
  double mbits_per_sec = 0;

  // Plane counters (read back after quiesce; see counters_out_of_process).
  uint64_t bytes_copied_cross_process = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t origin_fills = 0;
  uint64_t cgi_requests = 0;
  uint64_t future_errors = 0;

  // True when the counters above were read through a *fresh* attach of the
  // region by name (possible only when POSIX-shm backed).
  bool counters_out_of_process = false;

  // True when every verified response matched the reference byte for byte
  // (true trivially when config.verify is off and no response mismatched a
  // length check).
  bool byte_identical = true;

  // FNV-1a (response_fold.h's FnvFold) over all response bytes in
  // submission order; equal across modes. The client computes it through a
  // ResponseFoldCache: a content delivered again (a static document, a
  // response header) folds as P^n * h + C[h mod 256] from a table built on
  // its second sighting, after a full memcmp against the cache's own copy
  // of its bytes. That identity is exact for FNV-1a, so the value is the
  // byte-serial fold's; first sightings, mismatches and contents over 16 KB
  // fold byte by byte. The cache holds at most 64 contents.
  uint64_t response_checksum = 0;

  // Abnormal exits seen anywhere: reaped by the supervisor mid-run plus
  // those discovered at final join. `ok` only requires the *final* join to
  // be clean, so a supervised run that absorbed deliberate kills still
  // reports ok.
  int abnormal_worker_exits = 0;
  uint64_t worker_respawns = 0;      // Workers relaunched by the supervisor.
  uint64_t pins_swept = 0;           // Stale pins reclaimed from dead workers.
  uint64_t client_retries_used = 0;  // Re-submissions the client performed.
  uint64_t leaked_pins = 0;          // Pins still held on doc keys after quiesce.

  // CPU seconds (user + system) per role, kProcesses only (0 otherwise).
  // The client's is getrusage around its request loop; each worker role's
  // is the wait4 rusage of its processes, summed over the group, respawns
  // included. An idle worker spins for a short budget and then parks in
  // futex (src/ipc/event_count.h), so a role's CPU is its work plus those
  // spins: a worker whose gaps between requests stay under the budget (the
  // CGI worker at a 1-in-8 mix) still spins for most of its lifetime.
  double client_cpu_s = 0;
  double proxy_cpu_s = 0;
  double origin_cpu_s = 0;
  double cgi_cpu_s = 0;
};

ProcessTierResult RunProcessTier(const ProcessTierConfig& config);

}  // namespace ioldrv

#endif  // SRC_DRIVER_PROCESS_TIER_H_
