// Experiment: the engine composing the three orthogonal experiment axes —
// Workload (arrival process) x Fleet (servers + balancer) x Telemetry
// (per-request records) — over the staged request pipeline.
//
// The engine owns the client population: it issues requests per the
// Workload, spreads them over the Fleet's members (queueing — never
// dropping — when ExperimentConfig::max_concurrent caps a member's
// concurrency), lets each member's staged pipeline acquire CPU/disk/link
// as stages run, delivers responses in per-connection issue order
// (HTTP/1.1 pipelining head-of-line blocking), and timestamps every
// request for the Telemetry sink. One Run per Experiment instance: a
// second Run would reuse stale lane/counter state and dies loudly instead.
//
// The engine has a client half (issue, arrivals, receive, warmup/count/
// stop) and a member half (admission, accept queue, serve, connections),
// each written once and run in one of two topologies:
//   - All members on one machine: one SimContext and one event queue.
//   - One machine per member: each member on its own System, the client
//     half on a frontend lane, and the lanes executed by a ShardRunner
//     (src/simos/shard.h) under conservative-lookahead rounds.
// The topologies differ in three places only: how a request and its
// response cross (a scheduled event, or a ShardMsg that fills a pooled
// member slot), the front door (balancer + QoS + fault checks, or client c
// to member c mod M), and when a RequestSource file is drawn (at serve
// time, or at issue time on the frontend).

#ifndef SRC_DRIVER_EXPERIMENT_H_
#define SRC_DRIVER_EXPERIMENT_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/driver/fleet.h"
#include "src/driver/telemetry.h"
#include "src/driver/workload.h"
#include "src/fault/fault_plan.h"
#include "src/fault/recovery.h"
#include "src/fs/file_cache.h"
#include "src/httpd/http_server.h"
#include "src/httpd/request_pipeline.h"
#include "src/net/tcp.h"
#include "src/simos/event_queue.h"
#include "src/simos/shard.h"
#include "src/simos/sim_context.h"
#include "src/simos/stats.h"

namespace iolqos {
class QosPolicy;
}  // namespace iolqos

namespace iolsys {
class System;
}  // namespace iolsys

namespace ioldrv {

// Knobs orthogonal to all three axes: how much to measure, the network
// between clients and fleet, and per-member admission policy. With one
// machine per member, Run aborts on the fields that topology cannot honour:
// `qos`, a non-empty `faults` plan, `recovery`, persistent pipelining and
// `enforce_cache_budget`.
struct ExperimentConfig {
  // Stop after this many counted (post-warmup) request completions. A
  // replayed log may end first; the run then counts what completed.
  uint64_t max_requests = 20000;
  // Completions ignored at the start (cold caches, cold mappings).
  uint64_t warmup_requests = 0;
  bool persistent_connections = false;
  iolnet::DelayRouter delay;
  // Cap on concurrently served connections per fleet member (Apache
  // process model); 0 = off. Excess arrivals wait in that member's FIFO
  // accept queue — they are never dropped.
  int max_concurrent = 0;
  // Enforce the file-cache byte budget from the memory model after each
  // request (trace experiments). Off for single-file tests.
  bool enforce_cache_budget = false;
  // OS threads executing the lanes when each member has its own machine
  // (ignored when all members share one). The lanes — the client frontend
  // plus one per member — are fixed by the fleet, so any shard_count
  // produces byte-identical telemetry; this knob only changes how many
  // lanes run concurrently.
  int shard_count = 1;
  // Multi-tenant QoS policy plane (src/qos; all members on one machine).
  // When set, the engine classifies every request at issue time,
  // establishes the owning tenant on the SimContext for each serve, and
  // fills ExperimentResult::tenants.
  // Null runs the exact pre-QoS code paths. Not owned.
  iolqos::QosPolicy* qos = nullptr;
  // Fixed file-cache byte budget enforced after each completion (0 = off;
  // independent of enforce_cache_budget's memory-model budget), on each
  // member's own cache when members have their own machines. The
  // adversarial cache-pressure scenarios pin the budget explicitly.
  uint64_t cache_budget_bytes = 0;
  // Deterministic fault plan (src/fault; all members on one machine). The
  // engine arms member crash/restart flips on the event queue and device
  // degradation windows on the context's disk/link Resources before the
  // run starts. Null — or an EMPTY plan — leaves every code path
  // untouched: the golden determinism tests pin byte-identity.
  // Not owned. A plan containing member crashes requires the recovery
  // plane below (a black-holed request would otherwise hang the run).
  const iolfault::FaultPlan* faults = nullptr;
  // Recovery policy: per-request timeout, capped-backoff retries, hedged
  // requests, health-check balancer ejection. Inert (and byte-identical to
  // the pre-fault engine) unless recovery.enabled(). Recovery mode
  // requires pipeline_depth == 1: an abandoned attempt's connection is
  // dead, which is unrepresentable mid-pipeline.
  iolfault::RecoveryConfig recovery;
};

// Per-member slice of the run (who served what, how concurrently).
struct ServerShare {
  uint64_t requests = 0;  // Counted completions served by this member.
  uint64_t bytes = 0;
  int peak_concurrent = 0;
};

// Per-tenant slice of the result (multi-tenant runs; see
// ExperimentConfig::qos): the Telemetry summary plus what the policy knows.
// The two hit metrics answer different questions: cache_hit_fraction is the
// per-request flag over the counted window, while cache_hit_rate is this
// tenant's whole-run unified-cache lookup rate from the QoS policy's
// per-tenant counters — the aggregate cache_hit_rate below can no longer
// mask one tenant's hit-rate collapse behind another's scan.
struct TenantBreakdown : TenantSummary {
  std::string name;  // Registry name when a policy is attached.
  double cache_hit_rate = 0;
};

// The structured result: throughput counters plus the latency distribution,
// overall and per fleet member.
struct ExperimentResult {
  uint64_t requests = 0;
  uint64_t bytes = 0;
  double seconds = 0;
  double megabits_per_sec = 0;
  // Machine-wide cache hit rate over the WHOLE run, warmup included (the
  // trace figures' hit columns report the machine's cache behavior, cold
  // start and all).
  double cache_hit_rate = 0;
  // Fraction of counted requests whose body came from the cache — the
  // same measurement window as `latency`; use this when correlating hit
  // behavior with percentiles.
  double cache_hit_fraction = 0;
  // High-water mark of concurrently served requests per machine, summed
  // over machines (fleet-wide when all members share one machine).
  int peak_concurrent = 0;
  // Arrivals that had to wait in an accept queue (max_concurrent).
  uint64_t admission_waits = 0;
  // Responses that failed the delivery check (SimStats::corrupt_responses)
  // on the run's machines, since each was built. 0 in a correct run.
  uint64_t corrupt_responses = 0;
  // End-to-end latency (issue to last response byte) of counted requests.
  LatencySummary latency;
  std::vector<ServerShare> per_server;
  // Per-tenant breakdown, ordered by tenant id. Empty for single-tenant
  // runs with no QoS policy attached (every pre-QoS bench), so existing
  // JSON rows are unchanged.
  std::vector<TenantBreakdown> tenants;

  // Proxy-tier fields (filled by CdnTier; zero for single-tier runs, and
  // serialized on every JsonReporter row so BENCH_*.json schemas are
  // uniform across figures). Hit rates cover the whole run, like
  // cache_hit_rate above.
  double proxy_hit_rate = 0;
  double origin_hit_rate = 0;
  // Payload fetched over the backhaul, and the subset of it a copy-based
  // proxy memcpy'd into its private cache on arrival. A warm co-located
  // IO-Lite run reports 0 for both.
  uint64_t backhaul_bytes = 0;
  uint64_t bytes_copied_backhaul = 0;
  // Backhaul fetch latency (proxy miss to object resident at the proxy).
  LatencySummary origin_latency;
  // Instant the measurement window opened (the warmup-th completion; 0
  // when warmup_requests == 0). CdnTier classifies backhaul fetches
  // against the same window result.latency uses.
  iolsim::SimTime count_start = 0;

  // Host-side performance of the run (not simulated quantities): wall-clock
  // time spent inside Run and events dispatched by the engine. JsonReporter
  // emits these on every bench row so BENCH_*.json files carry a wall-clock
  // trajectory; simulated results must never depend on them.
  double wall_ms = 0;
  uint64_t events_dispatched = 0;

  // Fault-plane accounting (src/fault), over the counted window. Fault-free
  // runs report availability 1 and zeros elsewhere. JsonReporter derives the
  // error_rate and goodput_mbps keys from these and megabits_per_sec.
  double availability = 1.0;
  uint64_t retries = 0;            // Retry attempts issued.
  uint64_t hedges = 0;             // Hedged duplicates issued.
  uint64_t failed_requests = 0;    // Counted kTimedOut/kFailed outcomes.
  uint64_t response_drops = 0;     // Responses lost to member crashes.
  uint64_t blackholed_arrivals = 0;  // Arrivals routed to a down member.
  uint64_t health_ejections = 0;   // Health-checker ejection transitions.

  // --- CDN hierarchy (src/cdn; filled by CdnTier, empty otherwise) --------
  // One entry per hierarchy level, index 0 = the edge tier: the run's slice
  // of the SimStats::cdn[] counter block, plus the level's size and hit rate.
  struct CdnLevelResult : iolsim::SimStats::CdnLevelStats {
    int proxies = 0;      // Proxies at this level.
    double hit_rate = 0;  // Level-local cache hit rate.
  };
  std::vector<CdnLevelResult> cdn_levels;
  // Staleness ages of every stale serve in the hierarchy (the "ms" fields
  // summarize ages, not latencies). Zero-count when nothing was stale.
  LatencySummary staleness;
  uint64_t stale_serves = 0;
  uint64_t cdn_writes = 0;       // Origin writes the write plan applied.
  // Load that reached the origin fleet: fetches issued by the top proxy
  // level — the number the hierarchy exists to shrink.
  uint64_t origin_fleet_fetches = 0;
};

class Experiment {
 public:
  // Returns the file to request next; shared across clients, called in
  // service order (issue order with one machine per member). Ignored for
  // arrivals whose Workload pins the file (trace replay).
  using RequestSource = std::function<iolfs::FileId()>;

  // All members on one machine: `ctx`, whose event queue runs the whole
  // experiment.
  Experiment(iolsim::SimContext* ctx, iolnet::NetworkSubsystem* net,
             iolfs::FileCache* cache, Fleet fleet, ExperimentConfig config);

  // Single-server convenience.
  Experiment(iolsim::SimContext* ctx, iolnet::NetworkSubsystem* net,
             iolfs::FileCache* cache, iolhttp::HttpServer* server,
             ExperimentConfig config)
      : Experiment(ctx, net, cache, Fleet::Single(server), config) {}

  // One machine per member: fleet.server(m) runs on machines[m]. The
  // balancer is unused (client c goes to member c mod M), and the one-way
  // delay — the lookahead between lanes — must be > 0.
  Experiment(std::vector<iolsys::System*> machines, Fleet fleet,
             ExperimentConfig config);

  ~Experiment();

  Experiment(const Experiment&) = delete;
  Experiment& operator=(const Experiment&) = delete;

  // Runs `workload` to completion. Per-request records go to `sink` when
  // given, else to the internal Telemetry (see telemetry()). Fatal on a
  // second call: the engine's lanes and counters are single-run state.
  ExperimentResult Run(Workload* workload, RequestSource next_file,
                       Telemetry* sink = nullptr);

  // The sink the last Run recorded into.
  const Telemetry& telemetry() const { return *telemetry_; }

  Fleet& fleet() { return fleet_; }

  // Whether the run has hit its completion target. Self-rescheduling
  // background event sources (the CDN write plan) consult this to stop
  // re-arming — Run drains the queue after done_, and an event that always
  // schedules a successor would keep the drain alive forever.
  bool finished() const { return done_; }

  // After a Run: the events each lane dispatched — with one machine per
  // member [0] = the client frontend and [1 + m] = member m, else the
  // shared machine alone — and the runner's counters.
  const std::vector<uint64_t>& lane_events() const { return lane_events_; }
  const iolsim::ShardRunner::Stats& shard_stats() const { return shard_stats_; }

 private:
  // One request slot: a connection (shared by a client's pipelined lanes)
  // plus the in-flight request state. Lives in a deque so addresses stay
  // stable when the open-loop pool grows, with block-contiguous storage
  // (the per-completion hot path walks lane state five times per request).
  // On one machine a client lane is also its member's request slot; with
  // one machine per member, each member pools its own slots, filled in by
  // the arriving request.
  struct Lane {
    size_t conn_index = 0;  // The client's connection (with one machine
                            // per member: the client).
    uint64_t seq = 0;       // Issue order on this lane's connection.
    size_t server = 0;      // Fleet member chosen at arrival.
    bool has_pinned_file = false;
    iolfs::FileId pinned_file = iolfs::kInvalidFile;
    RequestRecord record;
    iolhttp::RequestContext req;

    // --- Recovery plane (src/fault; untouched unless recovery.enabled()).
    // A logical request is a "flight"; its state lives on the lane of the
    // current primary attempt (the owner). Retries MIGRATE the flight to a
    // fresh lane/connection; hedges spawn a parallel attempt lane pointing
    // back at the owner via flight_owner. Every non-limbo lane is held by
    // exactly one pending continuation (arrival event, QoS hold, accept
    // queue slot, pipeline on_done, or delivery event), which is what
    // recycles it once it goes zombie; limbo lanes are held by nothing and
    // are reclaimed by the flight's timeout.
    uint32_t flight_owner = kNoLane;  // Set on hedge attempts only.
    uint32_t hedge_lane = kNoLane;    // Owner: outstanding hedge attempt.
    iolsim::EventQueue::EventId timeout_ev = kNoEvent;  // Owner only.
    iolsim::EventQueue::EventId hedge_ev = kNoEvent;    // Owner only.
    uint32_t serve_epoch = 0;  // Member crash epoch at serve start.
    uint8_t attempts = 1;      // Issues of this flight (1 + retries).
    uint8_t retries_used = 0;
    bool zombie = false;  // Abandoned attempt: swallow its completion, recycle.
    bool limbo = false;   // No continuation holds this lane (black-holed).
  };

  // Per-connection pipelining state: responses are delivered to the client
  // in request-issue order even when the staged pipeline completes them
  // out of order.
  struct ConnState {
    uint64_t next_issue = 0;
    uint64_t next_deliver = 0;
    // Completed out-of-order responses waiting for their turn: seq ->
    // (lane, bytes).
    std::map<uint64_t, std::pair<size_t, size_t>> done_out_of_order;
  };

  // A simulated host that members run on. On one machine every member
  // shares machines_[0], whose request slots are the client lanes; with one
  // machine per member, member m runs on machines_[m], which pools its own
  // slots and keeps one connection per client it serves.
  struct Machine {
    iolsim::SimContext* ctx = nullptr;
    iolnet::NetworkSubsystem* net = nullptr;
    iolfs::FileCache* cache = nullptr;
    std::deque<Lane>* slots = nullptr;  // What member slot indices index.
    int in_service = 0;
    int peak = 0;
    uint64_t events_base = 0;
    std::deque<Lane> own_slots;
    std::vector<size_t> free_slots;
    std::vector<std::unique_ptr<iolnet::TcpConnection>> conns;  // [client / M]
  };

  // A fleet member's admission state.
  struct Member {
    Machine* machine = nullptr;
    std::deque<size_t> accept_queue;  // Slots waiting on max_concurrent.
    int in_service = 0;
    int peak = 0;
    uint64_t admission_waits = 0;
  };

  struct Shards;    // The frontend's clock and queue, and the runner.
  class QueueLane;  // A ShardRunner lane over one event queue.

  static constexpr uint32_t kNoLane = UINT32_MAX;
  static constexpr iolsim::EventQueue::EventId kNoEvent = ~0ull;

  size_t AddLane(size_t conn_index);
  void AddConnection();
  // One more client with one lane: the open-loop pool grows on demand.
  size_t AddClient();
  // Recomputes the steady-state memory the client population pins, for the
  // current pool size (open-loop growth re-runs this).
  void UpdateSteadyMemory();

  // --- Client half ---------------------------------------------------------
  // Client issues: the request propagates to the fleet (one-way delay).
  void IssueRequest(size_t lane);
  void ScheduleNextArrival();
  void OnClientReceive(size_t lane, size_t bytes);
  // Warmup / count / stop for one finished request; false once the run
  // has counted max_requests completions.
  bool CountCompletion(RequestRecord& rec);
  // A request or response arriving by ShardMsg on runner lane `lane`
  // (0 = the frontend, 1 + m = member m).
  void OnShardMessage(uint32_t lane, const iolsim::ShardMsg& msg);

  // --- Front door on one machine -------------------------------------------
  // Request reaches the fleet: the balancer picks a member.
  void ArriveAtFleet(size_t lane);

  // --- Member half: member m and a request slot on its machine ------------
  // Admitted now, or queued behind the member's max_concurrent.
  void Admit(size_t m, size_t slot);
  void ServeRequest(size_t m, size_t slot);
  void OnServerDone(size_t m, size_t slot);
  // The response crosses back to the client, arriving after `delay`.
  void Respond(size_t m, size_t slot, size_t bytes, iolsim::SimTime delay);
  // Serves queued waiters while the member has capacity (the per-completion
  // pop, and the post-restart kick), skipping zombie entries.
  void DrainAcceptQueue(size_t m);
  uint64_t CacheBudget() const;

  // --- Fault plane (src/fault) ------------------------------------------
  void ArmFaults();
  void CrashMember(size_t m);
  void RestartMember(size_t m, bool cold_cache);
  void RunHealthProbe();
  // Flight lifecycle (recovery mode only).
  void ArmFlightTimers(size_t lane, iolsim::SimTime extra_delay);
  void CancelFlightTimers(size_t lane);
  void OnRequestTimeout(size_t lane);
  void FireHedge(size_t lane);
  void DeliverFlight(size_t lane, size_t bytes);
  size_t AcquireAttemptLane();
  void RecycleLane(size_t lane);
  // Marks an attempt abandoned; reclaims it immediately when nothing holds
  // it (limbo), else its pending continuation swallows and recycles it.
  void AbandonAttempt(size_t lane);

  // The shared machine; all null with one machine per member.
  iolsim::SimContext* ctx_ = nullptr;
  iolnet::NetworkSubsystem* net_ = nullptr;
  iolfs::FileCache* cache_ = nullptr;
  Fleet fleet_;
  ExperimentConfig config_;
  // The client half's clock and queue: the shared machine's, or the
  // frontend's own with one machine per member.
  iolsim::VirtualClock* clock_ = nullptr;
  iolsim::EventQueue* events_ = nullptr;
  std::unique_ptr<Shards> shards_;  // Null on one machine.
  std::deque<Machine> machines_;
  std::vector<Member> members_;
  Workload* workload_ = nullptr;
  RequestSource next_file_;
  Telemetry own_telemetry_;
  // Points at own_telemetry_ until Run is handed an external sink, so
  // telemetry() is always safe to call.
  Telemetry* telemetry_ = &own_telemetry_;

  std::vector<std::unique_ptr<iolnet::TcpConnection>> conns_;  // One machine.
  std::vector<ConnState> conn_state_;
  std::deque<Lane> lanes_;
  std::vector<size_t> free_lanes_;  // Open loop: idle pool entries.

  // Per fleet member, counted on the client side.
  std::vector<ServerShare> share_;
  std::vector<int> load_scratch_;  // Balancer input, reused per arrival.

  int pipeline_depth_ = 1;
  uint64_t completed_ = 0;  // All completions, including warmup.
  uint64_t counted_requests_ = 0;
  uint64_t counted_bytes_ = 0;
  iolsim::SimTime count_start_ = 0;
  iolsim::SimTime done_at_ = 0;
  bool done_ = false;
  bool ran_ = false;
  std::vector<uint64_t> lane_events_;
  iolsim::ShardRunner::Stats shard_stats_;

  // Fault plane state. fault_on_/recovery_on_ gate every new branch on the
  // hot paths; both false reproduces the pre-fault engine byte for byte.
  bool fault_on_ = false;     // A non-empty plan is attached.
  bool recovery_on_ = false;  // config_.recovery.enabled().
  bool health_on_ = false;    // recovery_on_ && health_checks.
  std::vector<uint8_t> ejected_;  // Health-checker verdict per member.
  std::vector<int> probe_bad_;    // Consecutive failed probes.
  std::vector<int> probe_good_;   // Consecutive good probes.
  uint64_t retries_total_ = 0;
  uint64_t hedges_total_ = 0;
  uint64_t failed_counted_ = 0;
  uint64_t response_drops_ = 0;
  uint64_t blackholed_ = 0;
  uint64_t health_ejections_ = 0;
};

}  // namespace ioldrv

#endif  // SRC_DRIVER_EXPERIMENT_H_
