#include "src/driver/experiment.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "src/qos/policy.h"
#include "src/system/system.h"

namespace ioldrv {

// With one machine per member: the client half's own clock and event queue
// (the frontend lane), and the runner while Run executes the lanes.
struct Experiment::Shards {
  iolsim::VirtualClock clock;
  uint64_t dispatched = 0;
  iolsim::EventQueue events{&clock, &dispatched};
  iolsim::ShardRunner* runner = nullptr;
};

// A ShardRunner lane over one event queue: lane 0 is the client frontend,
// lane 1 + m is member m's machine.
class Experiment::QueueLane : public iolsim::ShardLane {
 public:
  QueueLane(Experiment* exp, iolsim::EventQueue* events, uint32_t id)
      : exp_(exp), events_(events), id_(id) {}

  iolsim::SimTime NextEventAt() override {
    iolsim::SimTime when;
    return events_->PeekWhen(&when) ? when : iolsim::kShardIdle;
  }

  void RunWindow(iolsim::SimTime end) override {
    // Strictly-before: events at exactly `end` belong to the next window.
    // The clock is left at the last dispatched event, never pushed to
    // `end` — later arrivals must not be clamped forward. The bound keeps
    // a segment train from stepping past the window too.
    while (events_->RunOne(end - 1)) {
    }
  }

  void OnMessage(const iolsim::ShardMsg& msg) override { exp_->OnShardMessage(id_, msg); }

 private:
  Experiment* exp_;
  iolsim::EventQueue* events_;
  uint32_t id_;
};

Experiment::Experiment(iolsim::SimContext* ctx, iolnet::NetworkSubsystem* net,
                       iolfs::FileCache* cache, Fleet fleet, ExperimentConfig config)
    : ctx_(ctx), net_(net), cache_(cache), fleet_(std::move(fleet)), config_(config),
      clock_(&ctx->clock()), events_(&ctx->events()) {
  Machine& machine = machines_.emplace_back();
  machine.ctx = ctx;
  machine.net = net;
  machine.cache = cache;
}

Experiment::Experiment(std::vector<iolsys::System*> machines, Fleet fleet,
                       ExperimentConfig config)
    : fleet_(std::move(fleet)), config_(config), shards_(std::make_unique<Shards>()) {
  if (machines.size() != fleet_.size() || config_.delay.one_way_delay <= 0) {
    std::fprintf(stderr,
                 "Experiment: one machine per member needs one System per fleet "
                 "member and one_way_delay > 0 (the lookahead between lanes)\n");
    std::abort();
  }
  clock_ = &shards_->clock;
  events_ = &shards_->events;
  for (iolsys::System* sys : machines) {
    Machine& machine = machines_.emplace_back();
    machine.ctx = &sys->ctx();
    machine.net = &sys->net();
    machine.cache = &sys->cache();
  }
}

Experiment::~Experiment() = default;

uint64_t Experiment::CacheBudget() const {
  // The file cache may use whatever physical memory is left after the
  // kernel, server processes and socket send buffers. The IO-Lite window
  // reservation is excluded from "used": the cache's own data lives there,
  // so counting it would shrink the budget by the cache's own size.
  uint64_t non_window =
      ctx_->memory().used() - ctx_->memory().reservation(iolsim::MemCategory::kIoliteWindow);
  uint64_t total = ctx_->memory().total();
  return total > non_window ? total - non_window : 0;
}

size_t Experiment::AddLane(size_t conn_index) {
  size_t lane = lanes_.size();
  Lane& l = lanes_.emplace_back();
  l.conn_index = conn_index;
  if (shards_ == nullptr) {
    // On one machine the lane is also its member's request slot.
    l.req.conn = conns_[conn_index].get();
    l.req.on_done = [this, lane](iolhttp::RequestContext*) {
      OnServerDone(lanes_[lane].server, lane);
    };
  }
  return lane;
}

void Experiment::AddConnection() {
  // Homogeneous-fleet assumption: member 0's socket data path stands for
  // all members (a connection does not know its server until arrival).
  conns_.push_back(std::make_unique<iolnet::TcpConnection>(
      net_, fleet_.server(0)->uses_iolite_sockets()));
}

size_t Experiment::AddClient() {
  // Overload: the arrival stream outpaces completions; grow the pool (and,
  // on one machine, the steady-state memory the population pins with it).
  size_t client = conn_state_.size();
  conn_state_.emplace_back();
  if (shards_ != nullptr) {
    return AddLane(client);
  }
  AddConnection();
  size_t lane = AddLane(client);
  UpdateSteadyMemory();
  return lane;
}

void Experiment::UpdateSteadyMemory() {
  int pool = static_cast<int>(conns_.size());
  int effective_concurrent = pool;
  int fleet_cap = config_.max_concurrent > 0
                      ? config_.max_concurrent * static_cast<int>(fleet_.size())
                      : 0;
  if (fleet_cap > 0 && fleet_cap < effective_concurrent) {
    effective_concurrent = fleet_cap;
  }
  iolhttp::HttpServer* server = fleet_.server(0);
  if (config_.persistent_connections) {
    // Connections stay open; their own reservations (made by Connect)
    // cover the socket buffers. Server processes:
    ctx_->memory().Set(iolsim::MemCategory::kServerProcesses,
                       static_cast<uint64_t>(effective_concurrent) *
                           server->per_connection_memory());
  } else {
    uint64_t per_conn =
        server->uses_iolite_sockets()
            ? 2048
            : static_cast<uint64_t>(ctx_->cost().params().socket_send_buffer_bytes *
                                    ctx_->cost().params().send_buffer_utilization);
    ctx_->memory().Set(iolsim::MemCategory::kConnectionsSteady,
                       static_cast<uint64_t>(pool) * per_conn +
                           static_cast<uint64_t>(effective_concurrent) *
                               server->per_connection_memory());
  }
}

ExperimentResult Experiment::Run(Workload* workload, RequestSource next_file,
                                 Telemetry* sink) {
  if (ran_) {
    // Lanes, counters and the population's memory reservations are
    // single-run state; silently reusing them would fold one run's tail
    // into the next run's measurements. Die loudly (release builds skip
    // asserts); build a fresh Experiment per run instead.
    std::fprintf(stderr, "Experiment: Run() called twice on the same instance\n");
    std::abort();
  }
  ran_ = true;
  workload_ = workload;
  workload_->Reset();
  next_file_ = std::move(next_file);
  telemetry_ = sink != nullptr ? sink : &own_telemetry_;
  // An external sink may already hold earlier runs' records (accumulating
  // sinks are legal); this run's summary starts where they end.
  size_t record_base = telemetry_->records().size();
  // Pre-size the record stream so steady-state completions never hit a
  // vector growth mid-run.
  telemetry_->Reserve(record_base + config_.max_requests + config_.warmup_requests);
  std::chrono::steady_clock::time_point wall_start = std::chrono::steady_clock::now();

  pipeline_depth_ =
      config_.persistent_connections && workload_->pipeline_depth() > 1
          ? workload_->pipeline_depth()
          : 1;

  fault_on_ = config_.faults != nullptr && !config_.faults->empty();
  recovery_on_ = config_.recovery.enabled();
  health_on_ = recovery_on_ && config_.recovery.health_checks;
  if (shards_ != nullptr) {
    // Features one machine per member cannot honour yet: running without
    // them would quietly return results that lack them.
    const char* unsupported = config_.qos != nullptr          ? "qos"
                              : fault_on_                     ? "a fault plan"
                              : recovery_on_                  ? "recovery"
                              : pipeline_depth_ > 1           ? "persistent pipelining"
                              : config_.enforce_cache_budget ? "enforce_cache_budget"
                                                              : nullptr;
    if (unsupported != nullptr) {
      std::fprintf(stderr, "Experiment: %s is not supported with one machine per member\n",
                   unsupported);
      std::abort();
    }
  }
  if (fault_on_ && config_.faults->has_member_crashes() && !recovery_on_) {
    // A request routed to a crashed member is black-holed; without the
    // timeout there is nothing to reclaim it and the run hangs. Die loudly.
    std::fprintf(stderr,
                 "Experiment: a FaultPlan with member crashes requires "
                 "recovery.request_timeout > 0\n");
    std::abort();
  }
  if (recovery_on_ && pipeline_depth_ > 1) {
    std::fprintf(stderr,
                 "Experiment: the recovery plane requires pipeline depth 1 "
                 "(an abandoned attempt's connection is dead)\n");
    std::abort();
  }

  members_.resize(fleet_.size());
  for (size_t m = 0; m < fleet_.size(); ++m) {
    members_[m].machine = &machines_[shards_ != nullptr ? m : 0];
  }
  for (Machine& machine : machines_) {
    machine.slots = shards_ != nullptr ? &machine.own_slots : &lanes_;
    machine.events_base = machine.ctx->stats().events_dispatched;
  }
  share_.assign(fleet_.size(), ServerShare{});
  load_scratch_.assign(fleet_.size(), 0);

  if (recovery_on_) {
    ejected_.assign(fleet_.size(), 0);
    probe_bad_.assign(fleet_.size(), 0);
    probe_good_.assign(fleet_.size(), 0);
    if (health_on_) {
      events_->ScheduleAfter(config_.recovery.health_check_interval,
                             [this] { RunHealthProbe(); });
    }
  }
  if (fault_on_) {
    ArmFaults();
  }

  int clients = workload_->initial_clients();
  conn_state_.resize(clients);
  if (shards_ == nullptr) {
    for (int i = 0; i < clients; ++i) {
      AddConnection();
      if (config_.persistent_connections) {
        conns_[i]->Connect();  // One handshake for the whole run (setup time).
      }
    }
    // Steady-state memory pinned by the client population.
    UpdateSteadyMemory();
  }
  // A client's pipelined lanes share its connection.
  for (int i = 0; i < clients; ++i) {
    for (int d = 0; d < pipeline_depth_; ++d) {
      AddLane(i);
    }
  }

  if (workload_->closed_loop()) {
    // Kick off all clients at t=0.
    for (size_t lane = 0; lane < lanes_.size(); ++lane) {
      events_->ScheduleAt(0, [this, lane] { IssueRequest(lane); });
    }
  } else {
    // All lanes idle; workload arrivals claim them (pool grows on demand).
    for (size_t lane = lanes_.size(); lane-- > 0;) {
      free_lanes_.push_back(lane);
    }
    ScheduleNextArrival();
  }

  if (shards_ == nullptr) {
    while (!done_ && events_->RunOne()) {
    }
  } else {
    // The frontend and every member's machine run as lanes until all are
    // idle: members finish what they hold after the client half is done.
    std::vector<QueueLane> lanes;
    lanes.reserve(1 + machines_.size());
    lanes.emplace_back(this, events_, 0);
    for (size_t m = 0; m < machines_.size(); ++m) {
      lanes.emplace_back(this, &machines_[m].ctx->events(), static_cast<uint32_t>(1 + m));
    }
    std::vector<iolsim::ShardLane*> view;
    for (QueueLane& lane : lanes) {
      view.push_back(&lane);
    }
    iolsim::ShardRunner::Options options;
    options.threads = config_.shard_count;
    options.lookahead = config_.delay.one_way_delay;
    iolsim::ShardRunner runner(std::move(view), options);
    shards_->runner = &runner;
    shard_stats_ = runner.Run();
    shards_->runner = nullptr;
  }

  ExperimentResult result;
  result.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - wall_start)
                       .count();
  if (shards_ != nullptr) {
    lane_events_.push_back(shards_->dispatched);
  }
  uint64_t hits = 0;
  uint64_t lookups = 0;
  for (Machine& machine : machines_) {
    const iolsim::SimStats& stats = machine.ctx->stats();
    lane_events_.push_back(stats.events_dispatched - machine.events_base);
    hits += stats.cache_hits;
    lookups += stats.cache_hits + stats.cache_misses;
    result.corrupt_responses += stats.corrupt_responses;
    result.peak_concurrent += machine.peak;
  }
  for (uint64_t events : lane_events_) {
    result.events_dispatched += events;
  }
  result.requests = counted_requests_;
  result.bytes = counted_bytes_;
  result.count_start = count_start_;
  result.seconds = iolsim::ToSeconds((done_ ? done_at_ : clock_->now()) - count_start_);
  if (result.seconds > 0) {
    result.megabits_per_sec =
        static_cast<double>(counted_bytes_) * 8.0 / 1e6 / result.seconds;
  }
  if (lookups > 0) {
    result.cache_hit_rate = static_cast<double>(hits) / static_cast<double>(lookups);
  }
  result.latency = telemetry_->EndToEndLatency(record_base, &result.cache_hit_fraction);
  result.per_server = share_;
  for (size_t m = 0; m < members_.size(); ++m) {
    result.per_server[m].peak_concurrent = members_[m].peak;
    result.admission_waits += members_[m].admission_waits;
  }

  // Fault-plane accounting. Failed requests count toward `requests` (the
  // run is N logical outcomes) but contributed no bytes, so
  // megabits_per_sec is already the delivered-bytes (goodput) rate.
  if (counted_requests_ > 0) {
    result.availability = 1.0 - static_cast<double>(failed_counted_) /
                                    static_cast<double>(counted_requests_);
  }
  result.retries = retries_total_;
  result.hedges = hedges_total_;
  result.failed_requests = failed_counted_;
  result.response_drops = response_drops_;
  result.blackholed_arrivals = blackholed_;
  result.health_ejections = health_ejections_;

  // Per-tenant breakdown: filled for multi-tenant streams or whenever a
  // policy plane is attached; single-tenant pre-QoS runs leave it empty so
  // their JSON rows are unchanged. The allocation-free probe runs first:
  // summarizing unconditionally would make the engine's total allocation
  // count grow with run length (per-tenant sample vectors), which the
  // steady-state zero-allocation test pins.
  bool any_tagged = false;
  const std::vector<RequestRecord>& recs = telemetry_->records();
  for (size_t i = record_base; i < recs.size() && !any_tagged; ++i) {
    any_tagged = recs[i].tenant != iolsim::kDefaultTenant;
  }
  if (config_.qos != nullptr || any_tagged) {
    std::vector<TenantSummary> per_tenant = telemetry_->PerTenant(record_base);
    result.tenants.reserve(per_tenant.size());
    for (const TenantSummary& ts : per_tenant) {
      std::string name;
      double cache_hit_rate = 0;
      if (config_.qos != nullptr) {
        if (ts.tenant < config_.qos->registry().size()) {
          name = config_.qos->registry().info(ts.tenant).name;
        }
        cache_hit_rate = config_.qos->cache_counters(ts.tenant).HitRate();
      }
      result.tenants.push_back(TenantBreakdown{ts, std::move(name), cache_hit_rate});
    }
  }

  if (shards_ == nullptr) {
    // Drain in-flight continuations so no event in the queue outlives the
    // engine; every callback early-returns behind done_. (The result was
    // already captured above, so the extra clock movement is invisible.)
    while (events_->RunOne()) {
    }
    for (std::unique_ptr<iolnet::TcpConnection>& c : conns_) {
      if (c->connected()) {
        c->Close();
      }
    }
    ctx_->memory().Set(iolsim::MemCategory::kServerProcesses, 0);
    ctx_->memory().Set(iolsim::MemCategory::kConnectionsSteady, 0);
  }
  next_file_ = nullptr;
  return result;
}

void Experiment::ScheduleNextArrival() {
  if (done_) {
    return;
  }
  iolsim::SimTime at = 0;
  if (!workload_->NextArrival(clock_->now(), &at)) {
    return;  // Arrival stream exhausted: the run drains and ends.
  }
  events_->ScheduleAt(at, [this] {
    if (done_) {
      return;
    }
    size_t lane;
    if (!free_lanes_.empty()) {
      lane = free_lanes_.back();
      free_lanes_.pop_back();
    } else {
      lane = AddClient();
    }
    IssueRequest(lane);
    ScheduleNextArrival();
  });
}

void Experiment::IssueRequest(size_t lane) {
  if (done_) {
    return;
  }
  Lane& l = lanes_[lane];
  // Position in the connection's request stream (delivery is in-order).
  l.seq = conn_state_[l.conn_index].next_issue++;
  l.record = RequestRecord{};
  l.record.issue = clock_->now();
  // Tenant resolution precedes NextFile: a multi-tenant workload picks the
  // file from the resolved tenant's stream (see Workload::TenantOf).
  l.req.tenant = workload_->TenantOf(l.conn_index, l.seq);
  l.has_pinned_file = workload_->NextFile(&l.pinned_file);
  if (recovery_on_) {
    // A fresh flight: this lane is its owner.
    l.flight_owner = kNoLane;
    l.hedge_lane = kNoLane;
    l.zombie = false;
    l.limbo = false;
    l.attempts = 1;
    l.retries_used = 0;
    // Resolve the file now (not at serve time): a retry or hedge of this
    // flight must request the SAME file, and the shared RequestSource
    // would hand each attempt a different one.
    if (!l.has_pinned_file && next_file_ != nullptr) {
      l.pinned_file = next_file_();
      l.has_pinned_file = true;
    }
    ArmFlightTimers(lane, 0);
  }
  if (shards_ == nullptr) {
    // Request propagation to the fleet.
    events_->ScheduleAfter(config_.delay.one_way_delay,
                           [this, lane] { ArriveAtFleet(lane); });
    return;
  }
  // One machine per member: the client's own member serves it, and the
  // file is drawn here, on the frontend — members never call next_file_.
  l.server = lane % fleet_.size();
  iolsim::ShardMsg msg;
  msg.when = clock_->now() + config_.delay.one_way_delay;
  msg.a = lane;
  msg.b = static_cast<uint64_t>(l.has_pinned_file ? l.pinned_file : next_file_());
  msg.c = l.req.tenant;
  shards_->runner->Send(0, static_cast<uint32_t>(1 + l.server), msg);
}

void Experiment::OnShardMessage(uint32_t lane, const iolsim::ShardMsg& msg) {
  if (lane == 0) {
    // A response reaches its client (msg.a); the member reported when it
    // admitted the request and whether the body was a cache hit.
    size_t client = msg.a;
    size_t bytes = msg.b;
    Lane& l = lanes_[client];
    l.record.admit = static_cast<iolsim::SimTime>(msg.c);
    l.req.cache_hit = msg.d != 0;
    events_->ScheduleAt(msg.when, [this, client, bytes] { OnClientReceive(client, bytes); });
    return;
  }
  // A request reaches member m and fills a pooled slot on its machine,
  // bound to the connection the member keeps for this client.
  size_t m = lane - 1;
  Machine& machine = *members_[m].machine;
  size_t slot;
  if (!machine.free_slots.empty()) {
    slot = machine.free_slots.back();
    machine.free_slots.pop_back();
  } else {
    slot = machine.own_slots.size();
    machine.own_slots.emplace_back().req.on_done = [this, m, slot](iolhttp::RequestContext*) {
      OnServerDone(m, slot);
    };
  }
  size_t client = msg.a;
  size_t local = client / fleet_.size();
  while (machine.conns.size() <= local) {
    machine.conns.push_back(std::make_unique<iolnet::TcpConnection>(
        machine.net, fleet_.server(m)->uses_iolite_sockets()));
  }
  Lane& s = machine.own_slots[slot];
  s.conn_index = client;
  s.server = m;
  s.has_pinned_file = true;
  s.pinned_file = static_cast<iolfs::FileId>(msg.b);
  s.req.tenant = static_cast<iolsim::TenantId>(msg.c);
  s.req.conn = machine.conns[local].get();
  machine.ctx->events().ScheduleAt(msg.when, [this, m, slot] { Admit(m, slot); });
}

void Experiment::ArriveAtFleet(size_t lane) {
  if (done_) {
    return;
  }
  Lane& l = lanes_[lane];
  if (recovery_on_ && l.zombie) {
    RecycleLane(lane);  // The flight moved on while this attempt was in flight.
    return;
  }
  if (fleet_.size() == 1) {
    // Degenerate fleet (every classic experiment): there is nothing to
    // balance, skip the load snapshot and the balancer virtual call.
    l.server = 0;
  } else if (workload_->PinMember(l.conn_index, &l.server)) {
    // Geographically pinned client (the CDN hierarchy's per-edge client
    // populations): the client always talks to its edge — no balancing,
    // no hedge steering (recovery and CDN pinning are not composed).
    l.server %= fleet_.size();
  } else {
    // The balancer sees each member's full backlog: in service plus waiting
    // in its accept queue. (load_scratch_ is a member: one arrival per
    // event, and reusing it keeps the per-arrival hot path allocation-free.)
    for (size_t s = 0; s < fleet_.size(); ++s) {
      load_scratch_[s] = health_on_ && ejected_[s] != 0
                             ? kEjected
                             : members_[s].in_service +
                                   static_cast<int>(members_[s].accept_queue.size());
    }
    l.server = fleet_.PickServer(load_scratch_);
    if (recovery_on_ && l.flight_owner != kNoLane) {
      // A hedged duplicate is pointless on the member the primary is
      // already waiting on; steer it to the next non-ejected member.
      size_t primary = lanes_[l.flight_owner].server;
      if (l.server == primary) {
        for (size_t i = 1; i < fleet_.size(); ++i) {
          size_t c = (l.server + i) % fleet_.size();
          if (health_on_ && ejected_[c] != 0) {
            continue;
          }
          l.server = c;
          break;
        }
      }
    }
  }
  if (fault_on_ && fleet_.server(l.server)->down()) {
    // A dead member answers nothing — not even a RST. The lane goes to
    // limbo (no continuation holds it) until the flight's timeout reclaims
    // it. Crash plans without recovery were rejected at Run start.
    l.limbo = true;
    ++blackholed_;
    return;
  }
  Admit(l.server, lane);
}

void Experiment::Admit(size_t m, size_t slot) {
  Member& member = members_[m];
  if (config_.max_concurrent > 0 && member.in_service >= config_.max_concurrent) {
    // At capacity: the connection waits in the accept queue (never dropped).
    member.accept_queue.push_back(slot);
    ++member.admission_waits;
    return;
  }
  ServeRequest(m, slot);
}

void Experiment::ServeRequest(size_t m, size_t slot) {
  Member& member = members_[m];
  Machine& machine = *member.machine;
  Lane& l = (*machine.slots)[slot];
  if (++machine.in_service > machine.peak) {
    machine.peak = machine.in_service;
  }
  if (++member.in_service > member.peak) {
    member.peak = member.in_service;
  }
  l.record.admit = machine.ctx->clock().now();
  l.req.file = l.has_pinned_file ? l.pinned_file : next_file_();
  l.req.response_bytes = 0;
  l.req.cache_hit = false;
  iolhttp::HttpServer* server = fleet_.server(m);
  if (fault_on_) {
    // Captured so a crash between now and pipeline completion is
    // detectable at OnServerDone (the response dies with the process).
    l.serve_epoch = server->crash_epoch();
  }
  // The serve runs as its tenant: the fair schedulers and the cache's
  // per-tenant accounting read the context's active tenant from here on
  // (a plain store; stays kDefaultTenant in single-tenant runs).
  machine.ctx->set_active_tenant(l.req.tenant);
  if (!l.req.conn->connected()) {
    // Handshake CPU (SYN/PCB work) is a pipeline stage like any other; the
    // handshake round trip itself is charged with the response delays.
    iolhttp::RunCpuStage(
        machine.ctx, [&l] { l.req.conn->Connect(); },
        [server, &l] { server->StartRequest(&l.req); });
  } else {
    server->StartRequest(&l.req);
  }
}

void Experiment::OnServerDone(size_t m, size_t slot) {
  // A shared machine stops with the client half; a member's own machine
  // finishes what it holds (and never reads the frontend's done_).
  if (shards_ == nullptr && done_) {
    return;
  }
  Member& member = members_[m];
  Machine& machine = *member.machine;
  Lane& l = (*machine.slots)[slot];
  size_t bytes = l.req.response_bytes;
  if (!config_.persistent_connections) {
    l.req.conn->Close();
  }
  if (config_.enforce_cache_budget) {
    machine.cache->EnforceBudget(CacheBudget());
  }
  if (config_.cache_budget_bytes > 0) {
    machine.cache->EnforceBudget(config_.cache_budget_bytes);
  }
  --machine.in_service;
  --member.in_service;
  iolhttp::HttpServer* srv = fleet_.server(m);
  if (!fault_on_ || !srv->down()) {
    DrainAcceptQueue(m);
  }
  if (fault_on_ &&
      (srv->down() || l.serve_epoch != srv->crash_epoch())) {
    // The member crashed after this serve began (or is still down): the
    // process died holding the connection, so the response is dropped on
    // the floor. The flight's timeout handles recovery.
    ++response_drops_;
    if (recovery_on_) {
      if (l.zombie) {
        RecycleLane(slot);  // Already abandoned; nothing else holds it.
      } else {
        l.limbo = true;  // Hand the lane to the flight's timeout.
      }
    }
    return;
  }

  // Response propagation, plus one handshake round trip for nonpersistent
  // connections.
  iolsim::SimTime respond_delay = config_.delay.one_way_delay;
  if (!config_.persistent_connections) {
    respond_delay += config_.delay.RoundTrip();
  }
  if (pipeline_depth_ == 1) {
    // One request per connection at a time: always in order.
    Respond(m, slot, bytes, respond_delay);
    return;
  }
  // A pipelined connection delivers responses in request order: an
  // out-of-order completion (e.g. a sibling's cache hit passing this lane's
  // disk read) waits for the head of line.
  ConnState& cs = conn_state_[l.conn_index];
  cs.done_out_of_order[l.seq] = {slot, bytes};
  while (!cs.done_out_of_order.empty() &&
         cs.done_out_of_order.begin()->first == cs.next_deliver) {
    auto [head_lane, head_bytes] = cs.done_out_of_order.begin()->second;
    cs.done_out_of_order.erase(cs.done_out_of_order.begin());
    ++cs.next_deliver;
    Respond(m, head_lane, head_bytes, respond_delay);
  }
}

void Experiment::Respond(size_t m, size_t slot, size_t bytes, iolsim::SimTime delay) {
  if (shards_ == nullptr) {
    events_->ScheduleAfter(delay, [this, slot, bytes] { OnClientReceive(slot, bytes); });
    return;
  }
  // The slot's fields ride the message back; the slot is free from here.
  Machine& machine = *members_[m].machine;
  const Lane& s = machine.own_slots[slot];
  iolsim::ShardMsg msg;
  msg.when = machine.ctx->clock().now() + delay;
  msg.a = s.conn_index;
  msg.b = bytes;
  msg.c = static_cast<uint64_t>(s.record.admit);
  msg.d = s.req.cache_hit ? 1 : 0;
  machine.free_slots.push_back(slot);
  shards_->runner->Send(static_cast<uint32_t>(1 + m), 0, msg);
}

void Experiment::DrainAcceptQueue(size_t m) {
  Member& member = members_[m];
  while (!member.accept_queue.empty() &&
         (config_.max_concurrent == 0 || member.in_service < config_.max_concurrent)) {
    size_t waiting = member.accept_queue.front();
    member.accept_queue.pop_front();
    if (recovery_on_ && lanes_[waiting].zombie) {
      RecycleLane(waiting);  // Timed out while queued; serve the next waiter.
      continue;
    }
    ServeRequest(m, waiting);
  }
}

void Experiment::OnClientReceive(size_t lane, size_t bytes) {
  if (done_) {
    return;
  }
  Lane& l = lanes_[lane];
  if (recovery_on_) {
    if (l.zombie) {
      RecycleLane(lane);  // A losing attempt's response arrives: swallow it.
      return;
    }
    DeliverFlight(lane, bytes);
    return;
  }
  l.record.complete = clock_->now();
  l.record.bytes = bytes;
  l.record.server = l.server;
  l.record.tenant = l.req.tenant;
  l.record.cache_hit = l.req.cache_hit;
  if (!CountCompletion(l.record)) {
    return;
  }
  if (workload_->closed_loop()) {
    IssueRequest(lane);
  } else {
    free_lanes_.push_back(lane);
  }
}

bool Experiment::CountCompletion(RequestRecord& rec) {
  ++completed_;
  rec.counted = completed_ > config_.warmup_requests;
  telemetry_->Record(rec);
  if (!rec.counted) {
    if (completed_ == config_.warmup_requests) {
      count_start_ = clock_->now();
    }
    return true;
  }
  ++counted_requests_;
  if (Delivered(rec.outcome)) {
    counted_bytes_ += rec.bytes;
    share_[rec.server].requests++;
    share_[rec.server].bytes += rec.bytes;
  } else {
    ++failed_counted_;
  }
  if (counted_requests_ < config_.max_requests) {
    return true;
  }
  done_ = true;
  done_at_ = clock_->now();
  return false;
}

// --- Fault plane (src/fault) ------------------------------------------------

void Experiment::ArmFaults() {
  for (const iolfault::FaultEvent& e : config_.faults->events()) {
    switch (e.kind) {
      case iolfault::FaultKind::kMemberCrash: {
        size_t m = static_cast<size_t>(e.target) % fleet_.size();
        bool cold = e.cold_cache;
        ctx_->events().ScheduleAt(e.at, [this, m] { CrashMember(m); });
        ctx_->events().ScheduleAt(e.at + e.duration,
                                  [this, m, cold] { RestartMember(m, cold); });
        break;
      }
      case iolfault::FaultKind::kDiskFailSlow:
        ctx_->disk().AddSlowWindow(e.at, e.at + e.duration, e.slow_num,
                                   e.slow_den);
        break;
      case iolfault::FaultKind::kLinkOutage:
        ctx_->link().AddOutageWindow(e.at, e.at + e.duration);
        break;
    }
  }
}

void Experiment::CrashMember(size_t m) {
  if (done_) {
    return;
  }
  // In-flight serves keep consuming their reserved resources (the machine
  // is up; the process is gone), but their responses will fail the epoch
  // check at OnServerDone and be dropped. New arrivals black-hole.
  fleet_.server(m)->Crash();
}

void Experiment::RestartMember(size_t m, bool cold_cache) {
  if (done_) {
    return;
  }
  fleet_.server(m)->Restart();
  if (cold_cache && cache_ != nullptr && fleet_.size() > 0) {
    // The machine's unified cache survives a process crash, but the
    // member's share of it — its working set, mappings, checksum state —
    // does not. Evict 1/fleet of the cached bytes (all of them for a
    // single-member fleet) so the restarted member starts cold.
    uint64_t bytes = cache_->bytes();
    uint64_t keep = bytes - bytes / fleet_.size();
    cache_->EnforceBudget(keep);
  }
  // Serve connections that were accepted before the crash and waited out
  // the downtime in the accept queue (their clients may have given up:
  // zombie entries are recycled by the drain).
  DrainAcceptQueue(m);
}

void Experiment::RunHealthProbe() {
  if (done_) {
    return;
  }
  for (size_t s = 0; s < fleet_.size(); ++s) {
    bool up = !fault_on_ || !fleet_.server(s)->down();
    if (up) {
      probe_bad_[s] = 0;
      ++probe_good_[s];
      if (ejected_[s] != 0 &&
          probe_good_[s] >= config_.recovery.healthy_after) {
        ejected_[s] = 0;  // Re-admitted.
      }
    } else {
      probe_good_[s] = 0;
      ++probe_bad_[s];
      if (ejected_[s] == 0 &&
          probe_bad_[s] >= config_.recovery.unhealthy_after) {
        ejected_[s] = 1;
        ++health_ejections_;
      }
    }
  }
  events_->ScheduleAfter(config_.recovery.health_check_interval,
                         [this] { RunHealthProbe(); });
}

void Experiment::ArmFlightTimers(size_t lane, iolsim::SimTime extra_delay) {
  Lane& l = lanes_[lane];
  l.timeout_ev =
      events_->ScheduleAfter(extra_delay + config_.recovery.request_timeout,
                             [this, lane] { OnRequestTimeout(lane); });
  l.hedge_ev =
      config_.recovery.hedge_delay > 0
          ? events_->ScheduleAfter(extra_delay + config_.recovery.hedge_delay,
                                   [this, lane] { FireHedge(lane); })
          : kNoEvent;
}

void Experiment::CancelFlightTimers(size_t lane) {
  Lane& l = lanes_[lane];
  if (l.timeout_ev != kNoEvent) {
    events_->Cancel(l.timeout_ev);
    l.timeout_ev = kNoEvent;
  }
  if (l.hedge_ev != kNoEvent) {
    events_->Cancel(l.hedge_ev);
    l.hedge_ev = kNoEvent;
  }
}

size_t Experiment::AcquireAttemptLane() {
  size_t lane;
  if (!free_lanes_.empty()) {
    lane = free_lanes_.back();
    free_lanes_.pop_back();
  } else {
    lane = AddClient();
  }
  Lane& l = lanes_[lane];
  l.flight_owner = kNoLane;
  l.hedge_lane = kNoLane;
  l.timeout_ev = kNoEvent;
  l.hedge_ev = kNoEvent;
  l.zombie = false;
  l.limbo = false;
  l.attempts = 1;
  l.retries_used = 0;
  return lane;
}

void Experiment::RecycleLane(size_t lane) {
  Lane& l = lanes_[lane];
  l.zombie = false;
  l.limbo = false;
  l.flight_owner = kNoLane;
  l.hedge_lane = kNoLane;
  free_lanes_.push_back(lane);
}

void Experiment::AbandonAttempt(size_t lane) {
  Lane& l = lanes_[lane];
  l.zombie = true;
  if (l.limbo) {
    RecycleLane(lane);  // Nothing holds it; reclaim now.
  }
  // Otherwise exactly one pending continuation (arrival event, QoS hold,
  // accept-queue slot, pipeline completion, or delivery event) still
  // references the lane and will recycle it on sight of the zombie flag.
}

void Experiment::OnRequestTimeout(size_t lane) {
  if (done_) {
    return;
  }
  Lane& o = lanes_[lane];
  o.timeout_ev = kNoEvent;  // It just fired.
  if (o.hedge_ev != kNoEvent) {
    events_->Cancel(o.hedge_ev);
    o.hedge_ev = kNoEvent;
  }
  if (o.hedge_lane != kNoLane) {
    AbandonAttempt(o.hedge_lane);
    o.hedge_lane = kNoLane;
  }
  if (o.retries_used < config_.recovery.max_retries) {
    // Retry on a fresh lane and connection (the old connection is dead if
    // the member crashed, and busy if the member is merely slow), after a
    // capped exponential backoff. The flight migrates: the new lane owns
    // the record, the timers, and the closed-loop continuation.
    ++retries_total_;
    size_t r = AcquireAttemptLane();
    Lane& rn = lanes_[r];
    Lane& prev = lanes_[lane];  // Re-resolve: AcquireAttemptLane may grow lanes_.
    rn.record = prev.record;    // Original issue time: latency spans retries.
    rn.req.tenant = prev.req.tenant;  // The tenant tag survives the retry —
                                      // a retry storm still pays its own
                                      // way through the fair queue.
    rn.has_pinned_file = prev.has_pinned_file;
    rn.pinned_file = prev.pinned_file;
    rn.server = prev.server;
    rn.attempts = static_cast<uint8_t>(prev.attempts + 1);
    rn.retries_used = static_cast<uint8_t>(prev.retries_used + 1);
    rn.seq = conn_state_[rn.conn_index].next_issue++;
    AbandonAttempt(lane);
    iolsim::SimTime backoff = config_.recovery.retry_backoff;
    for (int k = 1; k < rn.retries_used; ++k) {
      backoff *= 2;
      if (backoff >= config_.recovery.retry_backoff_cap) {
        backoff = config_.recovery.retry_backoff_cap;
        break;
      }
    }
    if (backoff > config_.recovery.retry_backoff_cap) {
      backoff = config_.recovery.retry_backoff_cap;
    }
    // The attempt's own timeout clock starts when the client reissues
    // (after the backoff); the wire delay applies to the reissue too.
    ArmFlightTimers(r, backoff);
    events_->ScheduleAfter(backoff + config_.delay.one_way_delay,
                           [this, r] { ArriveAtFleet(r); });
    return;
  }
  // Out of retries: the flight fails. Record the outcome — failed records
  // count toward the stop condition but carry no bytes and no latency
  // sample — and, closed loop, issue the client's next logical request on
  // a fresh lane (this one may still be stuck in a pipeline).
  RequestRecord rec = o.record;
  rec.complete = clock_->now();
  rec.bytes = 0;
  rec.server = o.server;
  rec.tenant = o.req.tenant;
  rec.outcome = config_.recovery.max_retries > 0 ? Outcome::kFailed
                                                 : Outcome::kTimedOut;
  rec.attempts = o.attempts;
  rec.cache_hit = false;
  bool more = CountCompletion(rec);
  AbandonAttempt(lane);
  if (more && workload_->closed_loop()) {
    IssueRequest(AcquireAttemptLane());
  }
}

void Experiment::FireHedge(size_t lane) {
  if (done_) {
    return;
  }
  Lane& o = lanes_[lane];
  o.hedge_ev = kNoEvent;
  if (o.zombie || o.hedge_lane != kNoLane) {
    return;  // The flight moved on; a stale timer has nothing to hedge.
  }
  ++hedges_total_;
  size_t h = AcquireAttemptLane();
  Lane& hn = lanes_[h];
  Lane& on = lanes_[lane];  // Re-resolve after possible growth.
  hn.flight_owner = static_cast<uint32_t>(lane);
  hn.req.tenant = on.req.tenant;
  hn.has_pinned_file = on.has_pinned_file;
  hn.pinned_file = on.pinned_file;
  hn.seq = conn_state_[hn.conn_index].next_issue++;
  on.hedge_lane = static_cast<uint32_t>(h);
  events_->ScheduleAfter(config_.delay.one_way_delay,
                         [this, h] { ArriveAtFleet(h); });
}

void Experiment::DeliverFlight(size_t lane, size_t bytes) {
  Lane& x = lanes_[lane];
  size_t owner_idx = x.flight_owner != kNoLane ? x.flight_owner : lane;
  Lane& o = lanes_[owner_idx];
  CancelFlightTimers(owner_idx);
  if (owner_idx != lane) {
    // The hedge won: the primary attempt is abandoned wherever it is.
    AbandonAttempt(owner_idx);
  } else if (o.hedge_lane != kNoLane) {
    AbandonAttempt(o.hedge_lane);
  }
  RequestRecord rec = o.record;
  rec.complete = clock_->now();
  rec.bytes = bytes;
  rec.server = x.server;
  rec.admit = x.record.admit;  // The winning attempt's admission.
  rec.tenant = x.req.tenant;
  rec.cache_hit = x.req.cache_hit;
  rec.outcome = owner_idx != lane
                    ? Outcome::kHedgeWon
                    : (o.retries_used > 0 ? Outcome::kRetriedOk : Outcome::kOk);
  rec.attempts = o.attempts;
  // This lane carries the client forward; sever any flight linkage.
  x.flight_owner = kNoLane;
  x.hedge_lane = kNoLane;
  if (!CountCompletion(rec)) {
    return;
  }
  if (workload_->closed_loop()) {
    IssueRequest(lane);
  } else {
    RecycleLane(lane);
  }
}

}  // namespace ioldrv
