// Workload: the arrival-process axis of an experiment.
//
// A Workload answers exactly two questions for the engine — "when does the
// next request arrive?" and (optionally) "which file does it want?" — so
// arrival models compose with any server fleet and any telemetry sink:
//
//  * ClosedLoop: each client issues a new request the moment its previous
//    response arrives; persistent connections may keep `pipeline_depth`
//    requests in flight (HTTP/1.1 pipelining). Arrival rate equals service
//    rate — the saturation experiments of Figures 3-12.
//  * OpenLoopPoisson: requests arrive in a Poisson stream, independent of
//    completions, over a connection pool that grows under overload. The
//    arrival rate is the experiment's independent variable.
//  * TraceReplay: arrivals at the instants of a timestamped access log
//    (parsed or synthesized — see iolwl::TimestampedLog), each pinned to
//    the file the log names. Latency-vs-load curves replay real traffic
//    instead of a fitted arrival model.

#ifndef SRC_DRIVER_WORKLOAD_H_
#define SRC_DRIVER_WORKLOAD_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "src/fs/sim_file_system.h"
#include "src/simos/clock.h"
#include "src/simos/rng.h"
#include "src/workload/trace.h"

namespace ioldrv {

class Workload {
 public:
  virtual ~Workload() = default;

  // Client connections the engine creates up front (the whole population
  // for closed loops; the initial pool for open loops, which grow on
  // demand).
  virtual int initial_clients() const = 0;

  // Requests a client keeps in flight on a persistent connection.
  virtual int pipeline_depth() const { return 1; }

  // Closed loop: every completion immediately issues the lane's next
  // request; NextArrival is never consulted.
  virtual bool closed_loop() const = 0;

  // Open loop: absolute time of the next arrival, given the current time.
  // Returns false when the arrival stream is exhausted (end of a replayed
  // log); the run then ends once in-flight requests drain.
  virtual bool NextArrival(iolsim::SimTime now, iolsim::SimTime* at);

  // Tenant issuing the arrival (multi-tenant QoS plane, src/qos). The
  // engine calls this immediately before NextFile for the same arrival, so
  // a multi-tenant workload may pick the file from the resolved tenant's
  // stream. Single-tenant workloads keep the default.
  virtual iolsim::TenantId TenantOf(size_t client, uint64_t issue_seq) {
    (void)client;
    (void)issue_seq;
    return iolsim::kDefaultTenant;
  }

  // File pinned to the arrival being issued (trace replay). Returns false
  // when the workload does not dictate files; the engine falls back to the
  // experiment's RequestSource.
  virtual bool NextFile(iolfs::FileId* file);

  // Fleet member pinned to `client`'s requests. Geographic workloads (the
  // CDN hierarchy's per-edge client populations, src/cdn) return true and
  // set *member: a client always talks to its edge, never to a balancer's
  // pick. Default: false — the engine balances as usual.
  virtual bool PinMember(size_t client, size_t* member) {
    (void)client;
    (void)member;
    return false;
  }

  // Rewinds cursors and reseeds generators so the same Workload object can
  // drive a fresh run deterministically. Called by Experiment::Run.
  virtual void Reset() {}
};

// Saturated closed loop: `clients` connections, each re-issuing on
// completion, optionally `pipeline_depth` deep on persistent connections.
class ClosedLoop : public Workload {
 public:
  explicit ClosedLoop(int clients, int pipeline_depth = 1)
      : clients_(clients), depth_(pipeline_depth) {}

  int initial_clients() const override { return clients_; }
  int pipeline_depth() const override { return depth_; }
  bool closed_loop() const override { return true; }

 private:
  int clients_;
  int depth_;
};

// Poisson arrivals at a fixed mean rate, decoupled from completions.
class OpenLoopPoisson : public Workload {
 public:
  // Dies loudly on a non-positive rate (a zero rate would spin the
  // interarrival math to +inf; release builds skip asserts).
  explicit OpenLoopPoisson(double arrivals_per_sec, uint64_t seed = 0x9e3779b9,
                           int initial_pool = 8);

  int initial_clients() const override { return pool_; }
  bool closed_loop() const override { return false; }
  bool NextArrival(iolsim::SimTime now, iolsim::SimTime* at) override;
  void Reset() override { rng_ = iolsim::Rng(seed_); }

 private:
  double rate_;
  uint64_t seed_;
  int pool_;
  iolsim::Rng rng_;
};

// Replays a timestamped log: one arrival per entry, at the entry's instant,
// requesting the entry's file. `ids` maps the log's popularity ranks to
// materialized files (see Trace::Materialize).
class TraceReplay : public Workload {
 public:
  TraceReplay(const iolwl::TimestampedLog* log, std::vector<iolfs::FileId> ids,
              int initial_pool = 8);

  int initial_clients() const override { return pool_; }
  bool closed_loop() const override { return false; }
  bool NextArrival(iolsim::SimTime now, iolsim::SimTime* at) override;
  bool NextFile(iolfs::FileId* file) override;
  void Reset() override {
    cursor_ = 0;
    pending_.clear();
  }

 private:
  const iolwl::TimestampedLog* log_;
  std::vector<iolfs::FileId> ids_;
  int pool_;
  size_t cursor_ = 0;
  // Files of scheduled-but-not-yet-issued arrivals, consumed in issue order
  // (issue order equals arrival order: the engine schedules one arrival at
  // a time).
  std::deque<iolfs::FileId> pending_;
};

}  // namespace ioldrv

#endif  // SRC_DRIVER_WORKLOAD_H_
