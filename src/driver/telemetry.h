// Telemetry: the per-request record sink of the experiment engine.
//
// The engine timestamps every request at three points — client issue,
// server admission (past the accept queue) and client receipt of the last
// response byte — and hands the finished record to a Telemetry sink. The
// sink keeps the raw stream; percentile summaries are computed
// deterministically (selection + nearest-rank) so the same run always reports
// the same p50/p90/p99, with no histogram-bucket rounding.

#ifndef SRC_DRIVER_TELEMETRY_H_
#define SRC_DRIVER_TELEMETRY_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/simos/clock.h"

namespace ioldrv {

// How a logical request ended, as observed by the client (fault plane,
// src/fault). Everything before kTimedOut delivered a response; kTimedOut
// and kFailed did not, and their records carry no latency sample (a
// timeout instant is a policy constant, not a measurement).
enum class Outcome : uint8_t {
  kOk = 0,      // First attempt delivered.
  kRetriedOk,   // A retry attempt delivered.
  kHedgeWon,    // The hedged duplicate delivered first.
  kTimedOut,    // Timed out with no retries configured (unprotected).
  kFailed,      // Timed out after exhausting every retry.
};

inline bool Delivered(Outcome o) { return o <= Outcome::kHedgeWon; }

// One completed request, as observed by the client population.
struct RequestRecord {
  iolsim::SimTime issue = 0;     // Client issued the request.
  iolsim::SimTime admit = 0;     // Server admitted it (past the accept queue).
  iolsim::SimTime complete = 0;  // Last response byte reached the client.
  size_t bytes = 0;              // Response bytes (header + body).
  size_t server = 0;             // Fleet member that served it.
  iolsim::TenantId tenant = iolsim::kDefaultTenant;  // Owning tenant (src/qos).
  Outcome outcome = Outcome::kOk;  // Fault plane; kOk on every fault-free run.
  uint8_t attempts = 1;          // Issues of this logical request (1 + retries).
  bool cache_hit = false;        // Body served from the unified cache.
  bool counted = false;          // Post-warmup (excluded from summaries otherwise).
};

// Deterministic latency percentiles over a set of records, in milliseconds.
// All fields are zero for an empty set — never NaN — so empty or
// warmup-only runs serialize cleanly.
struct LatencySummary {
  uint64_t count = 0;
  double mean_ms = 0;
  double p50_ms = 0;
  double p90_ms = 0;
  double p99_ms = 0;
  double max_ms = 0;
};

// Deterministic nearest-rank summary over raw SimTime samples, found by
// selection (the sample's order on return is unspecified) — the
// arithmetic every Telemetry summary uses, also applied to sample streams
// that are not request records (the CDN tier's staleness ages).
LatencySummary Summarize(std::vector<iolsim::SimTime> samples);

// Per-tenant slice of a run's counted records (multi-tenant QoS plane).
struct TenantSummary {
  iolsim::TenantId tenant = iolsim::kDefaultTenant;
  uint64_t requests = 0;         // Counted completions.
  uint64_t bytes = 0;
  LatencySummary latency;        // End-to-end, counted records only.
  // Fraction of this tenant's counted requests served from the cache (the
  // per-request flag; whole-run per-tenant lookup rates live on the
  // QosPolicy's cache counters).
  double cache_hit_fraction = 0;
};

// Collects the record stream of one experiment run. Warmup records are kept
// (flagged `counted = false`) so callers can inspect the full stream, but
// every summary covers counted records only.
class Telemetry {
 public:
  // Called by the engine once per completed request, in completion order.
  void Record(const RequestRecord& rec) { records_.push_back(rec); }

  const std::vector<RequestRecord>& records() const { return records_; }

  // Pre-sizes the record stream (the engine reserves its expected
  // completion count up front so steady-state Records never grow the
  // vector mid-run).
  void Reserve(size_t n) { records_.reserve(n); }

  // End-to-end latency (complete - issue) of counted *delivered* requests,
  // starting at record index `from` — an accumulating sink shared across
  // runs can be summarized per run (the engine passes its run's first
  // record index). Failed records contribute no sample: a timeout instant
  // measures the policy, not the system. With `cache_hit_fraction`, also
  // sets it to the fraction of counted requests, delivered or not, served
  // from the cache, from the same pass over the records.
  LatencySummary EndToEndLatency(size_t from = 0, double* cache_hit_fraction = nullptr) const;

  // Accept-queue + propagation wait (admit - issue) of counted requests.
  LatencySummary QueueWait(size_t from = 0) const;

  // Per-tenant breakdown of the counted records, ordered by tenant id.
  // Tenants with no counted records are omitted; a pre-QoS run (every
  // record tagged kDefaultTenant) yields a single entry equal to the
  // aggregate summaries.
  std::vector<TenantSummary> PerTenant(size_t from = 0) const;

  void Clear() { records_.clear(); }

 private:
  // Summary of (record.*end - record.issue) over the counted delivered
  // records from index `from`: the one sample loop both latencies share.
  LatencySummary SinceIssue(size_t from, iolsim::SimTime RequestRecord::*end,
                            double* cache_hit_fraction) const;

  std::vector<RequestRecord> records_;
};

}  // namespace ioldrv

#endif  // SRC_DRIVER_TELEMETRY_H_
