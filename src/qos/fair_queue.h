// Start-time fair queueing (SFQ) over the simulated machine's resources.
//
// FairQueue is the discipline in isolation: per-tenant FIFO queues with
// virtual start/finish tags (Goyal's SFQ). A job arriving from tenant T
// gets start tag S = max(v, F_T) and finish tag F_T = S + service / w_T,
// where v is the virtual time (the start tag of the most recently
// dispatched job) and w_T the tenant's weight. Dispatch picks the smallest
// (S, arrival seq) pair — the arrival sequence number is the same
// deterministic tie-break the event queue uses, so a single tenant (or any
// run with equal tags) dispatches in exact FIFO order and the golden
// determinism tests are unaffected. A bounded-wait starvation guard can
// promote the globally oldest queued job past the tag order.
//
// FairScheduler plugs the discipline into a Resource via the
// ResourceScheduler admission hook: jobs queue here instead of reserving a
// unit at call time, and each dispatch reserves the unit directly (the
// synchronous Acquire path, which bypasses the scheduler). The completion
// wrapper restores the owning tenant's identity on the SimContext before
// running the caller's continuation, so multi-stage request chains carry
// their tenant through disk, CPU, and link hops automatically. All queue
// and slot state lives in SlotPools: the warm path neither allocates nor
// frees.

#ifndef SRC_QOS_FAIR_QUEUE_H_
#define SRC_QOS_FAIR_QUEUE_H_

#include <cassert>
#include <cstdint>
#include <vector>

#include "src/qos/tenant.h"
#include "src/simos/sim_context.h"
#include "src/simos/slot_pool.h"

namespace iolqos {

// Virtual-time tags are kept in weighted nanoseconds scaled by kTagScale so
// integer division by the weight keeps sub-weight precision. int64 gives
// centuries of weighted service before overflow.
constexpr int64_t kTagScale = 1024;

class FairQueue {
 public:
  // One dispatched job, as returned by Pop.
  struct Job {
    uint64_t token = 0;        // Caller cookie from Push.
    TenantId tenant = kDefaultTenant;
    iolsim::SimTime service = 0;
    iolsim::SimTime enqueued_at = 0;
    bool promoted = false;     // Dispatched by the starvation guard.
  };

  // Weights default to 1 for every tenant never configured.
  void SetWeight(TenantId t, uint32_t weight) {
    Lane(t).weight = weight > 0 ? weight : 1;
  }

  // Bounded-wait promotion: a queued job older than `max_wait` is
  // dispatched next regardless of its start tag. 0 disables the guard.
  void set_max_wait(iolsim::SimTime max_wait) { max_wait_ = max_wait; }

  void Push(TenantId t, iolsim::SimTime now, iolsim::SimTime service, uint64_t token) {
    TenantLane& lane = Lane(t);
    int64_t start = lane.finish_tag > vtime_ ? lane.finish_tag : vtime_;
    int64_t finish = start + service * kTagScale / static_cast<int64_t>(lane.weight);
    lane.finish_tag = finish;

    uint32_t idx = nodes_.Acquire();
    Node& n = nodes_[idx];
    n.token = token;
    n.service = service;
    n.enqueued_at = now;
    n.seq = next_seq_++;
    n.start_tag = start;
    n.next = kNone;
    if (lane.tail != kNone) {
      nodes_[lane.tail].next = idx;
    } else {
      lane.head = idx;
    }
    lane.tail = idx;
    ++size_;
  }

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  // Removes and returns the job to dispatch at time `now`: the queue-head
  // with the smallest (start tag, seq) — or, when the guard is armed and
  // the globally oldest job has waited past the bound, that job.
  Job Pop(iolsim::SimTime now) {
    assert(size_ > 0);
    size_t best = tenants_.size();
    size_t oldest = tenants_.size();
    for (size_t t = 0; t < tenants_.size(); ++t) {
      uint32_t head = tenants_[t].head;
      if (head == kNone) {
        continue;
      }
      if (best == tenants_.size() || TagLess(nodes_[head], nodes_[tenants_[best].head])) {
        best = t;
      }
      if (oldest == tenants_.size() ||
          nodes_[head].seq < nodes_[tenants_[oldest].head].seq) {
        oldest = t;
      }
    }
    bool promoted = false;
    if (max_wait_ > 0 && oldest != best &&
        now - nodes_[tenants_[oldest].head].enqueued_at > max_wait_) {
      best = oldest;
      promoted = true;
      ++promotions_;
    }
    TenantLane& lane = tenants_[best];
    uint32_t idx = lane.head;
    Node& n = nodes_[idx];
    lane.head = n.next;
    if (lane.head == kNone) {
      lane.tail = kNone;
    }
    if (n.start_tag > vtime_) {
      vtime_ = n.start_tag;  // Virtual time: start tag of the last dispatch.
    }
    lane.dispatched_service += n.service;
    Job job;
    job.token = n.token;
    job.tenant = static_cast<TenantId>(best);
    job.service = n.service;
    job.enqueued_at = n.enqueued_at;
    job.promoted = promoted;
    nodes_.Release(idx);
    --size_;
    return job;
  }

  // Cumulative service dispatched on behalf of `t` (the share-ratio
  // property tests integrate this).
  iolsim::SimTime dispatched_service(TenantId t) const {
    return t < tenants_.size() ? tenants_[t].dispatched_service : 0;
  }

  uint64_t promotions() const { return promotions_; }

 private:
  static constexpr uint32_t kNone = UINT32_MAX;

  struct Node {
    uint64_t token = 0;
    iolsim::SimTime service = 0;
    iolsim::SimTime enqueued_at = 0;
    uint64_t seq = 0;
    int64_t start_tag = 0;
    uint32_t next = kNone;  // The lane's next node.
  };

  // Per-tenant lane: FIFO of pooled nodes plus the SFQ finish tag.
  struct TenantLane {
    uint32_t head = kNone;
    uint32_t tail = kNone;
    uint32_t weight = 1;
    int64_t finish_tag = 0;
    iolsim::SimTime dispatched_service = 0;
  };

  TenantLane& Lane(TenantId t) {
    if (t >= tenants_.size()) {
      tenants_.resize(t + 1);
    }
    return tenants_[t];
  }

  bool TagLess(const Node& a, const Node& b) const {
    if (a.start_tag != b.start_tag) {
      return a.start_tag < b.start_tag;
    }
    return a.seq < b.seq;
  }

  std::vector<TenantLane> tenants_;
  iolsim::SlotPool<Node> nodes_;
  size_t size_ = 0;
  uint64_t next_seq_ = 0;
  int64_t vtime_ = 0;
  iolsim::SimTime max_wait_ = 0;
  uint64_t promotions_ = 0;
};

// Binds a FairQueue to one Resource. Construction attaches (the resource's
// AcquireAsync calls start routing here); destruction detaches. The
// scheduler is work-conserving: a unit never idles while jobs are queued,
// and because every reservation is made at dispatch time, `inflight_ <
// units` implies some unit is free *now* — so a dispatched job always
// starts immediately and finishes at now + service.
class FairScheduler : public iolsim::ResourceScheduler {
 public:
  FairScheduler(iolsim::SimContext* ctx, iolsim::Resource* resource)
      : ctx_(ctx), resource_(resource) {
    resource_->set_scheduler(this);
  }

  ~FairScheduler() override {
    if (resource_->scheduler() == this) {
      resource_->set_scheduler(nullptr);
    }
  }

  FairScheduler(const FairScheduler&) = delete;
  FairScheduler& operator=(const FairScheduler&) = delete;

  void Admit(iolsim::Resource* resource, iolsim::EventQueue* events,
             iolsim::SimTime service, iolsim::InlineCallback done) override {
    assert(resource == resource_);
    (void)resource;
    (void)events;  // Completions ride ctx_->events(), the same queue.
    uint32_t slot = slots_.Acquire();
    Slot& s = slots_[slot];
    s.done = std::move(done);
    s.tenant = ctx_->active_tenant();
    ++admitted_;
    // Always enqueue, then pump: even with idle units the job must pass
    // through the tag order so it cannot overtake already-queued peers.
    queue_.Push(s.tenant, ctx_->clock().now(), service, slot);
    Pump();
  }

  FairQueue& queue() { return queue_; }
  const FairQueue& queue() const { return queue_; }

  uint64_t admitted() const { return admitted_; }
  uint64_t dispatched() const { return dispatched_; }
  size_t backlog() const { return queue_.size(); }

 private:
  struct Slot {
    iolsim::InlineCallback done;
    TenantId tenant = kDefaultTenant;
  };

  void Pump() {
    while (inflight_ < resource_->units() && !queue_.empty()) {
      FairQueue::Job job = queue_.Pop(ctx_->clock().now());
      ++inflight_;
      ++dispatched_;
      uint32_t slot = static_cast<uint32_t>(job.token);
      // Direct reservation: with inflight_ < units a unit is free now, so
      // this starts immediately (see class comment).
      iolsim::SimTime finish = resource_->Acquire(job.service);
      ctx_->events().ScheduleAt(finish, [this, slot] { Complete(slot); });
    }
  }

  void Complete(uint32_t slot) {
    Slot& s = slots_[slot];
    TenantId tenant = s.tenant;
    iolsim::InlineCallback done = std::move(s.done);
    slots_.Release(slot);
    --inflight_;
    // The continuation runs as its owning tenant: downstream stages (the
    // next resource hop, cache inserts) attribute to the right principal.
    ctx_->set_active_tenant(tenant);
    done();
    Pump();
  }

  iolsim::SimContext* ctx_;
  iolsim::Resource* resource_;
  FairQueue queue_;
  iolsim::SlotPool<Slot> slots_;
  int inflight_ = 0;
  uint64_t admitted_ = 0;
  uint64_t dispatched_ = 0;
};

}  // namespace iolqos

#endif  // SRC_QOS_FAIR_QUEUE_H_
