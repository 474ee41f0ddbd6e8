// The staged, event-driven request pipeline.
//
// A request is a chain of continuations walking the stages
//
//   parse -> cache lookup -> (async) disk I/O -> header build / CGI hop
//         -> checksum + enqueue -> transmit
//
// Each stage acquires the machine's contended resources (N-way CPU, disk
// arm, shared link — see SimContext::cpu()/disk()/link()) at the moment it
// runs, so the CPU work of one request overlaps the disk and wire time of
// others. This replaces the old model that executed a request's whole data
// path under one cost tally and scheduled the summed demand post hoc.
//
// Mechanically, a stage's *body* (side effects: cache updates, checksum
// cache, buffer movement) executes when the stage is entered, under a
// micro-tally that captures its CPU/disk demand without advancing the
// clock; the demand is then pushed through the FIFO resources and the next
// stage resumes at the completion event.
//
// Allocation contract: the body runs synchronously and is a template
// parameter — it may capture anything (aggregates included) at zero cost.
// The continuation `next` is an InlineCallback: it is stored in the event
// heap, so its capture must fit kInlineCallbackBytes — in practice a couple
// of pointers. Oversized captures fail to compile.

#ifndef SRC_HTTPD_REQUEST_PIPELINE_H_
#define SRC_HTTPD_REQUEST_PIPELINE_H_

#include <cassert>
#include <utility>

#include "src/fs/sim_file_system.h"
#include "src/simos/inline_function.h"
#include "src/simos/sim_context.h"

namespace iolnet {
class TcpConnection;
}

namespace iolhttp {

// One in-flight request walking the staged pipeline. Owned by the caller
// (driver, or the synchronous HandleRequest wrapper); must stay alive until
// `on_done` has fired. Callers reuse the same context across requests
// (driver lanes are pooled), so steady-state request turnover allocates
// nothing.
struct RequestContext {
  iolnet::TcpConnection* conn = nullptr;
  iolfs::FileId file = iolfs::kInvalidFile;
  // Header + body bytes of the response, set once the response is queued.
  size_t response_bytes = 0;
  // Whether the body came from the unified cache (set by the server's
  // cache-lookup stage; stays false for generated content, e.g. CGI).
  bool cache_hit = false;
  // Owning tenant (multi-tenant QoS plane, src/qos): the workload's tenant
  // for the request, assigned at issue; kDefaultTenant for single-tenant
  // runs.
  iolsim::TenantId tenant = iolsim::kDefaultTenant;
  // Invoked exactly once, when the last response byte has left the wire.
  iolsim::InlineFunction<void(RequestContext*)> on_done;
};

// Pushes a measured stage demand through explicit FIFO resources — `disk`
// first if the stage did disk work (e.g. metadata I/O), then `cpu` — and
// resumes `next` at the completion event. A stage with zero demand still
// hands control back through the event queue, preserving deterministic
// stage ordering. `disk` may be null for stages that structurally cannot do
// disk work (e.g. the proxy tier's front-cache stages, whose machine has no
// disk in the model); such a stage asserting disk demand is a bug.
inline void DispatchStageDemandOn(iolsim::SimContext* ctx, iolsim::Resource* cpu,
                                  iolsim::Resource* disk, const iolsim::Tally& tally,
                                  iolsim::InlineCallback next) {
  if (tally.disk > 0) {
    assert(disk != nullptr && "stage charged disk time on a diskless pipeline");
    ctx->chain().AcquireThenAsync(disk, tally.disk, cpu, tally.cpu, std::move(next));
  } else {
    cpu->AcquireAsync(&ctx->events(), tally.cpu, std::move(next));
  }
}

// Pushes a measured stage demand through the machine's own resources
// (SimContext::cpu()/disk()).
inline void DispatchStageDemand(iolsim::SimContext* ctx, const iolsim::Tally& tally,
                                iolsim::InlineCallback next) {
  DispatchStageDemandOn(ctx, &ctx->cpu(), &ctx->disk(), tally, std::move(next));
}

// Runs `body` immediately under a micro-tally, then dispatches the measured
// demand onto explicit resources (see DispatchStageDemandOn). This is the
// stage primitive for pipelines that do not run on the machine's own
// CPU/disk — the proxy tier schedules its stages on the proxy machine's CPU
// this way while reusing the same tally mechanics as the origin servers.
template <typename Body>
void RunStageOn(iolsim::SimContext* ctx, iolsim::Resource* cpu, iolsim::Resource* disk,
                Body&& body, iolsim::InlineCallback next) {
  assert(!ctx->tally_active() && "stages do not nest");
  iolsim::Tally tally;
  {
    iolsim::TallyScope scope(ctx, &tally);
    body();
  }
  DispatchStageDemandOn(ctx, cpu, disk, tally, std::move(next));
}

// Runs `body` immediately under a micro-tally, then dispatches the measured
// demand onto the machine's own resources (see DispatchStageDemand).
template <typename Body>
void RunCpuStage(iolsim::SimContext* ctx, Body&& body, iolsim::InlineCallback next) {
  RunStageOn(ctx, &ctx->cpu(), &ctx->disk(), std::forward<Body>(body), std::move(next));
}

}  // namespace iolhttp

#endif  // SRC_HTTPD_REQUEST_PIPELINE_H_
