#include "src/proxy/plane_proxy.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/fs/replacement_policy.h"
#include "src/httpd/response_header.h"
#include "src/simos/vm.h"

namespace iolproxy {

namespace {

using iolipc::kFrameEnd;
using iolipc::kRespBodySlab;
using iolipc::kRespHeaderSlab;
using iolipc::kRespPinned;
using iolipc::SliceDesc;

static_assert(iolhttp::kResponseHeaderBytes <= iolipc::kHeaderSlotBytes,
              "a header slab slot holds one response header");

// Pops a free slot ({offset, capacity} with reserved = capacity) from
// `free_list`, waiting while it is empty: `yield` when pumped, else the
// wait policy on the free list, which the client's returns wake.
SliceDesc TakeSlot(iolipc::PlaneShared* s, iolipc::MpmcQueue* free_list,
                   const iolipc::YieldFn& yield) {
  SliceDesc slot;
  while (!free_list->TryPop(&slot)) {
    s->counters.Add(iolipc::kQueueFullYields, 1);
    if (yield) {
      yield();
    } else {
      free_list->AwaitItem();
    }
  }
  return slot;
}

// Completes the client's `future` with a freshly built header and `body`:
// a pinned cache entry (kRespPinned, ledgered in `pin_slot`) or a body slab
// slot (kRespBodySlab). With `copy` a pinned body is first copied into a
// body slot and unpinned — the contrast path: what a process-per-tier
// server without the descriptor discipline does. False when the client gave
// up on the response; everything it held is then handed back.
bool Respond(iolipc::PlaneShared* s, iolipc::FutureHandle future, SliceDesc body,
             bool copy, uint32_t pin_slot, const iolipc::YieldFn& yield) {
  iolipc::ShmCounters* c = &s->counters;
  if (copy) {
    SliceDesc slot = TakeSlot(s, &s->body_free, yield);
    assert(body.length <= slot.reserved && "body slots must hold the largest doc");
    std::memcpy(s->region->At(slot.offset), s->region->At(body.offset), body.length);
    c->Add(iolipc::kBytesCopiedCrossProcess, body.length);
    s->pin_ledger.Clear(pin_slot);
    s->cache_map.Unpin(body.ticket);
    slot.length = body.length;
    slot.flags = kRespBodySlab | kFrameEnd;
    body = slot;
  }
  SliceDesc hdr = TakeSlot(s, &s->header_free, yield);
  hdr.length = iolhttp::BuildResponseHeader(s->region->At(hdr.offset), body.length);
  hdr.flags = kRespHeaderSlab;
  // Clear-before-handoff (PinLedger contract): once Complete succeeds a pin
  // travels to the client with the descriptor, and the supervisor must
  // never sweep it out from under the client.
  s->pin_ledger.Clear(pin_slot);
  if (!s->futures.Complete(future, hdr, body)) {
    iolipc::ReturnResponse(s, hdr, body);
    return false;
  }
  c->Add(iolipc::kRequestsServed, 1);
  c->Add(iolipc::kBytesServed, hdr.length + body.length);
  return true;
}

}  // namespace

// --- Origin -----------------------------------------------------------------

OriginWorker::OriginWorker(iolipc::PlaneShared* shared, const PlaneDocSet& docs,
                           int origin, bool copy_data_path, uint64_t cache_budget_bytes,
                           uint32_t pin_slot)
    : s_(shared),
      misses_(&shared->origin_qs[origin]),
      copy_data_path_(copy_data_path),
      budget_(cache_budget_bytes),
      ctx_(),
      pool_(&ctx_, "origin-shm", iolsim::kKernelDomain,
            [region = shared->region](size_t n) { return region->AllocateExtent(n); }),
      fs_(&ctx_, &pool_),
      cache_(&ctx_, std::make_unique<iolfs::PlainLruPolicy>()),
      io_(&ctx_, &fs_, &cache_),
      mirror_(shared->region, &shared->cache_map),
      pin_slot_(pin_slot) {
  // Replica population: same creation order => same sequential FileIds =>
  // same content seeds as every other replica and the driver's reference.
  char name[32];
  for (int i = 0; i < docs.doc_count; ++i) {
    std::snprintf(name, sizeof(name), "doc-%05d", i);
    fs_.CreateFile(name, docs.doc_bytes);
  }
  cache_.set_mirror(&mirror_);
}

bool OriginWorker::Step(const iolipc::YieldFn& yield) {
  iolipc::ClientRequestMsg m;
  if (!misses_->PopAs(&m)) {
    return false;
  }
  iolipc::ShmCounters* c = &s_->counters;
  iolfs::FileId file = static_cast<iolfs::FileId>(m.file_id);
  if (!fs_.Exists(file)) {
    c->Add(iolipc::kFutureErrors, 1);
    s_->futures.Fail(m.future, kPlaneErrNoFile);
    return true;
  }
  uint64_t size = fs_.SizeOf(file);
  bool was_miss = false;
  io_.ReadExtent(file, 0, size, &was_miss);
  if (was_miss) {
    c->Add(iolipc::kBytesFilledOrigin, size);
  }
  // The read populated the local cache; the mirror projected the entry into
  // the shared map. Pin it on the client's behalf and answer with the
  // descriptor — the pin travels with the response until the client unpins.
  SliceDesc body;
  if (!s_->cache_map.LookupAndPin(m.file_id, &body)) {
    c->Add(iolipc::kFutureErrors, 1);
    s_->futures.Fail(m.future, kPlaneErrUnshareable);
  } else {
    s_->pin_ledger.Record(pin_slot_, m.file_id);
    body.ticket = m.file_id;
    body.flags = kRespPinned | kFrameEnd;
    if (Respond(s_, m.future, body, copy_data_path_, pin_slot_, yield)) {
      c->Add(iolipc::kOriginFills, 1);
    }
  }
  if (budget_ != 0) {
    int evicted = cache_.EnforceBudget(budget_);
    if (evicted > 0) {
      c->Add(iolipc::kMapEvictions, static_cast<uint64_t>(evicted));
    }
  }
  return true;
}

void OriginWorker::Run() {
  for (;;) {
    if (Step({})) {
      continue;
    }
    if (misses_->drained()) {
      return;
    }
    misses_->AwaitItem();
  }
}

// --- CGI --------------------------------------------------------------------

CgiWorker::CgiWorker(iolipc::PlaneShared* shared, uint64_t body_bytes)
    : s_(shared), body_bytes_(body_bytes) {}

bool CgiWorker::Step(const iolipc::YieldFn& yield) {
  iolipc::ClientRequestMsg m;
  if (!s_->cgi_q.PopAs(&m)) {
    return false;
  }
  SliceDesc body = TakeSlot(s_, &s_->body_free, yield);
  assert(body_bytes_ <= body.reserved && "body slots must hold a CGI body");
  char* base = s_->region->At(body.offset);
  for (uint64_t i = 0; i < body_bytes_; ++i) {
    base[i] = static_cast<char>(CgiByteAt(m.file_id, i));
  }
  body.length = body_bytes_;
  body.flags = kRespBodySlab | kFrameEnd;
  if (Respond(s_, m.future, body, false, iolipc::kNoPinSlot, yield)) {
    s_->counters.Add(iolipc::kCgiRequests, 1);
  }
  return true;
}

void CgiWorker::Run() {
  for (;;) {
    if (Step({})) {
      continue;
    }
    if (s_->cgi_q.drained()) {
      return;
    }
    s_->cgi_q.AwaitItem();
  }
}

// --- Proxy ------------------------------------------------------------------

ProxyWorker::ProxyWorker(iolipc::PlaneShared* shared, bool copy_data_path,
                         uint32_t pin_slot, uint32_t die_after_pins)
    : s_(shared),
      copy_data_path_(copy_data_path),
      pin_slot_(pin_slot),
      die_after_pins_(die_after_pins) {}

void ProxyWorker::RecordPin(uint64_t ticket) {
  s_->pin_ledger.Record(pin_slot_, ticket);
  uint64_t fleet_pins = s_->counters.Add(iolipc::kProxyPins, 1);
  if (die_after_pins_ != 0 && fleet_pins == die_after_pins_) {
    // Fault injection: die *while holding the ledgered pin*. The state left
    // behind is exactly one recorded ledger slot and one map pin — the
    // supervisor must sweep it or the cache entry is wedged forever. _Exit
    // skips destructors, like a real SIGKILL would.
    std::_Exit(9);
  }
}

bool ProxyWorker::Step(const iolipc::YieldFn& yield) {
  iolipc::ClientRequestMsg m;
  if (!s_->client_q.PopAs(&m)) {
    return false;
  }
  iolipc::ShmCounters* c = &s_->counters;
  iolipc::MpmcQueue* next = &s_->cgi_q;
  if (static_cast<iolipc::RequestKind>(m.kind) == iolipc::RequestKind::kStatic) {
    SliceDesc body;
    if (s_->cache_map.LookupAndPin(m.file_id, &body)) {
      c->Add(iolipc::kCacheHits, 1);
      RecordPin(m.file_id);
      body.ticket = m.file_id;
      body.flags = kRespPinned | kFrameEnd;
      Respond(s_, m.future, body, copy_data_path_, pin_slot_, yield);
      return true;
    }
    c->Add(iolipc::kCacheMisses, 1);
    next = &s_->home_queue(m.file_id);
  }
  // Not ours to answer: the request goes on unchanged, and whoever answers
  // it completes the client's future.
  while (!next->PushAs(m)) {
    c->Add(iolipc::kQueueFullYields, 1);
    iolipc::Backoff(yield);
  }
  return true;
}

void ProxyWorker::Run() {
  for (;;) {
    if (Step({})) {
      continue;
    }
    if (s_->client_q.drained()) {
      return;
    }
    s_->client_q.AwaitItem();
  }
}

}  // namespace iolproxy
