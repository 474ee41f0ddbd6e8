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
using iolipc::kRespCgiSlab;
using iolipc::kRespCopySlab;
using iolipc::kRespHeaderSlab;
using iolipc::kRespPinned;
using iolipc::SliceDesc;

}  // namespace

// --- Origin -----------------------------------------------------------------

OriginWorker::OriginWorker(iolipc::PlaneShared* shared, const PlaneDocSet& docs,
                           int origin, uint64_t cache_budget_bytes, uint32_t pin_slot)
    : s_(shared),
      fills_(&shared->origin_qs[origin]),
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

bool OriginWorker::Step() {
  iolipc::FillRequestMsg m;
  if (!fills_->PopAs(&m)) {
    return false;
  }
  iolipc::ShmCounters* c = &s_->counters;
  iolfs::FileId file = static_cast<iolfs::FileId>(m.file_id);
  if (!fs_.Exists(file)) {
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
  // the shared map. Pin it on the requester's behalf and hand over the
  // descriptor — the pin travels with the response until the client unpins.
  SliceDesc body;
  if (!s_->cache_map.LookupAndPin(m.file_id, &body)) {
    s_->futures.Fail(m.future, kPlaneErrUnshareable);
  } else {
    s_->pin_ledger.Record(pin_slot_, m.file_id);
    body.ticket = m.file_id;
    body.flags = kRespPinned | kFrameEnd;
    SliceDesc none{};
    // Clear-before-handoff: once Complete succeeds the pin belongs to the
    // requester, and the supervisor must never sweep it out from under
    // them (PinLedger contract).
    s_->pin_ledger.Clear(pin_slot_);
    if (!s_->futures.Complete(m.future, none, body)) {
      s_->cache_map.Unpin(m.file_id);  // Requester timed out; drop its pin.
    } else {
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

void OriginWorker::Run(const iolipc::YieldFn& idle) {
  for (;;) {
    if (Step()) {
      continue;
    }
    if (fills_->drained()) {
      return;
    }
    idle();
  }
}

// --- CGI --------------------------------------------------------------------

CgiWorker::CgiWorker(iolipc::PlaneShared* shared, uint64_t body_bytes)
    : s_(shared), body_bytes_(body_bytes) {}

bool CgiWorker::Step(const iolipc::YieldFn& yield) {
  iolipc::FillRequestMsg m;
  if (!s_->cgi_q.PopAs(&m)) {
    return false;
  }
  iolipc::ShmCounters* c = &s_->counters;
  SliceDesc slot;
  while (!iolipc::TakeSlot(&s_->cgi_free, &slot)) {
    c->Add(iolipc::kQueueFullYields, 1);
    yield();
  }
  assert(body_bytes_ + iolhttp::kResponseHeaderBytes <= slot.reserved &&
         "CGI slab slots must hold header + body");
  // One contiguous [header][body] response, completed straight to the
  // client's future: CGI -> client without re-entering the proxy.
  char* base = s_->region->At(slot.offset);
  size_t hlen = iolhttp::BuildResponseHeader(base, body_bytes_);
  for (uint64_t i = 0; i < body_bytes_; ++i) {
    base[hlen + i] = static_cast<char>(CgiByteAt(m.file_id, i));
  }
  SliceDesc hdr{};
  hdr.offset = slot.offset;
  hdr.length = hlen;
  hdr.flags = kRespCgiSlab;  // Returning the header desc returns the slot.
  hdr.reserved = slot.reserved;
  SliceDesc body{};
  body.offset = slot.offset + hlen;
  body.length = body_bytes_;
  body.flags = kFrameEnd;
  if (!s_->futures.Complete(m.future, hdr, body)) {
    iolipc::ReturnSlot(&s_->cgi_free, slot);
  } else {
    c->Add(iolipc::kCgiRequests, 1);
    c->Add(iolipc::kRequestsServed, 1);
    c->Add(iolipc::kBytesServed, hlen + body_bytes_);
  }
  return true;
}

void CgiWorker::Run(const iolipc::YieldFn& idle) {
  for (;;) {
    if (Step(idle)) {
      continue;
    }
    if (s_->cgi_q.drained()) {
      return;
    }
    idle();
  }
}

// --- Proxy ------------------------------------------------------------------

ProxyWorker::ProxyWorker(iolipc::PlaneShared* shared, bool copy_data_path,
                         uint64_t fill_wait_us, uint32_t pin_slot,
                         uint32_t die_after_pins)
    : s_(shared),
      copy_data_path_(copy_data_path),
      fill_wait_us_(fill_wait_us),
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
  if (static_cast<iolipc::RequestKind>(m.kind) == iolipc::RequestKind::kCgi) {
    iolipc::FillRequestMsg f{m.file_id, m.future, 0, 0};
    while (!s_->cgi_q.PushAs(f)) {
      s_->counters.Add(iolipc::kQueueFullYields, 1);
      yield();
    }
    return true;
  }
  ServeStatic(m, yield);
  return true;
}

void ProxyWorker::ServeStatic(const iolipc::ClientRequestMsg& m,
                              const iolipc::YieldFn& yield) {
  iolipc::ShmCounters* c = &s_->counters;
  SliceDesc body;
  bool hit = s_->cache_map.LookupAndPin(m.file_id, &body);
  if (hit) {
    c->Add(iolipc::kCacheHits, 1);
    RecordPin(m.file_id);
    body.ticket = m.file_id;
    body.flags = kRespPinned | kFrameEnd;
  } else {
    c->Add(iolipc::kCacheMisses, 1);
    iolipc::FutureHandle fill = s_->futures.Acquire();
    if (fill == iolipc::kInvalidFuture) {
      s_->futures.Fail(m.future, kPlaneErrNoFuture);
      return;
    }
    iolipc::FillRequestMsg f{m.file_id, fill, 0, 0};
    while (!s_->home_queue(m.file_id).PushAs(f)) {
      c->Add(iolipc::kQueueFullYields, 1);
      yield();
    }
    iolipc::ShmFuturePool::WaitResult r = s_->futures.Wait(fill, fill_wait_us_, yield);
    s_->futures.Release(fill);
    if (!r.ok) {
      // Fill failed or the origin died mid-request: the client future
      // resolves with an error instead of hanging — crash containment.
      c->Add(iolipc::kFutureErrors, 1);
      s_->futures.Fail(m.future, r.error != 0 ? r.error : 2);
      return;
    }
    body = r.value[1];  // Already pinned by the origin on our behalf.
    if (body.flags & kRespPinned) {
      RecordPin(body.ticket);  // The pin is ours now.
    }
  }
  if (copy_data_path_) {
    // Contrast path: what a process-per-tier server without the descriptor
    // discipline does — copy the payload across the boundary per response.
    SliceDesc slot;
    while (!iolipc::TakeSlot(&s_->copy_free, &slot)) {
      c->Add(iolipc::kQueueFullYields, 1);
      yield();
    }
    assert(body.length <= slot.reserved && "copy slots must hold the largest doc");
    std::memcpy(s_->region->At(slot.offset), s_->region->At(body.offset),
                body.length);
    c->Add(iolipc::kBytesCopiedCrossProcess, body.length);
    if (body.flags & kRespPinned) {
      s_->cache_map.Unpin(body.ticket);
      s_->pin_ledger.Clear(pin_slot_);
    }
    SliceDesc copied{};
    copied.offset = slot.offset;
    copied.length = body.length;
    copied.flags = kRespCopySlab | kFrameEnd;
    copied.reserved = slot.reserved;
    body = copied;
  }
  SliceDesc hdr;
  while (!iolipc::TakeSlot(&s_->header_free, &hdr)) {
    c->Add(iolipc::kQueueFullYields, 1);
    yield();
  }
  size_t hlen = iolhttp::BuildResponseHeader(s_->region->At(hdr.offset), body.length);
  hdr.length = hlen;
  hdr.flags = kRespHeaderSlab;
  // Clear-before-handoff (PinLedger contract): on Complete success the pin
  // travels to the client with the descriptor.
  if (body.flags & kRespPinned) {
    s_->pin_ledger.Clear(pin_slot_);
  }
  if (!s_->futures.Complete(m.future, hdr, body)) {
    // Client gave up on this response: give every resource back.
    iolipc::ReturnSlot(&s_->header_free, hdr);
    if (body.flags & kRespPinned) {
      s_->cache_map.Unpin(body.ticket);
    }
    if (body.flags & kRespCopySlab) {
      iolipc::ReturnSlot(&s_->copy_free, body);
    }
    return;
  }
  c->Add(iolipc::kRequestsServed, 1);
  c->Add(iolipc::kBytesServed, hlen + body.length);
}

void ProxyWorker::Run(const iolipc::YieldFn& yield) {
  for (;;) {
    if (Step(yield)) {
      continue;
    }
    if (s_->client_q.drained()) {
      return;
    }
    yield();
  }
}

}  // namespace iolproxy
