#include "src/net/tcp.h"

#include <cassert>
#include <cstring>

namespace iolnet {

TcpConnection::TcpConnection(NetworkSubsystem* net, bool iolite_sockets)
    : net_(net), iolite_sockets_(iolite_sockets) {}

TcpConnection::~TcpConnection() {
  if (connected_) {
    Close();
  }
}

void TcpConnection::Connect() {
  assert(!connected_);
  iolsim::SimContext* ctx = net_->ctx_;
  ctx->ChargeCpu(ctx->cost().TcpSetupCost());
  ctx->stats().tcp_connections++;
  if (!iolite_sockets_) {
    // Copy-based sockets need real send-buffer memory sized to the
    // bandwidth-delay product (Tss). IO-Lite send queues hold references.
    ctx->memory().Reserve(iolsim::MemCategory::kSocketSendBuffers,
                          ctx->cost().params().socket_send_buffer_bytes);
  } else {
    // Mbuf headers only ("a small amount of memory is required to hold
    // mbuf structures", Section 5.7).
    ctx->memory().Reserve(iolsim::MemCategory::kSocketSendBuffers, 2048);
  }
  net_->open_connections_++;
  connected_ = true;
}

void TcpConnection::Close() {
  assert(connected_);
  iolsim::SimContext* ctx = net_->ctx_;
  if (!iolite_sockets_) {
    ctx->memory().Release(iolsim::MemCategory::kSocketSendBuffers,
                          ctx->cost().params().socket_send_buffer_bytes);
  } else {
    ctx->memory().Release(iolsim::MemCategory::kSocketSendBuffers, 2048);
  }
  net_->open_connections_--;
  connected_ = false;
}

void TcpConnection::ReceiveRequest(size_t n) {
  iolsim::SimContext* ctx = net_->ctx_;
  // Early demultiplexing: the packet filter classifies the packet to an
  // I/O stream (and hence an ACL) before it is stored (Section 3.6).
  ctx->ChargeCpu(ctx->cost().PacketProcessingCost(n));
  ctx->stats().packets_sent++;  // Request packets also traverse the stack.
}

void TcpConnection::ChargePackets(size_t n) {
  iolsim::SimContext* ctx = net_->ctx_;
  ctx->ChargeCpu(ctx->cost().PacketProcessingCost(n));
  uint64_t packets =
      (n + ctx->cost().params().mtu_bytes - 1) / ctx->cost().params().mtu_bytes;
  ctx->stats().packets_sent += packets == 0 ? 1 : packets;
}

char* TcpConnection::Scratch(size_t n) {
  if (scratch_size_ < n) {
    // Geometric growth, and make_unique_for_overwrite: the old exact-size
    // make_unique<char[]> value-initialized (memset) the whole buffer right
    // before every byte of it was overwritten by the send path.
    size_t grown = scratch_size_ < 4096 ? 4096 : scratch_size_ * 2;
    if (grown < n) {
      grown = n;
    }
    scratch_ = std::make_unique_for_overwrite<char[]>(grown);
    scratch_size_ = grown;
  }
  return scratch_.get();
}

size_t TcpConnection::SendScratch(size_t n) {
  iolsim::SimContext* ctx = net_->ctx_;
  ctx->ChargeCpu(ctx->cost().CopyCost(n));
  ctx->stats().bytes_copied += n;
  ChecksumAccumulate(scratch_.get(), n);
  ctx->ChargeCpu(ctx->cost().ChecksumCost(n));
  ctx->stats().bytes_checksummed += n;
  ctx->stats().checksum_ops++;
  ChargePackets(n);
  bytes_sent_ += n;
  return n;
}

size_t TcpConnection::SendCopy(const iolite::Aggregate& src) {
  assert(connected_);
  size_t n = src.size();
  // Copy into kernel send-buffer clusters.
  src.CopyTo(Scratch(n));
  return SendScratch(n);
}

size_t TcpConnection::SendGatheredCopy(const char* header, size_t header_len,
                                       const iolite::Aggregate& body) {
  assert(connected_);
  size_t n = header_len + body.size();
  char* scratch = Scratch(n);
  std::memcpy(scratch, header, header_len);
  body.CopyTo(scratch + header_len);
  return SendScratch(n);
}

size_t TcpConnection::SendPrivateCopy(const char* a, size_t na, const char* b, size_t nb) {
  assert(connected_);
  size_t n = na + nb;
  char* scratch = Scratch(n);
  std::memcpy(scratch, a, na);
  std::memcpy(scratch + na, b, nb);
  return SendScratch(n);
}

void TcpConnection::TransmitAsync(size_t n, iolsim::InlineCallback done) {
  if (n == 0) {
    // Header-only/empty response: one ACK-sized segment still occupies the
    // link for a negligible-but-ordered slot.
    iolsim::SimContext* ctx = net_->ctx_;
    iolsim::Resource* link = link_ != nullptr ? link_->link : &ctx->link();
    link->AcquireAsync(&ctx->events(), 0, std::move(done));
    return;
  }
  net_->TransmitSegment(net_->AcquireTransmit(n, link_, std::move(done)));
}

uint32_t NetworkSubsystem::AcquireTransmit(size_t remaining, const LinkSpec* link,
                                           iolsim::InlineCallback done) {
  uint32_t idx = transmits_.Acquire();
  transmits_[idx].remaining = remaining;
  transmits_[idx].link = link;
  transmits_[idx].done = std::move(done);
  return idx;
}

iolsim::Resource* NetworkSubsystem::LinkOf(const TransmitState& t, size_t seg,
                                           iolsim::SimTime* wire) {
  const LinkSpec* spec = t.link;
  if (spec == nullptr) {
    *wire = seg == mtu_ ? mss_wire_time_ : ctx_->cost().WireTime(seg);
    return &ctx_->link();
  }
  // An unprimed spec (mss_wire_time == 0) falls back to the computation.
  *wire = seg == mtu_ && spec->mss_wire_time > 0 ? spec->mss_wire_time : spec->WireTime(seg);
  return spec->link;
}

void NetworkSubsystem::TransmitSegment(uint32_t idx) {
  // One acquisition per MSS segment, the next reserved at the previous
  // segment's completion event. The state is a pooled node each completion
  // re-arms, so steady-state transmission allocates nothing.
  TransmitState& t = transmits_[idx];
  size_t seg = t.remaining < mtu_ ? t.remaining : mtu_;
  t.remaining -= seg;
  iolsim::SimTime wire;
  iolsim::Resource* link = LinkOf(t, seg, &wire);
  link->AcquireTrain(&ctx_->events(), wire, this, idx);
}

void NetworkSubsystem::TrainStep(uint32_t idx) {
  TransmitState& t = transmits_[idx];
  if (t.remaining > 0) {
    TransmitSegment(idx);
    return;
  }
  iolsim::InlineCallback done = std::move(t.done);
  transmits_.Release(idx);
  done();
}

uint32_t NetworkSubsystem::TrainLeap(uint32_t idx, iolsim::SimTime when,
                                     iolsim::SimTime horizon, iolsim::SimTime* period) {
  // Each step taken stages one more full segment, so the steps are uniform
  // while an MSS remains: the link frees at `when`, and every step reserves
  // it for one MSS wire time from its own completion.
  TransmitState& t = transmits_[idx];
  iolsim::SimTime wire;
  iolsim::Resource* link = LinkOf(t, mtu_, &wire);
  if (t.remaining < mtu_ || horizon < when || wire <= 0) {
    return 0;
  }
  uint64_t steps = static_cast<uint64_t>((horizon - when) / wire) + 1;
  if (steps > t.remaining / mtu_) {
    steps = t.remaining / mtu_;
  }
  if (!link->AcquireRun(when, wire, steps)) {
    return 0;
  }
  t.remaining -= steps * mtu_;
  *period = wire;
  return static_cast<uint32_t>(steps);
}

size_t TcpConnection::SendAggregate(const iolite::Aggregate& agg) {
  assert(connected_);
  size_t n = agg.size();
  // Checksum via the module: cached per-slice sums apply when the same
  // immutable buffer contents are transmitted repeatedly. Nothing on the
  // wire model reads the sum, so only its cost is charged here.
  net_->checksum_.Charge(agg);
  ChargePackets(n);
  bytes_sent_ += n;
  return n;
}

}  // namespace iolnet
