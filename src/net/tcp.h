// TCP connection model (Sections 5.1, 5.2, 5.7).
//
// Models the CPU-side costs of the send path plus the memory footprint of
// socket send buffers — the two things the paper's experiments vary:
//
//  * Copy-based sockets (POSIX write/writev): data is copied into kernel
//    send-buffer mbuf clusters (per-byte copy cost), checksummed on every
//    transmission, and the connection pins Tss bytes of send-buffer memory
//    while open — memory that comes straight out of the file cache.
//  * IO-Lite sockets (IOL_write): payload moves by reference into
//    mbuf-encapsulated IO-Lite buffers; the checksum module may serve the
//    checksum from its generation-keyed cache; no send-buffer memory is
//    pinned beyond mbuf headers.
//
// Wire time and queueing on the shared NIC array are staged by
// TransmitAsync onto the SimContext's link resource, one event per TCP
// segment (the network is a contended resource, not a CPU cost).

#ifndef SRC_NET_TCP_H_
#define SRC_NET_TCP_H_

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/iolite/aggregate.h"
#include "src/net/checksum.h"
#include "src/net/mbuf.h"
#include "src/simos/inline_function.h"
#include "src/simos/sim_context.h"

namespace iolnet {

// An alternate wire a connection transmits on, instead of the machine's
// shared front link (SimContext::link()). The proxy tier uses this for its
// backhaul: origin responses to the proxy occupy the backhaul resource at
// the backhaul's payload rate, per MSS segment, while client-facing
// responses keep contending for the front link. The spec must outlive every
// connection pointing at it.
struct LinkSpec {
  iolsim::Resource* link = nullptr;
  double bytes_per_sec = 0;  // Effective payload rate of this wire.
  // WireTime(MSS), cached by the owner (see Prime): every non-final
  // segment costs exactly this, so the per-segment hot path skips the FP
  // division — mirroring NetworkSubsystem::mss_wire_time_ for the default
  // link.
  iolsim::SimTime mss_wire_time = 0;

  iolsim::SimTime WireTime(uint64_t n) const {
    if (n == 0) {
      return 0;
    }
    // A zero rate would cast inf to SimTime (UB) and corrupt the clock;
    // catch the unconfigured spec at the source.
    assert(bytes_per_sec > 0 && "LinkSpec used before its rate was set");
    return static_cast<iolsim::SimTime>(static_cast<double>(n) / bytes_per_sec *
                                        iolsim::kSecond);
  }

  // Precomputes the cached per-MSS wire time; call after setting the rate.
  void Prime(int mtu_bytes) { mss_wire_time = WireTime(static_cast<uint64_t>(mtu_bytes)); }
};

// Shared state of the simulated network stack.
class NetworkSubsystem {
 public:
  NetworkSubsystem(iolsim::SimContext* ctx, bool checksum_cache_enabled,
                   size_t checksum_cache_entries = 65536)
      : ctx_(ctx),
        checksum_(ctx, checksum_cache_enabled, checksum_cache_entries),
        mss_wire_time_(ctx->cost().WireTime(
            static_cast<uint64_t>(ctx->cost().params().mtu_bytes))) {}

  NetworkSubsystem(const NetworkSubsystem&) = delete;
  NetworkSubsystem& operator=(const NetworkSubsystem&) = delete;

  iolsim::SimContext* ctx() const { return ctx_; }
  ChecksumModule& checksum() { return checksum_; }

  int open_connections() const { return open_connections_; }

  // Memory currently pinned by socket send buffers (copy-based sockets).
  uint64_t send_buffer_bytes() const {
    return ctx_->memory().reservation("socket_send_buffers");
  }

  // High-water mark of the pooled in-flight transmission states (one per
  // concurrently transmitting response; pool-stats tests read this).
  size_t transmit_pool_size() const { return transmits_.size(); }

 private:
  friend class TcpConnection;

  // One in-flight per-segment transmission, pooled on a free list so the
  // per-MSS-segment hot path re-arms the same state instead of building a
  // closure chain (one heap allocation per segment, pre-pool).
  struct TransmitState {
    size_t remaining = 0;
    // Null for the machine's front link; a connection's LinkSpec otherwise.
    const LinkSpec* link = nullptr;
    iolsim::InlineCallback done;
    uint32_t next_free = UINT32_MAX;
  };

  uint32_t AcquireTransmit(size_t remaining, const LinkSpec* link,
                           iolsim::InlineCallback done);
  // Stages the next MSS-sized segment of `idx` onto the shared link.
  void TransmitSegment(uint32_t idx);

  iolsim::SimContext* ctx_;
  ChecksumModule checksum_;
  int open_connections_ = 0;
  std::vector<TransmitState> transmits_;
  uint32_t free_transmit_ = UINT32_MAX;
  // WireTime(MSS), precomputed: every non-final segment of every response
  // costs exactly this, so the per-segment hot path skips the FP math.
  iolsim::SimTime mss_wire_time_;
};

class TcpConnection {
 public:
  // `iolite_sockets` selects the IO-Lite data path for this connection.
  TcpConnection(NetworkSubsystem* net, bool iolite_sockets);
  ~TcpConnection();

  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  // Connection establishment: SYN handshake + PCB setup costs; copy-based
  // connections reserve the Tss send buffer.
  void Connect();

  // Termination; releases the send buffer reservation.
  void Close();

  bool connected() const { return connected_; }

  // Receive path for a client request of `n` bytes: early-demultiplexed by
  // the packet filter, one small copy to the application for the copy
  // path is charged by the HTTP layer, not here.
  void ReceiveRequest(size_t n);

  // POSIX-style send: copies `src` into the kernel send buffer, checksums
  // every byte, charges per-packet processing. Returns bytes queued.
  size_t SendCopy(const iolite::Aggregate& src);

  // writev(2)-style gathered copy send: response header from private
  // memory plus body (e.g. an mmap'd file window or cache data), copied and
  // checksummed as one unit.
  size_t SendGatheredCopy(const char* header, size_t header_len, const iolite::Aggregate& body);

  // writev(2)-style gathered copy send with both iovecs in private memory
  // (e.g. header + a CGI response buffer).
  size_t SendPrivateCopy(const char* a, size_t na, const char* b, size_t nb);

  // IO-Lite send: payload by reference, checksum possibly served from the
  // generation-keyed cache, per-packet processing. Returns bytes queued.
  size_t SendAggregate(const iolite::Aggregate& agg);

  // Routes this connection's transmissions over `spec` instead of the
  // machine's front link (null restores the default). The spec must outlive
  // the connection's last transmission.
  void set_link(const LinkSpec* spec) { link_ = spec; }

  // Stages `n` queued payload bytes onto the shared link as MSS-sized
  // segments. Each segment is a separate acquisition of the link resource,
  // reserved from the previous segment's completion event, so concurrent
  // transmissions interleave at segment granularity instead of serializing
  // whole responses. `done` runs when the last segment has left the wire.
  // The CPU-side costs were already charged by the Send* call that queued
  // the bytes; this models only wire occupancy. The per-segment state rides
  // in the NetworkSubsystem's TransmitState pool: no allocation per segment
  // or per transmission.
  void TransmitAsync(size_t n, iolsim::InlineCallback done);

  uint64_t bytes_sent() const { return bytes_sent_; }

 private:
  void ChargePackets(size_t n);
  // Ensures the scratch send buffer holds `n` bytes, growing geometrically
  // and without value-initializing storage that is overwritten anyway.
  char* Scratch(size_t n);
  // Sends the first `n` bytes of the scratch buffer, just filled by a copy:
  // charges the copy, checksums the private bytes (they have no system-wide
  // identity, so the checksum cache cannot apply) and accounts the packets.
  size_t SendScratch(size_t n);

  NetworkSubsystem* net_;
  bool iolite_sockets_;
  const LinkSpec* link_ = nullptr;  // Null: the machine's front link.
  bool connected_ = false;
  uint64_t bytes_sent_ = 0;
  // Scratch kernel send buffer for the copy path (reused across sends).
  std::unique_ptr<char[]> scratch_;
  size_t scratch_size_ = 0;
};

// Adds symmetric one-way delay between clients and server (Section 5.7's
// "delay routers"). Pure latency: used by the closed-loop driver to compute
// response completion times.
struct DelayRouter {
  iolsim::SimTime one_way_delay = 0;
  iolsim::SimTime RoundTrip() const { return 2 * one_way_delay; }
};

}  // namespace iolnet

#endif  // SRC_NET_TCP_H_
