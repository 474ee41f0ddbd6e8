// The Web server family of the evaluation (Section 5).
//
// Three data-path models over the simulated OS:
//  * FlashServer — the paper's aggressively optimized event-driven server:
//    mmap-based file access (no read copy; page-map cost on faults), user
//    headers via malloc, writev gathering header+body into socket buffers
//    (one copy + one checksum per transmission).
//  * ApacheServer — same mmap/writev data path, but process-per-connection:
//    higher per-request CPU and a resident process per concurrent
//    connection (memory that shrinks the file cache).
//  * FlashLiteServer — Flash ported to the IO-Lite API: IOL_read from the
//    unified cache, header allocated from the server's IO-Lite pool,
//    IOL_write by reference, checksum served from the generation-keyed
//    cache for everything but the header.
//
// Every server is written as a staged continuation chain (StartRequest):
// each stage acquires the machine's CPU/disk/link resources as it runs, so
// concurrent requests overlap. HandleRequest is a synchronous convenience
// wrapper for direct-mode callers (tests, examples).

#ifndef SRC_HTTPD_HTTP_SERVER_H_
#define SRC_HTTPD_HTTP_SERVER_H_

#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "src/fs/file_io.h"
#include "src/httpd/request_pipeline.h"
#include "src/httpd/response_header.h"
#include "src/iolite/runtime.h"
#include "src/net/tcp.h"
#include "src/simos/sim_context.h"

namespace iolhttp {

class HttpServer {
 public:
  HttpServer(iolsim::SimContext* ctx, iolnet::NetworkSubsystem* net, iolfs::FileIoService* io)
      : ctx_(ctx), net_(net), io_(io) {}
  virtual ~HttpServer() = default;

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  // Whether connections to this server use the IO-Lite socket data path.
  virtual bool uses_iolite_sockets() const = 0;

  // Resident memory added per concurrent connection beyond socket buffers
  // (Apache: a worker process).
  virtual uint64_t per_connection_memory() const { return 0; }

  // Starts the staged pipeline for one request. `req` (caller-owned, alive
  // until completion) carries the connection and file; `req->on_done`
  // fires when the last response byte has left the wire.
  virtual void StartRequest(RequestContext* req) = 0;

  // Synchronous convenience for direct-mode callers: starts the pipeline
  // and drains the event queue until this request completes. Returns
  // response bytes (header + body).
  size_t HandleRequest(iolnet::TcpConnection* conn, iolfs::FileId file);

  // --- Fault plane (src/fault) ------------------------------------------
  // Crash/restart state for the member-crash fault. The staged pipeline's
  // resource reservations cannot be revoked mid-flight, so a crash is
  // modeled at the endpoints instead: the experiment engine consults
  // down() at arrival time (a down member black-holes new requests) and
  // compares crash_epoch() against the epoch captured at serve start when
  // the pipeline completes — a serve that began before the crash has its
  // response dropped on the floor, exactly what a dead process does with
  // its in-flight connections.
  bool down() const { return down_; }
  uint32_t crash_epoch() const { return crash_epoch_; }
  void Crash() {
    down_ = true;
    ++crash_epoch_;
  }
  void Restart() { down_ = false; }

 protected:
  // Stage scheduling helper; see RunCpuStage. The body is inlined and may
  // capture freely; `next` lives in the event heap and must fit an
  // InlineCallback.
  template <typename Body>
  void CpuStage(Body&& body, iolsim::InlineCallback next) {
    RunCpuStage(ctx_, std::forward<Body>(body), std::move(next));
  }

  // Terminal stage: per-segment transmission of the queued response.
  void TransmitStage(RequestContext* req) {
    // Re-establish the owner: this stage fires from a resource-completion
    // event, where the active tenant is whichever request finished last,
    // and the link's fair queue attributes the segments to it.
    ctx_->set_active_tenant(req->tenant);
    req->conn->TransmitAsync(req->response_bytes, [req] { req->on_done(req); });
  }

  // The IO-Lite send path's delivery check: counts a corrupt response
  // (SimStats::corrupt_responses) unless `body` is exactly `file`'s content
  // at `version` (SimFileSystem::ContentSeed). The slices' lengths must add
  // up to the file's size. A slice of a described buffer over unwritten
  // bytes compares by descriptor -- seed, content offset and contiguity --
  // in O(1), forcing no sum. Any other slice compares its partial sum (the
  // checksum cache's) with the sum of the file's bytes over the same range.
  // It charges, counts and reorders nothing else. Copy-path sends
  // (TcpConnection::SendScratch) are not checked: their bytes are private
  // copies with no content identity to compare.
  void CheckDelivery(const iolite::Aggregate& body, iolfs::FileId file, uint64_t version);

  iolsim::SimContext* ctx_;
  iolnet::NetworkSubsystem* net_;
  iolfs::FileIoService* io_;

 private:
  bool down_ = false;
  uint32_t crash_epoch_ = 0;
};

// Flash: mmap + writev (Section 5, "Flash uses memory-mapped files to read
// disk data").
class FlashServer : public HttpServer {
 public:
  using HttpServer::HttpServer;

  bool uses_iolite_sockets() const override { return false; }
  void StartRequest(RequestContext* req) override;

 protected:
  // Per-request CPU beyond the data path (event loop, parse, headers).
  virtual iolsim::SimTime RequestCpu() const { return ctx_->cost().params().flash_request_cpu; }
};

// Apache 1.3.1 model: Flash's data path, process-per-connection overheads.
class ApacheServer : public FlashServer {
 public:
  using FlashServer::FlashServer;

  uint64_t per_connection_memory() const override {
    return ctx_->cost().params().apache_process_bytes;
  }

 protected:
  iolsim::SimTime RequestCpu() const override {
    return ctx_->cost().params().apache_request_cpu;
  }
};

// sendfile(2)-style monolithic-syscall baseline (Section 6.7): the kernel
// transmits file-cache data to the socket with no user-level copy, in one
// system call. Copy-free like IO-Lite on the static path, but (a) the
// checksum must be recomputed on every transmission — there is no
// system-wide content identity to key a checksum cache on — and (b) an
// internal mechanism (here modelled as a per-chunk lock toggle) must keep
// applications from modifying in-transit file data. No help for CGI.
class SendfileServer : public HttpServer {
 public:
  using HttpServer::HttpServer;

  bool uses_iolite_sockets() const override { return true; }  // No Tss copy buffer.
  void StartRequest(RequestContext* req) override;
};

// Flash-Lite: the IO-Lite API data path.
class FlashLiteServer : public HttpServer {
 public:
  FlashLiteServer(iolsim::SimContext* ctx, iolnet::NetworkSubsystem* net,
                  iolfs::FileIoService* io, iolite::IoLiteRuntime* runtime);

  bool uses_iolite_sockets() const override { return true; }
  void StartRequest(RequestContext* req) override;

  iolsim::DomainId domain() const { return domain_; }

 private:
  iolite::IoLiteRuntime* runtime_;
  iolsim::DomainId domain_;
  iolite::BufferPool* header_pool_;
};

}  // namespace iolhttp

#endif  // SRC_HTTPD_HTTP_SERVER_H_
