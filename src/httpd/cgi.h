// FastCGI dynamic-content generation (Sections 3.10 and 5.3).
//
// The paper's test CGI program, on each request, sends a "dynamic" document
// of a given size from its memory to the server over a UNIX pipe; the
// server forwards it to the client.
//
//  * Copy path (Flash/Apache + CGI): the document crosses the pipe with a
//    copy in and a copy out, then a third copy into the socket buffer —
//    which is why their CGI bandwidth is roughly half their static
//    bandwidth.
//  * IO-Lite path (Flash-Lite + CGI): the CGI process keeps the document in
//    buffers from its own ACL pool; the pipe transfer moves references, the
//    server maps the chunks once, the checksum is cached after the first
//    transmission — CGI approaches static-content speed without giving up
//    fault isolation.

#ifndef SRC_HTTPD_CGI_H_
#define SRC_HTTPD_CGI_H_

#include <memory>
#include <vector>

#include "src/httpd/http_server.h"
#include "src/iolite/pipe.h"
#include "src/posix/posix_io.h"
#include "src/simos/slot_pool.h"

namespace iolhttp {

// A FastCGI process using copy-based pipes (conventional UNIX).
class CopyCgiProcess {
 public:
  CopyCgiProcess(iolsim::SimContext* ctx, size_t doc_bytes);

  // Handles one FastCGI request: writes the document into the pipe.
  void ProduceResponse(iolposix::PosixPipe* pipe);

  size_t doc_bytes() const { return doc_.size(); }

 private:
  iolsim::SimContext* ctx_;
  std::vector<char> doc_;
};

// A FastCGI process using the IO-Lite API: the cached document lives in
// buffers from the CGI process's own pool (separate ACL, Section 3.10).
class LiteCgiProcess {
 public:
  LiteCgiProcess(iolsim::SimContext* ctx, iolite::IoLiteRuntime* runtime, size_t doc_bytes);

  // Handles one FastCGI request: pushes the (cached) document aggregate
  // into the pipe channel by reference.
  void ProduceResponse(iolite::PipeChannel* channel);

  size_t doc_bytes() const { return doc_.size(); }
  iolsim::DomainId domain() const { return domain_; }
  // The Internet checksum of the document's bytes, as generated: what the
  // delivery check expects every response body to sum to.
  uint16_t doc_checksum() const { return doc_checksum_; }

 private:
  iolsim::SimContext* ctx_;
  iolsim::DomainId domain_;
  iolite::Aggregate doc_;
  uint16_t doc_checksum_;
};

// Flash (or Apache) serving FastCGI content over a copy-based pipe.
class CopyCgiServer : public HttpServer {
 public:
  CopyCgiServer(iolsim::SimContext* ctx, iolnet::NetworkSubsystem* net, iolfs::FileIoService* io,
                size_t doc_bytes, bool apache_costs = false);

  bool uses_iolite_sockets() const override { return false; }
  uint64_t per_connection_memory() const override {
    return apache_costs_ ? ctx_->cost().params().apache_process_bytes : 0;
  }
  void StartRequest(RequestContext* req) override;

 private:
  bool apache_costs_;
  CopyCgiProcess cgi_;
  iolposix::PosixPipe pipe_;
  // Per-request pipe-read buffers: concurrent requests each hold one
  // across their stage suspensions (the slot index travels in the stage
  // continuations); completed requests release theirs, so steady-state
  // request turnover allocates nothing.
  iolsim::SlotPool<std::vector<char>> bodies_;
};

// Flash-Lite serving FastCGI content over an IO-Lite pipe.
class LiteCgiServer : public HttpServer {
 public:
  LiteCgiServer(iolsim::SimContext* ctx, iolnet::NetworkSubsystem* net, iolfs::FileIoService* io,
                iolite::IoLiteRuntime* runtime, size_t doc_bytes);

  bool uses_iolite_sockets() const override { return true; }
  void StartRequest(RequestContext* req) override;

 private:
  iolite::IoLiteRuntime* runtime_;
  iolsim::DomainId server_domain_;
  iolite::BufferPool* header_pool_;
  // Per-request body aggregates (as CopyCgiServer's buffers): each holds
  // the reference-passed CGI document between stages.
  iolsim::SlotPool<iolite::Aggregate> bodies_;
  LiteCgiProcess cgi_;
  std::shared_ptr<iolite::PipeChannel> channel_;
};

}  // namespace iolhttp

#endif  // SRC_HTTPD_CGI_H_
