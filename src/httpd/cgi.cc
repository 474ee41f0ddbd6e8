#include "src/httpd/cgi.h"

#include <cstdint>

namespace iolhttp {

// --- CopyCgiProcess ---------------------------------------------------------

CopyCgiProcess::CopyCgiProcess(iolsim::SimContext* ctx, size_t doc_bytes) : ctx_(ctx) {
  doc_.resize(doc_bytes);
  // Real, deterministic content.
  for (size_t i = 0; i < doc_bytes; ++i) {
    doc_[i] = static_cast<char>('a' + (i * 131) % 26);
  }
}

void CopyCgiProcess::ProduceResponse(iolposix::PosixPipe* pipe) {
  // FastCGI dispatch overhead (context switch into the CGI process).
  ctx_->ChargeCpu(ctx_->cost().params().cgi_request_cpu);
  // The pipe write copies the document into the kernel.
  pipe->Write(doc_.data(), doc_.size());
}

// --- LiteCgiProcess ---------------------------------------------------------

LiteCgiProcess::LiteCgiProcess(iolsim::SimContext* ctx, iolite::IoLiteRuntime* runtime,
                               size_t doc_bytes)
    : ctx_(ctx) {
  domain_ = ctx_->vm().CreateDomain();
  // Build the cached document once: generation cost paid here, after which
  // the same immutable buffers are reused for every request (the "caching
  // CGI program" of Section 3.10).
  std::vector<char> bytes(doc_bytes);
  for (size_t i = 0; i < doc_bytes; ++i) {
    bytes[i] = static_cast<char>('A' + (i * 131) % 26);
  }
  iolite::BufferPool* pool = runtime->CreatePool("cgi-pool", domain_);
  doc_ = iolite::Aggregate::FromBuffer(pool->AllocateFrom(bytes.data(), doc_bytes));
  doc_checksum_ = iolnet::ChecksumFold(iolnet::ChecksumAccumulate(bytes.data(), doc_bytes));
}

void LiteCgiProcess::ProduceResponse(iolite::PipeChannel* channel) {
  ctx_->ChargeCpu(ctx_->cost().params().cgi_request_cpu);
  // IOL_write on the pipe: one syscall, references move, nothing is copied.
  ctx_->ChargeCpu(ctx_->cost().SyscallCost());
  ctx_->stats().syscalls++;
  channel->Push(doc_);
}

// --- CopyCgiServer ----------------------------------------------------------

CopyCgiServer::CopyCgiServer(iolsim::SimContext* ctx, iolnet::NetworkSubsystem* net,
                             iolfs::FileIoService* io, size_t doc_bytes, bool apache_costs)
    : HttpServer(ctx, net, io), apache_costs_(apache_costs), cgi_(ctx, doc_bytes), pipe_(ctx) {}

void CopyCgiServer::StartRequest(RequestContext* req) {
  // Stage 1: server-side accept + parse.
  CpuStage(
      [this, req] {
        const iolsim::CostParams& p = ctx_->cost().params();
        ctx_->ChargeCpu(apache_costs_ ? p.apache_request_cpu : p.flash_request_cpu);
        req->conn->ReceiveRequest(kRequestBytes);
      },
      [this, req] {
        // Stage 2 — the CGI hop: the process writes the document into the
        // pipe (copy #1), blocking on the pipe buffer as it fills (one
        // producer/consumer context switch per pipe-buffer's worth), and
        // the server reads it out into a per-request buffer (copy #2).
        // The buffer travels with the request as a pool slot index:
        // concurrent requests are each suspended between stages and must
        // not share it. A reused slot already holds the document's size.
        uint32_t body = bodies_.Acquire();
        bodies_[body].resize(cgi_.doc_bytes());
        CpuStage(
            [this, body] {
              const iolsim::CostParams& p = ctx_->cost().params();
              cgi_.ProduceResponse(&pipe_);
              uint64_t chunks =
                  (cgi_.doc_bytes() + p.pipe_buffer_bytes - 1) / p.pipe_buffer_bytes;
              ctx_->ChargeCpu(p.context_switch_cost * static_cast<iolsim::SimTime>(chunks));
              pipe_.Read(bodies_[body].data(), bodies_[body].size());
            },
            [this, req, body] {
              // Stage 3: header build + writev copies header + body into
              // the socket buffer (copy #3), checksummed in full.
              CpuStage(
                  [this, req, body] {
                    std::vector<char>& buf = bodies_[body];
                    char header[kResponseHeaderBytes];
                    size_t header_len = BuildResponseHeader(header, buf.size());
                    ctx_->ChargeCpu(ctx_->cost().SyscallCost());
                    ctx_->stats().syscalls++;
                    req->response_bytes = req->conn->SendPrivateCopy(
                        header, header_len, buf.data(), buf.size());
                    bodies_.Release(body);
                  },
                  [this, req] { TransmitStage(req); });
            });
      });
}

// --- LiteCgiServer ----------------------------------------------------------

LiteCgiServer::LiteCgiServer(iolsim::SimContext* ctx, iolnet::NetworkSubsystem* net,
                             iolfs::FileIoService* io, iolite::IoLiteRuntime* runtime,
                             size_t doc_bytes)
    : HttpServer(ctx, net, io),
      runtime_(runtime),
      cgi_(ctx, runtime, doc_bytes),
      channel_(std::make_shared<iolite::PipeChannel>(ctx)) {
  server_domain_ = ctx_->vm().CreateDomain();
  header_pool_ = runtime_->CreatePool("flash-lite-cgi-headers", server_domain_);
}

void LiteCgiServer::StartRequest(RequestContext* req) {
  // Stage 1: server-side accept + parse.
  CpuStage(
      [this, req] {
        ctx_->ChargeCpu(ctx_->cost().params().flash_request_cpu);
        req->conn->ReceiveRequest(kRequestBytes);
      },
      [this, req] {
        // Stage 2 — the CGI hop, by reference: the process pushes the
        // cached document into the channel, the server IOL_reads the
        // aggregate out (one syscall; cold-chunk mapping), zero payload
        // copies.
        // The aggregate rides in a pool slot across the suspension.
        uint32_t body = bodies_.Acquire();
        CpuStage(
            [this, body] {
              iolite::Aggregate& agg = bodies_[body];
              cgi_.ProduceResponse(channel_.get());
              ctx_->ChargeCpu(ctx_->cost().SyscallCost());
              ctx_->stats().syscalls++;
              agg = channel_->Pop(SIZE_MAX);
              runtime_->MapAggregate(agg, server_domain_);
            },
            [this, req, body] {
              // Stage 3: header from the server's IO-Lite pool, IOL_write
              // by reference; only the fresh header generation is summed.
              CpuStage(
                  [this, req, body] {
                    iolite::Aggregate& agg = bodies_[body];
                    iolite::Aggregate response = iolite::Aggregate::FromBuffer(
                        MakeIoLiteHeader(ctx_, header_pool_, agg.size()));
                    response.Append(agg);
                    ctx_->ChargeCpu(ctx_->cost().SyscallCost());
                    ctx_->stats().syscalls++;
                    req->response_bytes = req->conn->SendAggregate(response);
                    // Delivery check: the body must be the CGI document,
                    // compared by length and checksum.
                    if (agg.size() != cgi_.doc_bytes() ||
                        net_->checksum().PeekChecksum(agg) != cgi_.doc_checksum()) {
                      ctx_->stats().corrupt_responses++;
                    }
                    agg.Clear();  // Drop buffer references, keep the slot.
                    bodies_.Release(body);
                  },
                  [this, req] { TransmitStage(req); });
            });
      });
}

}  // namespace iolhttp
