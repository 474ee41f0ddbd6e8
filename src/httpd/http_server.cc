#include "src/httpd/http_server.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

namespace iolhttp {

namespace {

bool BodyMatchesFile(iolnet::ChecksumModule& sums, const iolfs::SimFileSystem& fs,
                     const iolite::Aggregate& body, iolfs::FileId file, uint64_t version) {
  if (!fs.Exists(file) || body.size() != fs.SizeOf(file)) {
    return false;
  }
  const uint64_t seed = fs.ContentSeed(file, version);
  std::vector<char> bytes;
  uint64_t pos = 0;  // The file offset the next slice must start at.
  for (const iolite::Slice& s : body.slices()) {
    const iolite::Buffer& b = *s.buffer();
    if (b.described() && !fs.Written(file, pos, s.length())) {
      if (b.content_seed() != seed || b.content_offset() + s.offset() != pos) {
        return false;
      }
    } else {
      bytes.resize(s.length());
      fs.ReadContent(file, pos, bytes.data(), s.length(), version);
      if (sums.SliceSum(s) != iolnet::ChecksumAccumulate(bytes.data(), s.length())) {
        return false;
      }
    }
    pos += s.length();
  }
  return true;
}

}  // namespace

void HttpServer::CheckDelivery(const iolite::Aggregate& body, iolfs::FileId file,
                               uint64_t version) {
  if (!BodyMatchesFile(net_->checksum(), io_->fs(), body, file, version)) {
    ctx_->stats().corrupt_responses++;
  }
}

size_t HttpServer::HandleRequest(iolnet::TcpConnection* conn, iolfs::FileId file) {
  assert(!ctx_->tally_active());
  RequestContext req;
  req.conn = conn;
  req.file = file;
  bool finished = false;
  req.on_done = [&finished](RequestContext*) { finished = true; };
  StartRequest(&req);
  while (!finished && ctx_->events().RunOne()) {
  }
  if (!finished) {
    // A stage forgot to schedule its continuation; die loudly instead of
    // returning a zero-byte response (release builds skip asserts).
    std::fprintf(stderr,
                 "HandleRequest: pipeline stalled — event queue drained before completion\n");
    std::abort();
  }
  return req.response_bytes;
}

void FlashServer::StartRequest(RequestContext* req) {
  // Stage 1: event loop wakeup, HTTP parse, per-request application work.
  CpuStage(
      [this, req] {
        ctx_->ChargeCpu(RequestCpu());
        req->conn->ReceiveRequest(kRequestBytes);
      },
      [this, req] {
        // Stage 2: cache lookup; a miss occupies the disk arm. Stamp the
        // owning tenant first — this continuation fires from the CPU
        // resource, not from the request's own context.
        ctx_->set_active_tenant(req->tenant);
        uint64_t size = io_->fs().SizeOf(req->file);
        io_->ReadExtentAsync(
            req->file, 0, size,
            [this, req, size](iolite::Aggregate body, bool miss) {
              req->cache_hit = !miss;
              // Stage 3: mmap fault mapping (cold data only), header build,
              // writev — one gathered copy + checksum into socket buffers.
              CpuStage(
                  [this, req, size, miss, body = std::move(body)] {
                    if (miss) {
                      ctx_->ChargeCpu(ctx_->cost().PageMapCost(ctx_->cost().PagesFor(size)));
                      ctx_->stats().pages_mapped += ctx_->cost().PagesFor(size);
                    }
                    char header[kResponseHeaderBytes];
                    size_t header_len = BuildResponseHeader(header, size);
                    ctx_->ChargeCpu(ctx_->cost().SyscallCost());
                    ctx_->stats().syscalls++;
                    req->response_bytes =
                        req->conn->SendGatheredCopy(header, header_len, body);
                  },
                  // Stage 4: per-segment transmission on the shared link.
                  [this, req] { TransmitStage(req); });
            });
      });
}

void SendfileServer::StartRequest(RequestContext* req) {
  CpuStage(
      [this, req] {
        ctx_->ChargeCpu(ctx_->cost().params().flash_request_cpu);
        req->conn->ReceiveRequest(kRequestBytes);
        // One sendfile(2) call: file -> socket entirely inside the kernel.
        ctx_->ChargeCpu(ctx_->cost().SyscallCost());
        ctx_->stats().syscalls++;
      },
      [this, req] {
        ctx_->set_active_tenant(req->tenant);
        uint64_t size = io_->fs().SizeOf(req->file);
        io_->ReadExtentAsync(
            req->file, 0, size,
            [this, req, size](iolite::Aggregate body, bool miss) {
              req->cache_hit = !miss;
              CpuStage(
                  [this, req, size, body = std::move(body)] {
                    // The in-transit pages must be protected against
                    // modification (the "copy-on-write / exclusive locks" of
                    // Section 6.7): one protection operation per chunk per
                    // transmission.
                    int chunks = 0;
                    for (const iolite::Slice& s : body.slices()) {
                      chunks += static_cast<int>(s.buffer()->chunks().size());
                    }
                    ctx_->ChargeCpu(ctx_->cost().PageProtectCost(1) * chunks * 2);

                    char header[kResponseHeaderBytes];
                    size_t header_len = BuildResponseHeader(header, size);
                    // The header is prepended in kernel mbufs; the body moves
                    // by reference — but its checksum cannot be cached:
                    // sendfile has no generation numbers, so the TCP layer
                    // must assume the file may have changed.
                    bool cache_was_enabled = net_->checksum().cache_enabled();
                    net_->checksum().set_cache_enabled(false);
                    // Header bytes travel as an inline mbuf: copied (tiny)
                    // and checksummed.
                    ctx_->ChargeCpu(ctx_->cost().CopyCost(header_len));
                    ctx_->stats().bytes_copied += header_len;
                    req->response_bytes = header_len + req->conn->SendAggregate(body);
                    ctx_->ChargeCpu(ctx_->cost().ChecksumCost(header_len));
                    net_->checksum().set_cache_enabled(cache_was_enabled);
                  },
                  [this, req] { TransmitStage(req); });
            });
      });
}

FlashLiteServer::FlashLiteServer(iolsim::SimContext* ctx, iolnet::NetworkSubsystem* net,
                                 iolfs::FileIoService* io, iolite::IoLiteRuntime* runtime)
    : HttpServer(ctx, net, io), runtime_(runtime) {
  domain_ = ctx_->vm().CreateDomain();
  // Headers and other server-generated data come from the server's own
  // pool (its ACL is the server process; Section 3.10).
  header_pool_ = runtime_->CreatePool("flash-lite-headers", domain_);
}

void FlashLiteServer::StartRequest(RequestContext* req) {
  CpuStage(
      [this, req] {
        ctx_->ChargeCpu(ctx_->cost().params().flash_request_cpu);
        req->conn->ReceiveRequest(kRequestBytes);
        // IOL_read syscall boundary; the read itself proceeds in stage 2.
        ctx_->ChargeCpu(ctx_->cost().SyscallCost());
        ctx_->stats().syscalls++;
      },
      [this, req] {
        // IOL_read: an aggregate referencing the cache's immutable buffers;
        // a miss occupies the disk arm before the request continues.
        ctx_->set_active_tenant(req->tenant);
        uint64_t size = io_->fs().SizeOf(req->file);
        io_->ReadExtentAsync(
            req->file, 0, size,
            [this, req, size](iolite::Aggregate body, bool miss) {
              req->cache_hit = !miss;
              CpuStage(
                  [this, req, size, body = std::move(body)] {
                    // The buffers' chunks are mapped into the server domain
                    // (cold chunks only — mappings persist, so a popular
                    // document costs nothing here).
                    runtime_->MapAggregate(body, domain_);

                    iolite::Aggregate response = iolite::Aggregate::FromBuffer(
                        MakeIoLiteHeader(ctx_, header_pool_, size));
                    response.Append(body);

                    // IOL_write: payload by reference; checksum of the body
                    // slices comes from the checksum cache when the document
                    // was transmitted before. The header buffer was just
                    // reallocated (new generation), so only it is summed.
                    ctx_->ChargeCpu(ctx_->cost().SyscallCost());
                    ctx_->stats().syscalls++;
                    req->response_bytes = req->conn->SendAggregate(response);
                    CheckDelivery(body, req->file, 0);
                  },
                  [this, req] { TransmitStage(req); });
            });
      });
}

}  // namespace iolhttp
