#include "src/proxy/proxy_server.h"

#include <cassert>
#include <utility>

#include "src/ipc/slice_desc.h"

namespace iolproxy {

namespace {

std::unique_ptr<iolfs::ReplacementPolicy> MakePolicy(ProxyCachePolicy policy) {
  if (policy == ProxyCachePolicy::kGds) {
    return std::make_unique<iolfs::GreedyDualSizePolicy>();
  }
  return std::make_unique<iolfs::PlainLruPolicy>();
}

// Routes a shared unified cache's hit/miss/eviction counters to the proxy
// tier for one scope (the proxy-hop Lookup, the proxy-budget eviction
// pass). The restore is a destructor, so no early return can leave the
// origin tier's counters misrouted.
class ProxyTierStatsScope {
 public:
  ProxyTierStatsScope(iolfs::FileCache* cache, iolsim::SimStats* stats)
      : cache_(cache), stats_(stats) {
    cache_->RouteStats(&stats_->proxy_cache_hits, &stats_->proxy_cache_misses,
                       &stats_->proxy_cache_evictions);
  }
  ~ProxyTierStatsScope() {
    cache_->RouteStats(&stats_->cache_hits, &stats_->cache_misses,
                       &stats_->cache_evictions);
  }
  ProxyTierStatsScope(const ProxyTierStatsScope&) = delete;
  ProxyTierStatsScope& operator=(const ProxyTierStatsScope&) = delete;

 private:
  iolfs::FileCache* cache_;
  iolsim::SimStats* stats_;
};

}  // namespace

ProxyServer::ProxyServer(iolsim::SimContext* ctx, iolnet::NetworkSubsystem* net,
                         iolfs::FileIoService* io, iolite::IoLiteRuntime* runtime,
                         std::vector<iolhttp::HttpServer*> origins, ProxyConfig config)
    : HttpServer(ctx, net, io),
      runtime_(runtime),
      origins_(std::move(origins)),
      config_(config),
      shared_cache_(config.backhaul == BackhaulMode::kColocated &&
                    config.data_path == ProxyDataPath::kIoLite),
      own_cpu_(&ctx->clock(), config.proxy_cpu_count),
      backhaul_link_(&ctx->clock()) {
  assert(!origins_.empty());
  backhaul_spec_.link = &backhaul_link_;
  backhaul_spec_.bytes_per_sec = config_.backhaul == BackhaulMode::kRemote
                                     ? config_.backhaul_bytes_per_sec
                                     : config_.loopback_bytes_per_sec;
  backhaul_spec_.Prime(ctx_->cost().params().mtu_bytes);
  domain_ = ctx_->vm().CreateDomain();
  // Server-generated data (headers) and fetched objects come from the
  // proxy's own pools (its ACL, Section 3.10).
  header_pool_ = runtime_->CreatePool("proxy-headers", domain_);
  object_pool_ = runtime_->CreatePool("proxy-objects", domain_);
  if (shared_cache_) {
    // Co-located IO-Lite: the proxy tier serves straight from the machine's
    // unified cache — one copy of each object machine-wide.
    cache_ = &io_->cache();
  } else {
    own_cache_ = std::make_unique<iolfs::FileCache>(ctx_, MakePolicy(config_.policy));
    own_cache_->RouteStats(&ctx_->stats().proxy_cache_hits,
                           &ctx_->stats().proxy_cache_misses,
                           &ctx_->stats().proxy_cache_evictions);
    cache_ = own_cache_.get();
  }
  in_flight_.assign(origins_.size(), 0);
  origin_requests_.assign(origins_.size(), 0);
  if (!shared_cache_) {
    // One persistent backhaul connection per origin member; its per-MSS
    // transmissions occupy the backhaul resource, not the front link. The
    // IOL-IPC configuration forwards descriptors instead and has no socket.
    backhaul_conns_.reserve(origins_.size());
    for (iolhttp::HttpServer* origin : origins_) {
      auto conn =
          std::make_unique<iolnet::TcpConnection>(net_, origin->uses_iolite_sockets());
      conn->set_link(&backhaul_spec_);
      conn->Connect();  // Setup time, charged before the run starts.
      backhaul_conns_.push_back(std::move(conn));
    }
  }
}

ProxyServer::~ProxyServer() = default;

void ProxyServer::ReleaseNode(uint32_t idx) {
  TaskNode& node = nodes_[idx];
  node.req = nullptr;
  node.body = iolite::Aggregate{};
  node.is_fetch = false;
  nodes_.Release(idx);
}

void ProxyServer::StartRequest(iolhttp::RequestContext* req) {
  // Stage 1: event loop wakeup, HTTP parse, cache-read syscall — on the
  // proxy's CPU (the shared machine CPU when co-located).
  iolhttp::RunStageOn(
      ctx_, proxy_cpu(), nullptr,
      [this, req] {
        ctx_->ChargeCpu(config_.proxy_request_cpu);
        req->conn->ReceiveRequest(iolhttp::kRequestBytes);
        ctx_->ChargeCpu(ctx_->cost().SyscallCost());
        ctx_->stats().syscalls++;
      },
      [this, req] { LookupStage(req); });
}

void ProxyServer::LookupStage(iolhttp::RequestContext* req) {
  uint64_t size = io_->fs().SizeOf(req->file);
  // Per-tier accounting over one shared cache: the proxy-hop lookup counts
  // into the proxy_cache_* counters, origin-side lookups (ReadExtentAsync
  // on a miss) keep counting into the machine-wide cache_* counters — so
  // SimStats::cache_* describes the origin tier in every configuration.
  std::optional<iolite::Aggregate> cached;
  if (shared_cache_) {
    ProxyTierStatsScope scope(cache_, &ctx_->stats());
    cached = cache_->Lookup(req->file, 0, size);
  } else {
    cached = cache_->Lookup(req->file, 0, size);
  }
  uint32_t idx = nodes_.Acquire();
  TaskNode& node = nodes_[idx];
  node.req = req;
  if (cached.has_value()) {
    req->cache_hit = true;
    node.body = std::move(*cached);
    node.served_version = cache_->VersionOf(req->file);
    if (consistency_on()) {
      if (ccfg_.mode == ConsistencyMode::kRevalidate &&
          Expired(req->file, ctx_->clock().now())) {
        // Expired entry: a conditional check must travel up the backhaul
        // before these bytes may be served again.
        uint64_t cached_version = cache_->VersionOf(req->file);
        iolhttp::RunStageOn(
            ctx_, proxy_cpu(), nullptr,
            [this] {
              ctx_->ChargeCpu(ctx_->cost().SyscallCost());
              ctx_->stats().syscalls++;
              ctx_->ChargeCpu(ctx_->cost().PacketProcessingCost(kRevalidationBytes));
              cdn_stats().revalidations++;
              cdn_stats().revalidation_bytes += kRevalidationBytes;
            },
            [this, idx, cached_version] {
              // One backhaul round trip: conditional request up, header-only
              // answer down.
              ctx_->events().ScheduleAfter(
                  2 * config_.backhaul_one_way_delay,
                  [this, idx, cached_version] { RevalidateResolve(idx, cached_version); });
            });
        return;
      }
      NoteServe(req->file, cache_->VersionOf(req->file));
    }
    cdn_stats().hits++;
    ServeBody(idx);
    return;
  }
  req->cache_hit = false;
  cdn_stats().misses++;
  node.is_fetch = true;
  node.fetch_issue = ctx_->clock().now();
  if (shared_cache_) {
    ForwardIpc(idx);
  } else {
    ForwardRemote(idx);
  }
}

// --- Socket backhaul (kRemote, and kColocated + kCopy) ----------------------

void ProxyServer::ForwardRemote(uint32_t idx) {
  iolhttp::RunStageOn(
      ctx_, proxy_cpu(), nullptr,
      [this] {
        // Forward the request out the backhaul: one syscall plus the
        // request's packet processing on the proxy CPU.
        ctx_->ChargeCpu(ctx_->cost().SyscallCost());
        ctx_->stats().syscalls++;
        ctx_->ChargeCpu(ctx_->cost().PacketProcessingCost(iolhttp::kRequestBytes));
      },
      [this, idx] {
        iolsim::SimTime delay = config_.backhaul == BackhaulMode::kRemote
                                    ? config_.backhaul_one_way_delay
                                    : 0;
        ctx_->events().ScheduleAfter(delay, [this, idx] { StartOriginFetch(idx); });
      });
}

void ProxyServer::StartOriginFetch(uint32_t idx) {
  TaskNode& node = nodes_[idx];
  size_t origin = balancer_->Pick(in_flight_) % origins_.size();
  node.origin = origin;
  ++in_flight_[origin];
  ++origin_requests_[origin];
  node.fetch_admit = ctx_->clock().now();
  // A real HTTP transaction against the member, over the persistent
  // backhaul connection: the origin's own staged pipeline serves it and
  // transmits per MSS segment on the backhaul resource.
  node.bh_req.conn = backhaul_conns_[origin].get();
  node.bh_req.file = node.req->file;
  node.bh_req.response_bytes = 0;
  node.bh_req.cache_hit = false;
  // The origin transaction runs on behalf of the client request's tenant:
  // backhaul link shares and origin-cache fills stay attributed.
  node.bh_req.tenant = node.req->tenant;
  node.bh_req.on_done = [this, idx](iolhttp::RequestContext*) { OnFetchDone(idx); };
  origins_[origin]->StartRequest(&node.bh_req);
}

void ProxyServer::OnFetchDone(uint32_t idx) {
  TaskNode& node = nodes_[idx];
  --in_flight_[node.origin];
  node.origin_hit = node.bh_req.cache_hit;
  if (node.origin_hit) {
    ++origin_hits_;
  } else {
    ++origin_misses_;
  }
  iolsim::SimTime delay = config_.backhaul == BackhaulMode::kRemote
                              ? config_.backhaul_one_way_delay
                              : 0;
  if (consistency_on()) {
    // Tag the bytes with the version the origin held as it finished
    // serving; ReceiveStage compares against the authority again to catch
    // writes that beat the payload down the wire.
    node.fetch_version = ccfg_.source->VersionOf(node.req->file);
  }
  ctx_->events().ScheduleAfter(delay, [this, idx] { ReceiveStage(idx); });
}

void ProxyServer::ReceiveStage(uint32_t idx) {
  iolhttp::RunStageOn(
      ctx_, proxy_cpu(), nullptr,
      [this, idx] {
        TaskNode& node = nodes_[idx];
        uint64_t size = io_->fs().SizeOf(node.req->file);
        // Receive-path protocol processing for the arriving object.
        ctx_->ChargeCpu(
            ctx_->cost().PacketProcessingCost(size + iolhttp::kResponseHeaderBytes));
        if (config_.backhaul == BackhaulMode::kColocated) {
          // Local socket: the origin blocks when the socket fills and the
          // proxy must run to drain it — one scheduler round trip per fetch
          // (cf. the copy-based CGI pipe).
          ctx_->ChargeCpu(ctx_->cost().params().context_switch_cost);
        }
        cdn_stats().backhaul_bytes += size;
        // The origin's bytes, as of the version it served, land in buffers
        // filled by the NIC (no CPU charge).
        node.body = iolite::Aggregate::FromBuffer(
            io_->fs().ReadSnapshot(node.req->file, object_pool_, node.fetch_version));
        node.served_version = node.fetch_version;
        if (config_.data_path == ProxyDataPath::kCopy) {
          // memcpy off the socket into the proxy's private cache: the
          // double-buffering a copy-based proxy cannot avoid.
          ctx_->ChargeCpu(ctx_->cost().CopyCost(size));
          ctx_->stats().bytes_copied += size;
          ctx_->stats().backhaul_bytes_copied += size;
        }
        // Fetch/write race: a write landed while the payload was in flight.
        // kInvalidate: the invalidation has already swept (or will never
        // target) this cache — inserting would repollute it and break the
        // "never serve older than the acknowledged write" invariant.
        // kRevalidate: inserting would grant stale bytes a fresh TTL, so
        // the ttl staleness bound would stretch by the flight time. Both
        // serve the bytes (the request predates the write) but keep them
        // out of the cache; kStale inserts regardless — serving old
        // snapshots is that protocol's contract, and the staleness samples
        // price it.
        bool stale_fetch = consistency_on() &&
                           ccfg_.mode != ConsistencyMode::kStale &&
                           ccfg_.source->VersionOf(node.req->file) != node.fetch_version;
        if (stale_fetch) {
          cdn_stats().fetch_races++;
          NoteServe(node.req->file, node.fetch_version);
        } else {
          // An IO-Lite proxy mutates only cache metadata here: the entry's
          // slices reference the receive buffers.
          cache_->Insert(node.req->file, 0, node.body, node.fetch_version);
          if (consistency_on()) {
            RefreshExpiry(node.req->file, ctx_->clock().now());
          }
        }
        cache_->EnforceBudget(config_.cache_bytes);
        if (config_.origin_cache_bytes > 0) {
          io_->cache().EnforceBudget(config_.origin_cache_bytes);
        }
      },
      [this, idx] { ServeBody(idx); });
}

// --- IOL-IPC backhaul (kColocated + kIoLite) --------------------------------

void ProxyServer::ForwardIpc(uint32_t idx) {
  iolhttp::RunStageOn(
      ctx_, proxy_cpu(), nullptr,
      [this] {
        // IOL_write of the request descriptor into the proxy->origin ring.
        ctx_->ChargeCpu(ctx_->cost().SyscallCost());
        ctx_->stats().syscalls++;
        ctx_->stats().ipc_frames_sent++;
      },
      [this, idx] { OriginIpcServe(idx); });
}

void ProxyServer::OriginIpcServe(uint32_t idx) {
  TaskNode& node = nodes_[idx];
  size_t origin = balancer_->Pick(in_flight_) % origins_.size();
  node.origin = origin;
  ++in_flight_[origin];
  ++origin_requests_[origin];
  node.fetch_admit = ctx_->clock().now();
  iolhttp::RunStageOn(
      ctx_, &ctx_->cpu(), &ctx_->disk(),
      [this] {
        // Origin-side service loop: descriptor pop, IOL_read syscall.
        ctx_->ChargeCpu(config_.origin_ipc_request_cpu);
        ctx_->ChargeCpu(ctx_->cost().SyscallCost());
        ctx_->stats().syscalls++;
      },
      [this, idx] {
        TaskNode& node = nodes_[idx];
        uint64_t size = io_->fs().SizeOf(node.req->file);
        // Through the unified cache: a cold object occupies the disk arm
        // and becomes visible to both tiers at once.
        io_->ReadExtentAsync(node.req->file, 0, size,
                             [this, idx](iolite::Aggregate body, bool was_miss) {
                               nodes_[idx].body = std::move(body);
                               nodes_[idx].served_version = 0;  // The disk's bytes.
                               OnOriginRead(idx, was_miss);
                             });
      });
}

void ProxyServer::OnOriginRead(uint32_t idx, bool was_miss) {
  TaskNode& node = nodes_[idx];
  --in_flight_[node.origin];
  node.origin_hit = !was_miss;
  if (node.origin_hit) {
    ++origin_hits_;
  } else {
    ++origin_misses_;
  }
  iolhttp::RunStageOn(
      ctx_, &ctx_->cpu(), nullptr,
      [this, idx] {
        TaskNode& node = nodes_[idx];
        // IOL_write of the response descriptors into the origin->proxy ring
        // and the proxy's IOL_read popping them: 32 bytes per slice cross
        // the ring; the payload never moves (the "forward by reference"
        // arrow of the topology diagram).
        ctx_->ChargeCpu(ctx_->cost().SyscallCost());
        ctx_->ChargeCpu(ctx_->cost().SyscallCost());
        ctx_->stats().syscalls += 2;
        ctx_->stats().ipc_frames_sent++;
        ctx_->stats().ipc_bytes_transferred += node.body.size();
        cdn_stats().backhaul_bytes += node.body.size();
        // One machine, one budget: the unified cache is the proxy cache,
        // and evictions its budget forces belong to the proxy tier's
        // accounting (same routing scope as the proxy-hop Lookup).
        ProxyTierStatsScope scope(&io_->cache(), &ctx_->stats());
        io_->cache().EnforceBudget(config_.cache_bytes);
      },
      [this, idx] { ServeBody(idx); });
}

// --- Shared serve tail ------------------------------------------------------

void ProxyServer::ServeBody(uint32_t idx) {
  TaskNode& node = nodes_[idx];
  if (node.is_fetch) {
    fetch_records_.push_back(ioldrv::RequestRecord{.issue = node.fetch_issue,
                                                   .admit = node.fetch_admit,
                                                   .complete = ctx_->clock().now(),
                                                   .bytes = node.body.size(),
                                                   .server = node.origin,
                                                   .cache_hit = node.origin_hit});
  }
  if (config_.data_path == ProxyDataPath::kIoLite) {
    iolhttp::RunStageOn(
        ctx_, proxy_cpu(), nullptr,
        [this, idx] {
          TaskNode& node = nodes_[idx];
          // Chunks map into the proxy domain once; a popular object costs
          // nothing here on the warm path.
          runtime_->MapAggregate(node.body, domain_);
          iolite::Aggregate response = iolite::Aggregate::FromBuffer(
              iolhttp::MakeIoLiteHeader(ctx_, header_pool_, node.body.size()));
          response.Append(node.body);
          // IOL_write: payload by reference; body checksums come from the
          // generation-keyed cache after the first transmission.
          ctx_->ChargeCpu(ctx_->cost().SyscallCost());
          ctx_->stats().syscalls++;
          node.req->response_bytes = node.req->conn->SendAggregate(response);
          CheckDelivery(node.body, node.req->file, node.served_version);
        },
        [this, idx] { FinishServe(idx); });
  } else {
    iolhttp::RunStageOn(
        ctx_, proxy_cpu(), nullptr,
        [this, idx] {
          TaskNode& node = nodes_[idx];
          char header[iolhttp::kResponseHeaderBytes];
          size_t header_len = iolhttp::BuildResponseHeader(header, node.body.size());
          // writev: header + cached copy, copied and checksummed into the
          // socket on every hit — the copy-based proxy's per-serve tax.
          ctx_->ChargeCpu(ctx_->cost().SyscallCost());
          ctx_->stats().syscalls++;
          node.req->response_bytes =
              node.req->conn->SendGatheredCopy(header, header_len, node.body);
        },
        [this, idx] { FinishServe(idx); });
  }
}

void ProxyServer::FinishServe(uint32_t idx) {
  iolhttp::RequestContext* req = nodes_[idx].req;
  ReleaseNode(idx);
  // Per-segment transmission of the response on the front link.
  TransmitStage(req);
}

// --- CDN consistency plane (src/cdn) ----------------------------------------

void ProxyServer::ConfigureConsistency(const ConsistencyConfig& cfg) {
  assert(cfg.mode == ConsistencyMode::kNone ||
         (cfg.source != nullptr && cfg.level >= 0 &&
          cfg.level < iolsim::SimStats::kMaxCdnLevels));
  assert(cfg.mode != ConsistencyMode::kRevalidate || cfg.ttl > 0);
  ccfg_ = cfg;
}

void ProxyServer::OnInvalidate(iolfs::FileId file, uint64_t version) {
  assert(ccfg_.mode == ConsistencyMode::kInvalidate);
  // The authority counts the send; we count whether the frame actually
  // swept anything. Versioned drop, not InvalidateFile: a concurrent fetch
  // may already have landed the *new* bytes, which must survive.
  int dropped = cache_->InvalidateOlderThan(file, version);
  if (dropped > 0) {
    cdn_stats().invalidations_applied++;
  }
  expires_.erase(file);
}

void ProxyServer::RevalidateResolve(uint32_t idx, uint64_t cached_version) {
  TaskNode& node = nodes_[idx];
  uint64_t current = ccfg_.source->VersionOf(node.req->file);
  if (current == cached_version) {
    // 304: the cached bytes are still the origin's bytes — trust them for
    // another TTL and serve what LookupStage already assembled.
    RefreshExpiry(node.req->file, ctx_->clock().now());
    cdn_stats().hits++;
    ServeBody(idx);
    return;
  }
  // Modified: the cached body is dead weight; fall into the normal fetch
  // path (the fetched copy replaces the stale entry on arrival).
  node.body = iolite::Aggregate{};
  node.req->cache_hit = false;
  cdn_stats().misses++;
  node.is_fetch = true;
  node.fetch_issue = ctx_->clock().now();
  if (shared_cache_) {
    ForwardIpc(idx);
  } else {
    ForwardRemote(idx);
  }
}

void ProxyServer::NoteServe(iolfs::FileId file, uint64_t served_version) {
  uint64_t current = ccfg_.source->VersionOf(file);
  if (served_version == current) {
    return;
  }
  ++stale_serves_;
  cdn_stats().stale_serves++;
  iolsim::SimTime written = ccfg_.source->WrittenAt(file);
  iolsim::SimTime now = ctx_->clock().now();
  staleness_samples_.push_back(now > written ? now - written : 0);
}

bool ProxyServer::Expired(iolfs::FileId file, iolsim::SimTime now) const {
  auto it = expires_.find(file);
  return it == expires_.end() || now >= it->second;
}

void ProxyServer::RefreshExpiry(iolfs::FileId file, iolsim::SimTime now) {
  if (ccfg_.mode == ConsistencyMode::kRevalidate) {
    expires_[file] = now + ccfg_.ttl;
  }
}

}  // namespace iolproxy
