// The proxy-cache tier: a second caching tier in front of the origin fleet.
//
// IO-Lite's claim is that one unified buffering/caching system eliminates
// redundant copying *and redundant caching* across cooperating programs
// (Sections 1 and 3.5). A proxy cache is the canonical multi-application
// case: a copy-based proxy double-buffers every object it relays (one copy
// off the backhaul socket into its private cache, one copy per hit into the
// client socket) and caches each object a second time; an IO-Lite proxy
// serves hits by reference, and — co-located with the origin — shares the
// machine's unified cache over the IOL-IPC descriptor path, so an object is
// cached once machine-wide and forwarded without its payload being touched.
//
// ProxyServer is an HttpServer running on the same staged event engine as
// the origin servers: clients arrive over the machine's front link, the
// proxy runs on its own CPU Resource (its own machine) unless co-located,
// hits are served from the proxy cache, and misses are forwarded to the
// origin fleet over a configurable backhaul:
//
//  * kRemote — a separate proxy machine. Misses become real HTTP
//    transactions against an origin fleet member over a persistent backhaul
//    connection whose per-MSS transmissions occupy a dedicated backhaul
//    Resource (see iolnet::LinkSpec). The arriving object lands in the
//    proxy's own FileCache: a copy-based proxy memcpys it off the socket
//    (and its cache duplicates the origin's); an IO-Lite proxy only mutates
//    cache metadata — the receive buffers are appended by reference.
//  * kColocated — proxy and origin share one machine (one CPU resource).
//    The copy-based pair still runs two private caches and crosses a local
//    socket at bus speed, double-caching on one machine; the IO-Lite pair
//    shares the unified cache and forwards misses over the IOL-IPC
//    descriptor path (32-byte SliceDescs, accounted in the ipc_* stats):
//    zero payload bytes copied, zero duplicate cache entries — asserted on
//    the warm path by tests/proxy_test.cc.
//
// Per-tier accounting: the proxy cache's hit/miss/eviction counters are
// routed to SimStats::proxy_cache_* (see FileCache::RouteStats); the
// machine's cache_* counters keep describing the origin tier. Backhaul
// payload volume lands in SimStats::cdn[level].backhaul_bytes, and the
// subset of it memcpy'd at the proxy in SimStats::backhaul_bytes_copied.

#ifndef SRC_PROXY_PROXY_SERVER_H_
#define SRC_PROXY_PROXY_SERVER_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/driver/fleet.h"
#include "src/driver/telemetry.h"
#include "src/fs/file_cache.h"
#include "src/httpd/http_server.h"
#include "src/iolite/runtime.h"
#include "src/net/tcp.h"
#include "src/proxy/consistency.h"
#include "src/simos/sim_context.h"
#include "src/simos/slot_pool.h"

namespace iolproxy {

// Where the origin fleet sits relative to the proxy.
enum class BackhaulMode {
  kRemote,     // Separate machines joined by a backhaul wire.
  kColocated,  // One machine: local socket (copy) or IOL-IPC (IO-Lite).
};

// The proxy's data path, mirroring the server families of Section 5.
enum class ProxyDataPath {
  kCopy,    // read()/writev() relay: copy in, private cache, copy out.
  kIoLite,  // IOL_read/IOL_write: by-reference cache, cached checksums.
};

// Replacement policy of the proxy's own cache (own-cache configurations).
enum class ProxyCachePolicy {
  kLru,
  kGds,
};

struct ProxyConfig {
  ProxyDataPath data_path = ProxyDataPath::kIoLite;
  BackhaulMode backhaul = BackhaulMode::kRemote;
  ProxyCachePolicy policy = ProxyCachePolicy::kGds;

  // Byte budget of the proxy-tier cache, enforced after each fetch. In the
  // shared-cache configuration (kColocated + kIoLite) this bounds the
  // machine's unified cache — the same RAM the two private caches of the
  // copy-based pair split between them.
  uint64_t cache_bytes = 32ull * 1024 * 1024;
  // Optional budget for the origin's unified cache in own-cache
  // configurations (0 = unbounded).
  uint64_t origin_cache_bytes = 0;

  // Remote backhaul wire: effective payload rate and one-way propagation.
  // Default: one Fast Ethernet at the front link's efficiency — the
  // origin-side pipe every miss must cross.
  double backhaul_bytes_per_sec = 100.0e6 / 8.0 * 0.72;
  iolsim::SimTime backhaul_one_way_delay = 500 * iolsim::kMicrosecond;
  // Co-located copy-based forwarding crosses a local socket at bus speed.
  double loopback_bytes_per_sec = 400.0e6;

  // The proxy machine's CPU (own-cache modes; co-located proxies share the
  // origin machine's CPU resource).
  int proxy_cpu_count = 1;
  // Per-request proxy application work (event loop, parse, routing).
  iolsim::SimTime proxy_request_cpu = 50 * iolsim::kMicrosecond;
  // Origin-side service loop for one IOL-IPC fetch (descriptor pop, unified
  // cache read, descriptor push) beyond the charged syscalls.
  iolsim::SimTime origin_ipc_request_cpu = 50 * iolsim::kMicrosecond;
};

class ProxyServer : public iolhttp::HttpServer {
 public:
  // `origins` (non-owning, non-empty) is the fleet behind the proxy;
  // `runtime` hosts the proxy's pools and domain. Each fetch goes to the
  // origin a LoadBalancer picks from the per-origin in-flight fetch counts:
  // the proxy's own LeastConnectionsBalancer unless set_origin_balancer
  // replaces it.
  ProxyServer(iolsim::SimContext* ctx, iolnet::NetworkSubsystem* net,
              iolfs::FileIoService* io, iolite::IoLiteRuntime* runtime,
              std::vector<iolhttp::HttpServer*> origins, ProxyConfig config);
  ~ProxyServer() override;

  bool uses_iolite_sockets() const override {
    return config_.data_path == ProxyDataPath::kIoLite;
  }
  void StartRequest(iolhttp::RequestContext* req) override;

  // Picks origins with `balancer` (not owned; load[i] = in-flight fetches
  // at member i), e.g. the origin Fleet's own.
  void set_origin_balancer(ioldrv::LoadBalancer* balancer) { balancer_ = balancer; }

  // The cache the proxy tier serves hits from: the machine's unified cache
  // when co-located IO-Lite, the proxy's own cache otherwise.
  iolfs::FileCache& proxy_cache() { return *cache_; }
  bool shares_unified_cache() const { return shared_cache_; }

  // --- CDN consistency plane (src/cdn) -----------------------------------
  // Attaches a consistency protocol: fetched objects are version-tagged in
  // the cache, hits are checked against the authoritative VersionSource,
  // and the protocol's SimStats::cdn[level] counters go live. kNone (the
  // default) keeps every pre-CDN code path byte-identical; it still sets
  // the level the hit/miss/backhaul counters land in. Configure before
  // traffic.
  void ConfigureConsistency(const ConsistencyConfig& cfg);
  bool consistency_on() const { return ccfg_.mode != ConsistencyMode::kNone; }
  const ConsistencyConfig& consistency() const { return ccfg_; }

  // Invalidation receive path (kInvalidate): drops cached extents of `file`
  // older than `version`. Called by the hierarchy's VersionAuthority at the
  // instant the invalidation frame arrives over this proxy's backhaul.
  void OnInvalidate(iolfs::FileId file, uint64_t version);

  // Whether any extent of `file` sits in this proxy's cache (invalidation
  // targeting; pure metadata, no hit/miss accounting).
  bool CachesFile(iolfs::FileId file) const { return cache_->Contains(file); }

  // Serves whose bytes were older than the origin's current version, and
  // the age of each such serve (now - the write that obsoleted the bytes).
  // CdnTier folds the samples into staleness percentiles.
  uint64_t stale_serves() const { return stale_serves_; }
  const std::vector<iolsim::SimTime>& staleness_samples() const {
    return staleness_samples_;
  }

  // --- Per-tier accounting ---------------------------------------------------
  uint64_t origin_fetches() const { return origin_hits_ + origin_misses_; }
  uint64_t origin_hits() const { return origin_hits_; }
  uint64_t origin_misses() const { return origin_misses_; }
  const std::vector<uint64_t>& origin_requests() const { return origin_requests_; }
  // One record per backhaul fetch: issued when the proxy missed and
  // forwarded, admitted when the origin began serving it, complete when
  // the object is resident here. `server` is the origin member and
  // `cache_hit` its unified-cache hit; `counted` is left to the reader.
  const std::vector<ioldrv::RequestRecord>& fetches() const { return fetch_records_; }

 private:
  // Pooled per-request state: the body aggregate between stages, plus the
  // backhaul fetch context on a miss. Steady-state turnover allocates
  // nothing once the pool has grown to the concurrency high-water mark.
  struct TaskNode {
    iolhttp::RequestContext* req = nullptr;
    iolite::Aggregate body;
    iolhttp::RequestContext bh_req;  // Remote-mode origin transaction.
    size_t origin = 0;
    bool is_fetch = false;
    bool origin_hit = false;
    iolsim::SimTime fetch_issue = 0;
    iolsim::SimTime fetch_admit = 0;
    // Authoritative object version sampled when the origin finished serving
    // this fetch (consistency plane; 0 with consistency off).
    uint64_t fetch_version = 0;
    // The version of the bytes `body` is meant to hold: what the delivery
    // check compares it with.
    uint64_t served_version = 0;
  };

  // The CPU the proxy's stages run on: its own machine's, or the shared
  // machine's when co-located.
  iolsim::Resource* proxy_cpu() {
    return config_.backhaul == BackhaulMode::kColocated ? &ctx_->cpu() : &own_cpu_;
  }

  // Resets the node's request state and returns it to the pool.
  void ReleaseNode(uint32_t idx);

  void LookupStage(iolhttp::RequestContext* req);
  // Miss paths.
  void ForwardRemote(uint32_t idx);      // kRemote, and kColocated + kCopy.
  void StartOriginFetch(uint32_t idx);
  void OnFetchDone(uint32_t idx);
  void ReceiveStage(uint32_t idx);       // Object arrives; insert into cache.
  void ForwardIpc(uint32_t idx);         // kColocated + kIoLite.
  void OriginIpcServe(uint32_t idx);
  void OnOriginRead(uint32_t idx, bool was_miss);
  // Shared tail: serve node's body to the client over the front link.
  void ServeBody(uint32_t idx);
  void FinishServe(uint32_t idx);

  // --- Consistency plane (active only when consistency_on()) ---------------
  // This proxy's per-level counter block (ConsistencyConfig::level). Hits,
  // misses and backhaul bytes count under every mode, kNone included.
  iolsim::SimStats::CdnLevelStats& cdn_stats() {
    return ctx_->stats().cdn[ccfg_.level];
  }
  // kRevalidate: the conditional check's response arrives; `cached_version`
  // is what the cache held when the check was issued.
  void RevalidateResolve(uint32_t idx, uint64_t cached_version);
  // Serve-time staleness check: when `served_version` is behind the
  // authority, counts a stale serve and samples its age.
  void NoteServe(iolfs::FileId file, uint64_t served_version);
  // Expiry bookkeeping for kRevalidate (trust-until instants per file).
  bool Expired(iolfs::FileId file, iolsim::SimTime now) const;
  void RefreshExpiry(iolfs::FileId file, iolsim::SimTime now);

  iolite::IoLiteRuntime* runtime_;
  std::vector<iolhttp::HttpServer*> origins_;
  ProxyConfig config_;
  bool shared_cache_;

  iolsim::Resource own_cpu_;
  iolsim::Resource backhaul_link_;
  iolnet::LinkSpec backhaul_spec_;

  iolsim::DomainId domain_;
  iolite::BufferPool* header_pool_;
  iolite::BufferPool* object_pool_;  // Fetched objects (own-cache modes).
  std::unique_ptr<iolfs::FileCache> own_cache_;
  iolfs::FileCache* cache_;  // own_cache_ or the machine's unified cache.

  // One persistent backhaul connection per origin member (remote and
  // co-located copy modes; the IPC path has no socket).
  std::vector<std::unique_ptr<iolnet::TcpConnection>> backhaul_conns_;

  ioldrv::LeastConnectionsBalancer own_balancer_;
  ioldrv::LoadBalancer* balancer_ = &own_balancer_;
  std::vector<int> in_flight_;
  std::vector<uint64_t> origin_requests_;

  uint64_t origin_hits_ = 0;
  uint64_t origin_misses_ = 0;
  std::vector<ioldrv::RequestRecord> fetch_records_;

  // Consistency plane (all empty/idle while ccfg_.mode == kNone, so the
  // pre-CDN event sequence is untouched).
  ConsistencyConfig ccfg_;
  // kRevalidate: instant until which each cached object is trusted.
  std::unordered_map<iolfs::FileId, iolsim::SimTime> expires_;
  uint64_t stale_serves_ = 0;
  std::vector<iolsim::SimTime> staleness_samples_;

  // Deque storage: origin pipelines hold &bh_req across their stage
  // suspensions, so node addresses must survive pool growth.
  iolsim::SlotPool<TaskNode, std::deque<TaskNode>> nodes_;
};

}  // namespace iolproxy

#endif  // SRC_PROXY_PROXY_SERVER_H_
