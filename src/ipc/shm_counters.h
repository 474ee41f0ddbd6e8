// ShmCounters: the plane's warm-path counters, readable from *outside* the
// serving processes.
//
// A fixed-order block of 64-bit relaxed atomics in the shared region,
// published in the ShmTable like every other structure, followed by the
// counters' own names. The order is ABI — the out-of-process verification in
// ProcessTier names counters by index — so entries are append-only: new
// counters go at the end of IOLIPC_PLANE_COUNTERS. scripts/shm_inspect.py
// reads the names from the block itself and keeps no list of its own.
//
// This block is how the plane's zero-copy claim is *checked* rather than
// asserted: after a warm multi-process run, an unrelated attacher reads
// kBytesCopiedCrossProcess through the table and requires zero.

#ifndef SRC_IPC_SHM_COUNTERS_H_
#define SRC_IPC_SHM_COUNTERS_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <string>

#include "src/ipc/shm_region.h"
#include "src/ipc/shm_table.h"

namespace iolipc {

// The plane's counters, declared once: X(enumerator, name). The PlaneCounter
// enum, PlaneCounterName and the in-region name table are generated from
// this list. Order is ABI; append only.
#define IOLIPC_PLANE_COUNTERS(X)                                                                \
  X(kRequestsServed, requests_served)                     /* Client responses completed. */     \
  X(kCacheHits, cache_hits)                               /* ShmMap warm hits in proxies. */    \
  X(kCacheMisses, cache_misses)                           /* Lookups passed on to an origin. */ \
  X(kBytesServed, bytes_served)                           /* Payload named by responses. */     \
  X(kBytesCopiedCrossProcess, bytes_copied_cross_process) /* memcpy'd between processes. */     \
  X(kBytesFilledOrigin, bytes_filled_origin)              /* Written by origin disk fills. */   \
  X(kOriginFills, origin_fills)                           /* Miss responses delivered. */       \
  X(kCgiRequests, cgi_requests)                           /* Dynamic responses generated. */    \
  X(kFutureErrors, future_errors)                         /* Requests a worker failed. */       \
  X(kQueueFullYields, queue_full_yields)                  /* Backoff yields on a full queue. */ \
  X(kMapEvictions, map_evictions)                         /* Origin cache budget evictions. */  \
  X(kWorkerAbnormalExits, worker_abnormal_exits)          /* Non-zero exit or signal. */        \
  X(kWorkerRespawns, worker_respawns)                     /* Relaunched by the supervisor. */   \
  X(kPinsSwept, pins_swept)                               /* Dead workers' pins reclaimed. */   \
  X(kProxyPins, proxy_pins)                               /* Hit pins proxies took. */      \
  X(kParks, parks)                                        /* Waiters that went to sleep. */ \
  X(kWakes, wakes)                                        /* futex wakes issued. */

// Index into the counter block.
enum PlaneCounter : uint32_t {
#define IOLIPC_PLANE_COUNTER_ENUM(id, name) id,
  IOLIPC_PLANE_COUNTERS(IOLIPC_PLANE_COUNTER_ENUM)
#undef IOLIPC_PLANE_COUNTER_ENUM
  kCounterCount,
};
static_assert(kProxyPins == 14, "counter order is ABI: append new counters at the end");

inline constexpr const char* kPlaneCounterNames[kCounterCount] = {
#define IOLIPC_PLANE_COUNTER_NAME(id, name) #name,
    IOLIPC_PLANE_COUNTERS(IOLIPC_PLANE_COUNTER_NAME)
#undef IOLIPC_PLANE_COUNTER_NAME
};

inline const char* PlaneCounterName(uint32_t i) {
  return i < kCounterCount ? kPlaneCounterNames[i] : "unknown";
}

class ShmCounters {
 public:
  // At the block's base; 64 bytes, followed by `count` uint64 slots and
  // then `count` names of kNameBytes each, NUL-padded, in slot order.
  struct CountersHeader {
    uint32_t magic;  // offset 0: kCountersMagic.
    uint32_t count;  // offset 4: slots (and names) that follow.
    char pad[56];
  };
  static_assert(sizeof(CountersHeader) == 64, "counters header layout is ABI");

  static constexpr size_t kNameBytes = 32;
  static_assert(
      [] {
        for (const char* name : kPlaneCounterNames) {
          if (std::char_traits<char>::length(name) >= kNameBytes) {
            return false;
          }
        }
        return true;
      }(),
      "every counter name and its NUL fit one name-table entry");

  ShmCounters() = default;

  static ShmCounters Create(ShmRegion* region, ShmTable* table, const char* name) {
    size_t names_at = sizeof(CountersHeader) + kCounterCount * sizeof(uint64_t);
    size_t span = names_at + kCounterCount * kNameBytes;
    char* base = region->AllocateExtent(span);
    ShmCounters c;
    if (base == nullptr) {
      return c;
    }
    std::memset(base, 0, span);
    for (uint32_t i = 0; i < kCounterCount; ++i) {
      std::memcpy(base + names_at + i * kNameBytes, kPlaneCounterNames[i],
                  std::char_traits<char>::length(kPlaneCounterNames[i]));
    }
    c.header_ = reinterpret_cast<CountersHeader*>(base);
    c.header_->count = kCounterCount;
    std::atomic_thread_fence(std::memory_order_release);
    c.header_->magic = kCountersMagic;
    if (table != nullptr &&
        !table->Publish(name, region->OffsetOf(base), span, ShmType::kCounters)) {
      return ShmCounters{};
    }
    return c;
  }

  // Invalid unless the block holds every counter this build indexes.
  static ShmCounters Attach(const ShmTable& table, const char* name) {
    ShmCounters c;
    uint64_t span = 0;
    auto* header = reinterpret_cast<CountersHeader*>(
        table.Locate(name, ShmType::kCounters, sizeof(CountersHeader), &span));
    if (header == nullptr || header->magic != kCountersMagic ||
        header->count < kCounterCount ||
        sizeof(CountersHeader) + uint64_t{header->count} * (sizeof(uint64_t) + kNameBytes) >
            span) {
      return c;
    }
    c.header_ = header;
    return c;
  }

  bool valid() const { return header_ != nullptr; }
  uint32_t count() const { return header_->count; }

  // Returns the counter's new value.
  uint64_t Add(PlaneCounter i, uint64_t delta) {
    return slots()[i].fetch_add(delta, std::memory_order_relaxed) + delta;
  }

  uint64_t Get(PlaneCounter i) const {
    // An attached verifier reads after the serving processes quiesced (join/
    // waitpid provides the ordering); acquire is belt and braces.
    return slots()[i].load(std::memory_order_acquire);
  }

 private:
  static constexpr uint32_t kCountersMagic = 0x494f4c43;  // "IOLC"

  std::atomic<uint64_t>* slots() const {
    return reinterpret_cast<std::atomic<uint64_t>*>(
        reinterpret_cast<char*>(header_) + sizeof(CountersHeader));
  }

  CountersHeader* header_ = nullptr;
};

}  // namespace iolipc

#endif  // SRC_IPC_SHM_COUNTERS_H_
