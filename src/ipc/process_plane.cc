#include "src/ipc/process_plane.h"

#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>

namespace iolipc {

namespace {

// Carves a slab of `slots` x `slot_bytes`, publishes it as a raw span, and
// seeds `free_list` with one descriptor per slot.
bool SeedSlab(ShmRegion* region, ShmTable* table, const char* slab_name,
              MpmcQueue* free_list, uint32_t slots, uint32_t slot_bytes) {
  size_t span = static_cast<size_t>(slots) * slot_bytes;
  char* base = region->AllocateExtent(span);
  if (base == nullptr) {
    return false;
  }
  if (!table->Publish(slab_name, region->OffsetOf(base), span, ShmType::kRaw)) {
    return false;
  }
  for (uint32_t i = 0; i < slots; ++i) {
    SliceDesc d{};
    d.offset = region->OffsetOf(base) + static_cast<uint64_t>(i) * slot_bytes;
    d.length = slot_bytes;
    d.reserved = slot_bytes;
    if (!free_list->TryPush(d)) {
      return false;  // Free-list capacity below slot count: config error.
    }
  }
  return true;
}

// Directory name of origin `o`'s queue.
std::string OriginQueueName(int o) {
  return std::string(kPlaneOriginQueue) + "." + std::to_string(o);
}

// Smallest power of two >= n (free-list capacity for n slots).
uint32_t PowTwoAtLeast(uint32_t n) {
  uint32_t p = 2;
  while (p < n) {
    p <<= 1;
  }
  return p;
}

// Points every queue and the future pool at the plane's park and wake
// counters.
void CountWaits(PlaneShared* s) {
  for (MpmcQueue* q : {&s->client_q, &s->cgi_q, &s->header_free, &s->body_free}) {
    q->CountWaitsIn(s->counters);
  }
  for (MpmcQueue& q : s->origin_qs) {
    q.CountWaitsIn(s->counters);
  }
  s->futures.CountWaitsIn(s->counters);
}

}  // namespace

double CpuSecondsOf(const struct rusage& ru) {
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

PlaneShared CreatePlane(ShmRegion* region, const PlaneConfig& config, int origins) {
  PlaneShared s;
  s.region = region;
  s.table = ShmTable::Create(region, config.table_capacity);
  if (!s.table.valid()) {
    return PlaneShared{};
  }
  s.client_q = MpmcQueue::Create(region, &s.table, kPlaneClientQueue,
                                 config.queue_capacity);
  assert(origins >= 1 && "a plane has at least one origin queue");
  for (int o = 0; o < origins; ++o) {
    MpmcQueue q = MpmcQueue::Create(region, &s.table, OriginQueueName(o).c_str(),
                                    config.queue_capacity);
    if (!q.valid()) {
      return PlaneShared{};
    }
    s.origin_qs.push_back(q);
  }
  s.cgi_q = MpmcQueue::Create(region, &s.table, kPlaneCgiQueue,
                              config.queue_capacity);
  s.header_free = MpmcQueue::Create(region, &s.table, kPlaneHeaderFree,
                                    PowTwoAtLeast(config.header_slots));
  s.body_free = MpmcQueue::Create(region, &s.table, kPlaneBodyFree,
                                  PowTwoAtLeast(config.body_slots));
  s.cache_map = ShmMap::Create(region, &s.table, kPlaneCacheMap, config.map_capacity);
  s.futures = ShmFuturePool::Create(region, &s.table, kPlaneFutures,
                                    config.future_capacity);
  s.counters = ShmCounters::Create(region, &s.table, kPlaneCounters);
  s.pin_ledger = PinLedger::Create(region, &s.table, kPlanePinLedger);
  if (!s.valid()) {
    return PlaneShared{};
  }
  CountWaits(&s);
  if (!SeedSlab(region, &s.table, "plane.slab.hdr", &s.header_free,
                config.header_slots, kHeaderSlotBytes) ||
      !SeedSlab(region, &s.table, "plane.slab.body", &s.body_free,
                config.body_slots, config.body_slot_bytes)) {
    return PlaneShared{};
  }
  return s;
}

PlaneShared AttachPlane(ShmRegion* region) {
  PlaneShared s;
  s.region = region;
  s.table = ShmTable::Attach(region);
  if (!s.table.valid()) {
    return PlaneShared{};
  }
  s.client_q = MpmcQueue::Attach(s.table, kPlaneClientQueue);
  for (int o = 0;; ++o) {
    MpmcQueue q = MpmcQueue::Attach(s.table, OriginQueueName(o).c_str());
    if (!q.valid()) {
      break;
    }
    s.origin_qs.push_back(q);
  }
  s.cgi_q = MpmcQueue::Attach(s.table, kPlaneCgiQueue);
  s.header_free = MpmcQueue::Attach(s.table, kPlaneHeaderFree);
  s.body_free = MpmcQueue::Attach(s.table, kPlaneBodyFree);
  s.cache_map = ShmMap::Attach(s.table, kPlaneCacheMap);
  s.futures = ShmFuturePool::Attach(s.table, kPlaneFutures);
  s.counters = ShmCounters::Attach(s.table, kPlaneCounters);
  s.pin_ledger = PinLedger::Attach(s.table, kPlanePinLedger);
  if (!s.valid()) {
    return PlaneShared{};
  }
  CountWaits(&s);
  return s;
}

PinLedger PinLedger::Create(ShmRegion* region, ShmTable* table, const char* name) {
  PinLedger l;
  size_t span = kPinLedgerSlots * sizeof(uint64_t);
  char* base = region->AllocateExtent(span);
  if (base == nullptr) {
    return l;
  }
  std::memset(base, 0, span);
  if (table != nullptr &&
      !table->Publish(name, region->OffsetOf(base), span, ShmType::kRaw)) {
    return l;
  }
  l.slots_ = reinterpret_cast<std::atomic<uint64_t>*>(base);
  return l;
}

PinLedger PinLedger::Attach(const ShmTable& table, const char* name) {
  PinLedger l;
  l.slots_ = reinterpret_cast<std::atomic<uint64_t>*>(
      table.Locate(name, ShmType::kRaw, kPinLedgerSlots * sizeof(uint64_t), nullptr));
  return l;
}

void ReturnResponse(PlaneShared* s, const SliceDesc& header, const SliceDesc& body) {
  for (const SliceDesc* d : {&header, &body}) {
    MpmcQueue* free_list = (d->flags & kRespHeaderSlab) ? &s->header_free
                           : (d->flags & kRespBodySlab) ? &s->body_free
                                                        : nullptr;
    if (free_list != nullptr) {
      SliceDesc slot{};
      slot.offset = d->offset;
      slot.length = d->reserved;
      slot.reserved = d->reserved;
      // Cannot fail: a free-list's capacity covers every slot ever seeded.
      bool pushed = free_list->TryPush(slot);
      assert(pushed && "free-list sized below its slab's slot count");
      (void)pushed;
    }
    if (d->flags & kRespPinned) {
      s->cache_map.Unpin(d->ticket);
    }
  }
}

WorkerGroup::~WorkerGroup() {
  assert(pids_.empty() && threads_.empty() && "WorkerGroup destroyed before JoinAll");
}

pid_t WorkerGroup::Spawn(int slot) {
  std::fflush(stdout);  // Don't duplicate buffered output into children.
  std::fflush(stderr);
  pid_t parent = getpid();
  pid_t pid = fork();
  if (pid == 0) {
    // A worker dies with its parent instead of parking forever on queues
    // nobody will close. The signal follows the forking thread, which is
    // the one that joins the group (Launch, Poll and JoinAll run on one
    // thread), and a parent that died before prctl is caught by getppid.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) {
      _exit(1);
    }
    body_(slot);
    _exit(0);
  }
  return pid;
}

bool WorkerGroup::Launch(PlaneMode mode, int n,
                         const std::function<void(int)>& body) {
  mode_ = mode;
  body_ = body;
  if (mode == PlaneMode::kInProcess) {
    return true;  // The driver pumps roles itself.
  }
  for (int i = 0; i < n; ++i) {
    if (mode == PlaneMode::kThreads) {
      threads_.emplace_back([body, i] { body(i); });
      continue;
    }
    pid_t pid = Spawn(i);
    if (pid < 0) {
      return false;
    }
    pids_.push_back(pid);
  }
  return true;
}

bool WorkerGroup::Launch(PlaneMode mode, int n,
                         const std::function<void()>& body) {
  return Launch(mode, n, std::function<void(int)>([body](int) { body(); }));
}

int WorkerGroup::JoinAll() {
  int abnormal = 0;
  for (std::thread& t : threads_) {
    t.join();
  }
  threads_.clear();
  for (pid_t pid : pids_) {
    if (pid <= 0) {
      continue;  // Slot already retired by Poll().
    }
    int status = 0;
    struct rusage ru {};
    if (wait4(pid, &status, 0, &ru) != pid) {
      ++abnormal;
      continue;
    }
    cpu_seconds_ += CpuSecondsOf(ru);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      ++abnormal;
    }
  }
  pids_.clear();
  return abnormal;
}

int WorkerGroup::Poll() {
  if (mode_ != PlaneMode::kProcesses) {
    return 0;
  }
  int respawned = 0;
  for (size_t i = 0; i < pids_.size(); ++i) {
    if (pids_[i] <= 0) {
      continue;
    }
    int status = 0;
    struct rusage ru {};
    if (wait4(pids_[i], &status, WNOHANG, &ru) != pids_[i]) {
      continue;  // Still running (or not our child — nothing to do).
    }
    cpu_seconds_ += CpuSecondsOf(ru);
    if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
      // Drained its queue and left legitimately: retire the slot.
      pids_[i] = -1;
      continue;
    }
    ++abnormal_exits_;
    if (on_death_) {
      on_death_(static_cast<int>(i));
    }
    pids_[i] = Spawn(static_cast<int>(i));
    if (pids_[i] > 0) {
      ++respawns_;
      ++respawned;
    }
  }
  return respawned;
}

}  // namespace iolipc
