#include "src/ipc/process_plane.h"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>

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

// Smallest power of two >= n (free-list capacity for n slots).
uint32_t PowTwoAtLeast(uint32_t n) {
  uint32_t p = 2;
  while (p < n) {
    p <<= 1;
  }
  return p;
}

}  // namespace

double CpuSecondsOf(const struct rusage& ru) {
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

PlaneShared CreatePlane(ShmRegion* region, const PlaneConfig& config) {
  PlaneShared s;
  s.region = region;
  s.table = ShmTable::Create(region, config.table_capacity);
  if (!s.table.valid()) {
    return PlaneShared{};
  }
  s.client_q = MpmcQueue::Create(region, &s.table, kPlaneClientQueue,
                                 config.queue_capacity);
  s.origin_q = MpmcQueue::Create(region, &s.table, kPlaneOriginQueue,
                                 config.queue_capacity);
  s.cgi_q = MpmcQueue::Create(region, &s.table, kPlaneCgiQueue,
                              config.queue_capacity);
  s.header_free = MpmcQueue::Create(region, &s.table, kPlaneHeaderFree,
                                    PowTwoAtLeast(config.header_slots));
  s.cgi_free = MpmcQueue::Create(region, &s.table, kPlaneCgiFree,
                                 PowTwoAtLeast(config.cgi_slots));
  s.copy_free = MpmcQueue::Create(region, &s.table, kPlaneCopyFree,
                                  PowTwoAtLeast(config.copy_slots));
  s.cache_map = ShmMap::Create(region, &s.table, kPlaneCacheMap, config.map_capacity);
  s.futures = ShmFuturePool::Create(region, &s.table, kPlaneFutures,
                                    config.future_capacity);
  s.counters = ShmCounters::Create(region, &s.table, kPlaneCounters);
  s.pin_ledger = PinLedger::Create(region, &s.table, kPlanePinLedger);
  if (!s.valid()) {
    return PlaneShared{};
  }
  if (!SeedSlab(region, &s.table, "plane.slab.hdr", &s.header_free,
                config.header_slots, config.header_slot_bytes) ||
      !SeedSlab(region, &s.table, "plane.slab.cgi", &s.cgi_free,
                config.cgi_slots, config.cgi_slot_bytes) ||
      !SeedSlab(region, &s.table, "plane.slab.copy", &s.copy_free,
                config.copy_slots, config.copy_slot_bytes)) {
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
  s.client_q = MpmcQueue::Attach(region, s.table, kPlaneClientQueue);
  s.origin_q = MpmcQueue::Attach(region, s.table, kPlaneOriginQueue);
  s.cgi_q = MpmcQueue::Attach(region, s.table, kPlaneCgiQueue);
  s.header_free = MpmcQueue::Attach(region, s.table, kPlaneHeaderFree);
  s.cgi_free = MpmcQueue::Attach(region, s.table, kPlaneCgiFree);
  s.copy_free = MpmcQueue::Attach(region, s.table, kPlaneCopyFree);
  s.cache_map = ShmMap::Attach(region, s.table, kPlaneCacheMap);
  s.futures = ShmFuturePool::Attach(region, s.table, kPlaneFutures);
  s.counters = ShmCounters::Attach(region, s.table, kPlaneCounters);
  s.pin_ledger = PinLedger::Attach(region, s.table, kPlanePinLedger);
  return s.valid() ? s : PlaneShared{};
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

PinLedger PinLedger::Attach(ShmRegion* region, const ShmTable& table,
                            const char* name) {
  PinLedger l;
  const ShmTable::Entry* e = table.Find(name);
  if (e == nullptr || e->type != static_cast<uint32_t>(ShmType::kRaw) ||
      e->size < kPinLedgerSlots * sizeof(uint64_t)) {
    return l;
  }
  l.slots_ = reinterpret_cast<std::atomic<uint64_t>*>(region->At(e->offset));
  return l;
}

void ReturnSlot(MpmcQueue* free_list, const SliceDesc& d) {
  SliceDesc slot{};
  slot.offset = d.offset;
  slot.length = d.reserved;
  slot.reserved = d.reserved;
  bool pushed = free_list->TryPush(slot);
  assert(pushed && "free-list sized below its slab's slot count");
  (void)pushed;
}

WorkerGroup::~WorkerGroup() {
  assert(pids_.empty() && threads_.empty() && "WorkerGroup destroyed before JoinAll");
}

pid_t WorkerGroup::Spawn(int slot) {
  std::fflush(stdout);  // Don't duplicate buffered output into children.
  std::fflush(stderr);
  pid_t pid = fork();
  if (pid == 0) {
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

bool WorkerGroup::Kill(int i) {
  if (i < 0 || static_cast<size_t>(i) >= pids_.size() || pids_[i] <= 0) {
    return false;
  }
  return kill(pids_[i], SIGKILL) == 0;
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
