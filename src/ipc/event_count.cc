#include "src/ipc/event_count.h"

#include <linux/futex.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <climits>

namespace iolipc {

uint64_t MonotonicNs() {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

void FutexWait(std::atomic<uint32_t>* word, uint32_t expected, uint64_t timeout_us) {
  struct timespec ts;
  ts.tv_sec = static_cast<time_t>(timeout_us / 1'000'000);
  ts.tv_nsec = static_cast<long>(timeout_us % 1'000'000) * 1000;
  // EAGAIN (the word moved), EINTR and ETIMEDOUT all mean "re-check".
  syscall(SYS_futex, reinterpret_cast<uint32_t*>(word), FUTEX_WAIT, expected, &ts,
          nullptr, 0);
}

void FutexWakeAll(std::atomic<uint32_t>* word) {
  syscall(SYS_futex, reinterpret_cast<uint32_t*>(word), FUTEX_WAKE, INT_MAX, nullptr,
          nullptr, 0);
}

}  // namespace iolipc
