// Virtual time base for the simulated operating system.
//
// All IO-Lite subsystems charge their costs against a VirtualClock instead of
// wall time. Time is kept in integer nanoseconds so that simulations are
// exactly reproducible across runs and platforms.

#ifndef SRC_SIMOS_CLOCK_H_
#define SRC_SIMOS_CLOCK_H_

#include <cstdint>

namespace iolsim {

// Duration and time-point type, in nanoseconds of simulated time.
using SimTime = int64_t;

// Tenant identity for the multi-tenant QoS plane (src/qos). Tenant 0 is the
// implicit default tenant; single-tenant workloads never see another value.
using TenantId = uint32_t;
constexpr TenantId kDefaultTenant = 0;

constexpr SimTime kNanosecond = 1;
constexpr SimTime kMicrosecond = 1000 * kNanosecond;
constexpr SimTime kMillisecond = 1000 * kMicrosecond;
constexpr SimTime kSecond = 1000 * kMillisecond;

// Converts a simulated duration to floating-point seconds (for reporting).
constexpr double ToSeconds(SimTime t) { return static_cast<double>(t) / kSecond; }

// Converts floating-point seconds to a simulated duration.
constexpr SimTime FromSeconds(double s) { return static_cast<SimTime>(s * kSecond); }

// A monotonically advancing virtual clock.
//
// The clock is advanced either directly (Advance) by code that executes
// sequentially on the simulated CPU, or by the discrete-event engine
// (EventQueue) when it dispatches the next pending event.
class VirtualClock {
 public:
  VirtualClock() = default;

  // Current simulated time.
  SimTime now() const { return now_; }

  // Moves time forward by `delta` (must be non-negative).
  void Advance(SimTime delta) {
    if (delta > 0) {
      now_ += delta;
    }
  }

  // Jumps directly to `t`; no-op if `t` is in the past (events may be
  // dispatched at the current time).
  void AdvanceTo(SimTime t) {
    if (t > now_) {
      now_ = t;
    }
  }

 private:
  SimTime now_ = 0;
};

}  // namespace iolsim

#endif  // SRC_SIMOS_CLOCK_H_
