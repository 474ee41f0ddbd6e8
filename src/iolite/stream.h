// Abstract I/O stream: the object behind an IO-Lite file descriptor.
//
// The file system (src/fs), the network subsystem (src/net) and the IPC
// system (pipe.h) each implement this interface; the runtime dispatches
// IOL_read / IOL_write to it and performs cross-domain mapping of the
// aggregates that cross the syscall boundary.

#ifndef SRC_IOLITE_STREAM_H_
#define SRC_IOLITE_STREAM_H_

#include <cstddef>

#include "src/iolite/aggregate.h"
#include "src/simos/vm.h"

namespace iolite {

// Descriptor handle in the simulated system-call layer.
using Fd = int;

class Stream {
 public:
  virtual ~Stream() = default;

  // Reads at most `max_bytes`; may always return less than requested
  // (Section 3.4). An empty aggregate signals end-of-stream.
  virtual Aggregate Read(iolsim::DomainId reader, size_t max_bytes) = 0;

  // Replaces/extends the external data object with the aggregate's
  // contents; returns bytes accepted.
  virtual size_t Write(iolsim::DomainId writer, const Aggregate& agg) = 0;
};

}  // namespace iolite

#endif  // SRC_IOLITE_STREAM_H_
