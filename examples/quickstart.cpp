// Quickstart: the IO-Lite API in five minutes.
//
// Builds a simulated machine, creates a file, and walks through the core
// abstractions: IOL_read returning a buffer aggregate, aggregate mutation by
// pointer manipulation, copy-free IPC over a pipe, and the operation
// counters that show where data was (and was not) touched. Exits 1 if the
// pipe delivers different content or anything but the header was copied.
//
// Run:  ./build/example_quickstart

#include <cstdio>
#include <string>

#include "src/iolite/api.h"
#include "src/iolite/pipe.h"
#include "src/system/system.h"

int main() {
  // One self-contained simulated machine: VM, IO-Lite runtime, file system,
  // unified cache, network stack. Costs accrue to a virtual clock.
  iolsys::System sys;

  // A 64 KB file with deterministic synthetic content.
  iolfs::FileId file = sys.fs().CreateFile("greeting.html", 64 * 1024);

  // Open it through the descriptor layer and IOL_read it. The returned
  // aggregate references the cache's immutable buffers: no copy happened.
  iolsim::DomainId app = sys.ctx().vm().CreateDomain();
  auto stream = std::make_shared<iolfs::FileStream>(&sys.io(), file);
  iolite::Fd fd = sys.runtime().Open(stream, app);

  iolite::IOL_Agg doc;
  size_t n = iolite::IOL_read(&sys.runtime(), fd, &doc, 64 * 1024);
  std::printf("IOL_read returned %zu bytes in %zu slice(s)\n", n, doc.slice_count());
  std::printf("bytes copied so far: %llu (zero-copy read path)\n",
              static_cast<unsigned long long>(sys.ctx().stats().bytes_copied));

  // Aggregates mutate by pointer manipulation: prepend a header, truncate,
  // split — the underlying buffers never change. The header pool belongs to
  // the app domain: the writer of an aggregate must be able to read every
  // byte it sends (conventional access control, Section 3.1).
  iolite::BufferPool* pool = sys.runtime().CreatePool("hdr-pool", app);
  std::string header = "HTTP/1.0 200 OK\r\n\r\n";
  iolite::BufferRef hdr = pool->AllocateFrom(header.data(), header.size());
  doc.Prepend(iolite::Aggregate::FromBuffer(std::move(hdr)));
  std::printf("after Prepend: %zu bytes, %zu slices\n", doc.size(), doc.slice_count());

  iolite::IOL_Agg tail = doc.SplitOff(1024);
  std::printf("SplitOff(1024): head=%zu bytes, tail=%zu bytes\n", doc.size(), tail.size());
  doc.Append(tail);  // And back together — still no data touched.

  // Copy-free IPC: send the aggregate to another process through a pipe.
  iolsim::DomainId peer = sys.ctx().vm().CreateDomain();
  iolite::PipeEnds pipe = iolite::MakePipe(&sys.runtime(), peer, app);
  iolite::IOL_write(&sys.runtime(), pipe.write_fd, doc);
  iolite::IOL_Agg received;
  iolite::IOL_read(&sys.runtime(), pipe.read_fd, &received, doc.size());
  bool equal = received.ContentEquals(doc);
  std::printf("pipe delivered %zu bytes; content equal: %s\n", received.size(),
              equal ? "yes" : "no");

  // The whole exchange shared one physical copy of the file data.
  uint64_t copied = sys.ctx().stats().bytes_copied;
  std::printf("total bytes copied: %llu (only the %zu-byte header)\n",
              static_cast<unsigned long long>(copied), header.size());
  std::printf("simulated time elapsed: %.1f us\n",
              iolsim::ToSeconds(sys.ctx().clock().now()) * 1e6);
  return equal && copied == header.size() ? 0 : 1;
}
