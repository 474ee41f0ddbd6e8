// Cross-module integration tests, including the complex-sharing scenario of
// Section 3.7 and end-to-end server/workload runs.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/driver/experiment.h"
#include "src/driver/workload.h"
#include "src/httpd/http_server.h"
#include "src/iolite/pipe.h"
#include "src/system/system.h"
#include "src/workload/trace.h"
#include "tests/test_util.h"

namespace {

using iolfs::FileId;
using iolsys::System;

// Section 3.7's worked example: "an application reads a data record from
// file A, appends that record to the same file A, then writes the record to
// a second file B, and finally transmits the record via a network
// connection. After this sequence, the buffer containing the record appears
// in two different cache entries of file A, one of file B, in the network
// transmission buffers, and in the user address space."
TEST(SharingScenarioTest, OneBufferManyRoles) {
  System sys;
  FileId file_a = sys.fs().CreateFile("A", 4096);
  FileId file_b = sys.fs().CreateFile("B", 1);

  // Read the record from file A.
  iolite::Aggregate record = sys.io().ReadExtent(file_a, 0, 1024);
  const iolite::Buffer* buffer = record.slices()[0].buffer().get();
  std::string content = record.ToString();

  // Append the record to file A (offset 4096).
  sys.io().WriteExtent(file_a, 4096, record);
  // Write the record to file B.
  sys.io().WriteExtent(file_b, 0, record);
  // Transmit via a network connection.
  iolnet::TcpConnection conn(&sys.net(), /*iolite_sockets=*/true);
  conn.Connect();
  conn.SendAggregate(record);
  conn.Close();

  // One physical buffer, shared everywhere; zero copies anywhere.
  EXPECT_EQ(sys.ctx().stats().bytes_copied, 0u);
  EXPECT_EQ(sys.io().ReadExtent(file_a, 0, 1024).slices()[0].buffer().get(), buffer);
  EXPECT_EQ(sys.io().ReadExtent(file_a, 4096, 1024).slices()[0].buffer().get(), buffer);
  EXPECT_EQ(sys.io().ReadExtent(file_b, 0, 1024).slices()[0].buffer().get(), buffer);
  // And all views agree on the bytes.
  EXPECT_EQ(sys.io().ReadExtent(file_b, 0, 1024).ToString(), content);
  // Refcount reflects the sharing: record + 3 cache entries hold it.
  EXPECT_GE(buffer->refcount(), 4);
}

TEST(SharingScenarioTest, EvictingOneRoleLeavesOthersIntact) {
  System sys;
  FileId file_a = sys.fs().CreateFile("A", 2048);
  FileId file_b = sys.fs().CreateFile("B", 1);

  iolite::Aggregate record = sys.io().ReadExtent(file_a, 0, 2048);
  sys.io().WriteExtent(file_b, 0, record);
  std::string content = record.ToString();

  // Evict everything from the cache.
  sys.cache().EnforceBudget(0);
  EXPECT_EQ(sys.cache().entry_count(), 0u);

  // The application's aggregate still sees the data (buffers persist), and
  // re-reading B from "disk" returns the written content.
  EXPECT_EQ(record.ToString(), content);
  EXPECT_EQ(sys.io().ReadExtent(file_b, 0, 2048).ToString(), content);
}

TEST(EndToEndTest, CgiPipelineDeliversIdenticalBytesOnBothPaths) {
  // A CGI process composes a response from a primary file plus generated
  // data and sends it through a pipe to a consumer — the IO-Lite path must
  // deliver byte-identical content to the copy path.
  System sys;
  FileId primary = sys.fs().CreateFile("primary", 8192);
  std::string generated = "<!-- generated -->";

  // IO-Lite path.
  iolsim::DomainId cgi = sys.ctx().vm().CreateDomain();
  iolite::BufferPool* pool = sys.runtime().CreatePool("cgi", cgi);
  iolite::PipeChannel channel(&sys.ctx());
  iolite::Aggregate dynamic = ioltest::AggFrom(pool, generated);
  dynamic.Append(sys.io().ReadExtent(primary, 0, 8192));
  channel.Push(dynamic);
  iolite::Aggregate lite_result = channel.Pop(SIZE_MAX);

  // Copy path.
  iolposix::PosixPipe pipe(&sys.ctx());
  std::vector<char> buf(8192);
  sys.posix().Read(primary, 0, buf.data(), 8192);
  pipe.Write(generated.data(), generated.size());
  pipe.Write(buf.data(), buf.size());
  std::vector<char> out(generated.size() + 8192);
  pipe.Read(out.data(), out.size());

  EXPECT_EQ(lite_result.ToString(), std::string(out.data(), out.size()));
}

TEST(EndToEndTest, TraceReplayConservesRequestsAndBytes) {
  // One client keeps the replay strictly serial, so completion order equals
  // issue order and byte conservation can be checked exactly. (With
  // concurrent clients the staged pipeline may reorder completions — e.g. a
  // cache hit finishing before an earlier request's disk read — which is
  // covered by the concurrent variant below.)
  System sys;
  iolwl::TraceSpec spec = iolwl::SubtraceSpec();
  spec.num_files = 200;
  spec.total_bytes = 4ull << 20;
  spec.num_requests = 2000;
  iolwl::Trace trace = iolwl::Trace::Generate(spec);
  std::vector<FileId> ids = trace.Materialize(&sys.fs());

  iolhttp::FlashLiteServer lite(&sys.ctx(), &sys.net(), &sys.io(), &sys.runtime());
  ioldrv::ExperimentConfig config;
  config.max_requests = 1000;
  config.enforce_cache_budget = true;
  ioldrv::ClosedLoop workload(1);
  ioldrv::Experiment experiment(&sys.ctx(), &sys.net(), &sys.cache(), &lite, config);

  size_t cursor = 0;
  uint64_t expected_bytes = 0;
  std::vector<uint32_t> issued;
  ioldrv::ExperimentResult result = experiment.Run(&workload, [&] {
    uint32_t rank = trace.requests()[cursor % trace.requests().size()];
    issued.push_back(rank);
    ++cursor;
    return ids[rank];
  });

  EXPECT_EQ(result.requests, 1000u);
  // Bytes delivered = sum of (file + header) over the first 1000 issues.
  for (size_t i = 0; i < 1000; ++i) {
    expected_bytes += trace.file_sizes()[issued[i]] + iolhttp::kResponseHeaderBytes;
  }
  EXPECT_EQ(result.bytes, expected_bytes);
  EXPECT_GT(result.megabits_per_sec, 0.0);
}

TEST(EndToEndTest, ConcurrentTraceReplayConservesTotals) {
  // Concurrent variant: completions may reorder, but every counted byte
  // must come from an issued request, and the requested count must land
  // exactly.
  System sys;
  iolwl::TraceSpec spec = iolwl::SubtraceSpec();
  spec.num_files = 200;
  spec.total_bytes = 4ull << 20;
  spec.num_requests = 2000;
  iolwl::Trace trace = iolwl::Trace::Generate(spec);
  std::vector<FileId> ids = trace.Materialize(&sys.fs());

  iolhttp::FlashLiteServer lite(&sys.ctx(), &sys.net(), &sys.io(), &sys.runtime());
  ioldrv::ExperimentConfig config;
  config.max_requests = 1000;
  config.enforce_cache_budget = true;
  ioldrv::ClosedLoop workload(8);
  ioldrv::Experiment experiment(&sys.ctx(), &sys.net(), &sys.cache(), &lite, config);

  size_t cursor = 0;
  uint64_t issued_bytes = 0;
  ioldrv::ExperimentResult result = experiment.Run(&workload, [&] {
    uint32_t rank = trace.requests()[cursor % trace.requests().size()];
    issued_bytes += trace.file_sizes()[rank] + iolhttp::kResponseHeaderBytes;
    ++cursor;
    return ids[rank];
  });

  EXPECT_EQ(result.requests, 1000u);
  EXPECT_GT(result.bytes, 0u);
  EXPECT_LE(result.bytes, issued_bytes);
  EXPECT_GT(result.megabits_per_sec, 0.0);
}

TEST(EndToEndTest, ServersAgreeOnDeliveredByteCount) {
  iolwl::TraceSpec spec = iolwl::SubtraceSpec();
  spec.num_files = 64;
  spec.total_bytes = 2ull << 20;
  spec.num_requests = 500;
  iolwl::Trace trace = iolwl::Trace::Generate(spec);

  auto run = [&](int which) {
    System sys;
    std::vector<FileId> ids = trace.Materialize(&sys.fs());
    std::unique_ptr<iolhttp::HttpServer> server;
    switch (which) {
      case 0:
        server = std::make_unique<iolhttp::FlashServer>(&sys.ctx(), &sys.net(), &sys.io());
        break;
      case 1:
        server = std::make_unique<iolhttp::ApacheServer>(&sys.ctx(), &sys.net(), &sys.io());
        break;
      default:
        server = std::make_unique<iolhttp::FlashLiteServer>(&sys.ctx(), &sys.net(), &sys.io(),
                                                            &sys.runtime());
    }
    ioldrv::ExperimentConfig config;
    config.max_requests = 500;
    ioldrv::ClosedLoop workload(4);
    ioldrv::Experiment experiment(&sys.ctx(), &sys.net(), &sys.cache(), server.get(),
                                  config);
    size_t cursor = 0;
    return experiment
        .Run(&workload,
             [&] { return ids[trace.requests()[cursor++ % trace.requests().size()]]; })
        .bytes;
  };

  uint64_t flash = run(0);
  uint64_t apache = run(1);
  uint64_t lite = run(2);
  EXPECT_EQ(flash, apache);
  EXPECT_EQ(flash, lite);  // Same workload, same bytes — only costs differ.
}

}  // namespace
