// Tests for the IO-Lite runtime: descriptor dispatch, cross-domain mapping
// on aggregate transfer, access checks, and copy-free pipes (Sections 3.2,
// 3.4, 4.4).

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/iolite/api.h"
#include "src/iolite/pipe.h"
#include "src/iolite/runtime.h"
#include "src/iolite/stdio_lite.h"
#include "src/simos/sim_context.h"
#include "tests/test_util.h"

namespace {

using iolite::Aggregate;
using iolite::BufferPool;
using iolite::IoLiteRuntime;
using iolite::MakePipe;
using iolite::PipeChannel;
using iolsim::SimContext;

class RuntimeTest : public ::testing::Test {
 protected:
  RuntimeTest() : runtime_(&ctx_) {}
  SimContext ctx_;
  IoLiteRuntime runtime_;
};

TEST_F(RuntimeTest, PipeTransfersByReference) {
  iolsim::DomainId producer = ctx_.vm().CreateDomain();
  iolsim::DomainId consumer = ctx_.vm().CreateDomain();
  BufferPool* pool = runtime_.CreatePool("p", producer);
  iolite::PipeEnds pipe = MakePipe(&runtime_, consumer, producer);

  Aggregate msg = ioltest::AggFrom(pool, "the quick brown fox");
  uint64_t copies_before = ctx_.stats().bytes_copied;
  runtime_.IolWrite(pipe.write_fd, msg);
  Aggregate got = runtime_.IolRead(pipe.read_fd, 1024);
  EXPECT_EQ(got.ToString(), "the quick brown fox");
  // No data was copied crossing the pipe.
  EXPECT_EQ(ctx_.stats().bytes_copied, copies_before);
  // Same physical buffer on both sides.
  EXPECT_EQ(got.slices()[0].buffer().get(), msg.slices()[0].buffer().get());
}

TEST_F(RuntimeTest, ReadMapsChunksIntoConsumerDomain) {
  iolsim::DomainId producer = ctx_.vm().CreateDomain();
  iolsim::DomainId consumer = ctx_.vm().CreateDomain();
  BufferPool* pool = runtime_.CreatePool("p", producer);
  iolite::PipeEnds pipe = MakePipe(&runtime_, consumer, producer);

  Aggregate msg = ioltest::AggFrom(pool, "payload");
  iolsim::ChunkId chunk = msg.slices()[0].buffer()->chunks()[0];
  EXPECT_FALSE(ctx_.vm().CanRead(chunk, consumer));
  runtime_.IolWrite(pipe.write_fd, msg);
  runtime_.IolRead(pipe.read_fd, 1024);
  EXPECT_TRUE(ctx_.vm().CanRead(chunk, consumer));
  // Consumer never gets write access: read-only sharing.
  EXPECT_FALSE(ctx_.vm().CanWrite(chunk, consumer));
}

TEST_F(RuntimeTest, WarmPipeTransferCostsOnlySyscalls) {
  iolsim::DomainId producer = ctx_.vm().CreateDomain();
  iolsim::DomainId consumer = ctx_.vm().CreateDomain();
  BufferPool* pool = runtime_.CreatePool("p", producer);
  iolite::PipeEnds pipe = MakePipe(&runtime_, consumer, producer);

  // Cold transfer: establishes mappings.
  {
    Aggregate msg = ioltest::AggFrom(pool, std::string(1000, 'a'));
    runtime_.IolWrite(pipe.write_fd, msg);
    runtime_.IolRead(pipe.read_fd, 4096);
  }
  // The buffer is now recycled; warm transfer must do no mapping work.
  uint64_t maps_before = ctx_.stats().chunk_map_ops;
  {
    Aggregate msg = ioltest::AggFrom(pool, std::string(1000, 'b'));
    runtime_.IolWrite(pipe.write_fd, msg);
    Aggregate got = runtime_.IolRead(pipe.read_fd, 4096);
    EXPECT_EQ(got.ToString(), std::string(1000, 'b'));
  }
  EXPECT_EQ(ctx_.stats().chunk_map_ops, maps_before);
  EXPECT_EQ(ctx_.stats().buffers_recycled, 1u);
}

TEST_F(RuntimeTest, PipeSplitsAggregatesOnShortReads) {
  iolsim::DomainId d = ctx_.vm().CreateDomain();
  BufferPool* pool = runtime_.CreatePool("p", d);
  iolite::PipeEnds pipe = MakePipe(&runtime_, d, d);

  runtime_.IolWrite(pipe.write_fd, ioltest::AggFrom(pool, "abcdefghij"));
  Aggregate first = runtime_.IolRead(pipe.read_fd, 4);
  Aggregate second = runtime_.IolRead(pipe.read_fd, 100);
  EXPECT_EQ(first.ToString(), "abcd");
  EXPECT_EQ(second.ToString(), "efghij");
  EXPECT_EQ(runtime_.IolRead(pipe.read_fd, 10).size(), 0u);  // Drained.
}

TEST_F(RuntimeTest, PipeEndsAreOneWay) {
  iolsim::DomainId d = ctx_.vm().CreateDomain();
  BufferPool* pool = runtime_.CreatePool("p", d);
  iolite::PipeEnds pipe = MakePipe(&runtime_, d, d);
  EXPECT_EQ(runtime_.IolWrite(pipe.read_fd, ioltest::AggFrom(pool, "xy")), 0u);
  runtime_.IolWrite(pipe.write_fd, ioltest::AggFrom(pool, "xy"));
  EXPECT_EQ(runtime_.IolRead(pipe.write_fd, 10).size(), 0u);
  EXPECT_EQ(runtime_.IolRead(pipe.read_fd, 10).ToString(), "xy");
}

TEST_F(RuntimeTest, IolReadMayReturnLessThanRequested) {
  iolsim::DomainId d = ctx_.vm().CreateDomain();
  BufferPool* pool = runtime_.CreatePool("p", d);
  iolite::PipeEnds pipe = MakePipe(&runtime_, d, d);
  runtime_.IolWrite(pipe.write_fd, ioltest::AggFrom(pool, "xy"));
  Aggregate got = runtime_.IolRead(pipe.read_fd, 1 << 20);
  EXPECT_EQ(got.size(), 2u);
}

TEST_F(RuntimeTest, CheckAccessReflectsMappings) {
  iolsim::DomainId producer = ctx_.vm().CreateDomain();
  iolsim::DomainId stranger = ctx_.vm().CreateDomain();
  BufferPool* pool = runtime_.CreatePool("p", producer);
  Aggregate msg = ioltest::AggFrom(pool, "secret");
  EXPECT_TRUE(runtime_.CheckAccess(msg, producer));
  EXPECT_FALSE(runtime_.CheckAccess(msg, stranger));
  EXPECT_TRUE(runtime_.CheckAccess(msg, iolsim::kKernelDomain));
  runtime_.MapAggregate(msg, stranger);
  EXPECT_TRUE(runtime_.CheckAccess(msg, stranger));
}

TEST_F(RuntimeTest, SyscallsAreCharged) {
  iolsim::DomainId d = ctx_.vm().CreateDomain();
  BufferPool* pool = runtime_.CreatePool("p", d);
  iolite::PipeEnds pipe = MakePipe(&runtime_, d, d);
  uint64_t sys_before = ctx_.stats().syscalls;
  runtime_.IolWrite(pipe.write_fd, ioltest::AggFrom(pool, "x"));
  runtime_.IolRead(pipe.read_fd, 10);
  EXPECT_EQ(ctx_.stats().syscalls, sys_before + 2);
}

TEST_F(RuntimeTest, PaperStyleApiWrappers) {
  iolsim::DomainId d = ctx_.vm().CreateDomain();
  BufferPool* pool = runtime_.CreatePool("p", d);
  iolite::PipeEnds pipe = MakePipe(&runtime_, d, d);

  iolite::IOL_Agg out = ioltest::AggFrom(pool, "figure 2");
  EXPECT_EQ(iolite::IOL_write(&runtime_, pipe.write_fd, out), 8u);
  iolite::IOL_Agg in;
  EXPECT_EQ(iolite::IOL_read(&runtime_, pipe.read_fd, &in, 100), 8u);
  EXPECT_EQ(in.ToString(), "figure 2");
}

TEST_F(RuntimeTest, CloseRemovesDescriptor) {
  iolsim::DomainId d = ctx_.vm().CreateDomain();
  iolite::PipeEnds pipe = MakePipe(&runtime_, d, d);
  EXPECT_NE(runtime_.StreamOf(pipe.read_fd), nullptr);
  runtime_.Close(pipe.read_fd);
  EXPECT_EQ(runtime_.StreamOf(pipe.read_fd), nullptr);
}

TEST_F(RuntimeTest, StdioLiteRoundTrip) {
  iolsim::DomainId d = ctx_.vm().CreateDomain();
  BufferPool* pool = runtime_.CreatePool("stdio", d);
  PipeChannel channel(&ctx_);
  iolite::StdioLiteWriter writer(&ctx_, pool, &channel, 16);
  iolite::StdioLiteReader reader(&ctx_, &channel);

  std::string message = "stdio over io-lite pipes, crossing buffer sizes";
  writer.Write(message.data(), message.size());
  writer.Flush();

  std::string got(message.size(), '\0');
  EXPECT_EQ(reader.Read(got.data(), got.size()), message.size());
  EXPECT_EQ(got, message);
}

TEST_F(RuntimeTest, StdioLiteCopiesOnlyAtStdioBoundary) {
  iolsim::DomainId d = ctx_.vm().CreateDomain();
  BufferPool* pool = runtime_.CreatePool("stdio", d);
  PipeChannel channel(&ctx_);
  iolite::StdioLiteWriter writer(&ctx_, pool, &channel, 4096);
  iolite::StdioLiteReader reader(&ctx_, &channel);

  std::string data(4096, 'z');
  uint64_t copies_before = ctx_.stats().bytes_copied;
  writer.Write(data.data(), data.size());
  writer.Flush();
  std::string sink(4096, '\0');
  reader.Read(sink.data(), sink.size());
  // One app->stdio copy and one stdio->app copy; the pipe itself is free.
  EXPECT_EQ(ctx_.stats().bytes_copied - copies_before, 2 * 4096u);
}

}  // namespace
