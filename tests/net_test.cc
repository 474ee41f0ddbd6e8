// Tests for the network subsystem: Internet checksum correctness, the
// generation-keyed checksum cache (Section 3.9) and the TCP connection
// model (Sections 5.1, 5.7).

#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "src/iolite/buffer_pool.h"
#include "src/net/checksum.h"
#include "src/net/tcp.h"
#include "src/simos/rng.h"
#include "src/simos/sim_context.h"
#include "tests/test_util.h"

namespace {

using iolite::Aggregate;
using iolite::BufferPool;
using iolnet::ChecksumAccumulate;
using iolnet::ChecksumFold;
using iolnet::ChecksumModule;
using iolnet::NetworkSubsystem;
using iolnet::TcpConnection;
using iolsim::SimContext;

// Reference implementation: RFC 1071 straight off the definition.
uint16_t ReferenceChecksum(const std::string& data) {
  uint32_t sum = 0;
  for (size_t i = 0; i < data.size(); i += 2) {
    uint32_t word = static_cast<uint8_t>(data[i]) << 8;
    if (i + 1 < data.size()) {
      word |= static_cast<uint8_t>(data[i + 1]);
    }
    sum += word;
  }
  while (sum >> 16) {
    sum = (sum & 0xffff) + (sum >> 16);
  }
  return static_cast<uint16_t>(~sum & 0xffff);
}

TEST(ChecksumTest, MatchesReferenceOnKnownVectors) {
  // RFC 1071 worked example: 00 01 f2 03 f4 f5 f6 f7 -> sum ddf2 (pre-inversion).
  std::string rfc{"\x00\x01\xf2\x03\xf4\xf5\xf6\xf7", 8};
  EXPECT_EQ(ChecksumFold(ChecksumAccumulate(rfc.data(), rfc.size())),
            static_cast<uint16_t>(~0xddf2 & 0xffff));
  for (const std::string& s :
       {std::string(""), std::string("a"), std::string("ab"), std::string("hello world"),
        std::string(1000, 'x')}) {
    EXPECT_EQ(ChecksumFold(ChecksumAccumulate(s.data(), s.size())), ReferenceChecksum(s)) << s;
  }
}

TEST(ChecksumTest, RandomDataMatchesReference) {
  iolsim::Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    std::string s;
    size_t n = 1 + rng.NextBelow(300);
    for (size_t i = 0; i < n; ++i) {
      s.push_back(static_cast<char>(rng.NextBelow(256)));
    }
    EXPECT_EQ(ChecksumFold(ChecksumAccumulate(s.data(), s.size())), ReferenceChecksum(s));
  }
}

// The per-slice partial sums must compose into the exact message checksum,
// including odd-length slices (byte-swap on odd offsets).
class ChecksumComposeTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChecksumComposeTest, SlicedAggregateEqualsWholeMessage) {
  SimContext ctx;
  BufferPool pool(&ctx, "p", iolsim::kKernelDomain);
  ChecksumModule module(&ctx, /*cache_enabled=*/false);
  iolsim::Rng rng(GetParam());

  std::string message;
  size_t n = 50 + rng.NextBelow(500);
  for (size_t i = 0; i < n; ++i) {
    message.push_back(static_cast<char>(rng.NextBelow(256)));
  }

  // Split into random (frequently odd-sized) slices.
  Aggregate agg;
  size_t pos = 0;
  while (pos < message.size()) {
    size_t len = 1 + rng.NextBelow(37);
    if (pos + len > message.size()) {
      len = message.size() - pos;
    }
    agg.Append(ioltest::AggFrom(&pool, message.substr(pos, len)));
    pos += len;
  }

  EXPECT_EQ(module.Checksum(agg), ReferenceChecksum(message));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChecksumComposeTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

TEST(ChecksumCacheTest, HitOnSameGenerationMissAfterRealloc) {
  SimContext ctx;
  BufferPool pool(&ctx, "p", iolsim::kKernelDomain);
  ChecksumModule module(&ctx, /*cache_enabled=*/true);

  uint16_t first;
  uint16_t second;
  {
    Aggregate a = ioltest::AggFrom(&pool, std::string(5000, 'q'));
    first = module.Checksum(a);
    EXPECT_EQ(ctx.stats().checksum_cache_hits, 0u);
    second = module.Checksum(a);
    EXPECT_EQ(ctx.stats().checksum_cache_hits, 1u);
    EXPECT_EQ(first, second);
  }
  // Buffer recycled with different contents: generation changed, no hit.
  Aggregate b = ioltest::AggFrom(&pool, std::string(5000, 'r'));
  uint16_t third = module.Checksum(b);
  EXPECT_EQ(ctx.stats().checksum_cache_hits, 1u);
  EXPECT_NE(third, first);
}

TEST(ChecksumCacheTest, CachedSumIsCorrectAfterHit) {
  SimContext ctx;
  BufferPool pool(&ctx, "p", iolsim::kKernelDomain);
  ChecksumModule module(&ctx, true);
  std::string content(777, 'Z');
  Aggregate a = ioltest::AggFrom(&pool, content);
  module.Checksum(a);
  EXPECT_EQ(module.Checksum(a), ReferenceChecksum(content));
}

TEST(ChecksumCacheTest, HitChargesNoCpu) {
  SimContext ctx;
  BufferPool pool(&ctx, "p", iolsim::kKernelDomain);
  ChecksumModule module(&ctx, true);
  Aggregate a = ioltest::AggFrom(&pool, std::string(100000, 'c'));
  module.Checksum(a);
  iolsim::SimTime before = ctx.clock().now();
  module.Checksum(a);
  EXPECT_EQ(ctx.clock().now(), before);
}

TEST(ChecksumCacheTest, DistinctSlicesOfSameBufferCacheSeparately) {
  SimContext ctx;
  BufferPool pool(&ctx, "p", iolsim::kKernelDomain);
  ChecksumModule module(&ctx, true);
  iolite::BufferRef b = ioltest::BufferFrom(&pool, std::string(1000, 'd'));
  Aggregate first = Aggregate::FromSlice(iolite::Slice(b, 0, 500));
  Aggregate second = Aggregate::FromSlice(iolite::Slice(b, 500, 500));
  module.Checksum(first);
  module.Checksum(second);
  EXPECT_EQ(ctx.stats().checksum_cache_hits, 0u);
  module.Checksum(first);
  EXPECT_EQ(ctx.stats().checksum_cache_hits, 1u);
}

// --- TCP --------------------------------------------------------------------

class TcpTest : public ::testing::Test {
 protected:
  TcpTest() : net_(&ctx_, true), pool_(&ctx_, "p", iolsim::kKernelDomain) {}
  SimContext ctx_;
  NetworkSubsystem net_;
  BufferPool pool_;
};

TEST_F(TcpTest, CopySocketReservesSendBuffer) {
  TcpConnection conn(&net_, /*iolite_sockets=*/false);
  conn.Connect();
  EXPECT_EQ(net_.send_buffer_bytes(), ctx_.cost().params().socket_send_buffer_bytes);
  conn.Close();
  EXPECT_EQ(net_.send_buffer_bytes(), 0u);
}

TEST_F(TcpTest, IoliteSocketReservesOnlyMbufHeaders) {
  TcpConnection conn(&net_, /*iolite_sockets=*/true);
  conn.Connect();
  EXPECT_LT(net_.send_buffer_bytes(), 4096u);
  conn.Close();
}

TEST_F(TcpTest, ManyCopyConnectionsEatTheCacheBudget) {
  // Section 5.7: send-buffer memory scales with the client population for
  // copy-based servers.
  std::vector<std::unique_ptr<TcpConnection>> conns;
  uint64_t budget_before = ctx_.memory().CacheBudget();
  for (int i = 0; i < 100; ++i) {
    conns.push_back(std::make_unique<TcpConnection>(&net_, false));
    conns.back()->Connect();
  }
  EXPECT_EQ(budget_before - ctx_.memory().CacheBudget(),
            100 * ctx_.cost().params().socket_send_buffer_bytes);
  EXPECT_EQ(net_.open_connections(), 100);
}

TEST_F(TcpTest, ConnectChargesSetupCost) {
  TcpConnection conn(&net_, true);
  iolsim::SimTime before = ctx_.clock().now();
  conn.Connect();
  EXPECT_EQ(ctx_.clock().now() - before, ctx_.cost().TcpSetupCost());
  EXPECT_EQ(ctx_.stats().tcp_connections, 1u);
}

TEST_F(TcpTest, SendCopyTouchesEveryByteTwice) {
  TcpConnection conn(&net_, false);
  conn.Connect();
  Aggregate payload = ioltest::AggFrom(&pool_, std::string(10000, 'p'));
  uint64_t copied = ctx_.stats().bytes_copied;
  uint64_t summed = ctx_.stats().bytes_checksummed;
  conn.SendCopy(payload);
  EXPECT_EQ(ctx_.stats().bytes_copied - copied, 10000u);
  EXPECT_EQ(ctx_.stats().bytes_checksummed - summed, 10000u);
  EXPECT_EQ(conn.bytes_sent(), 10000u);
}

TEST_F(TcpTest, SendAggregateCopiesNothing) {
  TcpConnection conn(&net_, true);
  conn.Connect();
  Aggregate payload = ioltest::AggFrom(&pool_, std::string(10000, 'p'));
  uint64_t copied = ctx_.stats().bytes_copied;
  conn.SendAggregate(payload);
  EXPECT_EQ(ctx_.stats().bytes_copied, copied);
  // First transmission: checksummed once...
  EXPECT_EQ(ctx_.stats().bytes_checksummed, 10000u);
  conn.SendAggregate(payload);
  // ...second transmission served from the checksum cache.
  EXPECT_EQ(ctx_.stats().bytes_checksummed, 10000u);
  EXPECT_EQ(ctx_.stats().checksum_cache_hits, 1u);
}

TEST_F(TcpTest, RepeatCopySendsCannotUseChecksumCache) {
  TcpConnection conn(&net_, false);
  conn.Connect();
  Aggregate payload = ioltest::AggFrom(&pool_, std::string(5000, 'p'));
  conn.SendCopy(payload);
  conn.SendCopy(payload);
  // Both transmissions checksummed in full: the private copy has no
  // system-wide identity.
  EXPECT_EQ(ctx_.stats().bytes_checksummed, 10000u);
  EXPECT_EQ(ctx_.stats().checksum_cache_hits, 0u);
}

TEST_F(TcpTest, PacketsChargedPerMss) {
  TcpConnection conn(&net_, true);
  conn.Connect();
  uint64_t packets = ctx_.stats().packets_sent;
  Aggregate payload = ioltest::AggFrom(&pool_, std::string(4000, 'p'));
  conn.SendAggregate(payload);
  EXPECT_EQ(ctx_.stats().packets_sent - packets, 3u);  // ceil(4000/1460).
}

TEST_F(TcpTest, GatheredCopyChecksumMatchesContent) {
  TcpConnection conn(&net_, false);
  conn.Connect();
  Aggregate body = ioltest::AggFrom(&pool_, "body-bytes");
  size_t sent = conn.SendGatheredCopy("HDR:", 4, body);
  EXPECT_EQ(sent, 14u);
}

TEST(DelayRouterTest, RoundTripIsTwiceOneWay) {
  iolnet::DelayRouter router{25 * iolsim::kMillisecond};
  EXPECT_EQ(router.RoundTrip(), 50 * iolsim::kMillisecond);
}

}  // namespace
