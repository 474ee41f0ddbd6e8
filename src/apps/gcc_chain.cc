#include "src/apps/gcc_chain.h"

#include <cstring>
#include <vector>

#include "src/iolite/stdio_lite.h"
#include "src/posix/posix_io.h"

namespace iolapp {

namespace {

constexpr size_t kStdioBuf = 8192;

// One compute stage: consumes `in_bytes` at `rate`, produces
// `in_bytes * expand` bytes of output content into `out`.
uint64_t StageOutputBytes(uint64_t in_bytes, double expand) {
  auto out = static_cast<uint64_t>(static_cast<double>(in_bytes) * expand);
  return out == 0 ? 1 : out;
}

}  // namespace

uint64_t GccChainPosix(iolsys::System* sys, const GccChainConfig& config) {
  iolsim::SimContext& ctx = sys->ctx();
  uint64_t piped = 0;
  uint64_t per_file = config.total_source_bytes / config.num_files;
  std::vector<char> stdio_buf(kStdioBuf);

  for (int f = 0; f < config.num_files; ++f) {
    // Conventional chain: each hop pays the app->stdio copy, the stdio->
    // kernel pipe copy, the kernel->stdio copy, and the stdio->app copy.
    struct Hop {
      double rate;
      double expand;
    };
    const Hop hops[] = {{config.cpp_bytes_per_sec, config.cpp_expand},
                        {config.cc1_bytes_per_sec, config.cc1_expand},
                        {config.as_bytes_per_sec, config.as_expand}};
    uint64_t bytes = per_file;
    for (const Hop& hop : hops) {
      ctx.ChargeCpu(ctx.cost().ComputeCost(bytes, hop.rate));  // The stage's work.
      uint64_t out = StageOutputBytes(bytes, hop.expand);
      // Producer side: app -> stdio buffer copies, then pipe writes.
      iolposix::PosixPipe pipe(&ctx);
      uint64_t remaining = out;
      while (remaining > 0) {
        size_t n = remaining < kStdioBuf ? remaining : kStdioBuf;
        // App composes into the stdio buffer (copy), stdio flushes into the
        // kernel pipe (copy), consumer stdio reads out (copy), consumer app
        // takes delivery from stdio (copy).
        ctx.ChargeCpu(ctx.cost().CopyCost(n));  // app -> stdio.
        ctx.stats().bytes_copied += n;
        pipe.Write(stdio_buf.data(), n);        // stdio -> kernel (charged inside).
        pipe.Read(stdio_buf.data(), n);         // kernel -> stdio (charged inside).
        ctx.ChargeCpu(ctx.cost().CopyCost(n));  // stdio -> app.
        ctx.stats().bytes_copied += n;
        piped += n;
        remaining -= n;
      }
      bytes = out;
    }
  }
  return piped;
}

uint64_t GccChainIolite(iolsys::System* sys, const GccChainConfig& config) {
  iolsim::SimContext& ctx = sys->ctx();
  uint64_t piped = 0;
  uint64_t per_file = config.total_source_bytes / config.num_files;
  std::vector<char> app_buf(kStdioBuf);

  iolsim::DomainId chain_domain = ctx.vm().CreateDomain();
  iolite::BufferPool* pool = sys->runtime().CreatePool("gcc-stdio", chain_domain);

  for (int f = 0; f < config.num_files; ++f) {
    struct Hop {
      double rate;
      double expand;
    };
    const Hop hops[] = {{config.cpp_bytes_per_sec, config.cpp_expand},
                        {config.cc1_bytes_per_sec, config.cc1_expand},
                        {config.as_bytes_per_sec, config.as_expand}};
    uint64_t bytes = per_file;
    for (const Hop& hop : hops) {
      ctx.ChargeCpu(ctx.cost().ComputeCost(bytes, hop.rate));
      uint64_t out = StageOutputBytes(bytes, hop.expand);
      // IO-Lite stdio: the app->stdio and stdio->app copies remain, but the
      // pipe transfer itself moves references.
      iolite::PipeChannel channel(&ctx);
      iolite::StdioLiteWriter writer(&ctx, pool, &channel, kStdioBuf);
      iolite::StdioLiteReader reader(&ctx, &channel);
      uint64_t remaining = out;
      while (remaining > 0) {
        size_t n = remaining < kStdioBuf ? remaining : kStdioBuf;
        writer.Write(app_buf.data(), n);  // app -> stdio (copy charged inside).
        writer.Flush();                   // stdio -> pipe, by reference.
        reader.Read(app_buf.data(), n);   // stdio -> app (copy charged inside).
        piped += n;
        remaining -= n;
      }
      bytes = out;
    }
  }
  ctx.vm().DestroyDomain(chain_domain);
  return piped;
}

}  // namespace iolapp
