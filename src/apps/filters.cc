#include "src/apps/filters.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "src/iolite/pipe.h"

namespace iolapp {

namespace {
constexpr size_t kChunk = 64 * 1024;
}  // namespace

void WcScan(const char* data, size_t n, bool* in_word, WcCounts* counts) {
  for (size_t i = 0; i < n; ++i) {
    char c = data[i];
    counts->bytes++;
    if (c == '\n') {
      counts->lines++;
    }
    bool space = c == ' ' || c == '\t' || c == '\n' || c == '\r';
    if (space) {
      *in_word = false;
    } else if (!*in_word) {
      *in_word = true;
      counts->words++;
    }
  }
}

uint64_t CountMatches(const char* data, size_t n, const std::string& pattern) {
  if (pattern.empty() || n < pattern.size()) {
    return 0;
  }
  uint64_t count = 0;
  const char* p = data;
  const char* end = data + n - pattern.size() + 1;
  while (p < end) {
    const char* hit = static_cast<const char*>(
        memchr(p, pattern[0], static_cast<size_t>(end - p)));
    if (hit == nullptr) {
      break;
    }
    if (std::memcmp(hit, pattern.data(), pattern.size()) == 0) {
      ++count;
    }
    p = hit + 1;
  }
  return count;
}

WcCounts WcPosix(iolsys::System* sys, iolfs::FileId file) {
  iolsim::SimContext& ctx = sys->ctx();
  uint64_t size = sys->fs().SizeOf(file);
  std::vector<char> buf(kChunk);
  WcCounts counts;
  bool in_word = false;
  for (uint64_t off = 0; off < size; off += kChunk) {
    size_t got = sys->posix().Read(file, off, buf.data(), kChunk);
    WcScan(buf.data(), got, &in_word, &counts);
    ctx.ChargeCpu(ctx.cost().ComputeCost(got, ctx.cost().params().wc_scan_bytes_per_sec));
  }
  return counts;
}

WcCounts WcIolite(iolsys::System* sys, iolfs::FileId file) {
  iolsim::SimContext& ctx = sys->ctx();
  // A fresh process: its address space has no IO-Lite mappings yet, so the
  // cached file's chunks are mapped in as the aggregate arrives — the
  // remaining overhead the paper observes for wc.
  iolsim::DomainId domain = ctx.vm().CreateDomain();
  uint64_t size = sys->fs().SizeOf(file);
  WcCounts counts;
  bool in_word = false;
  for (uint64_t off = 0; off < size; off += kChunk) {
    size_t len = std::min<uint64_t>(kChunk, size - off);
    ctx.ChargeCpu(ctx.cost().SyscallCost());  // IOL_read.
    ctx.stats().syscalls++;
    iolite::Aggregate agg = sys->io().ReadExtent(file, off, len);
    sys->runtime().MapAggregate(agg, domain);
    // Iterate the slices in place: no copy.
    for (iolite::Aggregate::Reader r = agg.NewReader(); !r.AtEnd();) {
      WcScan(r.data(), r.run_length(), &in_word, &counts);
      r.Skip(r.run_length());
    }
    ctx.ChargeCpu(ctx.cost().ComputeCost(len, ctx.cost().params().wc_scan_bytes_per_sec));
  }
  ctx.vm().DestroyDomain(domain);
  return counts;
}

uint64_t GrepCatPosix(iolsys::System* sys, iolfs::FileId file, const std::string& pattern) {
  iolsim::SimContext& ctx = sys->ctx();
  uint64_t size = sys->fs().SizeOf(file);
  iolposix::PosixPipe pipe(&ctx);
  std::vector<char> cat_buf(kChunk);
  std::vector<char> grep_buf(kChunk);
  uint64_t matches = 0;
  // Both grep variants scan chunk-wise (matches are counted within each
  // 64 KB file chunk; the IO-Lite variant additionally stitches matches
  // across its intra-chunk slice boundaries so the two agree exactly).
  for (uint64_t off = 0; off < size; off += kChunk) {
    // cat: read(2) copies out of the cache, write(2) copies into the pipe.
    size_t got = sys->posix().Read(file, off, cat_buf.data(), kChunk);
    pipe.Write(cat_buf.data(), got);
    // grep: read(2) copies out of the pipe, then scans.
    size_t read = pipe.Read(grep_buf.data(), got);
    matches += CountMatches(grep_buf.data(), read, pattern);
    ctx.ChargeCpu(ctx.cost().ComputeCost(read, ctx.cost().params().grep_scan_bytes_per_sec));
  }
  return matches;
}

uint64_t GrepCatIolite(iolsys::System* sys, iolfs::FileId file, const std::string& pattern) {
  iolsim::SimContext& ctx = sys->ctx();
  uint64_t size = sys->fs().SizeOf(file);
  iolite::PipeChannel channel(&ctx);
  iolsim::DomainId cat_domain = ctx.vm().CreateDomain();
  iolsim::DomainId grep_domain = ctx.vm().CreateDomain();
  uint64_t matches = 0;
  std::vector<char> boundary(2 * pattern.size());

  for (uint64_t off = 0; off < size; off += kChunk) {
    size_t len = std::min<uint64_t>(kChunk, size - off);
    // cat: IOL_read from the file, IOL_write to the pipe — by reference.
    ctx.ChargeCpu(ctx.cost().SyscallCost());
    ctx.stats().syscalls++;
    iolite::Aggregate agg = sys->io().ReadExtent(file, off, len);
    sys->runtime().MapAggregate(agg, cat_domain);
    ctx.ChargeCpu(ctx.cost().SyscallCost());
    ctx.stats().syscalls++;
    channel.Push(agg);

    // grep: IOL_read from the pipe, scan slices in place.
    ctx.ChargeCpu(ctx.cost().SyscallCost());
    ctx.stats().syscalls++;
    iolite::Aggregate got = channel.Pop(SIZE_MAX);
    sys->runtime().MapAggregate(got, grep_domain);

    const char* prev_tail = nullptr;
    size_t prev_tail_len = 0;
    for (iolite::Aggregate::Reader r = got.NewReader(); !r.AtEnd();) {
      const char* run = r.data();
      size_t run_len = r.run_length();
      matches += CountMatches(run, run_len, pattern);
      // Data spanning buffer boundaries is copied into contiguous memory,
      // as the converted grep does for split lines (Section 5.8).
      if (prev_tail != nullptr && pattern.size() > 1) {
        size_t a = std::min(prev_tail_len, pattern.size() - 1);
        size_t b = std::min(run_len, pattern.size() - 1);
        std::memcpy(boundary.data(), prev_tail + prev_tail_len - a, a);
        std::memcpy(boundary.data() + a, run, b);
        ctx.ChargeCpu(ctx.cost().CopyCost(a + b));
        ctx.stats().bytes_copied += a + b;
        matches += CountMatches(boundary.data(), a + b, pattern);
        matches -= CountMatches(boundary.data(), a, pattern);
        matches -= CountMatches(boundary.data() + a, b, pattern);
      }
      prev_tail = run;
      prev_tail_len = run_len;
      r.Skip(run_len);
    }
    ctx.ChargeCpu(ctx.cost().ComputeCost(len, ctx.cost().params().grep_scan_bytes_per_sec));
  }
  ctx.vm().DestroyDomain(cat_domain);
  ctx.vm().DestroyDomain(grep_domain);
  return matches;
}

namespace {

// Shared permutation generator: calls `emit(line, 40)` for each of the
// word-order permutations of `sentence`.
template <typename Emit>
void GeneratePermutations(const std::string& sentence, size_t word_len, Emit&& emit) {
  size_t words = sentence.size() / word_len;
  std::vector<int> order(words);
  for (size_t i = 0; i < words; ++i) {
    order[i] = static_cast<int>(i);
  }
  std::string line(sentence.size(), '\0');
  do {
    for (size_t w = 0; w < words; ++w) {
      std::memcpy(line.data() + w * word_len, sentence.data() + order[w] * word_len, word_len);
    }
    emit(line.data(), line.size());
  } while (std::next_permutation(order.begin(), order.end()));
}

}  // namespace

WcCounts PermuteWcPosix(iolsys::System* sys, const std::string& sentence, size_t word_len) {
  iolsim::SimContext& ctx = sys->ctx();
  iolposix::PosixPipe pipe(&ctx);
  std::vector<char> stage(kChunk);
  std::vector<char> consumer(kChunk);
  size_t filled = 0;
  WcCounts counts;
  bool in_word = false;

  auto drain = [&]() {
    if (filled == 0) {
      return;
    }
    pipe.Write(stage.data(), filled);  // Producer copy into the kernel.
    size_t got = pipe.Read(consumer.data(), filled);  // Consumer copy out.
    WcScan(consumer.data(), got, &in_word, &counts);
    ctx.ChargeCpu(ctx.cost().ComputeCost(got, ctx.cost().params().wc_scan_bytes_per_sec));
    filled = 0;
  };

  GeneratePermutations(sentence, word_len, [&](const char* line, size_t n) {
    if (filled + n > stage.size()) {
      drain();
    }
    std::memcpy(stage.data() + filled, line, n);
    filled += n;
    ctx.ChargeCpu(ctx.cost().ComputeCost(n, ctx.cost().params().permute_bytes_per_sec));
  });
  drain();
  return counts;
}

WcCounts PermuteWcIolite(iolsys::System* sys, const std::string& sentence, size_t word_len) {
  iolsim::SimContext& ctx = sys->ctx();
  iolite::PipeChannel channel(&ctx);
  iolsim::DomainId produce_domain = ctx.vm().CreateDomain();
  iolsim::DomainId consume_domain = ctx.vm().CreateDomain();
  iolite::BufferPool* pool = sys->runtime().CreatePool("permute", produce_domain);
  WcCounts counts;
  bool in_word = false;

  iolite::BufferRef current;
  size_t filled = 0;

  auto drain = [&]() {
    if (!current || filled == 0) {
      return;
    }
    current->Seal(filled);
    ctx.ChargeCpu(ctx.cost().SyscallCost());  // IOL_write.
    ctx.stats().syscalls++;
    channel.Push(iolite::Aggregate::FromBuffer(std::move(current)));
    current = iolite::BufferRef();
    filled = 0;

    // Consumer turn: IOL_read, map (first use of each recycled buffer
    // only), scan in place. Dropping the aggregate recycles the buffer.
    ctx.ChargeCpu(ctx.cost().SyscallCost());
    ctx.stats().syscalls++;
    iolite::Aggregate got = channel.Pop(SIZE_MAX);
    sys->runtime().MapAggregate(got, consume_domain);
    for (iolite::Aggregate::Reader r = got.NewReader(); !r.AtEnd();) {
      WcScan(r.data(), r.run_length(), &in_word, &counts);
      ctx.ChargeCpu(
          ctx.cost().ComputeCost(r.run_length(), ctx.cost().params().wc_scan_bytes_per_sec));
      r.Skip(r.run_length());
    }
  };

  GeneratePermutations(sentence, word_len, [&](const char* line, size_t n) {
    if (current && filled + n > current->capacity()) {
      drain();
    }
    if (!current) {
      current = pool->Allocate(kChunk);
      filled = 0;
    }
    // The producer composes its output directly in the IO-Lite buffer: the
    // generation cost is the computation itself, no separate copy.
    std::memcpy(current->writable_data() + filled, line, n);
    filled += n;
    ctx.ChargeCpu(ctx.cost().ComputeCost(n, ctx.cost().params().permute_bytes_per_sec));
  });
  drain();
  ctx.vm().DestroyDomain(produce_domain);
  ctx.vm().DestroyDomain(consume_domain);
  return counts;
}

}  // namespace iolapp
