// Example: converted UNIX filters (Section 5.8).
//
// Runs wc and cat|grep in both their unmodified (POSIX) and IO-Lite
// variants over the same file, verifies they produce identical answers,
// and reports the simulated runtimes side by side. Exits 1 if the answers
// differ.
//
// Run:  ./build/example_unix_filters

#include <cstdio>

#include "src/apps/filters.h"
#include "src/system/system.h"
#include "tests/test_util.h"

int main() {
  iolsys::System sys;
  iolfs::FileId file = sys.fs().CreateFile("corpus.txt", 1750 * 1024);
  sys.io().ReadExtent(file, 0, 1750 * 1024);  // Warm the file cache.

  std::printf("# wc over a cached 1.75 MB file\n");
  iolsim::SimTime t0 = sys.ctx().clock().now();
  iolapp::WcCounts posix_counts = iolapp::WcPosix(&sys, file);
  double posix_ms = iolsim::ToSeconds(sys.ctx().clock().now() - t0) * 1e3;
  t0 = sys.ctx().clock().now();
  iolapp::WcCounts lite_counts = iolapp::WcIolite(&sys, file);
  double lite_ms = iolsim::ToSeconds(sys.ctx().clock().now() - t0) * 1e3;
  std::printf("posix : %llu lines %llu words %llu bytes in %.2f ms\n",
              static_cast<unsigned long long>(posix_counts.lines),
              static_cast<unsigned long long>(posix_counts.words),
              static_cast<unsigned long long>(posix_counts.bytes), posix_ms);
  std::printf("iolite: %llu lines %llu words %llu bytes in %.2f ms (%.0f%% faster)\n",
              static_cast<unsigned long long>(lite_counts.lines),
              static_cast<unsigned long long>(lite_counts.words),
              static_cast<unsigned long long>(lite_counts.bytes), lite_ms,
              100.0 * (1 - lite_ms / posix_ms));
  std::printf("answers agree: %s\n\n", posix_counts == lite_counts ? "yes" : "NO");

  std::printf("# cat corpus.txt | grep <pattern>\n");
  std::string pattern = ioltest::FileContent(sys.fs(), file, 4096, 3);
  t0 = sys.ctx().clock().now();
  uint64_t posix_matches = iolapp::GrepCatPosix(&sys, file, pattern);
  posix_ms = iolsim::ToSeconds(sys.ctx().clock().now() - t0) * 1e3;
  t0 = sys.ctx().clock().now();
  uint64_t lite_matches = iolapp::GrepCatIolite(&sys, file, pattern);
  lite_ms = iolsim::ToSeconds(sys.ctx().clock().now() - t0) * 1e3;
  std::printf("posix : %llu matches in %.2f ms\n",
              static_cast<unsigned long long>(posix_matches), posix_ms);
  std::printf("iolite: %llu matches in %.2f ms (%.0f%% faster)\n",
              static_cast<unsigned long long>(lite_matches), lite_ms,
              100.0 * (1 - lite_ms / posix_ms));
  std::printf("answers agree: %s\n", posix_matches == lite_matches ? "yes" : "NO");
  return posix_counts == lite_counts && posix_matches == lite_matches ? 0 : 1;
}
