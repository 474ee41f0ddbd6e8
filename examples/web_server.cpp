// Example: a static-content Web server on IO-Lite (Section 3.10).
//
// Builds a small site, serves it with the Flash-Lite data path (IOL_read
// from the unified cache, header from an IO-Lite pool, IOL_write by
// reference) next to the conventional Flash data path (mmap + writev), and
// prints the per-request mechanics: copies, checksums, checksum-cache hits,
// chunk mappings. Exits 1 if Flash-Lite copied anything but the response
// headers.
//
// Run:  ./build/example_web_server

#include <cstdio>
#include <vector>

#include "src/httpd/http_server.h"
#include "src/system/system.h"
#include "src/workload/trace.h"

namespace {

constexpr int kRounds = 3;

// Serves the site kRounds times and returns the bytes the server copied.
uint64_t ServeAndReport(const char* label, iolsys::System* sys, iolhttp::HttpServer* server,
                        const std::vector<iolfs::FileId>& site) {
  iolnet::TcpConnection conn(&sys->net(), server->uses_iolite_sockets());
  conn.Connect();
  uint64_t bytes = 0;
  // Round one is cold, the rest warm.
  for (int round = 0; round < kRounds; ++round) {
    for (iolfs::FileId f : site) {
      bytes += server->HandleRequest(&conn, f);
    }
  }
  conn.Close();
  const iolsim::SimStats& s = sys->ctx().stats();
  std::printf("%-12s served %7llu bytes | copied %7llu | checksummed %7llu | "
              "cksum-cache hits %3llu | chunk maps %3llu | sim time %.2f ms\n",
              label, static_cast<unsigned long long>(bytes),
              static_cast<unsigned long long>(s.bytes_copied),
              static_cast<unsigned long long>(s.bytes_checksummed),
              static_cast<unsigned long long>(s.checksum_cache_hits),
              static_cast<unsigned long long>(s.chunk_map_ops),
              iolsim::ToSeconds(sys->ctx().clock().now()) * 1e3);
  return s.bytes_copied;
}

}  // namespace

int main() {
  std::printf("# Serving a 6-document site three times over one persistent connection\n");
  const std::vector<std::pair<const char*, size_t>> documents = {
      {"index.html", 8 * 1024},   {"logo.png", 24 * 1024}, {"styles.css", 4 * 1024},
      {"paper.pdf", 180 * 1024},  {"news.html", 12 * 1024}, {"tiny.txt", 500},
  };

  uint64_t lite_copied = 0;
  {
    iolsys::SystemOptions options;
    options.policy = iolsys::SystemOptions::Policy::kGds;
    iolsys::System sys(options);
    std::vector<iolfs::FileId> site;
    for (const auto& [name, size] : documents) {
      site.push_back(sys.fs().CreateFile(name, size));
    }
    iolhttp::FlashLiteServer lite(&sys.ctx(), &sys.net(), &sys.io(), &sys.runtime());
    lite_copied = ServeAndReport("Flash-Lite", &sys, &lite, site);
  }
  {
    iolsys::System sys;
    std::vector<iolfs::FileId> site;
    for (const auto& [name, size] : documents) {
      site.push_back(sys.fs().CreateFile(name, size));
    }
    iolhttp::FlashServer flash(&sys.ctx(), &sys.net(), &sys.io());
    ServeAndReport("Flash", &sys, &flash, site);
  }

  std::printf(
      "\nFlash-Lite copies only response headers; document bytes are checksummed once\n"
      "and then served from the checksum cache. Flash copies and checksums every byte\n"
      "of every response.\n");
  return lite_copied == kRounds * documents.size() * iolhttp::kResponseHeaderBytes ? 0 : 1;
}
