// Example: dynamic content via a caching CGI process (Sections 3.10, 5.3).
//
// A FastCGI-style process composes responses from a primary file plus
// generated bytes, keeps the composition cached in buffers from its own
// ACL pool, and ships it to the server over an IO-Lite pipe. The server
// concatenates a header and transmits — no copies anywhere, and the CGI
// process stays in its own protection domain (fault isolation preserved).
// Exits 1 if any byte but the response headers was copied.
//
// Run:  ./build/example_cgi_pipeline

#include <cstdio>
#include <string>

#include "src/httpd/cgi.h"
#include "src/httpd/http_server.h"
#include "src/iolite/pipe.h"
#include "src/system/system.h"

int main() {
  iolsys::System sys;
  iolfs::FileId primary = sys.fs().CreateFile("template.html", 16 * 1024);

  // The CGI process: own domain, own pool (its ACL), its own pipe.
  iolsim::DomainId cgi_domain = sys.ctx().vm().CreateDomain();
  iolite::BufferPool* cgi_pool = sys.runtime().CreatePool("cgi-pool", cgi_domain);
  iolite::PipeChannel pipe(&sys.ctx());

  // Compose once: generated banner + primary file content, cached by the
  // CGI process as an aggregate (one physical copy of the file data,
  // shared with the file cache).
  std::string banner = "<!-- dynamically generated at request time -->\n";
  iolite::Aggregate composition =
      iolite::Aggregate::FromBuffer(cgi_pool->AllocateFrom(banner.data(), banner.size()));
  composition.Append(sys.io().ReadExtent(primary, 0, 16 * 1024));
  std::printf("CGI composed %zu bytes (%zu slices)\n", composition.size(),
              composition.slice_count());

  // The server side.
  iolsim::DomainId srv_domain = sys.ctx().vm().CreateDomain();
  iolite::BufferPool* hdr_pool = sys.runtime().CreatePool("hdr", srv_domain);
  iolnet::TcpConnection conn(&sys.net(), /*iolite_sockets=*/true);
  conn.Connect();

  const std::string header = "HTTP/1.0 200 OK\r\nContent-Type: text/html\r\n\r\n";
  uint64_t copied_baseline = sys.ctx().stats().bytes_copied;
  for (int request = 0; request < 5; ++request) {
    // CGI answers the FastCGI request: push the cached aggregate.
    pipe.Push(composition);
    // Server pulls it, maps it (first request only), adds a header, sends.
    iolite::Aggregate body = pipe.Pop(SIZE_MAX);
    sys.runtime().MapAggregate(body, srv_domain);
    iolite::Aggregate response =
        iolite::Aggregate::FromBuffer(hdr_pool->AllocateFrom(header.data(), header.size()));
    response.Append(body);
    conn.SendAggregate(response);
    std::printf("request %d: sent %llu bytes total, cksum-cache hits so far: %llu\n",
                request, static_cast<unsigned long long>(conn.bytes_sent()),
                static_cast<unsigned long long>(sys.ctx().stats().checksum_cache_hits));
  }
  conn.Close();

  uint64_t copied = sys.ctx().stats().bytes_copied - copied_baseline;
  std::printf(
      "\nper-request copies: %llu bytes (headers only) — the 16 KB document crossed the\n"
      "pipe and the socket five times without being copied or re-checksummed.\n",
      static_cast<unsigned long long>(copied / 5));
  return copied == 5 * header.size() ? 0 : 1;
}
