#include "src/httpd/response_header.h"

#include <cassert>
#include <cstring>

namespace iolhttp {

size_t BuildResponseHeader(char* buf, uint64_t content_length) {
  // Hand-formatted (byte-identical to the old snprintf, which cost more
  // host CPU per request than the whole event dispatch path).
  static constexpr char kPrefix[] =
      "HTTP/1.0 200 OK\r\n"
      "Server: iolite-sim/1.0\r\n"
      "Content-Type: text/html\r\n"
      "Content-Length: ";
  static constexpr char kSuffix[] = "\r\nX-Pad: ";
  size_t n = sizeof(kPrefix) - 1;
  std::memcpy(buf, kPrefix, n);
  char digits[20];
  size_t d = 0;
  do {
    digits[d++] = static_cast<char>('0' + content_length % 10);
    content_length /= 10;
  } while (content_length != 0);
  while (d > 0) {
    buf[n++] = digits[--d];
  }
  std::memcpy(buf + n, kSuffix, sizeof(kSuffix) - 1);
  n += sizeof(kSuffix) - 1;
  assert(n <= kResponseHeaderBytes - 4);
  std::memset(buf + n, 'x', kResponseHeaderBytes - 4 - n);
  std::memcpy(buf + kResponseHeaderBytes - 4, "\r\n\r\n", 4);
  return kResponseHeaderBytes;
}

iolite::BufferRef MakeIoLiteHeader(iolsim::SimContext* ctx, iolite::BufferPool* pool,
                                   uint64_t content_length) {
  char header[kResponseHeaderBytes];
  size_t header_len = BuildResponseHeader(header, content_length);
  iolite::BufferRef hbuf = pool->Allocate(header_len);
  std::memcpy(hbuf->writable_data(), header, header_len);
  ctx->ChargeCpu(ctx->cost().CopyCost(header_len));
  ctx->stats().bytes_copied += header_len;
  hbuf->Seal(header_len);
  hbuf->MarkOneShot();
  return hbuf;
}

}  // namespace iolhttp
