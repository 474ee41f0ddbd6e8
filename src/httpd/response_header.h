// HTTP response-header construction, shared by every server model.
//
// The header bytes are real (checksums over them are real); an X-Pad
// comment header absorbs padding so every response header is exactly
// kResponseHeaderBytes long, terminated by the blank line that separates
// it from the body.

#ifndef SRC_HTTPD_RESPONSE_HEADER_H_
#define SRC_HTTPD_RESPONSE_HEADER_H_

#include <cstddef>
#include <cstdint>

#include "src/iolite/buffer_pool.h"
#include "src/simos/sim_context.h"

namespace iolhttp {

// Typical HTTP/1.0 response header and request sizes.
constexpr size_t kResponseHeaderBytes = 250;
constexpr size_t kRequestBytes = 300;

// Builds a plausible response header into `buf` (which must hold at least
// kResponseHeaderBytes). Returns the header length (kResponseHeaderBytes).
size_t BuildResponseHeader(char* buf, uint64_t content_length);

// The IO-Lite servers' header path: allocates a buffer from the server's
// own pool (Section 5: "allocating memory for response headers ... is
// handled with memory allocation from IO-Lite space"), fills it with the
// response header, charges the one copy the IO-Lite data path pays per
// request, and seals it one-shot: each header is transmitted once.
iolite::BufferRef MakeIoLiteHeader(iolsim::SimContext* ctx, iolite::BufferPool* pool,
                                   uint64_t content_length);

}  // namespace iolhttp

#endif  // SRC_HTTPD_RESPONSE_HEADER_H_
