// BSD-style mbufs encapsulating IO-Lite buffers (Section 4.1).
//
// The prototype keeps the mbuf abstraction so the network stack works
// unmodified: small items (packet headers) are stored inline in the mbuf;
// performance-critical bulk data resides in IO-Lite buffers referenced
// through the mbuf's out-of-line ("external/cluster") pointer, here a Slice
// holding a buffer reference.

#ifndef SRC_NET_MBUF_H_
#define SRC_NET_MBUF_H_

#include <cassert>
#include <cstring>

#include "src/iolite/slice.h"
#include "src/simos/small_vec.h"

namespace iolnet {

class Mbuf {
 public:
  static constexpr size_t kInlineCapacity = 104;  // MLEN-ish in 4.4BSD.

  // An mbuf with `n` bytes of inline data.
  static Mbuf Inline(const void* data, size_t n) {
    assert(n <= kInlineCapacity);
    Mbuf m;
    m.inline_len_ = n;
    std::memcpy(m.inline_data_, data, n);
    return m;
  }

  // An mbuf whose payload lives out-of-line in an IO-Lite buffer.
  static Mbuf External(iolite::Slice slice) {
    Mbuf m;
    m.ext_ = std::move(slice);
    return m;
  }

  bool is_external() const { return !ext_.empty(); }
  size_t length() const { return is_external() ? ext_.length() : inline_len_; }
  const char* data() const { return is_external() ? ext_.data() : inline_data_; }
  const iolite::Slice& external_slice() const { return ext_; }

 private:
  Mbuf() = default;

  char inline_data_[kInlineCapacity] = {};
  size_t inline_len_ = 0;
  iolite::Slice ext_;
};

// A packet: chain of mbufs (header mbuf + payload mbufs).
class MbufChain {
 public:
  void Append(Mbuf m) {
    total_ += m.length();
    mbufs_.push_back(std::move(m));
  }

  size_t length() const { return total_; }
  const iolsim::SmallVec<Mbuf, 4>& mbufs() const { return mbufs_; }
  bool empty() const { return mbufs_.empty(); }

  // Builds a chain from an aggregate: one external mbuf per slice. No data
  // is touched; the buffers move by reference.
  static MbufChain FromAggregate(const iolite::Aggregate& agg) {
    MbufChain chain;
    for (const iolite::Slice& s : agg.slices()) {
      chain.Append(Mbuf::External(s));
    }
    return chain;
  }

 private:
  // Inline storage: a typical packet is one header mbuf plus a handful of
  // external payload mbufs, so chain construction touches no allocator.
  iolsim::SmallVec<Mbuf, 4> mbufs_;
  size_t total_ = 0;
};

}  // namespace iolnet

#endif  // SRC_NET_MBUF_H_
