// The plane client's response checksum: FNV-1a over every delivered byte,
// with an exact cache for contents that arrive again.
//
// IO-Lite caches the checksum of an immutable buffer so that sending it
// again skips the pass over its data. The plane client's fold has the same
// shape — a static document is delivered thousands of times — but it cannot
// trust a descriptor to name the same bytes twice, and its checksum must
// stay FNV-1a byte for byte. ResponseFoldCache rests on an identity of
// FNV-1a instead: XOR with a byte touches only the state's low 8 bits, and
// multiplication mod 2^64 carries low bits upward only, so the low byte of
// every intermediate state depends only on the low byte of the start state.
// Hence for a fixed string B of n bytes
//
//   FnvFold(h, B) = P^n * h + C_B[h mod 256]   (mod 2^64)
//
// where C_B[l] = FnvFold(l, B) - P^n * l. An entry keeps a copy of B, P^n
// and the 256-entry table C_B. A key hashed from the content's length and
// eight of its words locates the entry; a full memcmp against the kept copy
// then verifies it, so every delivered byte is still read and nothing about
// where the bytes came from (offset, slot, ticket) is trusted. Any mismatch,
// and any content seen for the first time, folds byte by byte.

#ifndef SRC_DRIVER_RESPONSE_FOLD_H_
#define SRC_DRIVER_RESPONSE_FOLD_H_

#include <array>
#include <cstdint>
#include <memory>

namespace ioldrv {

inline constexpr uint64_t kFnvOffset = 1469598103934665603ull;
inline constexpr uint64_t kFnvPrime = 1099511628211ull;

// The definition of the response checksum: FNV-1a, one byte at a time.
uint64_t FnvFold(uint64_t h, const char* p, uint64_t n);

class ResponseFoldCache {
 public:
  // Up to kEntries contents, each entry allocated on first use and replaced
  // in FIFO order once all are in use. A content's table is built on its
  // second sighting (256 chains over its bytes), so a content seen once — a
  // CGI body — never pays for one. Contents longer than kMaxBytes always
  // fold byte by byte.
  static constexpr int kEntries = 64;
  static constexpr uint64_t kMaxBytes = 16 * 1024;

  ResponseFoldCache();
  ~ResponseFoldCache();  // Out of line: Entry is defined in the .cc.

  // Exactly FnvFold(h, p, n).
  uint64_t Fold(uint64_t h, const char* p, uint64_t n);

  uint64_t hits() const { return hits_; }      // Folds answered by a kept table.
  uint64_t builds() const { return builds_; }  // Tables built.

 private:
  struct Entry;
  static constexpr int kSeenSlots = 256;

  const Entry* Find(uint64_t key, const char* p, uint64_t n) const;
  // Builds an entry for (key, p, n) in the next slot and returns it.
  const Entry& Build(uint64_t key, const char* p, uint64_t n);

  std::array<uint64_t, kEntries> keys_{};  // Scanned on every lookup.
  std::array<std::unique_ptr<Entry>, kEntries> entries_;
  int next_slot_ = 0;                        // FIFO replacement cursor.
  std::array<uint64_t, kSeenSlots> seen_{};  // Keys of contents seen once.
  uint64_t hits_ = 0;
  uint64_t builds_ = 0;
};

}  // namespace ioldrv

#endif  // SRC_DRIVER_RESPONSE_FOLD_H_
