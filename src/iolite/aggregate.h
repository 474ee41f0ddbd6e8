// Buffer aggregates: the mutable ADT through which all IO-Lite data is
// accessed (Section 3.1). An aggregate is an ordered list of slices; the
// underlying buffers are immutable, the aggregate itself supports
// truncating, prepending, appending, concatenating and splitting by pure
// pointer manipulation — no data is touched.
//
// Aggregates are passed among subsystems *by value*; the buffers they name
// are passed by reference (slices hold BufferRefs).

#ifndef SRC_IOLITE_AGGREGATE_H_
#define SRC_IOLITE_AGGREGATE_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "src/iolite/slice.h"
#include "src/simos/small_vec.h"

namespace iolite {

// Aggregates overwhelmingly name one or two slices (a cached body extent,
// or header + body); four inline slots make typical request flows
// allocation-free while long chains still spill to the heap.
using SliceList = iolsim::SmallVec<Slice, 4>;

class Aggregate {
 public:
  Aggregate() = default;

  // An aggregate covering `buffer`'s entire sealed contents.
  static Aggregate FromBuffer(BufferRef buffer);

  // An aggregate covering one explicit slice.
  static Aggregate FromSlice(Slice slice);

  // --- Structure queries -------------------------------------------------

  size_t size() const { return total_; }
  bool empty() const { return total_ == 0; }
  size_t slice_count() const { return slices_.size(); }
  const SliceList& slices() const { return slices_; }

  // --- Mutation by pointer manipulation (no data copies) -----------------

  void Append(Slice slice);
  void Append(const Aggregate& other);
  void Prepend(const Aggregate& other);

  // Keeps only the first `len` bytes.
  void Truncate(size_t len);

  // Removes the first `n` bytes.
  void DropFront(size_t n);

  // Splits at byte position `at`: this aggregate keeps [0, at), the returned
  // aggregate holds [at, size).
  Aggregate SplitOff(size_t at);

  // A value copy restricted to [offset, offset + len).
  Aggregate Range(size_t offset, size_t len) const;

  // Appends `other`'s [offset, offset + len) window to this aggregate —
  // Range + Append without the temporary (the cache's warm hit path).
  // `other` must not be this aggregate (use Range + Append for that).
  void AppendRange(const Aggregate& other, size_t offset, size_t len);

  // Drops all slices (buffer references are released).
  void Clear();

  // --- Data access (host-side; cost charging is the caller's job) --------

  // Byte at logical position `i`. O(#slices); use Reader for scans.
  uint8_t ByteAt(size_t i) const;

  // Gathers the aggregate's bytes into `dst` (must hold size() bytes).
  void CopyTo(char* dst) const;

  // Gathers into a std::string (tests and small metadata only).
  std::string ToString() const;

  // True if both aggregates denote the same byte sequence (may differ in
  // slice structure).
  bool ContentEquals(const Aggregate& other) const;

  // --- Sequential reader --------------------------------------------------

  // Zero-copy cursor over the aggregate's bytes, yielding maximal
  // contiguous runs. This is the access pattern the converted applications
  // use (Section 5.8: "iterating through the slices returned in the buffer
  // aggregate").
  class Reader {
   public:
    explicit Reader(const Aggregate& agg) : agg_(&agg) {}

    bool AtEnd() const { return slice_index_ >= agg_->slices_.size(); }

    // Current contiguous run (pointer + length). Valid unless AtEnd().
    const char* data() const;
    size_t run_length() const;

    // Advances by `n` bytes (may cross slice boundaries).
    void Skip(size_t n);

    // Total bytes consumed so far.
    size_t position() const { return position_; }

   private:
    const Aggregate* agg_;
    size_t slice_index_ = 0;
    size_t offset_in_slice_ = 0;
    size_t position_ = 0;
  };

  Reader NewReader() const { return Reader(*this); }

 private:
  void PushBack(Slice slice);

  SliceList slices_;
  size_t total_ = 0;
};

}  // namespace iolite

#endif  // SRC_IOLITE_AGGREGATE_H_
