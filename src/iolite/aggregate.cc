#include "src/iolite/aggregate.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace iolite {

Aggregate Aggregate::FromBuffer(BufferRef buffer) {
  Aggregate agg;
  size_t len = buffer->size();
  if (len > 0) {
    agg.PushBack(Slice(std::move(buffer), 0, len));
  }
  return agg;
}

Aggregate Aggregate::FromSlice(Slice slice) {
  Aggregate agg;
  if (!slice.empty()) {
    agg.PushBack(std::move(slice));
  }
  return agg;
}

void Aggregate::PushBack(Slice slice) {
  total_ += slice.length();
  slices_.push_back(std::move(slice));
}

void Aggregate::Append(Slice slice) {
  if (!slice.empty()) {
    PushBack(std::move(slice));
  }
}

void Aggregate::Append(const Aggregate& other) {
  for (const Slice& s : other.slices_) {
    PushBack(s);
  }
}

void Aggregate::Prepend(const Aggregate& other) {
  // Append then rotate: linear in the combined slice count.
  size_t old_count = slices_.size();
  for (const Slice& s : other.slices_) {
    slices_.push_back(s);
  }
  std::rotate(slices_.begin(), slices_.begin() + old_count, slices_.end());
  total_ += other.total_;
}

void Aggregate::Truncate(size_t len) {
  if (len >= total_) {
    return;
  }
  size_t kept = 0;
  size_t i = 0;
  while (i < slices_.size() && kept + slices_[i].length() <= len) {
    kept += slices_[i].length();
    ++i;
  }
  if (i < slices_.size() && kept < len) {
    slices_[i] = slices_[i].Prefix(len - kept);
    ++i;
  }
  slices_.resize_down(i);
  total_ = len;
}

void Aggregate::DropFront(size_t n) {
  if (n == 0) {
    return;
  }
  if (n >= total_) {
    Clear();
    return;
  }
  size_t dropped = 0;
  size_t i = 0;
  while (i < slices_.size() && dropped + slices_[i].length() <= n) {
    dropped += slices_[i].length();
    ++i;
  }
  slices_.erase_front(i);
  total_ -= dropped;
  size_t remainder = n - dropped;
  if (remainder > 0) {
    total_ -= remainder;
    slices_[0] = slices_[0].Suffix(remainder);
  }
}

Aggregate Aggregate::SplitOff(size_t at) {
  assert(at <= total_ && "split point beyond aggregate");
  Aggregate tail = Range(at, total_ - at);
  Truncate(at);
  return tail;
}

Aggregate Aggregate::Range(size_t offset, size_t len) const {
  Aggregate out;
  out.AppendRange(*this, offset, len);
  return out;
}

void Aggregate::AppendRange(const Aggregate& other, size_t offset, size_t len) {
  assert(&other != this && "self-append would iterate storage being grown");
  assert(offset + len <= other.total_ && "range beyond aggregate");
  if (len == 0) {
    return;
  }
  size_t pos = 0;
  size_t appended = 0;
  for (const Slice& s : other.slices_) {
    size_t slice_end = pos + s.length();
    if (slice_end <= offset) {
      pos = slice_end;
      continue;
    }
    size_t start_in_slice = offset > pos ? offset - pos : 0;
    size_t want = len - appended;
    size_t avail = s.length() - start_in_slice;
    size_t take = avail < want ? avail : want;
    PushBack(s.Sub(start_in_slice, take));
    appended += take;
    pos = slice_end;
    if (appended == len) {
      break;
    }
  }
  assert(appended == len);
}

void Aggregate::Clear() {
  slices_.clear();
  total_ = 0;
}

uint8_t Aggregate::ByteAt(size_t i) const {
  assert(i < total_ && "ByteAt out of range");
  for (const Slice& s : slices_) {
    if (i < s.length()) {
      return static_cast<uint8_t>(s.data()[i]);
    }
    i -= s.length();
  }
  assert(false && "unreachable");
  return 0;
}

void Aggregate::CopyTo(char* dst) const {
  for (const Slice& s : slices_) {
    std::memcpy(dst, s.data(), s.length());
    dst += s.length();
  }
}

std::string Aggregate::ToString() const {
  std::string out;
  out.resize(total_);
  CopyTo(out.data());
  return out;
}

bool Aggregate::ContentEquals(const Aggregate& other) const {
  if (total_ != other.total_) {
    return false;
  }
  Reader a = NewReader();
  Reader b = other.NewReader();
  while (!a.AtEnd() && !b.AtEnd()) {
    size_t n = a.run_length() < b.run_length() ? a.run_length() : b.run_length();
    if (std::memcmp(a.data(), b.data(), n) != 0) {
      return false;
    }
    a.Skip(n);
    b.Skip(n);
  }
  return a.AtEnd() && b.AtEnd();
}

const char* Aggregate::Reader::data() const {
  assert(!AtEnd());
  return agg_->slices_[slice_index_].data() + offset_in_slice_;
}

size_t Aggregate::Reader::run_length() const {
  assert(!AtEnd());
  return agg_->slices_[slice_index_].length() - offset_in_slice_;
}

void Aggregate::Reader::Skip(size_t n) {
  position_ += n;
  while (n > 0 && !AtEnd()) {
    size_t run = agg_->slices_[slice_index_].length() - offset_in_slice_;
    if (n < run) {
      offset_in_slice_ += n;
      return;
    }
    n -= run;
    offset_in_slice_ = 0;
    ++slice_index_;
  }
  // Skipping to exactly the end is legal; beyond is a bug.
  assert(n == 0 && "Skip past end of aggregate");
}

}  // namespace iolite
