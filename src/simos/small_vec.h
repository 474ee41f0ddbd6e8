// SmallVec: a vector with inline storage for the first N elements.
//
// Buffer aggregates are passed among subsystems by value and almost always
// name one or two slices (a body extent, a header + body pair); a file's
// cached extents and a chunk's per-domain mappings are similar.
// Backing them with std::vector meant one heap allocation per object on the
// warm path. SmallVec keeps up to N elements in place and only touches the
// heap beyond that, so the common case is allocation-free while
// arbitrarily long lists still work.
//
// Supports the subset of the std::vector interface its users need; grows
// geometrically; never shrinks its heap allocation.

#ifndef SRC_SIMOS_SMALL_VEC_H_
#define SRC_SIMOS_SMALL_VEC_H_

#include <cassert>
#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace iolsim {

template <typename T, size_t N>
class SmallVec {
 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  SmallVec() = default;

  SmallVec(const SmallVec& other) { AppendRange(other.begin(), other.end()); }

  SmallVec(SmallVec&& other) noexcept { StealFrom(other); }

  SmallVec& operator=(const SmallVec& other) {
    if (this != &other) {
      clear();
      AppendRange(other.begin(), other.end());
    }
    return *this;
  }

  SmallVec& operator=(SmallVec&& other) noexcept {
    if (this != &other) {
      clear();
      if (data_ != inline_data()) {
        ::operator delete(data_);
        data_ = inline_data();
        capacity_ = N;
      }
      StealFrom(other);
    }
    return *this;
  }

  ~SmallVec() {
    clear();
    if (data_ != inline_data()) {
      ::operator delete(data_);
    }
  }

  size_t size() const { return size_; }
  size_t capacity() const { return capacity_; }
  bool empty() const { return size_ == 0; }

  T* data() { return data_; }
  const T* data() const { return data_; }

  T& operator[](size_t i) {
    assert(i < size_);
    return data_[i];
  }
  const T& operator[](size_t i) const {
    assert(i < size_);
    return data_[i];
  }

  T& front() { return (*this)[0]; }
  const T& front() const { return (*this)[0]; }
  T& back() { return (*this)[size_ - 1]; }
  const T& back() const { return (*this)[size_ - 1]; }

  iterator begin() { return data_; }
  iterator end() { return data_ + size_; }
  const_iterator begin() const { return data_; }
  const_iterator end() const { return data_ + size_; }

  void reserve(size_t n) {
    if (n > capacity_) {
      Grow(n);
    }
  }

  void push_back(const T& v) { emplace_back(v); }
  void push_back(T&& v) { emplace_back(std::move(v)); }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == capacity_) {
      Grow(capacity_ * 2);
    }
    T* slot = ::new (static_cast<void*>(data_ + size_)) T(std::forward<Args>(args)...);
    ++size_;
    return *slot;
  }

  // Removes the first `n` elements.
  void erase_front(size_t n) {
    assert(n <= size_);
    for (size_t i = n; i < size_; ++i) {
      data_[i - n] = std::move(data_[i]);
    }
    resize_down(size_ - n);
  }

  // Shrinks to `n` elements (n <= size()).
  void resize_down(size_t n) {
    assert(n <= size_);
    while (size_ > n) {
      data_[--size_].~T();
    }
  }

  void clear() { resize_down(0); }

 private:
  T* inline_data() { return reinterpret_cast<T*>(inline_storage_); }

  // Move-from into a freshly-reset (inline, empty) vector: steal heap
  // storage outright, element-move inline storage. Allocation-free, so the
  // move operations are honestly noexcept (requires nothrow-movable T).
  void StealFrom(SmallVec& other) noexcept {
    static_assert(std::is_nothrow_move_constructible_v<T>);
    if (other.data_ != other.inline_data()) {
      data_ = other.data_;
      capacity_ = other.capacity_;
      size_ = other.size_;
      other.data_ = other.inline_data();
      other.capacity_ = N;
      other.size_ = 0;
      return;
    }
    for (size_t i = 0; i < other.size_; ++i) {
      ::new (static_cast<void*>(data_ + i)) T(std::move(other.data_[i]));
      other.data_[i].~T();
    }
    size_ = other.size_;
    other.size_ = 0;
  }

  template <typename It>
  void AppendRange(It first, It last) {
    reserve(size_ + static_cast<size_t>(last - first));
    for (; first != last; ++first) {
      emplace_back(*first);
    }
  }

  void Grow(size_t want) {
    size_t cap = capacity_ * 2;
    if (cap < want) {
      cap = want;
    }
    T* grown = static_cast<T*>(::operator new(cap * sizeof(T)));
    for (size_t i = 0; i < size_; ++i) {
      ::new (static_cast<void*>(grown + i)) T(std::move(data_[i]));
      data_[i].~T();
    }
    if (data_ != inline_data()) {
      ::operator delete(data_);
    }
    data_ = grown;
    capacity_ = cap;
  }

  alignas(T) unsigned char inline_storage_[N * sizeof(T)];
  T* data_ = inline_data();
  size_t size_ = 0;
  size_t capacity_ = N;
};

}  // namespace iolsim

#endif  // SRC_SIMOS_SMALL_VEC_H_
