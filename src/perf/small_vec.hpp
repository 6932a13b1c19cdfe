#pragma once
// Small-buffer vector for the hot perf-model result path.
//
// A study evaluates millions of (plan, placement) points, and every
// PerfResult used to carry one heap allocation for its per-statement
// breakdown — a malloc/free pair that dominated the cost of a cheap
// evaluation.
// Kernels in every suite have a handful of statements, so the first N
// elements live inline in the object; only deeper kernels spill to the
// heap and pay the old allocation.
//
// Deliberately minimal: the subset of std::vector the perf model and
// its consumers use (reserve/emplace_back/push_back/clear, iteration,
// indexing).  Guarantees beyond std::vector: no allocation while
// size() <= N and the vector never grew past N.

#include <cstddef>
#include <new>
#include <utility>

namespace a64fxcc::perf {

template <class T, std::size_t N>
class SmallVec {
 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  SmallVec() noexcept : data_(inline_data()) {}
  SmallVec(const SmallVec& o) : SmallVec() {
    reserve(o.size_);
    for (std::size_t i = 0; i < o.size_; ++i) new (data_ + i) T(o.data_[i]);
    size_ = o.size_;
  }
  SmallVec(SmallVec&& o) noexcept : SmallVec() { steal(std::move(o)); }
  SmallVec& operator=(const SmallVec& o) {
    if (this == &o) return *this;
    clear();
    reserve(o.size_);
    for (std::size_t i = 0; i < o.size_; ++i) new (data_ + i) T(o.data_[i]);
    size_ = o.size_;
    return *this;
  }
  SmallVec& operator=(SmallVec&& o) noexcept {
    if (this == &o) return *this;
    clear();
    release();
    steal(std::move(o));
    return *this;
  }
  ~SmallVec() {
    clear();
    release();
  }

  void reserve(std::size_t cap) {
    if (cap > cap_) grow(cap);
  }
  template <class... A>
  T& emplace_back(A&&... a) {
    if (size_ == cap_) grow(cap_ * 2);
    T* p = new (data_ + size_) T(std::forward<A>(a)...);
    ++size_;
    return *p;
  }
  void push_back(const T& v) { emplace_back(v); }
  void push_back(T&& v) { emplace_back(std::move(v)); }
  /// Destroys the elements; capacity (inline or heap) is retained.
  void clear() noexcept {
    for (std::size_t i = 0; i < size_; ++i) data_[i].~T();
    size_ = 0;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return cap_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] bool inlined() const noexcept {
    return data_ == inline_data();
  }
  T& operator[](std::size_t i) noexcept { return data_[i]; }
  const T& operator[](std::size_t i) const noexcept { return data_[i]; }
  T& back() noexcept { return data_[size_ - 1]; }
  const T& back() const noexcept { return data_[size_ - 1]; }
  T* begin() noexcept { return data_; }
  T* end() noexcept { return data_ + size_; }
  const T* begin() const noexcept { return data_; }
  const T* end() const noexcept { return data_ + size_; }

 private:
  // Take o's elements: steal a heap buffer outright, move inline ones
  // element-wise.  *this must be empty and inline on entry.
  void steal(SmallVec&& o) noexcept {
    if (!o.inlined()) {
      data_ = o.data_;
      cap_ = o.cap_;
      size_ = o.size_;
      o.data_ = o.inline_data();
      o.cap_ = N;
      o.size_ = 0;
      return;
    }
    for (std::size_t i = 0; i < o.size_; ++i) {
      new (data_ + i) T(std::move(o.data_[i]));
      o.data_[i].~T();
    }
    size_ = o.size_;
    o.size_ = 0;
  }
  void grow(std::size_t want) {
    const std::size_t cap = want > cap_ * 2 ? want : cap_ * 2;
    T* nd = static_cast<T*>(::operator new(cap * sizeof(T)));
    for (std::size_t i = 0; i < size_; ++i) {
      new (nd + i) T(std::move(data_[i]));
      data_[i].~T();
    }
    release();
    data_ = nd;
    cap_ = cap;
  }
  // Free the heap buffer (if any) and reset to the inline one.
  void release() noexcept {
    if (!inlined()) ::operator delete(data_);
    data_ = inline_data();
    cap_ = N;
  }
  T* inline_data() noexcept { return reinterpret_cast<T*>(buf_); }
  const T* inline_data() const noexcept {
    return reinterpret_cast<const T*>(buf_);
  }

  alignas(T) std::byte buf_[N * sizeof(T)];
  T* data_;
  std::size_t size_ = 0;
  std::size_t cap_ = N;
};

}  // namespace a64fxcc::perf
