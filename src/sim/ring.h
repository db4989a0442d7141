// Power-of-two ring buffer with push_back / pop_front / pop_back. The
// cluster serving loop's waiting queues, warm pools and timeout rings
// need deque semantics with zero steady-state allocations, which
// std::deque's block allocator cannot promise; reserve() up front makes
// every later operation allocation-free as long as the live size stays
// within the reservation (growth past it is correct, just no longer
// allocation-free).
//
// Reserving does not write to the storage: it is allocated for
// overwrite, so a large reservation (a fresh mapping) stays
// non-resident, and its pages become resident only as the head advances
// over them. This is safe because a slot is read only inside
// [head, head + size), and push_back writes every such slot first.
#pragma once

#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>

namespace chiron {

template <typename T>
class Ring {
  // A default member initialiser would make allocation write (and so
  // page in) the whole reservation again.
  static_assert(std::is_trivially_default_constructible_v<T>,
                "Ring storage is left uninitialised until pushed");

 public:
  void reserve(std::size_t n) {
    std::size_t cap = 8;
    while (cap < n + 1) cap <<= 1;
    if (cap > cap_) rebuild(cap);
  }
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  const T& front() const { return buf_[head_ & (cap_ - 1)]; }
  void push_back(const T& value) {
    if (size_ == cap_) rebuild(cap_ == 0 ? std::size_t{8} : cap_ * 2);
    buf_[(head_ + size_) & (cap_ - 1)] = value;
    ++size_;
  }
  /// Pops and returns the newest element (LIFO end).
  T pop_back() {
    --size_;
    return buf_[(head_ + size_) & (cap_ - 1)];
  }
  /// Pops and returns the oldest element (FIFO end).
  T pop_front() {
    const T value = buf_[head_ & (cap_ - 1)];
    ++head_;
    --size_;
    return value;
  }

 private:
  void rebuild(std::size_t cap) {
    auto next = std::make_unique_for_overwrite<T[]>(cap);
    for (std::size_t i = 0; i < size_; ++i) {
      next[i] = buf_[(head_ + i) & (cap_ - 1)];
    }
    buf_ = std::move(next);
    cap_ = cap;
    head_ = 0;
  }

  std::unique_ptr<T[]> buf_;
  std::size_t cap_ = 0;   ///< a power of two, or 0 before the first push
  std::size_t head_ = 0;  ///< monotonically increasing; masked on access
  std::size_t size_ = 0;
};

}  // namespace chiron
