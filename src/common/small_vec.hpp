// Small-buffer vector for per-entry waiter lists. A DMB MSHR or LSQ
// ready set almost always holds one element (secondary misses are
// rare), but std::vector pays one heap allocation per miss for it —
// per-phase profile showed the allocator high in the MSHR churn. The
// first N elements live inline; only the rare overflow spills to the
// heap.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace hymm {

template <typename T, std::size_t N>
class SmallVec {
 public:
  SmallVec() = default;

  void push_back(const T& v) {
    if (size_ < N) {
      inline_[size_] = v;
    } else {
      spill_.push_back(v);
    }
    ++size_;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  const T& operator[](std::size_t i) const {
    return i < N ? inline_[i] : spill_[i - N];
  }

  // Removes one element equal to `v` by moving the last element into
  // its slot (order is not kept). False when `v` is absent.
  bool erase_unordered(const T& v) {
    for (std::size_t i = 0; i < size_; ++i) {
      if ((*this)[i] != v) continue;
      slot(i) = (*this)[size_ - 1];
      if (size_ > N) {
        spill_.pop_back();
      }
      --size_;
      return true;
    }
    return false;
  }

  void clear() {
    spill_.clear();
    size_ = 0;
  }

  // Minimal iteration support (range-for over const elements).
  class const_iterator {
   public:
    const_iterator(const SmallVec* v, std::size_t i) : v_(v), i_(i) {}
    const T& operator*() const { return (*v_)[i_]; }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator!=(const const_iterator& o) const { return i_ != o.i_; }

   private:
    const SmallVec* v_;
    std::size_t i_;
  };
  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, size_}; }

 private:
  T& slot(std::size_t i) { return i < N ? inline_[i] : spill_[i - N]; }

  std::array<T, N> inline_{};
  std::vector<T> spill_;
  std::size_t size_ = 0;
};

}  // namespace hymm
