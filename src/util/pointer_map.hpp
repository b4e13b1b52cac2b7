#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace fact {

/// A map from non-null pointers to small values, in one open-addressing
/// array. Inserts are serial; between them any number of threads may look
/// up at once. A key inserted twice keeps its first value.
template <typename V>
class PointerMap {
 public:
  /// Sizes the table for `n` keys (at most half full).
  explicit PointerMap(size_t n = 0) {
    size_t cap = 16;
    while (cap < 2 * n) cap *= 2;
    slots_.assign(cap, {nullptr, V{}});
  }

  void insert(const void* key, V value) {
    if (2 * (size_ + 1) > slots_.size()) grow();
    Slot& s = slots_[slot(key)];
    if (s.first) return;
    s = {key, std::move(value)};
    ++size_;
  }

  /// The value of `key`, or null.
  const V* find(const void* key) const {
    const Slot& s = slots_[slot(key)];
    return s.first ? &s.second : nullptr;
  }

  size_t size() const { return size_; }

 private:
  using Slot = std::pair<const void*, V>;

  /// The slot holding `key`, or the empty slot where it belongs.
  size_t slot(const void* key) const {
    const size_t mask = slots_.size() - 1;
    uint64_t h = reinterpret_cast<uintptr_t>(key) >> 4;
    h *= 0x9E3779B97F4A7C15ull;
    size_t i = static_cast<size_t>(h >> 32) & mask;
    while (slots_[i].first && slots_[i].first != key) i = (i + 1) & mask;
    return i;
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(2 * old.size(), {nullptr, V{}});
    for (Slot& s : old)
      if (s.first) slots_[slot(s.first)] = std::move(s);
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
};

}  // namespace fact
