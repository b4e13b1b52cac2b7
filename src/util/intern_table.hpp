#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/hash.hpp"

namespace fact {

/// Values numbered in the order they are first added. A table can extend
/// another that extends none, read only: it numbers the other's values as
/// the other does and the values it adds itself after them, so results
/// keyed by number stay valid in the tables that extend theirs. The
/// extended table must outlive the extending one and not change meanwhile
/// (a search's statement store extends its one table between passes, and
/// each pass over a candidate extends the store's table anew).
/// T is std::string (found by std::string_view) or an integer type.
template <typename T>
class InternTable {
 public:
  using Key = std::conditional_t<std::is_same_v<T, std::string>,
                                 std::string_view, T>;

  /// Empties the table and makes it extend `base` (none if null), which
  /// must extend none. The storage of its own values stays for the values
  /// it adds next.
  void reset(const InternTable* base = nullptr) {
    assert(!base || !base->base_);
    base_ = base;
    first_ = base ? static_cast<int32_t>(base->size()) : 0;
    own_.clear();
  }

  /// The number of `v`, or -1.
  int32_t find(Key v) const {
    if (base_) {
      const int32_t id = base_->own_.find(v);
      if (id >= 0) return id;
    }
    const int32_t own = own_.find(v);
    return own < 0 ? -1 : first_ + own;
  }

  /// The number of `v`, adding it when absent.
  int32_t intern(Key v) {
    const int32_t id = find(v);
    return id >= 0 ? id : first_ + own_.add(v);
  }

  const T& operator[](int32_t id) const {
    return id < first_ ? base_->own_.items[static_cast<size_t>(id)]
                       : own_.items[static_cast<size_t>(id - first_)];
  }
  size_t size() const {
    return static_cast<size_t>(first_) + own_.items.size();
  }

 private:
  struct Storage {
    std::vector<T> items;
    std::vector<int32_t> slots = std::vector<int32_t>(16, -1);  // ids

    void clear() {
      if (items.size() > kScan)
        std::fill(slots.begin(), slots.end(), -1);
      items.clear();
    }

    static uint64_t hash(Key v) {
      if constexpr (std::is_same_v<T, std::string>) {
        return std::hash<std::string_view>{}(v);
      } else {
        return hash_mix(0, static_cast<uint64_t>(v));
      }
    }

    /// The number of `v`, or -1: a scan while there are few values, which
    /// beats hashing them, and the hash slots past that.
    int32_t find(Key v) const {
      if (items.size() <= kScan) {
        for (size_t i = 0; i < items.size(); ++i)
          if (items[i] == v) return static_cast<int32_t>(i);
        return -1;
      }
      return slots[slot(v)];
    }
    static constexpr size_t kScan = 8;

    /// The slot of `v`, or the empty slot where it belongs.
    size_t slot(Key v) const {
      const size_t mask = slots.size() - 1;
      size_t i = static_cast<size_t>(hash(v)) & mask;
      while (slots[i] >= 0 && items[static_cast<size_t>(slots[i])] != v)
        i = (i + 1) & mask;
      return i;
    }

    /// Adds `v`, absent. The slots are filled once the scan stops, and
    /// kept at most half full.
    int32_t add(Key v) {
      const auto id = static_cast<int32_t>(items.size());
      items.emplace_back(v);
      if (items.size() <= kScan) return id;
      if (2 * items.size() > slots.size() || items.size() == kScan + 1) {
        while (2 * items.size() > slots.size())
          slots.assign(2 * slots.size(), -1);
        std::fill(slots.begin(), slots.end(), -1);
        for (size_t k = 0; k < items.size(); ++k)
          slots[slot(items[k])] = static_cast<int32_t>(k);
      } else {
        slots[slot(v)] = id;
      }
      return id;
    }
  };

  const InternTable* base_ = nullptr;
  int32_t first_ = 0;  // base_'s size when this table started extending it
  Storage own_;
};

}  // namespace fact
