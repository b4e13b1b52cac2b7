#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "ir/function.hpp"
#include "ir/stmt.hpp"
#include "obs/metrics.hpp"

namespace fact {

/// Builds a vector of statements from move-only StmtPtr arguments
/// (std::vector cannot be brace-initialized from unique_ptrs).
template <typename... T>
std::vector<ir::StmtPtr> make_vector(T&&... stmts) {
  std::vector<ir::StmtPtr> v;
  v.reserve(sizeof...(stmts));
  (v.push_back(std::forward<T>(stmts)), ...);
  return v;
}

/// A copy of `fn` that shares no statement node with it: the same
/// statements, with the same ids, in fresh nodes (each top-level statement
/// spliced in as a Stmt::clone(), which also copies the body block).
inline ir::Function unshared_copy(const ir::Function& fn) {
  ir::Function g = fn.clone();
  for (const auto& s : fn.body()->stmts)
    g.splice(s->id, {s->clone()}, /*insert_only=*/false);
  return g;
}

/// How much the process-wide registry counter `name` grew since this
/// object was constructed.
class CounterDelta {
 public:
  explicit CounterDelta(const char* name)
      : counter_(obs::Registry::global().counter(name)),
        start_(counter_.value()) {}
  uint64_t operator()() const { return counter_.value() - start_; }

 private:
  obs::Counter& counter_;
  uint64_t start_;
};

}  // namespace fact
