#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "ir/function.hpp"
#include "util/pointer_map.hpp"

namespace fact::ir {

/// One statement's record in a unit: the per-statement results of one pass
/// over a function, in flat arrays (sim::FragmentUnit, the compiled
/// fragments; verify::CheckUnit, the checks). A Unit has `records`, each
/// with the `stmt` it was made from and the range of its children's refs
/// in `kids`. A pass over a variant of a function reuses the records of
/// the statements the variant shares with the function, so a unit's
/// `kids` may refer into the unit it reused them from, which its `base`
/// keeps alive.
template <typename Unit>
struct UnitRef {
  const Unit* unit = nullptr;
  uint32_t index = 0;  // into unit->records

  const auto& operator*() const { return unit->records[index]; }
  const auto* operator->() const { return &unit->records[index]; }
};

/// A range of one of a unit's flat arrays.
struct UnitRange {
  uint32_t begin = 0, size = 0;
};

/// Appends to `unit.kids` the records of the children of `s`, `get(c)` for
/// each non-null statement `c` of each list s.for_each_child_list gives,
/// and returns their range; `first_list` (if non-null) receives how many
/// the first list gave. `get` may add records and kids of its own, so the
/// refs wait on `pending`, a stack shared by the whole pass.
template <typename Unit, typename Get>
UnitRange add_kids(Unit& unit, const Stmt& s,
                   std::vector<UnitRef<Unit>>& pending, Get&& get,
                   uint32_t* first_list = nullptr) {
  const size_t mark = pending.size();
  bool first = true;
  s.for_each_child_list([&](const std::vector<StmtPtr>& list) {
    for (const auto& c : list)
      if (c) pending.push_back(get(*c));
    if (first && first_list)
      *first_list = static_cast<uint32_t>(pending.size() - mark);
    first = false;
  });
  const UnitRange kids{static_cast<uint32_t>(unit.kids.size()),
                       static_cast<uint32_t>(pending.size() - mark)};
  unit.kids.insert(unit.kids.end(),
                   pending.begin() + static_cast<ptrdiff_t>(mark),
                   pending.end());
  pending.resize(mark);
  return kids;
}

/// The records of one pass over a function, found by statement pointer:
/// what a pass over a variant of the function reuses. Only the records of
/// the function's own statements are keys (a record of a node it does not
/// hold is skipped), and the index holds the function's tree, so every key
/// is a live node: a freed node's address cannot come back as a key while
/// the index lives. Read only, so any number of threads may use one at
/// once.
///
/// The member functions are defined below but instantiated only where
/// the Unit is complete (sim/interp.cpp, verify/verify.cpp).
template <typename Unit>
class StatementIndex {
 public:
  using Ref = UnitRef<Unit>;

  /// Indexes `unit`, a pass over `fn` whose records of the statements of
  /// fn's body are `unit->top()`, in order.
  StatementIndex(const Function& fn, std::shared_ptr<const Unit> unit);

  /// The records a pass over `variant` may reuse: null unless `variant`
  /// declares the same parameters, arrays and outputs as the function
  /// (a statement compiles and checks alike under equal declarations).
  const PointerMap<Ref>* reusable_for(const Function& variant) const {
    return fn_.same_declarations(variant) ? &refs_ : nullptr;
  }

  const std::shared_ptr<const Unit>& unit() const { return unit_; }

  /// Statements indexed.
  size_t size() const { return refs_.size(); }

 private:
  void add(const Stmt& s, Ref r);

  Function fn_;  // a copy (O(1), sharing the tree): holds the keys' nodes
  std::shared_ptr<const Unit> unit_;
  PointerMap<Ref> refs_;
};

template <typename Unit>
StatementIndex<Unit>::StatementIndex(const Function& fn,
                                     std::shared_ptr<const Unit> unit)
    : fn_(fn), unit_(std::move(unit)) {
  const Stmt* body = fn_.body();
  if (!body) return;
  const std::span<const Ref> top = unit_->top();
  size_t k = 0;
  for (const auto& s : body->stmts)
    if (s && k < top.size()) add(*s, top[k++]);
}

template <typename Unit>
void StatementIndex<Unit>::add(const Stmt& s, Ref r) {
  if (r->stmt != &s) return;
  refs_.insert(&s, r);
  const UnitRange kids = r->kids;
  uint32_t k = 0;
  s.for_each_child_list([&](const std::vector<StmtPtr>& list) {
    for (const auto& c : list)
      if (c && k < kids.size) add(*c, r.unit->kids[kids.begin + k++]);
  });
}

}  // namespace fact::ir
