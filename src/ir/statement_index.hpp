#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ir/function.hpp"
#include "util/pointer_map.hpp"

namespace fact::ir {

/// One statement's record in a unit: the per-statement results of passes
/// over functions, in flat arrays (sim::FragmentUnit, the compiled
/// fragments; verify::CheckUnit, the checks). A Unit has `records`, each
/// with the `stmt` it was made from and the range of its children's refs
/// in `kids`. A pass reuses the records a StatementIndex holds of the
/// statements it shares with the index's functions, so the `kids` of the
/// unit a pass fills may refer into the index's unit.
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

/// One search's store of per-statement results, found by statement
/// pointer: what a pass over a candidate reuses. It is append only. An add
/// runs the pass over a function into the store's one unit, which makes
/// records of only the statements the store does not hold yet, keys those
/// new records, and keeps a copy of the function (O(1), sharing the tree).
/// Every key is a node of a kept function, so it stays a live node while
/// the store lives: a freed node's address cannot come back as a key.
/// Adds are serial; between them any number of threads may read the store
/// at once.
///
/// The Unit runs its pass as `unit.pass(fn, reuse)`. The member functions
/// are defined below but instantiated only where the Unit is complete
/// (sim/interp.cpp, verify/verify.cpp).
template <typename Unit>
class StatementIndex {
 public:
  using Ref = UnitRef<Unit>;

  StatementIndex();
  // Move only: a copy would share the unit with the original.
  StatementIndex(StatementIndex&&) = default;
  StatementIndex& operator=(StatementIndex&&) = default;

  /// Adds `fn` unless its declarations differ from the first function's.
  /// Returns the statements the pass made records of: those of `fn` the
  /// store did not hold (0 for a function it did not add).
  size_t add(const Function& fn);

  /// The records a pass over `variant` may reuse: null unless `variant`
  /// declares the same parameters, arrays and outputs as the functions
  /// added (a statement compiles and checks alike under equal
  /// declarations).
  const PointerMap<Ref>* reusable_for(const Function& variant) const {
    return !fns_.empty() && fns_.front().same_declarations(variant) ? &refs_
                                                                   : nullptr;
  }

  const Unit& unit() const { return *unit_; }

  /// Statements indexed.
  size_t size() const { return refs_.size(); }

 private:
  // Refs point at the unit, so it never moves; a shared_ptr deletes it
  // where the Unit is incomplete.
  std::shared_ptr<Unit> unit_;
  std::vector<Function> fns_;   // copies: they hold the keys' nodes
  PointerMap<Ref> refs_;
};

template <typename Unit>
StatementIndex<Unit>::StatementIndex() : unit_(std::make_shared<Unit>()) {}

template <typename Unit>
size_t StatementIndex<Unit>::add(const Function& fn) {
  if (!fns_.empty() && !fns_.front().same_declarations(fn)) return 0;
  const auto mark = static_cast<uint32_t>(unit_->records.size());
  unit_->pass(fn, &refs_);
  fns_.push_back(fn);
  // The pass made every new record from a node of fn.
  const auto end = static_cast<uint32_t>(unit_->records.size());
  for (uint32_t i = mark; i < end; ++i)
    refs_.insert(unit_->records[i].stmt, Ref{unit_.get(), i});
  return end - mark;
}

}  // namespace fact::ir
