#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ir/expr.hpp"

namespace fact::ir {

enum class StmtKind {
  Assign,  // var = expr
  Store,   // array[index] = value
  If,      // if (cond) then_block else else_block
  While,   // while (cond) body
  Block,   // { stmts... }
};

struct Stmt;
/// Statements are reference-counted so that Function::clone() can share
/// the whole body in O(1): candidate behaviors in the optimizer's
/// population are overwhelmingly identical to their parent. There is one
/// copy-on-write rule: an edit (Function::edit / Function::splice) copies
/// the path from the root to the edited statement and that statement's
/// node, never a subtree below it, so the edited node's children stay
/// shared. A shared node is never mutated in place — the only mutable
/// access paths detach first.
using StmtPtr = std::shared_ptr<Stmt>;

/// One statement of the behavior IR. A single struct (rather than a class
/// hierarchy) keeps the many transformations that pattern-match and rewrite
/// statements compact; unused fields are empty for a given kind.
struct Stmt {
  StmtKind kind;
  /// Unique id within the enclosing Function after Function::renumber().
  /// Ids are stable across Function::clone(), which is what lets the
  /// optimizer map STG states back to IR statements.
  int id = -1;

  // Assign / Store
  std::string target;  // variable (Assign) or array (Store) name
  ExprPtr index;       // Store only
  ExprPtr value;       // Assign / Store rhs

  // If / While
  ExprPtr cond;
  std::vector<StmtPtr> then_stmts;  // If: then branch; While: body
  std::vector<StmtPtr> else_stmts;  // If only

  // Block
  std::vector<StmtPtr> stmts;

  // ---- factories ------------------------------------------------------
  static StmtPtr assign(std::string var, ExprPtr value);
  static StmtPtr store(std::string array, ExprPtr index, ExprPtr value);
  static StmtPtr if_stmt(ExprPtr cond, std::vector<StmtPtr> then_stmts,
                         std::vector<StmtPtr> else_stmts = {});
  static StmtPtr while_stmt(ExprPtr cond, std::vector<StmtPtr> body);
  static StmtPtr block(std::vector<StmtPtr> stmts);

  StmtPtr clone() const;

  /// All expression "slots" of this statement (cond / index / value),
  /// in a fixed order. Slot indices are part of transformation candidate
  /// coordinates.
  std::vector<const ExprPtr*> expr_slots() const;
  std::vector<ExprPtr*> expr_slots();

  /// Child statement lists (then/else/body/stmts) in a fixed order.
  std::vector<const std::vector<StmtPtr>*> child_lists() const;
  std::vector<std::vector<StmtPtr>*> child_lists();

  /// Calls `f` on each populated expression slot, in expr_slots() order,
  /// without building the list (hashing visits every statement).
  template <typename F>
  void for_each_expr_slot(F&& f) const {
    if (cond) f(cond);
    if (index) f(index);
    if (value) f(value);
  }
  /// Calls `f` on each child statement list, in child_lists() order.
  template <typename F>
  void for_each_child_list(F&& f) const {
    switch (kind) {
      case StmtKind::If:
        f(then_stmts);
        f(else_stmts);
        break;
      case StmtKind::While:
        f(then_stmts);
        break;
      case StmtKind::Block:
        f(stmts);
        break;
      default:
        break;
    }
  }

  /// Pretty-prints with the given indent depth.
  std::string str(int indent = 0) const;
};

/// Preorder walk over a statement subtree (read only).
void for_each_stmt(const StmtPtr& s, const std::function<void(const Stmt&)>& fn);

/// The copy-on-write primitive. detach() replaces a shared node (use_count
/// > 1) with a shallow copy that owns its own child-pointer vectors while
/// still sharing the child subtrees; it is a no-op on a uniquely-owned
/// node. It is safe to run concurrently against other readers of the
/// shared tree: shared nodes are only read, and the copy is published
/// through the caller's own StmtPtr slot.
void detach(StmtPtr& s);

/// Copy-on-write instrumentation (process-wide, relaxed atomics — exact
/// in serial runs, approximate under concurrency). `clones` counts O(1)
/// shared Function::clone() calls; `node_copies` counts Stmt nodes that
/// detach() actually copied. The difference against a full deep copy per
/// clone is the work the COW layer saved.
namespace cow {
uint64_t clones();
uint64_t node_copies();
void reset();
void count_clone();      // internal: Function::clone()
void count_node_copy();  // internal: detach()
}  // namespace cow

}  // namespace fact::ir
