#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace fact::ir {

/// Operation kinds appearing in expressions. The arithmetic / comparison
/// subset maps 1:1 onto functional-unit classes of the paper's library
/// (Section 5: a1, sb1, mt1, cp1, e1, i1, n1, s1); the boolean connectives
/// are controller glue and consume no functional unit.
enum class Op {
  Const,      // integer literal
  Var,        // scalar variable read
  ArrayRead,  // memory read: name[args[0]]
  Add,        // a1 (or i1 when one operand is the constant 1)
  Sub,        // sb1
  Mul,        // mt1
  Lt,         // cp1
  Le,         // cp1
  Gt,         // cp1
  Ge,         // cp1
  Eq,         // e1
  Ne,         // e1
  BitNot,     // n1 (multi-bit inverter)
  Shl,        // s1
  Shr,        // s1
  And,        // boolean, controller glue
  Or,         // boolean, controller glue
  Not,        // boolean, controller glue
  Select,     // args = {cond, if_true, if_false}; the CDFG "select" op
};

class Expr;
/// Expressions are immutable and shared: transformations build new trees
/// that reuse unchanged subtrees, which makes cloning candidate behaviors
/// in the optimizer's population cheap.
using ExprPtr = std::shared_ptr<const Expr>;

/// One node of an immutable expression DAG.
class Expr {
 public:
  Op op() const { return op_; }
  int64_t value() const { return value_; }          // Const only
  const std::string& name() const { return name_; } // Var / ArrayRead only
  const std::vector<ExprPtr>& args() const { return args_; }
  const ExprPtr& arg(size_t i) const { return args_[i]; }
  size_t num_args() const { return args_.size(); }

  /// Structural hash, computed at construction.
  size_t hash() const { return hash_; }

  /// Number of nodes in this subtree (DAG nodes counted once per path;
  /// used as a cheap size metric by transformations).
  size_t tree_size() const;

  /// Deep structural equality.
  static bool equal(const ExprPtr& a, const ExprPtr& b);

  /// Infix rendering, e.g. "(a + b) * x[i]".
  std::string str() const;

  // ---- factories ------------------------------------------------------
  static ExprPtr constant(int64_t v);
  static ExprPtr var(const std::string& name);
  static ExprPtr array_read(const std::string& array, ExprPtr index);
  static ExprPtr unary(Op op, ExprPtr a);
  static ExprPtr binary(Op op, ExprPtr a, ExprPtr b);
  static ExprPtr select(ExprPtr cond, ExprPtr t, ExprPtr f);
  /// Rebuilds a node of the same kind with new children (children.size()
  /// must match the op's arity).
  static ExprPtr rebuild(const Expr& node, std::vector<ExprPtr> children);

 private:
  Expr(Op op, int64_t value, std::string name, std::vector<ExprPtr> args);

  Op op_;
  int64_t value_ = 0;
  std::string name_;
  std::vector<ExprPtr> args_;
  size_t hash_ = 0;
};

/// True for ops whose results are 0/1 truth values.
bool is_comparison(Op op);
/// True for And/Or/Not.
bool is_boolean(Op op);
/// True for ops that commute (Add, Mul, Eq, Ne, And, Or).
bool is_commutative(Op op);
/// True for ops that associate (Add, Mul, And, Or).
bool is_associative(Op op);
/// Human-readable operator token ("+", "<", ...).
const char* op_token(Op op);
/// Arity of an op's args vector (Const/Var: 0, ArrayRead: 1, Select: 3, ...).
int op_arity(Op op);

/// Walks the expression tree in preorder, calling fn on every node.
void for_each_node(const ExprPtr& e, const std::function<void(const ExprPtr&)>& fn);

/// Returns the subexpression at `path` (each element is a child index),
/// or nullptr if the path is invalid.
ExprPtr subexpr_at(const ExprPtr& root, const std::vector<int>& path);

/// Returns a copy of `root` with the subexpression at `path` replaced by
/// `replacement`. Throws fact::Error if the path is invalid.
ExprPtr replace_at(const ExprPtr& root, const std::vector<int>& path,
                   const ExprPtr& replacement);

}  // namespace fact::ir
