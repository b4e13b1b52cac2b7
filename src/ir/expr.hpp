#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "util/error.hpp"

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
  // Every factory throws fact::Error when an operand is null, so a
  // malformed rewrite fails where it is built.
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

/// The value of `op` applied to already evaluated operands (`a` is the
/// first argument; unary ops ignore `b`, only Select reads `c`). This is
/// the one definition of operator semantics: the behavioral interpreter,
/// the RTL simulator and constant folding all call it.
///  * Add, Sub and Mul wrap in two's complement, as a hardware adder or
///    multiplier does, so overflow is defined;
///  * shift amounts use their low 6 bits; Shr is arithmetic;
///  * comparisons and the boolean connectives yield 0/1;
///  * Select yields `b` when `a` is nonzero, else `c`.
/// Const, Var and ArrayRead read state rather than compute a value; they
/// are an error here.
inline int64_t eval_op(Op op, int64_t a, int64_t b = 0, int64_t c = 0) {
  const auto u = [](int64_t v) { return static_cast<uint64_t>(v); };
  switch (op) {
    case Op::Add: return static_cast<int64_t>(u(a) + u(b));
    case Op::Sub: return static_cast<int64_t>(u(a) - u(b));
    case Op::Mul: return static_cast<int64_t>(u(a) * u(b));
    case Op::Lt: return a < b;
    case Op::Le: return a <= b;
    case Op::Gt: return a > b;
    case Op::Ge: return a >= b;
    case Op::Eq: return a == b;
    case Op::Ne: return a != b;
    case Op::BitNot: return ~a;
    case Op::Shl: return static_cast<int64_t>(u(a) << (b & 63));
    case Op::Shr: return a >> (b & 63);
    case Op::And: return a != 0 && b != 0;
    case Op::Or: return a != 0 || b != 0;
    case Op::Not: return a == 0;
    case Op::Select: return a != 0 ? b : c;
    case Op::Const:
    case Op::Var:
    case Op::ArrayRead:
      break;
  }
  throw Error(std::string("eval_op: '") + op_token(op) +
              "' has no operator value");
}

/// `idx` wrapped into [0, size): memories alias like a real address
/// decoder, so every read and store is defined for any index. `size` must
/// be nonzero. An index already in range, nearly every one a behavior
/// computes, is returned without the 64-bit division.
inline int64_t wrap_index(int64_t idx, size_t size) {
  if (static_cast<uint64_t>(idx) < size) return idx;
  const int64_t n = static_cast<int64_t>(size);
  const int64_t m = idx % n;
  return m < 0 ? m + n : m;
}

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
