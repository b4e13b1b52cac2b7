#include "ir/expr.hpp"

#include <cassert>

#include "util/error.hpp"

namespace fact::ir {

namespace {

size_t combine(size_t seed, size_t v) {
  return seed ^ (v + 0x9E3779B97F4A7C15ull + (seed << 6) + (seed >> 2));
}

/// Expr::str's rendering, appended to one buffer.
void append_str(std::string& out, const Expr& e) {
  switch (e.op()) {
    case Op::Const: out += std::to_string(e.value()); return;
    case Op::Var: out += e.name(); return;
    case Op::ArrayRead:
      out += e.name();
      out += '[';
      append_str(out, *e.arg(0));
      out += ']';
      return;
    case Op::BitNot:
    case Op::Not:
      out += e.op() == Op::BitNot ? '~' : '!';
      append_str(out, *e.arg(0));
      return;
    case Op::Select:
      out += '(';
      append_str(out, *e.arg(0));
      out += " ? ";
      append_str(out, *e.arg(1));
      out += " : ";
      append_str(out, *e.arg(2));
      out += ')';
      return;
    default:
      out += '(';
      append_str(out, *e.arg(0));
      out += ' ';
      out += op_token(e.op());
      out += ' ';
      append_str(out, *e.arg(1));
      out += ')';
      return;
  }
}

}  // namespace

Expr::Expr(Op op, int64_t value, std::string name, std::vector<ExprPtr> args)
    : op_(op), value_(value), name_(std::move(name)), args_(std::move(args)) {
  size_t h = static_cast<size_t>(op_) * 0x9E3779B1u;
  h = combine(h, std::hash<int64_t>{}(value_));
  h = combine(h, std::hash<std::string>{}(name_));
  for (const auto& a : args_) {
    if (!a)
      throw Error(std::string("'") + op_token(op_) +
                  "' node built with a null operand");
    h = combine(h, a->hash());
  }
  hash_ = h;
}

size_t Expr::tree_size() const {
  size_t n = 1;
  for (const auto& a : args_) n += a->tree_size();
  return n;
}

bool Expr::equal(const ExprPtr& a, const ExprPtr& b) {
  if (a.get() == b.get()) return true;
  if (!a || !b) return false;
  if (a->hash_ != b->hash_) return false;
  if (a->op_ != b->op_ || a->value_ != b->value_ || a->name_ != b->name_ ||
      a->args_.size() != b->args_.size())
    return false;
  for (size_t i = 0; i < a->args_.size(); ++i)
    if (!equal(a->args_[i], b->args_[i])) return false;
  return true;
}

std::string Expr::str() const {
  std::string out;
  append_str(out, *this);
  return out;
}

ExprPtr Expr::constant(int64_t v) {
  return ExprPtr(new Expr(Op::Const, v, "", {}));
}

ExprPtr Expr::var(const std::string& name) {
  return ExprPtr(new Expr(Op::Var, 0, name, {}));
}

ExprPtr Expr::array_read(const std::string& array, ExprPtr index) {
  return ExprPtr(new Expr(Op::ArrayRead, 0, array, {std::move(index)}));
}

ExprPtr Expr::unary(Op op, ExprPtr a) {
  assert(op_arity(op) == 1);
  return ExprPtr(new Expr(op, 0, "", {std::move(a)}));
}

ExprPtr Expr::binary(Op op, ExprPtr a, ExprPtr b) {
  assert(op_arity(op) == 2);
  return ExprPtr(new Expr(op, 0, "", {std::move(a), std::move(b)}));
}

ExprPtr Expr::select(ExprPtr cond, ExprPtr t, ExprPtr f) {
  return ExprPtr(
      new Expr(Op::Select, 0, "", {std::move(cond), std::move(t), std::move(f)}));
}

ExprPtr Expr::rebuild(const Expr& node, std::vector<ExprPtr> children) {
  assert(children.size() == node.args_.size());
  return ExprPtr(new Expr(node.op_, node.value_, node.name_, std::move(children)));
}

bool is_comparison(Op op) {
  switch (op) {
    case Op::Lt:
    case Op::Le:
    case Op::Gt:
    case Op::Ge:
    case Op::Eq:
    case Op::Ne:
      return true;
    default:
      return false;
  }
}

bool is_boolean(Op op) { return op == Op::And || op == Op::Or || op == Op::Not; }

bool is_commutative(Op op) {
  switch (op) {
    case Op::Add:
    case Op::Mul:
    case Op::Eq:
    case Op::Ne:
    case Op::And:
    case Op::Or:
      return true;
    default:
      return false;
  }
}

bool is_associative(Op op) {
  switch (op) {
    case Op::Add:
    case Op::Mul:
    case Op::And:
    case Op::Or:
      return true;
    default:
      return false;
  }
}

const char* op_token(Op op) {
  switch (op) {
    case Op::Const: return "<const>";
    case Op::Var: return "<var>";
    case Op::ArrayRead: return "<read>";
    case Op::Add: return "+";
    case Op::Sub: return "-";
    case Op::Mul: return "*";
    case Op::Lt: return "<";
    case Op::Le: return "<=";
    case Op::Gt: return ">";
    case Op::Ge: return ">=";
    case Op::Eq: return "==";
    case Op::Ne: return "!=";
    case Op::BitNot: return "~";
    case Op::Shl: return "<<";
    case Op::Shr: return ">>";
    case Op::And: return "&&";
    case Op::Or: return "||";
    case Op::Not: return "!";
    case Op::Select: return "?:";
  }
  return "?";
}

int op_arity(Op op) {
  switch (op) {
    case Op::Const:
    case Op::Var:
      return 0;
    case Op::ArrayRead:
    case Op::BitNot:
    case Op::Not:
      return 1;
    case Op::Select:
      return 3;
    default:
      return 2;
  }
}

void for_each_node(const ExprPtr& e,
                   const std::function<void(const ExprPtr&)>& fn) {
  fn(e);
  for (const auto& a : e->args()) for_each_node(a, fn);
}

ExprPtr subexpr_at(const ExprPtr& root, const std::vector<int>& path) {
  ExprPtr cur = root;
  for (int idx : path) {
    if (!cur || idx < 0 || static_cast<size_t>(idx) >= cur->num_args())
      return nullptr;
    cur = cur->arg(static_cast<size_t>(idx));
  }
  return cur;
}

ExprPtr replace_at(const ExprPtr& root, const std::vector<int>& path,
                   const ExprPtr& replacement) {
  if (path.empty()) return replacement;
  const int idx = path.front();
  if (!root || idx < 0 || static_cast<size_t>(idx) >= root->num_args())
    throw Error("replace_at: invalid expression path");
  std::vector<ExprPtr> children = root->args();
  children[static_cast<size_t>(idx)] =
      replace_at(children[static_cast<size_t>(idx)],
                 {path.begin() + 1, path.end()}, replacement);
  return Expr::rebuild(*root, std::move(children));
}

}  // namespace fact::ir
