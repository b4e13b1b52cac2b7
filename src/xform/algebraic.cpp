// Algebraic transformations: commutativity, associativity, add/sub
// re-association, distributivity, constant folding.

#include <cassert>

#include "xform/expr_transform.hpp"

namespace fact::xform {

using ir::Expr;
using ir::ExprPtr;
using ir::Op;

namespace {

/// Builds a balanced binary tree over `terms` with the associative op.
ExprPtr balanced_tree(Op op, const std::vector<ExprPtr>& terms, size_t lo,
                      size_t hi) {
  assert(lo < hi);
  if (hi - lo == 1) return terms[lo];
  const size_t mid = lo + (hi - lo + 1) / 2;
  return Expr::binary(op, balanced_tree(op, terms, lo, mid),
                      balanced_tree(op, terms, mid, hi));
}

/// Leaves of a maximal same-op chain (left-to-right order).
void chain_leaves(const ExprPtr& e, Op op, std::vector<ExprPtr>& out) {
  if (e->op() == op) {
    chain_leaves(e->arg(0), op, out);
    chain_leaves(e->arg(1), op, out);
  } else {
    out.push_back(e);
  }
}

// ---------------------------------------------------------------------------

class Commutativity final : public ExprTransform {
 public:
  std::string name() const override { return "commute"; }

 protected:
  std::vector<int> variants_at(const ExprPtr& e,
                               std::optional<Op>) const override {
    if (ir::is_commutative(e->op()) && e->num_args() == 2 &&
        !Expr::equal(e->arg(0), e->arg(1)))
      return {0};
    return {};
  }

  ExprPtr rewrite(const ExprPtr& e, int) const override {
    return Expr::binary(e->op(), e->arg(1), e->arg(0));
  }
};

class Associativity final : public ExprTransform {
 public:
  std::string name() const override { return "reassoc"; }

 protected:
  std::vector<int> variants_at(const ExprPtr& e,
                               std::optional<Op> parent) const override {
    std::vector<int> v;
    if (!ir::is_associative(e->op()) || e->num_args() != 2) return v;
    if (e->arg(0)->op() == e->op()) v.push_back(0);  // (a.b).c -> a.(b.c)
    if (e->arg(1)->op() == e->op()) v.push_back(1);  // a.(b.c) -> (a.b).c
    // Chain reshaping fires only at the chain root.
    if (parent != e->op()) {
      std::vector<ExprPtr> leaves;
      chain_leaves(e, e->op(), leaves);
      if (leaves.size() >= 3) {
        v.push_back(2);  // balance (tree height reduction, ref [8])
        v.push_back(3);  // linearize
      }
    }
    return v;
  }

  ExprPtr rewrite(const ExprPtr& e, int variant) const override {
    const Op op = e->op();
    switch (variant) {
      case 0: {
        const ExprPtr& ab = e->arg(0);
        return Expr::binary(op, ab->arg(0),
                            Expr::binary(op, ab->arg(1), e->arg(1)));
      }
      case 1: {
        const ExprPtr& bc = e->arg(1);
        return Expr::binary(op, Expr::binary(op, e->arg(0), bc->arg(0)),
                            bc->arg(1));
      }
      case 2: {
        std::vector<ExprPtr> leaves;
        chain_leaves(e, op, leaves);
        return balanced_tree(op, leaves, 0, leaves.size());
      }
      case 3: {
        std::vector<ExprPtr> leaves;
        chain_leaves(e, op, leaves);
        ExprPtr acc = leaves[0];
        for (size_t i = 1; i < leaves.size(); ++i)
          acc = Expr::binary(op, acc, leaves[i]);
        return acc;
      }
      default:
        throw Error("reassoc: bad variant");
    }
  }
};

/// Re-association over mixed +/- trees: collect signed terms and regroup.
/// This is the Example 2 rewrite, (y1+y2)-(y3+y4) -> (y1-y3)+(y2-y4):
/// regrouping changes the adder/subtracter mix the loop body demands,
/// which is exactly what a schedule-aware search can exploit.
class AddSubReassociation final : public ExprTransform {
 public:
  std::string name() const override { return "addsub"; }

 protected:
  static bool spine_op(Op op) { return op == Op::Add || op == Op::Sub; }

  static void collect(const ExprPtr& e, bool positive,
                      std::vector<std::pair<ExprPtr, bool>>& terms) {
    if (spine_op(e->op())) {
      collect(e->arg(0), positive, terms);
      collect(e->arg(1), e->op() == Op::Add ? positive : !positive, terms);
    } else {
      terms.emplace_back(e, positive);
    }
  }

  std::vector<int> variants_at(const ExprPtr& e,
                               std::optional<Op> parent) const override {
    if (!spine_op(e->op())) return {};
    if (parent && spine_op(*parent)) return {};  // chain root only
    std::vector<std::pair<ExprPtr, bool>> terms;
    collect(e, true, terms);
    if (terms.size() < 3) return {};
    return {0, 1, 2};
  }

  ExprPtr rewrite(const ExprPtr& e, int variant) const override {
    std::vector<std::pair<ExprPtr, bool>> terms;
    collect(e, true, terms);
    std::vector<ExprPtr> pos, neg;
    for (const auto& [t, is_pos] : terms) (is_pos ? pos : neg).push_back(t);

    switch (variant) {
      case 0: {
        // Pair positives with negatives into subtractions, then add.
        std::vector<ExprPtr> pieces;
        const size_t pairs = std::min(pos.size(), neg.size());
        for (size_t i = 0; i < pairs; ++i)
          pieces.push_back(Expr::binary(Op::Sub, pos[i], neg[i]));
        for (size_t i = pairs; i < pos.size(); ++i) pieces.push_back(pos[i]);
        ExprPtr acc;
        if (!pieces.empty()) {
          acc = balanced_tree(Op::Add, pieces, 0, pieces.size());
        } else {
          acc = Expr::constant(0);
        }
        for (size_t i = pairs; i < neg.size(); ++i)
          acc = Expr::binary(Op::Sub, acc, neg[i]);
        return acc;
      }
      case 1: {
        // Sum positives and negatives separately, one final subtraction.
        ExprPtr p = pos.empty() ? Expr::constant(0)
                                : balanced_tree(Op::Add, pos, 0, pos.size());
        if (neg.empty()) return p;
        ExprPtr n = balanced_tree(Op::Add, neg, 0, neg.size());
        return Expr::binary(Op::Sub, p, n);
      }
      case 2: {
        // Linear left-leaning chain: p0 + p1 ... - n0 - n1 ...
        ExprPtr acc = pos.empty() ? Expr::constant(0) : pos[0];
        for (size_t i = 1; i < pos.size(); ++i)
          acc = Expr::binary(Op::Add, acc, pos[i]);
        for (const auto& n : neg) acc = Expr::binary(Op::Sub, acc, n);
        return acc;
      }
      default:
        throw Error("addsub: bad variant");
    }
  }
};

class Distributivity final : public ExprTransform {
 public:
  std::string name() const override { return "distribute"; }

 protected:
  std::vector<int> variants_at(const ExprPtr& e,
                               std::optional<Op>) const override {
    std::vector<int> v;
    // Factoring: a*b (+|-) a*c -> a*(b (+|-) c).
    if ((e->op() == Op::Add || e->op() == Op::Sub) &&
        e->arg(0)->op() == Op::Mul && e->arg(1)->op() == Op::Mul) {
      for (int i = 0; i < 2; ++i)
        for (int j = 0; j < 2; ++j)
          if (Expr::equal(e->arg(0)->arg(static_cast<size_t>(i)),
                          e->arg(1)->arg(static_cast<size_t>(j))))
            v.push_back(i * 2 + j);
    }
    // Expansion: a*(b (+|-) c) -> a*b (+|-) a*c.
    if (e->op() == Op::Mul) {
      if (e->arg(1)->op() == Op::Add || e->arg(1)->op() == Op::Sub)
        v.push_back(10);
      if (e->arg(0)->op() == Op::Add || e->arg(0)->op() == Op::Sub)
        v.push_back(11);
    }
    return v;
  }

  ExprPtr rewrite(const ExprPtr& e, int variant) const override {
    if (variant < 4) {
      const int i = variant / 2, j = variant % 2;
      const ExprPtr common = e->arg(0)->arg(static_cast<size_t>(i));
      const ExprPtr other0 = e->arg(0)->arg(static_cast<size_t>(1 - i));
      const ExprPtr other1 = e->arg(1)->arg(static_cast<size_t>(1 - j));
      return Expr::binary(Op::Mul, common,
                          Expr::binary(e->op(), other0, other1));
    }
    if (variant == 10) {
      const ExprPtr& sum = e->arg(1);
      return Expr::binary(sum->op(),
                          Expr::binary(Op::Mul, e->arg(0), sum->arg(0)),
                          Expr::binary(Op::Mul, e->arg(0), sum->arg(1)));
    }
    if (variant == 11) {
      const ExprPtr& sum = e->arg(0);
      return Expr::binary(sum->op(),
                          Expr::binary(Op::Mul, sum->arg(0), e->arg(1)),
                          Expr::binary(Op::Mul, sum->arg(1), e->arg(1)));
    }
    throw Error("distribute: bad variant");
  }
};

class ConstantFolding final : public ExprTransform {
 public:
  std::string name() const override { return "constfold"; }

 protected:
  static bool all_const(const ExprPtr& e) {
    if (e->num_args() == 0) return e->op() == Op::Const;
    if (e->op() == Op::ArrayRead || e->op() == Op::Var) return false;
    for (const auto& a : e->args())
      if (a->op() != Op::Const) return false;
    return true;
  }

  static bool is_const(const ExprPtr& e, int64_t v) {
    return e->op() == Op::Const && e->value() == v;
  }

  std::vector<int> variants_at(const ExprPtr& e,
                               std::optional<Op>) const override {
    if (e->op() == Op::Const || e->op() == Op::Var) return {};
    if (all_const(e)) return {0};
    switch (e->op()) {
      case Op::Add:
        if (is_const(e->arg(0), 0)) return {2};
        if (is_const(e->arg(1), 0)) return {1};
        break;
      case Op::Sub:
        if (is_const(e->arg(1), 0)) return {1};
        break;
      case Op::Mul:
        if (is_const(e->arg(0), 1)) return {2};
        if (is_const(e->arg(1), 1)) return {1};
        if (is_const(e->arg(0), 0) || is_const(e->arg(1), 0)) return {3};
        break;
      case Op::Shl:
      case Op::Shr:
        if (is_const(e->arg(1), 0)) return {1};
        break;
      case Op::Select:
        if (e->arg(0)->op() == Op::Const) return {4};
        if (Expr::equal(e->arg(1), e->arg(2))) return {5};
        break;
      default:
        break;
    }
    return {};
  }

  ExprPtr rewrite(const ExprPtr& e, int variant) const override {
    switch (variant) {
      case 0: {
        int64_t v[3] = {0, 0, 0};
        for (size_t i = 0; i < e->num_args(); ++i) v[i] = e->arg(i)->value();
        return Expr::constant(ir::eval_op(e->op(), v[0], v[1], v[2]));
      }
      case 1:
        return e->arg(0);
      case 2:
        return e->arg(1);
      case 3:
        return Expr::constant(0);
      case 4:
        return e->arg(0)->value() != 0 ? e->arg(1) : e->arg(2);
      case 5:
        return e->arg(1);
      default:
        throw Error("constfold: bad variant");
    }
  }
};

}  // namespace

TransformPtr make_commutativity() { return std::make_unique<Commutativity>(); }
TransformPtr make_associativity() { return std::make_unique<Associativity>(); }
TransformPtr make_addsub_reassociation() {
  return std::make_unique<AddSubReassociation>();
}
TransformPtr make_distributivity() { return std::make_unique<Distributivity>(); }
TransformPtr make_constant_folding() {
  return std::make_unique<ConstantFolding>();
}

}  // namespace fact::xform
