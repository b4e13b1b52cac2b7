// Select-level rewrites: the machinery that lets algebraic transforms act
// across basic-block boundaries (Section 3, Example 3). After speculation
// turns branches into select expressions, fusing and hoisting selects
// exposes patterns (such as a*b - a*c behind two joins) to distributivity,
// with mutual-exclusion checks guaranteeing functional equivalence.

#include "cdfg/cdfg.hpp"
#include "xform/expr_transform.hpp"

namespace fact::xform {

using ir::Expr;
using ir::ExprPtr;
using ir::Op;

namespace {

bool is_binary_arith(Op op) {
  switch (op) {
    case Op::Add:
    case Op::Sub:
    case Op::Mul:
    case Op::Shl:
    case Op::Shr:
      return true;
    default:
      return ir::is_comparison(op);
  }
}

/// True if c2 is exactly the complement of c1: syntactically (!c / c), or
/// provably by the conservative disjointness analysis in both polarities.
bool complementary(const ExprPtr& c1, const ExprPtr& c2) {
  if (c1->op() == Op::Not && Expr::equal(c1->arg(0), c2)) return true;
  if (c2->op() == Op::Not && Expr::equal(c2->arg(0), c1)) return true;
  return cdfg::conditions_disjoint(c1, true, c2, true) &&
         cdfg::conditions_disjoint(c1, false, c2, false);
}

/// op(select(c,x,y), select(c',u,v)) -> select(c, op(x,u), op(y,v)) when
/// the two selects are steered by the same (or complementary) condition.
/// This is the paper's transformation through two join operations: the
/// pairing of arms relies on the mutual exclusion of the cross pairs.
class SelectFusion final : public ExprTransform {
 public:
  std::string name() const override { return "select-fuse"; }

 protected:
  std::vector<int> variants_at(const ExprPtr& e,
                               std::optional<Op>) const override {
    if (!is_binary_arith(e->op()) || e->num_args() != 2) return {};
    if (e->arg(0)->op() != Op::Select || e->arg(1)->op() != Op::Select)
      return {};
    const ExprPtr& c1 = e->arg(0)->arg(0);
    const ExprPtr& c2 = e->arg(1)->arg(0);
    if (Expr::equal(c1, c2)) return {0};
    if (complementary(c1, c2)) return {1};
    return {};
  }

  ExprPtr rewrite(const ExprPtr& e, int variant) const override {
    const ExprPtr& l = e->arg(0);
    const ExprPtr& r = e->arg(1);
    const ExprPtr& c = l->arg(0);
    if (variant == 0)
      return Expr::select(c, Expr::binary(e->op(), l->arg(1), r->arg(1)),
                          Expr::binary(e->op(), l->arg(2), r->arg(2)));
    if (variant == 1)
      return Expr::select(c, Expr::binary(e->op(), l->arg(1), r->arg(2)),
                          Expr::binary(e->op(), l->arg(2), r->arg(1)));
    throw Error("select-fuse: bad variant");
  }
};

/// Hoisting: op(select(c,x,y), z) -> select(c, op(x,z), op(y,z)) (and the
/// mirrored form), plus the reverse "sinking" that merges an op duplicated
/// across both arms back below the select — the op-count-reducing
/// direction used for power optimization.
class SelectHoisting final : public ExprTransform {
 public:
  std::string name() const override { return "select-hoist"; }

 protected:
  std::vector<int> variants_at(const ExprPtr& e,
                               std::optional<Op>) const override {
    std::vector<int> v;
    if (is_binary_arith(e->op()) && e->num_args() == 2) {
      if (e->arg(0)->op() == Op::Select) v.push_back(0);
      if (e->arg(1)->op() == Op::Select) v.push_back(1);
    }
    if (e->op() == Op::Select) {
      const ExprPtr& t = e->arg(1);
      const ExprPtr& f = e->arg(2);
      if (t->op() == f->op() && is_binary_arith(t->op()) &&
          t->num_args() == 2) {
        if (Expr::equal(t->arg(1), f->arg(1))) v.push_back(10);
        if (Expr::equal(t->arg(0), f->arg(0))) v.push_back(11);
      }
    }
    return v;
  }

  ExprPtr rewrite(const ExprPtr& e, int variant) const override {
    switch (variant) {
      case 0: {
        const ExprPtr& sel = e->arg(0);
        return Expr::select(
            sel->arg(0), Expr::binary(e->op(), sel->arg(1), e->arg(1)),
            Expr::binary(e->op(), sel->arg(2), e->arg(1)));
      }
      case 1: {
        const ExprPtr& sel = e->arg(1);
        return Expr::select(
            sel->arg(0), Expr::binary(e->op(), e->arg(0), sel->arg(1)),
            Expr::binary(e->op(), e->arg(0), sel->arg(2)));
      }
      case 10: {
        const ExprPtr& t = e->arg(1);
        const ExprPtr& f = e->arg(2);
        return Expr::binary(t->op(),
                            Expr::select(e->arg(0), t->arg(0), f->arg(0)),
                            t->arg(1));
      }
      case 11: {
        const ExprPtr& t = e->arg(1);
        const ExprPtr& f = e->arg(2);
        return Expr::binary(t->op(), t->arg(0),
                            Expr::select(e->arg(0), t->arg(1), f->arg(1)));
      }
      default:
        throw Error("select-hoist: bad variant");
    }
  }
};

}  // namespace

TransformPtr make_select_fusion() { return std::make_unique<SelectFusion>(); }
TransformPtr make_select_hoisting() {
  return std::make_unique<SelectHoisting>();
}

}  // namespace fact::xform
