#include <gtest/gtest.h>

#include "cdfg/cdfg.hpp"
#include "lang/parser.hpp"

namespace fact::cdfg {
namespace {

using ir::Expr;
using ir::ExprPtr;
using ir::Op;

ExprPtr v(const std::string& n) { return Expr::var(n); }
ExprPtr c(int64_t x) { return Expr::constant(x); }

size_t count_kind(const Cdfg& g, NodeKind k) {
  size_t n = 0;
  for (const auto& node : g.nodes())
    if (node.kind == k) n++;
  return n;
}

TEST(CdfgBuild, StraightLineHasNoJoins) {
  const auto fn = lang::parse_function("F(int a) { int x = a + 1; int y = x * 2; output y; }");
  const Cdfg g = Cdfg::from_function(fn);
  EXPECT_EQ(count_kind(g, NodeKind::Join), 0u);
  EXPECT_EQ(count_kind(g, NodeKind::Output), 1u);
  EXPECT_GE(count_kind(g, NodeKind::Op), 2u);
}

TEST(CdfgBuild, IfIntroducesJoinPerDivergentVar) {
  const auto fn = lang::parse_function(R"(
F(int a, int b) {
  int x = 0;
  if (a > b) { x = a; } else { x = b; }
  output x;
}
)");
  const Cdfg g = Cdfg::from_function(fn);
  EXPECT_EQ(count_kind(g, NodeKind::Join), 1u);
}

TEST(CdfgBuild, GuardsCarryPolarity) {
  const auto fn = lang::parse_function(R"(
F(int a, int b) {
  int x = 0;
  if (a > b) { x = a - b; } else { x = b - a; }
  output x;
}
)");
  const Cdfg g = Cdfg::from_function(fn);
  // Find the two subtraction ops: they must be guarded with opposite
  // polarities and recognized as mutually exclusive (the paper's +/-
  // annotation on conditional operations).
  std::vector<int> subs;
  for (size_t i = 0; i < g.size(); ++i)
    if (g.node(static_cast<int>(i)).kind == NodeKind::Op &&
        g.node(static_cast<int>(i)).op == Op::Sub)
      subs.push_back(static_cast<int>(i));
  ASSERT_EQ(subs.size(), 2u);
  EXPECT_TRUE(g.mutually_exclusive(subs[0], subs[1]));
  EXPECT_NE(g.node(subs[0]).guard_polarity, g.node(subs[1]).guard_polarity);
}

TEST(CdfgBuild, UnconditionalOpsNotExclusive) {
  const auto fn = lang::parse_function("F(int a) { int x = a + 1; int y = a - 1; output x; output y; }");
  const Cdfg g = Cdfg::from_function(fn);
  std::vector<int> ops;
  for (size_t i = 0; i < g.size(); ++i)
    if (g.node(static_cast<int>(i)).kind == NodeKind::Op)
      ops.push_back(static_cast<int>(i));
  ASSERT_GE(ops.size(), 2u);
  EXPECT_FALSE(g.mutually_exclusive(ops[0], ops[1]));
}

TEST(CdfgBuild, LoopCreatesBackEdgeJoins) {
  const auto fn = lang::parse_function(R"(
F(int n) {
  int i = 0;
  while (i < n) { i = i + 1; }
  output i;
}
)");
  const Cdfg g = Cdfg::from_function(fn);
  // i is loop-carried: one loop join with two inputs (initial + back edge).
  ASSERT_EQ(count_kind(g, NodeKind::Join), 1u);
  for (const auto& n : g.nodes()) {
    if (n.kind == NodeKind::Join) {
      EXPECT_EQ(n.data_preds.size(), 2u);
    }
  }
}

TEST(CdfgBuild, TernaryBecomesSelectNode) {
  const auto fn = lang::parse_function("F(int a) { int x = a > 0 ? a : 0 - a; output x; }");
  const Cdfg g = Cdfg::from_function(fn);
  EXPECT_EQ(count_kind(g, NodeKind::Select), 1u);
}

TEST(CdfgBuild, DotMarksControlDependencies) {
  const auto fn = lang::parse_function(R"(
F(int a) {
  int x = 0;
  if (a > 0) { x = a + 1; }
  output x;
}
)");
  const std::string dot = Cdfg::from_function(fn).dot();
  EXPECT_NE(dot.find("style=dashed"), std::string::npos);
  EXPECT_NE(dot.find("shape=diamond"), std::string::npos);  // join
}

// ---- conditions_disjoint --------------------------------------------------

TEST(Disjoint, SameConditionOppositePolarity) {
  const ExprPtr cond = Expr::binary(Op::Gt, v("a"), v("b"));
  EXPECT_TRUE(conditions_disjoint(cond, true, cond, false));
  EXPECT_FALSE(conditions_disjoint(cond, true, cond, true));
}

TEST(Disjoint, IntervalsAgainstConstants) {
  const ExprPtr lt5 = Expr::binary(Op::Lt, v("x"), c(5));
  const ExprPtr gt7 = Expr::binary(Op::Gt, v("x"), c(7));
  const ExprPtr gt3 = Expr::binary(Op::Gt, v("x"), c(3));
  EXPECT_TRUE(conditions_disjoint(lt5, true, gt7, true));
  // x < 5 and x > 3 overlap at x = 4.
  EXPECT_FALSE(conditions_disjoint(lt5, true, gt3, true));
  // Negated polarity: !(x>3) = x<=3, disjoint from x>7.
  EXPECT_TRUE(conditions_disjoint(gt3, false, gt7, true));
}

TEST(Disjoint, AdjacentBoundsTouchingIsNotDisjoint) {
  const ExprPtr le5 = Expr::binary(Op::Le, v("x"), c(5));
  const ExprPtr ge5 = Expr::binary(Op::Ge, v("x"), c(5));
  EXPECT_FALSE(conditions_disjoint(le5, true, ge5, true));  // x==5 overlaps
  const ExprPtr ge6 = Expr::binary(Op::Ge, v("x"), c(6));
  EXPECT_TRUE(conditions_disjoint(le5, true, ge6, true));
}

TEST(Disjoint, EqualityCases) {
  const ExprPtr eq3 = Expr::binary(Op::Eq, v("x"), c(3));
  const ExprPtr eq4 = Expr::binary(Op::Eq, v("x"), c(4));
  const ExprPtr ne3 = Expr::binary(Op::Ne, v("x"), c(3));
  EXPECT_TRUE(conditions_disjoint(eq3, true, eq4, true));
  EXPECT_TRUE(conditions_disjoint(eq3, true, ne3, true));
  EXPECT_FALSE(conditions_disjoint(ne3, true, eq4, true));
}

TEST(Disjoint, FlippedOperandOrder) {
  // 5 > x is x < 5.
  const ExprPtr five_gt_x = Expr::binary(Op::Gt, c(5), v("x"));
  const ExprPtr x_gt_7 = Expr::binary(Op::Gt, v("x"), c(7));
  EXPECT_TRUE(conditions_disjoint(five_gt_x, true, x_gt_7, true));
}

TEST(Disjoint, DifferentVariablesNeverDisjoint) {
  const ExprPtr a = Expr::binary(Op::Lt, v("x"), c(5));
  const ExprPtr b = Expr::binary(Op::Gt, v("y"), c(7));
  EXPECT_FALSE(conditions_disjoint(a, true, b, true));
}

TEST(Disjoint, NonComparisonIsConservative) {
  const ExprPtr a = Expr::binary(Op::Add, v("x"), c(5));
  EXPECT_FALSE(conditions_disjoint(a, true, a, true));
  // ...but identical non-comparisons with opposite polarity are disjoint.
  EXPECT_TRUE(conditions_disjoint(a, true, a, false));
}

}  // namespace
}  // namespace fact::cdfg
