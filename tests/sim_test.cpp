#include <gtest/gtest.h>

#include "lang/parser.hpp"
#include "program_gen.hpp"
#include "sim/interp.hpp"
#include "sim/trace.hpp"
#include "util/error.hpp"
#include "verify/fault_injector.hpp"
#include "xform/transform.hpp"

namespace fact::sim {
namespace {

ir::Function parse(const std::string& src) { return lang::parse_function(src); }

TEST(Interpreter, EvaluatesGcd) {
  const ir::Function fn = parse(R"(
GCD(int a, int b) {
  while (a != b) {
    if (a > b) { a = a - b; } else { b = b - a; }
  }
  output a;
}
)");
  Interpreter interp(fn);
  Stimulus in;
  in.params = {{"a", 36}, {"b", 60}};
  const Observation out = interp.run(in);
  EXPECT_EQ(out.outputs.at("a"), 12);
}

TEST(Interpreter, ArraysWrapAndPersist) {
  const ir::Function fn = parse(R"(
F(int i) {
  int x[4];
  x[i] = 7;
  int y = x[i - 4];
  output y;
}
)");
  Interpreter interp(fn);
  Stimulus in;
  in.params = {{"i", 5}};
  // x[5] wraps to x[1]; x[1] read via x[1-4] = x[-3] -> also index 1.
  EXPECT_EQ(interp.run(in).outputs.at("y"), 7);
}

TEST(Interpreter, InputArraysInitialized) {
  const ir::Function fn = parse(R"(
F() {
  input int x[3];
  int s = x[0] + x[1] + x[2];
  output s;
}
)");
  Interpreter interp(fn);
  Stimulus in;
  in.arrays["x"] = {10, 20, 30};
  EXPECT_EQ(interp.run(in).outputs.at("s"), 60);
}

TEST(Interpreter, OperatorSemantics) {
  const ir::Function fn = parse(R"(
F(int a, int b) {
  int s = (a << 2) + (b >> 1);
  int c = (a < b) + (a <= b) * 10 + (a == b) * 100 + (a != b) * 1000;
  int l = (a && b) + (a || b) * 10 + (!a) * 100;
  int n = ~a;
  int sel = a > b ? 5 : 6;
  output s; output c; output l; output n; output sel;
}
)");
  Interpreter interp(fn);
  Stimulus in;
  in.params = {{"a", 4}, {"b", 9}};
  const Observation o = interp.run(in);
  EXPECT_EQ(o.outputs.at("s"), 16 + 4);
  EXPECT_EQ(o.outputs.at("c"), 1 + 10 + 0 + 1000);
  EXPECT_EQ(o.outputs.at("l"), 1 + 10 + 0);
  EXPECT_EQ(o.outputs.at("n"), ~int64_t{4});
  EXPECT_EQ(o.outputs.at("sel"), 6);
}

TEST(Interpreter, UninitializedScalarsReadZero) {
  const ir::Function fn = parse("F() { int y = zz + 1; output y; }");
  Interpreter interp(fn);
  EXPECT_EQ(interp.run({}).outputs.at("y"), 1);
}

TEST(Interpreter, StepLimitAborts) {
  const ir::Function fn = parse("F() { int i = 0; while (i < 10) { i = i; } }");
  Interpreter interp(fn);
  interp.set_max_steps(1000);
  EXPECT_THROW(interp.run({}), Error);
}

TEST(Interpreter, BranchStatsCounted) {
  const ir::Function fn = parse(R"(
F(int n) {
  int i = 0;
  while (i < n) {
    if (i < 2) { int a = 1; } else { int b = 2; }
    i++;
  }
}
)");
  int while_id = -1, if_id = -1;
  fn.for_each([&](const ir::Stmt& s) {
    if (s.kind == ir::StmtKind::While) while_id = s.id;
    if (s.kind == ir::StmtKind::If) if_id = s.id;
  });
  Interpreter interp(fn);
  Stimulus in;
  in.params = {{"n", 10}};
  RunStats stats;
  interp.run(in, &stats);
  // While: 10 closings out of 11 evaluations.
  EXPECT_EQ(stats.branches.at(while_id).taken, 10u);
  EXPECT_EQ(stats.branches.at(while_id).total, 11u);
  // If: taken twice out of 10.
  EXPECT_EQ(stats.branches.at(if_id).taken, 2u);
  EXPECT_EQ(stats.branches.at(if_id).total, 10u);
  EXPECT_NEAR(stats.branch_prob(if_id), 0.2, 1e-9);
  EXPECT_NEAR(stats.expected_iterations(while_id), 10.0, 0.2);
}

TEST(Trace, DeterministicGeneration) {
  const ir::Function fn = parse("F(int a) { input int x[4]; output a; }");
  TraceConfig tc;
  tc.executions = 5;
  const Trace t1 = generate_trace(fn, tc, 11);
  const Trace t2 = generate_trace(fn, tc, 11);
  ASSERT_EQ(t1.size(), 5u);
  for (size_t i = 0; i < t1.size(); ++i) {
    EXPECT_EQ(t1[i].params, t2[i].params);
    EXPECT_EQ(t1[i].arrays, t2[i].arrays);
  }
  // A different seed must change the trace somewhere (values are coarse,
  // so compare the whole sequence, not just the first stimulus).
  const Trace t3 = generate_trace(fn, tc, 12);
  bool differs = false;
  for (size_t i = 0; i < t1.size(); ++i)
    if (t1[i].params != t3[i].params || t1[i].arrays != t3[i].arrays)
      differs = true;
  EXPECT_TRUE(differs);
}

TEST(Trace, RespectsSpecBounds) {
  const ir::Function fn = parse("F(int a) { output a; }");
  TraceConfig tc;
  InputSpec spec;
  spec.kind = InputSpec::Kind::Uniform;
  spec.lo = 3;
  spec.hi = 9;
  tc.params["a"] = spec;
  tc.executions = 200;
  for (const auto& s : generate_trace(fn, tc, 1)) {
    EXPECT_GE(s.params.at("a"), 3);
    EXPECT_LE(s.params.at("a"), 9);
  }
}

TEST(Trace, ConstantSpec) {
  const ir::Function fn = parse("F(int a) { output a; }");
  TraceConfig tc;
  InputSpec spec;
  spec.kind = InputSpec::Kind::Constant;
  spec.constant = 77;
  tc.params["a"] = spec;
  tc.executions = 3;
  for (const auto& s : generate_trace(fn, tc, 1))
    EXPECT_EQ(s.params.at("a"), 77);
}

TEST(Profile, AggregatesOverTrace) {
  const ir::Function fn = parse(R"(
F(int n) {
  int i = 0;
  while (i < n) { i++; }
}
)");
  TraceConfig tc;
  InputSpec spec;
  spec.kind = InputSpec::Kind::Constant;
  spec.constant = 4;
  tc.params["n"] = spec;
  tc.executions = 10;
  const Trace trace = generate_trace(fn, tc, 1);
  const Profile p = profile_function(fn, trace);
  EXPECT_EQ(p.executions, 10u);
  int while_id = -1;
  fn.for_each([&](const ir::Stmt& s) {
    if (s.kind == ir::StmtKind::While) while_id = s.id;
  });
  EXPECT_NEAR(p.expected_iterations(while_id), 4.0, 1e-9);
}

TEST(Equivalence, DetectsEqualAndUnequal) {
  const ir::Function a = parse("F(int x) { int y = x * 2; output y; }");
  const ir::Function b = parse("F(int x) { int y = x + x; output y; }");
  const ir::Function c = parse("F(int x) { int y = x + 1; output y; }");
  TraceConfig tc;
  tc.executions = 8;
  const Trace trace = generate_trace(a, tc, 3);
  EXPECT_TRUE(equivalent_on_trace(a, b, trace));
  EXPECT_FALSE(equivalent_on_trace(a, c, trace));
}

TEST(Equivalence, ComparesArrayState) {
  const ir::Function a = parse("F(int x) { int m[4]; m[0] = x; }");
  const ir::Function b = parse("F(int x) { int m[4]; m[1] = x; }");
  TraceConfig tc;
  tc.executions = 4;
  const Trace trace = generate_trace(a, tc, 3);
  EXPECT_FALSE(equivalent_on_trace(a, b, trace));
}

// ---- one checked pass: profile_if_equivalent ------------------------------
//
// The optimizer checks a candidate and profiles it in one interpreter pass
// against observations of the original recorded once. It must agree with
// the two-call pair it replaces — equivalent_on_trace(original, candidate)
// followed by profile_function(candidate) — on generated programs.

void expect_same_profile(const Profile& got, const Profile& want) {
  EXPECT_EQ(got.executions, want.executions);
  EXPECT_EQ(got.stats.steps, want.stats.steps);
  ASSERT_EQ(got.stats.branches.size(), want.stats.branches.size());
  auto g = got.stats.branches.begin();
  for (const auto& [id, w] : want.stats.branches) {
    EXPECT_EQ(g->first, id);
    EXPECT_EQ(g->second.taken, w.taken) << "stmt " << id;
    EXPECT_EQ(g->second.total, w.total) << "stmt " << id;
    ++g;
  }
}

class CheckedPass : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CheckedPass, AgreesWithProfileAndEquivalencePair) {
  const ir::Function fn = testgen::random_program(GetParam());
  TraceConfig tc;
  tc.executions = 8;
  const Trace trace = generate_trace(fn, tc, GetParam() * 31 + 5);
  Profile root;
  const Observations reference = reference_observations(fn, trace, &root);
  ASSERT_EQ(reference.size(), trace.size());
  expect_same_profile(root, profile_function(fn, trace));

  // Equivalent candidates: every rewrite the standard library offers.
  const auto xlib = xform::TransformLibrary::standard();
  const std::vector<xform::Candidate> cands = xlib.find_all(fn, {});
  int equivalent = 0;
  for (const auto& c : cands) {
    const ir::Function next = xlib.apply(fn, c);
    const std::optional<Profile> got =
        profile_if_equivalent(next, trace, reference);
    ASSERT_EQ(got.has_value(), equivalent_on_trace(fn, next, trace))
        << c.describe();
    if (!got) continue;
    equivalent++;
    expect_same_profile(*got, profile_function(next, trace));
  }

  // Mutated candidates: the injector's WrongSemantics corruption changes an
  // array cell or adds an output, so every execution observes it.
  verify::FaultInjectorOptions fo;
  fo.rate = 1.0;
  fo.seed = GetParam();
  fo.classes = {verify::FaultClass::WrongSemantics};
  const verify::FaultInjector injector(xlib, fo);
  int rejected = 0;
  for (size_t i = 0; i < cands.size() && i < 6; ++i) {
    const ir::Function bad = injector.apply(fn, cands[i]);
    const bool old_pair = equivalent_on_trace(fn, bad, trace);
    EXPECT_EQ(profile_if_equivalent(bad, trace, reference).has_value(),
              old_pair);
    if (!old_pair) rejected++;
  }
  EXPECT_EQ(rejected, injector.injected_total());
  if (!cands.empty()) {
    EXPECT_GT(equivalent, 0);
    EXPECT_GT(rejected, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Generated, CheckedPass,
                         ::testing::Range<uint64_t>(1, 13));

TEST(CheckedPass, StepLimitAbortThrowsLikeThePair) {
  const ir::Function fn = testgen::random_program(3);
  // The same program followed by a loop that never exits.
  ir::Function spin = fn.clone();
  spin.body()->stmts.push_back(ir::Stmt::while_stmt(
      ir::Expr::constant(1),
      {ir::Stmt::assign("v0", ir::Expr::var("v0"))}));
  spin.renumber();
  TraceConfig tc;
  tc.executions = 1;
  const Trace trace = generate_trace(fn, tc, 11);
  const Observations reference = reference_observations(fn, trace);
  EXPECT_THROW(equivalent_on_trace(fn, spin, trace), Error);
  EXPECT_THROW(profile_function(spin, trace), Error);
  EXPECT_THROW(profile_if_equivalent(spin, trace, reference), Error);
}

TEST(CheckedPass, ShortReferenceIsAMismatch) {
  const ir::Function fn = parse("F(int x) { int y = x * 2; output y; }");
  TraceConfig tc;
  tc.executions = 4;
  const Trace trace = generate_trace(fn, tc, 3);
  Observations reference = reference_observations(fn, trace);
  EXPECT_TRUE(profile_if_equivalent(fn, trace, reference).has_value());
  reference.pop_back();
  EXPECT_FALSE(profile_if_equivalent(fn, trace, reference).has_value());
}

}  // namespace
}  // namespace fact::sim
