#include <gtest/gtest.h>

#include <limits>

#include "lang/parser.hpp"
#include "program_gen.hpp"
#include "rtl/plan.hpp"
#include "rtl/sim.hpp"
#include "sched/scheduler.hpp"
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
  ASSERT_EQ(reference.executions, trace.size());
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

/// `fn` with its declarations rebuilt by `edit` (the body is shared).
template <typename Edit>
ir::Function redeclared(const ir::Function& fn, Edit edit) {
  std::vector<ir::ArrayDecl> arrays = fn.arrays();
  std::vector<std::string> outputs = fn.outputs();
  edit(arrays, outputs);
  ir::Function g(fn.name());
  for (const auto& p : fn.params()) g.add_param(p);
  for (const auto& a : arrays) g.add_array(a);
  for (const auto& o : outputs) g.add_output(o);
  g.set_body(fn.body()->clone());
  return g;
}

/// `fn` followed by a loop that never exits.
ir::Function with_spin(const ir::Function& fn) {
  ir::Function spin = fn.clone();
  spin.edit(spin.body()->id)->stmts.push_back(ir::Stmt::while_stmt(
      ir::Expr::constant(1),
      {ir::Stmt::assign("v0", ir::Expr::var("v0"))}));
  spin.renumber();
  return spin;
}

TEST(CheckedPass, StepLimitAbortThrowsLikeThePair) {
  const ir::Function fn = testgen::random_program(3);
  const ir::Function spin = with_spin(fn);
  TraceConfig tc;
  tc.executions = 1;
  const Trace trace = generate_trace(fn, tc, 11);
  const Observations reference = reference_observations(fn, trace);
  EXPECT_THROW(equivalent_on_trace(fn, spin, trace), Error);
  EXPECT_THROW(profile_function(spin, trace), Error);
  EXPECT_THROW(profile_if_equivalent(spin, trace, reference), Error);
}

// A candidate that observes another layout (an extra output, a missing or
// resized array) is non-equivalent, but only once execution 0 has run: if
// it aborts there, it throws, as the pair does.
TEST(CheckedPass, OtherLayoutIsAMismatchAfterExecutionZero) {
  const ir::Function fn = testgen::random_program(3);
  ASSERT_FALSE(fn.arrays().empty());
  TraceConfig tc;
  tc.executions = 4;
  const Trace trace = generate_trace(fn, tc, 11);
  const Observations reference = reference_observations(fn, trace);
  const std::vector<ir::Function> others = {
      redeclared(fn, [](auto&, auto& outputs) { outputs.push_back("zz"); }),
      redeclared(fn, [](auto& arrays, auto&) { arrays.back().size += 1; }),
      redeclared(fn, [](auto& arrays, auto&) {
        arrays.push_back({"zz", 4, false});
      }),
  };
  for (const ir::Function& other : others) {
    EXPECT_FALSE(profile_if_equivalent(other, trace, reference).has_value());
    EXPECT_FALSE(equivalent_on_trace(fn, other, trace));
    // The missing array: the original against the candidate's reference.
    EXPECT_FALSE(profile_if_equivalent(fn, trace,
                                       reference_observations(other, trace))
                     .has_value());
    const ir::Function spin = with_spin(other);
    EXPECT_THROW(profile_if_equivalent(spin, trace, reference), Error);
    EXPECT_THROW(equivalent_on_trace(fn, spin, trace), Error);
  }
}

TEST(CheckedPass, ShortReferenceIsAMismatch) {
  const ir::Function fn = parse("F(int x) { int y = x * 2; output y; }");
  TraceConfig tc;
  tc.executions = 4;
  const Trace trace = generate_trace(fn, tc, 3);
  EXPECT_TRUE(profile_if_equivalent(fn, trace, reference_observations(fn, trace))
                  .has_value());
  const Trace shorter(trace.begin(), trace.end() - 1);
  const Observations reference = reference_observations(fn, shorter);
  EXPECT_EQ(reference.executions, shorter.size());
  EXPECT_FALSE(profile_if_equivalent(fn, trace, reference).has_value());
}

// ---- one operator table --------------------------------------------------
//
// ir::eval_op is the only definition of operator values. The interpreter,
// constant folding and the RTL simulator must each give the value spelled
// out here, on operands at the edges of int64 and of the shift range.

constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
constexpr int64_t kMax = std::numeric_limits<int64_t>::max();

/// The value `op` must have, written without ir::eval_op: arithmetic in
/// 128 bits reduced modulo 2^64, shifts as repeated doubling and floor
/// halving by the amount modulo 64.
int64_t expected_value(ir::Op op, int64_t a, int64_t b) {
  using ir::Op;
  const auto wrap = [](__int128 v) {
    return static_cast<int64_t>(static_cast<uint64_t>(
        static_cast<unsigned __int128>(v)));
  };
  const int amount = static_cast<int>(((b % 64) + 64) % 64);
  switch (op) {
    case Op::Add: return wrap(static_cast<__int128>(a) + b);
    case Op::Sub: return wrap(static_cast<__int128>(a) - b);
    case Op::Mul: return wrap(static_cast<__int128>(a) * b);
    case Op::Lt: return a < b ? 1 : 0;
    case Op::Le: return a <= b ? 1 : 0;
    case Op::Gt: return a > b ? 1 : 0;
    case Op::Ge: return a >= b ? 1 : 0;
    case Op::Eq: return a == b ? 1 : 0;
    case Op::Ne: return a != b ? 1 : 0;
    case Op::Shl: {
      __int128 v = a;
      for (int k = 0; k < amount; ++k) v = wrap(v * 2);
      return wrap(v);
    }
    case Op::Shr: {
      int64_t v = a;
      for (int k = 0; k < amount; ++k)
        v = (v < 0 && v % 2 != 0) ? (v - 1) / 2 : v / 2;
      return v;
    }
    case Op::And: return (a != 0 && b != 0) ? 1 : 0;
    case Op::Or: return (a != 0 || b != 0) ? 1 : 0;
    case Op::BitNot: return wrap(-static_cast<__int128>(a) - 1);
    case Op::Not: return a == 0 ? 1 : 0;
    default: break;
  }
  ADD_FAILURE() << "no expected value for " << ir::op_token(op);
  return 0;
}

TEST(OperatorTable, SpotValues) {
  using ir::Op;
  const struct {
    Op op;
    int64_t a, b, want;
  } cases[] = {
      {Op::Add, kMax, 1, kMin},
      {Op::Sub, kMin, 1, kMax},
      {Op::Mul, kMin, -1, kMin},
      {Op::Mul, 13, 5046075952972447127, -8187988906196393813},
      {Op::Shl, 1, 63, kMin},
      {Op::Shl, 1, 64, 1},
      {Op::Shl, 3, -1, kMin},
      {Op::Shr, kMin, 63, -1},
      {Op::Shr, kMax, 64, kMax},
      {Op::Shr, -8, -1, -1},
      {Op::BitNot, kMin, 0, kMax},
      {Op::BitNot, 0, 0, -1},
      {Op::Not, kMin, 0, 0},
      {Op::Lt, kMin, kMax, 1},
      {Op::And, kMin, 64, 1},
      {Op::Or, 0, 0, 0},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(expected_value(c.op, c.a, c.b), c.want) << ir::op_token(c.op);
    EXPECT_EQ(ir::eval_op(c.op, c.a, c.b), c.want) << ir::op_token(c.op);
  }
  EXPECT_EQ(ir::eval_op(Op::Select, kMin, 1, 2), 1);
  EXPECT_EQ(ir::eval_op(Op::Select, 0, 1, 2), 2);
  EXPECT_THROW(ir::eval_op(Op::Var, 0), Error);
  EXPECT_EQ(ir::wrap_index(kMin, 3), 1);  // -2^63 = -3 * 3074457345618258603 + 1
  EXPECT_EQ(ir::wrap_index(-1, 4), 3);
}

/// The RTL plan of `fn`, scheduled RTL-exact.
rtl::RtlPlan rtl_plan(const ir::Function& fn) {
  const auto lib = hlslib::Library::dac98();
  hlslib::Allocation alloc;
  for (const auto& t : lib.types()) alloc.counts[t.name] = 2;
  TraceConfig tc;
  tc.executions = 4;
  const Profile profile = profile_function(fn, generate_trace(fn, tc, 7));
  sched::SchedOptions so;
  so.fuse_loops = false;
  sched::Scheduler s(lib, alloc, hlslib::FuSelection::defaults(lib), so);
  const sched::ScheduleResult sr = s.schedule(fn, profile);
  EXPECT_TRUE(sr.rtl_exact);
  return rtl::build_rtl_plan(fn, sr.stg);
}

int64_t rtl_output(const ir::Function& fn, const rtl::RtlPlan& plan,
                   const Stimulus& in, const std::string& name) {
  const rtl::RtlSimResult got = rtl::simulate_rtl(fn, plan, in);
  EXPECT_TRUE(got.completed);
  return got.obs.outputs.at(name);
}

/// Constant folding of `e` as the value of `F() { r = e; output r; }`.
int64_t folded(const xform::Transform& fold, ir::ExprPtr e) {
  ir::Function fn("F");
  fn.add_output("r");
  std::vector<ir::StmtPtr> body;
  body.push_back(ir::Stmt::assign("r", std::move(e)));
  fn.set_body(ir::Stmt::block(std::move(body)));
  fn.renumber();
  const std::vector<xform::Candidate> cands = fold.find(fn, {});
  EXPECT_EQ(cands.size(), 1u);
  if (cands.empty()) return 0;
  const ir::Function g = fold.apply(fn, cands[0]);
  const ir::ExprPtr& v = g.body()->stmts[0]->value;
  EXPECT_EQ(v->op(), ir::Op::Const);
  return v->value();
}

TEST(OperatorTable, EveryEvaluatorGivesTheSameValue) {
  using ir::Op;
  const int64_t edges[] = {0, 1, -1, 63, 64, kMin, kMax};
  const auto fold = xform::make_constant_folding();
  for (Op op : {Op::Add, Op::Sub, Op::Mul, Op::Lt, Op::Le, Op::Gt, Op::Ge,
                Op::Eq, Op::Ne, Op::Shl, Op::Shr, Op::And, Op::Or}) {
    const ir::Function fn = parse(std::string("F(int a, int b) { int r = a ") +
                                  ir::op_token(op) + " b; output r; }");
    const Interpreter interp(fn);
    const rtl::RtlPlan plan = rtl_plan(fn);
    for (int64_t a : edges)
      for (int64_t b : edges) {
        const int64_t want = expected_value(op, a, b);
        Stimulus in;
        in.params = {{"a", a}, {"b", b}};
        const auto at = [&] {
          return ::testing::Message() << a << ' ' << ir::op_token(op) << ' ' << b;
        };
        EXPECT_EQ(interp.run(in).outputs.at("r"), want) << at();
        EXPECT_EQ(folded(*fold, ir::Expr::binary(op, ir::Expr::constant(a),
                                                 ir::Expr::constant(b))),
                  want)
            << at();
        EXPECT_EQ(rtl_output(fn, plan, in, "r"), want) << at();
      }
  }
  for (Op op : {Op::BitNot, Op::Not}) {
    const ir::Function fn = parse(std::string("F(int a) { int r = ") +
                                  ir::op_token(op) + "a; output r; }");
    const Interpreter interp(fn);
    const rtl::RtlPlan plan = rtl_plan(fn);
    for (int64_t a : edges) {
      const int64_t want = expected_value(op, a, 0);
      Stimulus in;
      in.params = {{"a", a}};
      EXPECT_EQ(interp.run(in).outputs.at("r"), want) << ir::op_token(op) << a;
      EXPECT_EQ(folded(*fold, ir::Expr::unary(op, ir::Expr::constant(a))), want)
          << ir::op_token(op) << a;
      EXPECT_EQ(rtl_output(fn, plan, in, "r"), want) << ir::op_token(op) << a;
    }
  }
}

// TEST1's loops multiply past 2^63; the product wraps like a hardware
// multiplier instead of being undefined.
TEST(OperatorTable, RepeatedMultiplyWraps) {
  const ir::Function fn = parse(R"(
F(int x) {
  int i = 0;
  while (i < 50) { x = x * 7; i = i + 1; }
  output x;
}
)");
  Stimulus in;
  in.params = {{"x", 1}};
  const int64_t want = -7653426353892634447;  // 7^50 mod 2^64, signed
  EXPECT_EQ(Interpreter(fn).run(in).outputs.at("x"), want);
  EXPECT_EQ(rtl_output(fn, rtl_plan(fn), in, "x"), want);
}

// ---- one machine per trace pass ------------------------------------------
//
// A pass runs every stimulus on one reused machine. Each execution must
// still start from reset, so it equals a fresh Interpreter::run.

// Reads `s` (not a parameter) and `m[1]` (not an input) before writing
// them when a > 3; the innermost If never runs on the trace below.
constexpr const char* kReadsBeforeWrites = R"(
F(int a) {
  int m[4];
  int r = 0;
  if (a > 3) {
    r = s + m[1] * 10;
    if (a > 100) {
      if (s > 0) { r = r + 1; }
    }
  }
  int s = a * 2;
  m[1] = a + 5;
  output r; output s;
}
)";

Trace stimuli(std::initializer_list<int64_t> values) {
  Trace trace;
  for (int64_t a : values) {
    Stimulus in;
    in.params = {{"a", a}};
    trace.push_back(in);
  }
  return trace;
}

TEST(MachineReuse, EachExecutionStartsFromReset) {
  const ir::Function fn = parse(kReadsBeforeWrites);
  const Trace trace = stimuli({5, 1, 7, 2, 9, 0});
  Profile fresh;
  std::vector<Observation> want;
  for (const auto& in : trace)
    want.push_back(Interpreter(fn).run(in, &fresh.stats));
  fresh.executions = trace.size();
  for (const auto& ob : want) EXPECT_EQ(ob.outputs.at("r"), 0);

  Profile profile;
  const Observations got = reference_observations(fn, trace, &profile);
  ASSERT_EQ(got.executions, want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got.at(i).outputs, want[i].outputs) << "execution " << i;
    EXPECT_EQ(got.at(i).arrays, want[i].arrays) << "execution " << i;
  }
  expect_same_profile(profile, fresh);
  expect_same_profile(profile_function(fn, trace), fresh);

  std::vector<int> ifs;
  fn.for_each([&](const ir::Stmt& s) {
    if (s.kind == ir::StmtKind::If) ifs.push_back(s.id);
  });
  ASSERT_EQ(ifs.size(), 3u);
  EXPECT_EQ(profile.stats.branches.at(ifs[1]).total, 3u);
  EXPECT_EQ(profile.stats.branches.at(ifs[1]).taken, 0u);
  EXPECT_FALSE(profile.stats.branches.count(ifs[2]));
}

TEST(MachineReuse, StepLimitIsPerExecution) {
  const ir::Function fn = parse(
      "F(int n) { int i = 0; while (i < n) { i = i + 1; } output i; }");
  const Trace trace = stimuli({3, 8, 5, 8});
  uint64_t longest = 0, total = 0;
  for (const auto& in : trace) {
    RunStats one;
    Interpreter(fn).run(in, &one);
    longest = std::max(longest, one.steps);
    total += one.steps;
  }
  ASSERT_GT(total, longest);
  const auto keep_all = [](size_t, std::span<const int64_t>) { return true; };

  Interpreter interp(fn);
  interp.set_max_steps(longest);
  RunStats stats;
  EXPECT_TRUE(interp.run_trace(trace, &stats, keep_all));
  EXPECT_EQ(stats.steps, total);

  // One execution over the limit aborts the pass; `stats` is untouched.
  interp.set_max_steps(longest - 1);
  RunStats marked;
  marked.steps = 42;
  marked.branches[99] = {1, 2};
  EXPECT_THROW(interp.run_trace(trace, &marked, keep_all), Error);
  EXPECT_THROW(interp.run(trace[1], &marked), Error);
  EXPECT_EQ(marked.steps, 42u);
  ASSERT_EQ(marked.branches.size(), 1u);
  EXPECT_EQ(marked.branches.at(99).total, 2u);

  // So does a pass its visitor stops early.
  interp.set_max_steps(longest);
  EXPECT_FALSE(interp.run_trace(trace, &marked,
                                [](size_t i, std::span<const int64_t>) {
                                  return i < 2;
                                }));
  EXPECT_EQ(marked.steps, 42u);
  EXPECT_EQ(marked.branches.size(), 1u);
}

// equivalent_on_trace runs the two behaviors side by side: on each
// execution the first, then the second, then the comparison, so whichever
// of these first aborts or differs decides the result.
TEST(Equivalence, SideBySideDecidesWhichErrorIsRaised) {
  const ir::Function spins_late =
      parse("F(int a) { while (a > 5) { a = a; } int x = a; output x; }");
  const ir::Function differs = parse("G(int a) { int x = a + 1; output x; }");
  const ir::Function spins_early =
      parse("G(int a) { while (a > 0) { a = a; } int x = a; output x; }");
  const auto error = [](const ir::Function& a, const ir::Function& b,
                        const Trace& trace) -> std::string {
    try {
      return equivalent_on_trace(a, b, trace) ? "equivalent" : "differs";
    } catch (const Error& e) {
      return e.what();
    }
  };
  EXPECT_EQ(error(spins_late, differs, stimuli({1, 9})), "differs");
  EXPECT_EQ(error(spins_late, spins_early, stimuli({1, 9})),
            "interpreter exceeded step limit in 'G'");
  EXPECT_EQ(error(spins_late, spins_early, stimuli({9, 1})),
            "interpreter exceeded step limit in 'F'");
  EXPECT_EQ(error(spins_late, spins_late, stimuli({1, 2})), "equivalent");
}

}  // namespace
}  // namespace fact::sim
