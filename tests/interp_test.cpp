// The compiled interpreter against two references it does not share code
// with: the root profiles of the Table 2 workloads as the tree-walking
// interpreter recorded them, and a recursive evaluator written from the
// semantics comment on sim::Interpreter. Its lockstep lanes are checked
// against its serial machine: the same stimuli run one at a time.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>

#include "ir/function.hpp"
#include "obs/metrics.hpp"
#include "opt/fact.hpp"
#include "program_gen.hpp"
#include "sim/interp.hpp"
#include "sim/trace.hpp"
#include "util/error.hpp"
#include "workloads/workloads.hpp"
#include "xform/transform.hpp"

namespace fact::sim {
namespace {

using ir::Expr;
using ir::Op;
using ir::Stmt;
using ir::StmtKind;

// ---- golden root profiles --------------------------------------------------
//
// Each Table 2 workload's root profile on run_fact's default trace (the
// workload's TraceConfig, FactOptions' execution count and seed), as the
// tree-walking interpreter computed it before the instruction stream
// replaced it.

struct GoldenBranch {
  int id;
  uint64_t taken, total;
};
struct GoldenProfile {
  const char* workload;
  size_t executions;
  uint64_t steps;
  std::vector<GoldenBranch> branches;
};

const GoldenProfile kGolden[] = {
    {"GCD", 24, 957, {{1, 311, 335}, {2, 185, 311}}},
    {"FIR", 16, 7712, {{2, 256, 272}, {5, 2048, 2304}}},
    {"TEST2", 4, 10824, {{4, 800, 804}, {7, 1600, 1604}, {10, 1200, 1204}}},
    {"SINTRAN", 8, 11024, {{2, 128, 136}, {5, 2048, 2176}, {7, 960, 2048}}},
    {"IGF", 24, 912, {{5, 132, 156}, {8, 0, 132}}},
    {"PPS", 8, 16, {}},
};

TEST(GoldenProfile, Table2RootProfiles) {
  const opt::FactOptions fo;
  for (const GoldenProfile& g : kGolden) {
    const workloads::Workload w = workloads::by_name(g.workload);
    TraceConfig tc = w.trace;
    if (tc.executions == 0) tc.executions = fo.trace_executions;
    const Profile p =
        profile_function(w.fn, generate_trace(w.fn, tc, fo.seed));
    EXPECT_EQ(p.executions, g.executions) << g.workload;
    EXPECT_EQ(p.stats.steps, g.steps) << g.workload;
    ASSERT_EQ(p.stats.branches.size(), g.branches.size()) << g.workload;
    for (const GoldenBranch& b : g.branches) {
      ASSERT_TRUE(p.stats.branches.count(b.id)) << g.workload << " " << b.id;
      EXPECT_EQ(p.stats.branches.at(b.id).taken, b.taken) << g.workload;
      EXPECT_EQ(p.stats.branches.at(b.id).total, b.total) << g.workload;
    }
  }
}

// ---- differential oracle ---------------------------------------------------

/// A tree-walking evaluator of one execution, written from the semantics
/// comment on sim::Interpreter and nothing else: operands left to right,
/// both cones of every operator, only Select's chosen arm, indices wrapped
/// modulo the size, one step per statement and one more per While
/// iteration, a reset state per execution.
class Oracle {
 public:
  Oracle(const ir::Function& fn, uint64_t max_steps, RunStats& stats)
      : fn_(fn), max_steps_(max_steps), stats_(stats) {}

  Observation run(const Stimulus& in) {
    for (const auto& p : fn_.params()) {
      auto it = in.params.find(p);
      if (it != in.params.end()) scalars_[p] = it->second;
    }
    for (const auto& a : fn_.arrays()) {
      if (arrays_.count(a.name)) continue;  // the first declaration wins
      std::vector<int64_t> mem(a.size, 0);
      auto it = in.arrays.find(a.name);
      if (a.is_input && it != in.arrays.end())
        for (size_t i = 0; i < a.size && i < it->second.size(); ++i)
          mem[i] = it->second[i];
      arrays_.emplace(a.name, std::move(mem));
    }
    for (const auto& s : fn_.body()->stmts) exec(*s);
    Observation obs;
    for (const auto& o : fn_.outputs()) obs.outputs.emplace(o, scalar(o));
    obs.arrays = arrays_;
    stats_.steps += steps_;
    for (const auto& [id, b] : branches_) {
      stats_.branches[id].taken += b.taken;
      stats_.branches[id].total += b.total;
    }
    return obs;
  }

 private:
  int64_t scalar(const std::string& n) const {
    auto it = scalars_.find(n);
    return it == scalars_.end() ? 0 : it->second;
  }

  std::vector<int64_t>& memory(const std::string& n, const char* what) {
    auto it = arrays_.find(n);
    if (it == arrays_.end() || it->second.empty())
      throw Error(std::string(what) + " unknown array '" + n + "'");
    return it->second;
  }

  static size_t wrap(int64_t i, size_t n) {
    const auto m = static_cast<int64_t>(n);
    return static_cast<size_t>(((i % m) + m) % m);
  }

  int64_t eval(const Expr& e) {
    switch (e.op()) {
      case Op::Const:
        return e.value();
      case Op::Var:
        return scalar(e.name());
      case Op::ArrayRead: {
        std::vector<int64_t>& mem = memory(e.name(), "read of");
        const int64_t i = eval(*e.arg(0));
        return mem[wrap(i, mem.size())];
      }
      case Op::Select:
        return eval(*e.arg(0)) != 0 ? eval(*e.arg(1)) : eval(*e.arg(2));
      default: {
        const int64_t a = eval(*e.arg(0));
        const int64_t b = e.num_args() > 1 ? eval(*e.arg(1)) : 0;
        return ir::eval_op(e.op(), a, b);
      }
    }
  }

  void tick() {
    if (++steps_ > max_steps_)
      throw Error("interpreter exceeded step limit in '" + fn_.name() + "'");
  }

  bool branch(const Stmt& s) {
    const bool taken = eval(*s.cond) != 0;
    branches_[s.id].total++;
    if (taken) branches_[s.id].taken++;
    return taken;
  }

  void exec(const Stmt& s) {
    tick();
    switch (s.kind) {
      case StmtKind::Assign:
        scalars_[s.target] = eval(*s.value);
        break;
      case StmtKind::Store: {
        std::vector<int64_t>& mem = memory(s.target, "store to");
        const int64_t i = eval(*s.index);
        const int64_t v = eval(*s.value);
        mem[wrap(i, mem.size())] = v;
        break;
      }
      case StmtKind::If:
        for (const auto& c : branch(s) ? s.then_stmts : s.else_stmts) exec(*c);
        break;
      case StmtKind::While:
        while (branch(s)) {
          tick();
          for (const auto& c : s.then_stmts) exec(*c);
        }
        break;
      case StmtKind::Block:
        for (const auto& c : s.stmts) exec(*c);
        break;
    }
  }

  const ir::Function& fn_;
  uint64_t max_steps_;
  RunStats& stats_;
  std::map<std::string, int64_t> scalars_;
  std::map<std::string, std::vector<int64_t>> arrays_;
  std::map<int, BranchStats> branches_;
  uint64_t steps_ = 0;
};

/// What a pass over a trace produced: the observation of every execution
/// that finished, the statistics of a pass that finished, and the error
/// message of one that aborted.
struct PassResult {
  std::vector<Observation> observations;
  std::optional<RunStats> stats;
  std::string error;
};

PassResult oracle_pass(const ir::Function& fn, const Trace& trace,
                       uint64_t max_steps) {
  PassResult r;
  RunStats stats;
  try {
    for (const auto& in : trace)
      r.observations.push_back(Oracle(fn, max_steps, stats).run(in));
    r.stats = stats;
  } catch (const Error& e) {
    r.error = e.what();
  }
  return r;
}

PassResult interpreter_pass(const ir::Function& fn, const Trace& trace,
                            uint64_t max_steps) {
  PassResult r;
  Interpreter interp(fn);
  interp.set_max_steps(max_steps);
  RunStats stats;
  try {
    interp.run_trace(trace, &stats,
                     [&](size_t, std::span<const int64_t> values) {
                       r.observations.push_back(
                           interp.layout().observation(values));
                       return true;
                     });
    r.stats = stats;
  } catch (const Error& e) {
    r.error = e.what();
  }
  return r;
}

void expect_same_result(const PassResult& got, const PassResult& want,
                        const std::string& what) {
  EXPECT_EQ(got.error, want.error) << what;
  ASSERT_EQ(got.observations.size(), want.observations.size()) << what;
  for (size_t i = 0; i < want.observations.size(); ++i)
    EXPECT_EQ(got.observations[i], want.observations[i])
        << what << ", execution " << i;
  ASSERT_EQ(got.stats.has_value(), want.stats.has_value()) << what;
  if (!want.stats) return;
  EXPECT_EQ(got.stats->steps, want.stats->steps) << what;
  ASSERT_EQ(got.stats->branches.size(), want.stats->branches.size()) << what;
  for (const auto& [id, b] : want.stats->branches) {
    ASSERT_TRUE(got.stats->branches.count(id)) << what << ", stmt " << id;
    EXPECT_EQ(got.stats->branches.at(id).taken, b.taken) << what;
    EXPECT_EQ(got.stats->branches.at(id).total, b.total) << what;
  }
}

void expect_same_pass(const ir::Function& fn, const Trace& trace,
                      uint64_t max_steps, const std::string& what) {
  expect_same_result(interpreter_pass(fn, trace, max_steps),
                     oracle_pass(fn, trace, max_steps), what);
}

struct Shape {
  const char* name;
  testgen::GenOptions opts;
  size_t max_candidates;  // an evenly spaced sample past this many
};

std::vector<Shape> shapes() {
  testgen::GenOptions concurrent;
  concurrent.concurrent_loops = true;
  // A large program has hundreds of candidates of hundreds of statements.
  return {{"default", {}, SIZE_MAX},
          {"concurrent_loops", concurrent, SIZE_MAX},
          {"large", testgen::GenOptions{14, 3, 3, 8}, 12}};
}

class InterpOracle : public ::testing::TestWithParam<uint64_t> {};

// Every program and its standard-library candidates on the default step
// limit; every program also with its mean steps per execution as the
// limit, which aborts the pass wherever executions differ in length.
TEST_P(InterpOracle, MatchesRecursiveEvaluator) {
  const uint64_t seed = GetParam();
  const auto xlib = xform::TransformLibrary::standard();
  for (const Shape& shape : shapes()) {
    const ir::Function fn = testgen::random_program(seed, shape.opts);
    TraceConfig tc;
    tc.executions = 4;
    const Trace trace = generate_trace(fn, tc, seed * 13 + 1);
    const std::string what =
        std::string(shape.name) + " seed " + std::to_string(seed);
    expect_same_pass(fn, trace, 10'000'000, what);

    const PassResult full = oracle_pass(fn, trace, 10'000'000);
    ASSERT_TRUE(full.stats) << what << ": " << full.error;
    const uint64_t cut = full.stats->steps / trace.size();
    expect_same_pass(fn, trace, cut, what + " limit " + std::to_string(cut));

    const std::vector<xform::Candidate> cands = xlib.find_all(fn, {});
    const size_t stride =
        std::max<size_t>(1, cands.size() / std::min(cands.size() + 1,
                                                     shape.max_candidates));
    for (size_t i = 0; i < cands.size(); i += stride)
      expect_same_pass(xlib.apply(fn, cands[i]), trace, 10'000'000,
                       what + " " + cands[i].describe());
  }
}

INSTANTIATE_TEST_SUITE_P(Generated, InterpOracle,
                         ::testing::Range<uint64_t>(1, 61));

// ---- hand cases ------------------------------------------------------------

/// F(int a) with the given arrays and body, observing `x`.
ir::Function behavior(std::vector<ir::ArrayDecl> arrays,
                      std::vector<ir::StmtPtr> body) {
  ir::Function fn("F");
  fn.add_param("a");
  for (const auto& a : arrays) fn.add_array(a);
  fn.add_output("x");
  fn.set_body(Stmt::block(std::move(body)));
  fn.renumber();
  return fn;
}

Stimulus with_a(int64_t a) {
  Stimulus in;
  in.params = {{"a", a}};
  return in;
}

ir::ExprPtr unknown_read() {
  return Expr::array_read("zz", Expr::binary(Op::Add, Expr::var("a"),
                                             Expr::constant(1)));
}

TEST(InterpOracle, UnknownReadInUnchosenSelectArmDoesNotThrow) {
  const ir::Function fn = behavior(
      {}, {Stmt::assign("x", Expr::select(Expr::var("a"), Expr::constant(7),
                                          unknown_read()))});
  const Interpreter interp(fn);
  EXPECT_EQ(interp.run(with_a(1)).outputs.at("x"), 7);
  try {
    interp.run(with_a(0));
    ADD_FAILURE() << "the chosen arm reads an unknown array";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "read of unknown array 'zz'");
  }
  expect_same_pass(fn, {with_a(1), with_a(3), with_a(0)}, 100, "select");
}

TEST(InterpOracle, UnknownReadUnderAndOrThrowsWhenTheLeftDecides) {
  for (Op op : {Op::And, Op::Or}) {
    // a = 0 decides &&, a = 1 decides ||: the right cone still runs.
    const int64_t deciding = op == Op::And ? 0 : 1;
    const ir::Function fn = behavior(
        {}, {Stmt::assign("x", Expr::binary(op, Expr::var("a"),
                                            unknown_read()))});
    try {
      Interpreter(fn).run(with_a(deciding));
      ADD_FAILURE() << ir::op_token(op) << " skipped its right operand";
    } catch (const Error& e) {
      EXPECT_STREQ(e.what(), "read of unknown array 'zz'");
    }
    expect_same_pass(fn, {with_a(deciding)}, 100, ir::op_token(op));
  }
}

TEST(InterpOracle, IndicesWrap) {
  // x = m[a] after m[a + 7] = a, for an 8-cell and a 5-cell memory.
  for (size_t size : {size_t{8}, size_t{5}}) {
    const ir::Function fn = behavior(
        {{"m", size, false}},
        {Stmt::store("m",
                     Expr::binary(Op::Add, Expr::var("a"), Expr::constant(7)),
                     Expr::var("a")),
         Stmt::assign("x", Expr::array_read("m", Expr::var("a")))});
    const Interpreter interp(fn);
    for (int64_t a : {int64_t{-13}, int64_t{-1}, int64_t{0}, int64_t{3},
                      int64_t{41}, std::numeric_limits<int64_t>::min()}) {
      const Observation o = interp.run(with_a(a));
      const auto n = static_cast<int64_t>(size);
      const auto cell = [&](int64_t i) {
        return static_cast<size_t>(((i % n) + n) % n);
      };
      std::vector<int64_t> want(size, 0);
      want[cell(a + 7)] = a;
      EXPECT_EQ(o.arrays.at("m"), want) << size << " " << a;
      EXPECT_EQ(o.outputs.at("x"), want[cell(a)]) << size << " " << a;
    }
    expect_same_pass(fn, {with_a(-13), with_a(41), with_a(-1)}, 100, "wrap");
  }
}

TEST(InterpOracle, OversizedMemoryIsAnError) {
  // Past int32 cell offsets; truncated to 32 bits it would be 4 cells, so
  // a missing check allocates nothing large.
  const ir::Function fn =
      behavior({{"m", (size_t{1} << 32) + 4, false}},
               {Stmt::assign("x", Expr::var("a"))});
  EXPECT_THROW(Interpreter{fn}, Error);
}

TEST(InterpOracle, StepLimitIsExact) {
  // Every execution of every generated program: a limit of exactly its
  // step count passes, one less aborts.
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    const ir::Function fn = testgen::random_program(seed);
    TraceConfig tc;
    tc.executions = 3;
    for (const Stimulus& in : generate_trace(fn, tc, seed)) {
      RunStats stats;
      Interpreter interp(fn);
      interp.run(in, &stats);
      interp.set_max_steps(stats.steps);
      EXPECT_NO_THROW(interp.run(in)) << seed;
      interp.set_max_steps(stats.steps - 1);
      EXPECT_THROW(interp.run(in), Error) << seed;
    }
  }
}

TEST(InterpOracle, StepLimitComesBeforeTheStatementsError) {
  // x = a; x = zz[a + 1]; x = 0: the second statement's step is checked
  // before its read, and the third's only after it.
  const ir::Function fn = behavior(
      {}, {Stmt::assign("x", Expr::var("a")),
           Stmt::assign("x", unknown_read()),
           Stmt::assign("x", Expr::constant(0))});
  Interpreter interp(fn);
  interp.set_max_steps(1);
  try {
    interp.run(with_a(2));
    ADD_FAILURE() << "no abort";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "interpreter exceeded step limit in 'F'");
  }
  interp.set_max_steps(2);
  try {
    interp.run(with_a(2));
    ADD_FAILURE() << "no abort";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "read of unknown array 'zz'");
  }
  for (uint64_t limit : {1, 2, 3}) {
    expect_same_pass(fn, {with_a(2)}, limit,
                     "limit " + std::to_string(limit));
  }
}

// ---- lanes -----------------------------------------------------------------
//
// A trace pass runs its executions in lockstep groups and splits a group
// where its executions branch apart. Whatever the grouping, the pass must
// equal the same stimuli run one by one, each as a one-stimulus trace on
// the serial machine: the same observations, steps, branch counts, first
// abort and early stop.

uint64_t counter(const char* name) {
  return obs::Registry::global().counter(name).value();
}

/// run_trace over the whole trace, its visitor stopping after execution
/// `stop` (none if `stop` is past the end).
PassResult lane_pass(const ir::Function& fn, const Trace& trace,
                     uint64_t max_steps, size_t stop) {
  PassResult r;
  Interpreter interp(fn);
  interp.set_max_steps(max_steps);
  RunStats stats;
  try {
    const bool whole = interp.run_trace(
        trace, &stats, [&](size_t i, std::span<const int64_t> values) {
          EXPECT_EQ(i, r.observations.size());
          r.observations.push_back(interp.layout().observation(values));
          return i != stop;
        });
    EXPECT_EQ(whole, stop >= trace.size());
    if (whole) r.stats = stats;
  } catch (const Error& e) {
    r.error = e.what();
  }
  return r;
}

/// The same stimuli as one-stimulus traces, one after another, stopping
/// after execution `stop`.
PassResult one_by_one(const ir::Function& fn, const Trace& trace,
                      uint64_t max_steps, size_t stop) {
  PassResult r;
  Interpreter interp(fn);
  interp.set_max_steps(max_steps);
  RunStats stats;
  try {
    for (size_t i = 0; i < trace.size(); ++i) {
      interp.run_trace(std::span(&trace[i], 1), &stats,
                       [&](size_t, std::span<const int64_t> values) {
                         r.observations.push_back(
                             interp.layout().observation(values));
                         return true;
                       });
      if (i == stop) return r;
    }
    r.stats = stats;
  } catch (const Error& e) {
    r.error = e.what();
  }
  return r;
}

void expect_lanes_serial(const ir::Function& fn, const Trace& trace,
                         uint64_t max_steps, size_t stop,
                         const std::string& what) {
  expect_same_result(lane_pass(fn, trace, max_steps, stop),
                     one_by_one(fn, trace, max_steps, stop), what);
}

// Trace lengths that make groups short, exact, and several plus a
// remainder.
const size_t kLengths[] = {1, 3, 5, 8, 17, 33};

// Every program of InterpOracle's shapes and a sample of its candidates,
// at every length: the whole trace at the default step limit; the program
// also at its mean steps per execution as the limit, and with the visitor
// stopping halfway.
TEST(LaneOracle, MatchesOneStimulusTraces) {
  const auto xlib = xform::TransformLibrary::standard();
  const uint64_t groups = counter("fact_sim_lane_groups_total");
  const uint64_t splits = counter("fact_sim_lane_splits_total");
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    for (const Shape& shape : shapes()) {
      const ir::Function fn = testgen::random_program(seed, shape.opts);
      const std::vector<xform::Candidate> cands = xlib.find_all(fn, {});
      const size_t stride = std::max<size_t>(1, cands.size() / 4);
      for (const size_t length : kLengths) {
        TraceConfig tc;
        tc.executions = length;
        const Trace trace = generate_trace(fn, tc, seed * 7 + length);
        const std::string what = std::string(shape.name) + " seed " +
                                 std::to_string(seed) + " length " +
                                 std::to_string(length);
        expect_lanes_serial(fn, trace, 10'000'000, SIZE_MAX, what);
        expect_lanes_serial(fn, trace, 10'000'000, length / 2,
                            what + " stop " + std::to_string(length / 2));
        const PassResult full = one_by_one(fn, trace, 10'000'000, SIZE_MAX);
        ASSERT_TRUE(full.stats) << what << ": " << full.error;
        const uint64_t cut = full.stats->steps / length;
        expect_lanes_serial(fn, trace, cut, SIZE_MAX,
                            what + " limit " + std::to_string(cut));
        for (size_t i = 0; i < cands.size(); i += stride)
          expect_lanes_serial(xlib.apply(fn, cands[i]), trace, 10'000'000,
                              SIZE_MAX, what + " " + cands[i].describe());
      }
    }
  }
  // Both ways a group ends: in lockstep at Halt, and split.
  const uint64_t split = counter("fact_sim_lane_splits_total") - splits;
  EXPECT_GT(split, 0u);
  EXPECT_GT(counter("fact_sim_lane_groups_total") - groups, split);
}

Trace with_as(std::initializer_list<int64_t> as) {
  Trace t;
  for (int64_t a : as) t.push_back(with_a(a));
  return t;
}

TEST(LaneOracle, FirstMismatchEndsThePassBeforeALaterAbort) {
  // Execution 1 observes x = 2 where the reference has 1; execution 2
  // would read an unknown array, but never runs past the split.
  const ir::Function ref = behavior({}, {Stmt::assign("x", Expr::var("a"))});
  const ir::Function cand = behavior(
      {}, {Stmt::if_stmt(Expr::binary(Op::Eq, Expr::var("a"), Expr::constant(2)),
                     {Stmt::assign("x", unknown_read())},
                     {Stmt::assign("x", Expr::select(
                                            Expr::binary(Op::Eq, Expr::var("a"),
                                                         Expr::constant(1)),
                                            Expr::constant(2),
                                            Expr::var("a")))})});
  const Trace trace = with_as({0, 1, 2, 3});
  const uint64_t splits = counter("fact_sim_lane_splits_total");
  std::optional<Profile> p;
  EXPECT_NO_THROW(p = profile_if_equivalent(
                      cand, trace, reference_observations(ref, trace)));
  EXPECT_FALSE(p);
  EXPECT_EQ(counter("fact_sim_lane_splits_total") - splits, 1u);
}

TEST(LaneOracle, OnlyTheLongExecutionHitsTheStepLimit) {
  // Execution 2 never leaves its loop; executions 0 and 1 match first.
  const ir::Function fn = behavior(
      {}, {Stmt::assign("x", Expr::var("a")),
           Stmt::while_stmt(Expr::binary(Op::Eq, Expr::var("a"),
                                     Expr::constant(2)),
                        {Stmt::assign("x", Expr::binary(Op::Add,
                                                        Expr::var("x"),
                                                        Expr::constant(1)))})});
  const Trace trace = with_as({0, 1, 2, 3});
  const Trace fine = with_as({0, 1, 3, 4});
  try {
    profile_if_equivalent(fn, trace, reference_observations(fn, fine));
    ADD_FAILURE() << "no abort";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "interpreter exceeded step limit in 'F'");
  }
  // The same on a small limit, with a visitor that sees executions 0 and 1.
  expect_lanes_serial(fn, trace, 40, SIZE_MAX, "limit 40");
  const PassResult r = lane_pass(fn, trace, 40, SIZE_MAX);
  EXPECT_EQ(r.observations.size(), 2u);
  EXPECT_EQ(r.error, "interpreter exceeded step limit in 'F'");
}

TEST(LaneOracle, LanesSplitAtIfWhileExitAndSelect) {
  const auto a = [] { return Expr::var("a"); };
  const auto k = [](int64_t v) { return Expr::constant(v); };
  const auto i = [] { return Expr::var("i"); };
  struct Case {
    const char* name;
    ir::Function fn;
    Trace trace;
  };
  const Case cases[] = {
      {"if",
       behavior({}, {Stmt::if_stmt(Expr::binary(Op::Gt, a(), k(1)),
                                   {Stmt::assign("x", a())},
                                   {Stmt::assign("x", Expr::binary(
                                                          Op::Sub, k(0),
                                                          a()))})}),
       with_as({2, 2, 0, 5})},
      // Two iterations in lockstep; then executions 2 and 3 stay in the
      // loop.
      {"while exit",
       behavior({{"m", 4, false}},
                {Stmt::while_stmt(Expr::binary(Op::Lt, i(), a()),
                                  {Stmt::store("m", i(), a()),
                                   Stmt::assign("i", Expr::binary(
                                                         Op::Add, i(), k(1)))}),
                 Stmt::assign("x", i())}),
       with_as({2, 2, 3, 5})},
      // a * 3 is a live temporary across the select's jump.
      {"select",
       behavior({}, {Stmt::assign(
                        "x", Expr::binary(
                                 Op::Add, Expr::binary(Op::Mul, a(), k(3)),
                                 Expr::select(Expr::binary(Op::Gt, a(), k(1)),
                                              a(), k(7))))}),
       with_as({2, 2, 0, 5})},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const uint64_t splits = counter("fact_sim_lane_splits_total");
    Profile root;
    const Observations reference =
        reference_observations(c.fn, c.trace, &root);
    const std::optional<Profile> checked =
        profile_if_equivalent(c.fn, c.trace, reference);
    // One group each for the reference pass and the checked one.
    EXPECT_EQ(counter("fact_sim_lane_splits_total") - splits, 2u);
    const PassResult want = one_by_one(c.fn, c.trace, 10'000'000, SIZE_MAX);
    std::vector<Observation> observed;
    for (size_t e = 0; e < reference.executions; ++e)
      observed.push_back(reference.at(e));
    expect_same_result({observed, root.stats, ""}, want, "reference");
    ASSERT_TRUE(checked);
    EXPECT_EQ(checked->executions, c.trace.size());
    expect_same_result({observed, checked->stats, ""}, want, "checked");
  }
}

TEST(LaneOracle, LockstepAbortRaisesLaneZerosError) {
  // Every execution reads the unknown array on the same path.
  const ir::Function fn = behavior({}, {Stmt::assign("x", unknown_read())});
  const Trace trace = with_as({0, 1, 2, 3});
  const uint64_t groups = counter("fact_sim_lane_groups_total");
  const uint64_t splits = counter("fact_sim_lane_splits_total");
  try {
    profile_if_equivalent(fn, trace, Observations{});
    ADD_FAILURE() << "no abort";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "read of unknown array 'zz'");
  }
  EXPECT_EQ(counter("fact_sim_lane_groups_total") - groups, 1u);
  EXPECT_EQ(counter("fact_sim_lane_splits_total") - splits, 0u);
  // And the step limit, hit by all four at once.
  const ir::Function loop = behavior(
      {}, {Stmt::while_stmt(Expr::constant(1), {Stmt::assign("x", Expr::var("a"))})});
  expect_lanes_serial(loop, trace, 25, SIZE_MAX, "step limit");
  EXPECT_EQ(lane_pass(loop, trace, 25, SIZE_MAX).error,
            "interpreter exceeded step limit in 'F'");
}

}  // namespace
}  // namespace fact::sim
