// Unit tests of the deep invariant verifier (src/verify): hand-corrupted
// IR and schedules must each be flagged with the right check name, and
// legitimate designs must pass untouched. verify_stg's cases are in
// stg_test.cpp, in one table with Stg::validate's and Chain::validate's.

#include <gtest/gtest.h>

#include "lang/parser.hpp"
#include "sched/scheduler.hpp"
#include "sim/trace.hpp"
#include "verify/verify.hpp"

namespace fact::verify {
namespace {

ir::Function parse(const std::string& src) { return lang::parse_function(src); }

bool has_check(const Report& r, const std::string& name) {
  for (const auto& i : r.issues)
    if (i.check == name) return true;
  return false;
}

const char* kGcd = R"(
GCD(int a, int b) {
  while (a != b) {
    if (a > b) { a = a - b; } else { b = b - a; }
  }
  output a;
}
)";

/// Clears the body of every outermost loop of `fn`.
void empty_loops(ir::Function& fn) {
  std::vector<int> loops;
  fn.for_each([&](const ir::Stmt& s) {
    if (s.kind == ir::StmtKind::While) loops.push_back(s.id);
  });
  for (const int id : loops)
    if (ir::Stmt* loop = fn.edit(id)) loop->then_stmts.clear();
}

// ---- levels and reports -------------------------------------------------

TEST(VerifyLevel, ParsesAndRejects) {
  EXPECT_EQ(level_from_string("off"), Level::Off);
  EXPECT_EQ(level_from_string("fast"), Level::Fast);
  EXPECT_EQ(level_from_string("full"), Level::Full);
  EXPECT_THROW(level_from_string("bogus"), Error);
  EXPECT_STREQ(to_string(Level::Full), "full");
}

TEST(VerifyReport, RendersAndThrows) {
  Report ok;
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.first_check(), "");
  EXPECT_NO_THROW(check_or_throw(ok));

  Report bad;
  bad.issues.push_back({"ir.shape", "something broke"});
  bad.issues.push_back({"ir.arrays", "something else"});
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.first_check(), "ir.shape");
  EXPECT_NE(bad.str().find("ir.shape: something broke"), std::string::npos);
  try {
    check_or_throw(bad);
    FAIL() << "check_or_throw did not throw";
  } catch (const VerifyError& e) {
    EXPECT_EQ(e.report().issues.size(), 2u);
    EXPECT_NE(std::string(e.what()).find("ir.arrays"), std::string::npos);
  }
}

// ---- IR checks ----------------------------------------------------------

TEST(VerifyFunction, CleanFunctionPasses) {
  const ir::Function fn = parse(kGcd);
  EXPECT_TRUE(verify_function(fn, Level::Full).ok());
  EXPECT_TRUE(verify_function(fn, Level::Fast).ok());
}

TEST(VerifyFunction, OffSkipsEverything) {
  ir::Function fn = parse(kGcd);
  empty_loops(fn);
  EXPECT_TRUE(verify_function(fn, Level::Off).ok());
  EXPECT_FALSE(verify_function(fn, Level::Fast).ok());
}

TEST(VerifyFunction, DuplicateStmtIdFlagged) {
  ir::Function fn = parse(kGcd);
  int first_id = -1, last_id = -1;
  fn.for_each([&](const ir::Stmt& s) {
    if (first_id < 0) first_id = s.id;
    last_id = s.id;
  });
  ASSERT_NE(last_id, first_id);
  fn.edit(last_id)->id = first_id;
  const Report r = verify_function(fn, Level::Fast);
  EXPECT_TRUE(has_check(r, "ir.stmt-id-unique")) << r.str();
  // The thin ir-level validator now rejects this too.
  EXPECT_THROW(fn.validate(), Error);
}

TEST(VerifyFunction, UnassignedStmtIdFlagged) {
  ir::Function fn = parse(kGcd);
  fn.edit(fn.body()->stmts.front()->id)->id = -1;
  const Report r = verify_function(fn, Level::Fast);
  EXPECT_TRUE(has_check(r, "ir.stmt-id-assigned")) << r.str();
}

TEST(VerifyFunction, EmptyLoopBodyFlagged) {
  ir::Function fn = parse(kGcd);
  empty_loops(fn);
  const Report r = verify_function(fn, Level::Fast);
  EXPECT_TRUE(has_check(r, "ir.empty-loop")) << r.str();
}

TEST(VerifyFunction, UndeclaredArrayFlagged) {
  ir::Function fn = parse(kGcd);
  fn.edit(fn.body()->id)->stmts.push_back(ir::Stmt::assign(
      "t", ir::Expr::array_read("nope", ir::Expr::constant(0))));
  fn.assign_fresh_ids();
  const Report r = verify_function(fn, Level::Fast);
  EXPECT_TRUE(has_check(r, "ir.arrays")) << r.str();
}

TEST(VerifyFunction, GuardExclusionFlagged) {
  ir::Function fn = parse(kGcd);
  // Alias the else-branch statement's id to the then-branch statement's:
  // the same id becomes reachable under both polarities of the guard.
  const ir::Stmt* guard = nullptr;
  fn.for_each([&](const ir::Stmt& s) {
    if (s.kind == ir::StmtKind::If) guard = &s;
  });
  ASSERT_NE(guard, nullptr);
  ASSERT_FALSE(guard->then_stmts.empty());
  ASSERT_FALSE(guard->else_stmts.empty());
  fn.edit(guard->else_stmts.front()->id)->id = guard->then_stmts.front()->id;
  const Report r = verify_function(fn, Level::Fast);
  EXPECT_TRUE(has_check(r, "ir.guard-exclusion")) << r.str();
}

TEST(VerifyFunction, DifferentialDefBeforeUse) {
  ir::Function fn = parse(kGcd);
  fn.edit(fn.body()->id)->stmts.push_back(
      ir::Stmt::assign("q", ir::Expr::var("neverdef")));
  fn.assign_fresh_ids();

  // Without a baseline set the check is skipped (reading a never-written
  // register as 0 is legal hardware behavior).
  EXPECT_FALSE(has_check(verify_function(fn, Level::Full), "ir.def-before-use"));

  const std::set<std::string> empty_allowed;
  EXPECT_TRUE(has_check(verify_function(fn, Level::Full, &empty_allowed),
                        "ir.def-before-use"));

  const std::set<std::string> allowed = {"neverdef"};
  EXPECT_FALSE(has_check(verify_function(fn, Level::Full, &allowed),
                         "ir.def-before-use"));
}

TEST(UndefinedReads, BranchAndLoopMustDefineAnalysis) {
  // if (a > 0) { y = 1 } else { z = 2 }  -> neither y nor z is surely
  // defined afterwards; w = y + z reads both as maybe-undefined.
  ir::Function fn("U");
  fn.add_param("a");
  std::vector<ir::StmtPtr> then_b, else_b, body;
  then_b.push_back(ir::Stmt::assign("y", ir::Expr::constant(1)));
  else_b.push_back(ir::Stmt::assign("z", ir::Expr::constant(2)));
  body.push_back(ir::Stmt::if_stmt(
      ir::Expr::binary(ir::Op::Gt, ir::Expr::var("a"), ir::Expr::constant(0)),
      std::move(then_b), std::move(else_b)));
  body.push_back(ir::Stmt::assign(
      "w", ir::Expr::binary(ir::Op::Add, ir::Expr::var("y"),
                            ir::Expr::var("z"))));
  fn.set_body(ir::Stmt::block(std::move(body)));
  fn.add_output("w");
  const std::set<std::string> undef = undefined_reads(fn);
  EXPECT_EQ(undef, (std::set<std::string>{"y", "z"}));

  // Loop bodies may run zero times: defs inside do not reach the code
  // after the loop, but parameters are always defined.
  const ir::Function loop_fn = parse(R"(
F(int n) {
  while (n > 0) { int t = n; n = n - 1; }
  int q = t;
  output q;
}
)");
  const std::set<std::string> loop_undef = undefined_reads(loop_fn);
  EXPECT_TRUE(loop_undef.count("t"));
  EXPECT_FALSE(loop_undef.count("n"));
}

// ---- schedule legality --------------------------------------------------

// Names are string literals: an op views its names.
stg::OpInstance mk_op(std::string_view fu, int wire,
                      std::initializer_list<stg::Operand> operands = {},
                      std::string_view array = "") {
  stg::OpInstance op;
  op.fu_type = fu;
  op.op = ir::Op::Add;
  op.stmt_id = -1;  // not tied to an IR statement
  op.wire = wire;
  for (const stg::Operand& o : operands) op.operands.push_back(o);
  op.array = array;
  return op;
}

struct SchedFixture {
  ir::Function fn = parse("F(int a) { int x = a + a; output x; }");
  hlslib::Library lib = hlslib::Library::dac98();
  hlslib::Allocation alloc;
  stg::Stg g;

  SchedFixture() {
    alloc.counts = {{"a1", 1}, {"mem", 1}};
    const int s0 = g.add_state("S0");
    g.add_edge(s0, s0, 1.0, "", /*exec_boundary=*/true);
    g.set_entry(s0);
  }

  Report verify(Level level = Level::Full) const {
    return verify_schedule(fn, g, lib, alloc, level);
  }
};

TEST(VerifySchedule, ResourceOverflowFlagged) {
  SchedFixture f;
  f.g.state(0).ops.push_back(mk_op("a1", 1));
  EXPECT_TRUE(f.verify().ok());
  f.g.state(0).ops.push_back(mk_op("a1", 2));  // 2 adders, 1 allocated
  EXPECT_TRUE(has_check(f.verify(), "sched.resources"));
}

TEST(VerifySchedule, MemoryPortOverflowFlagged) {
  SchedFixture f;
  f.g.state(0).ops.push_back(mk_op("", 1, {}, "m"));
  EXPECT_TRUE(f.verify().ok());
  f.g.state(0).ops.push_back(mk_op("", 2, {}, "m"));  // 2nd port on 'm'
  EXPECT_TRUE(has_check(f.verify(), "sched.resources"));
}

TEST(VerifySchedule, MissingStmtIdFlagged) {
  SchedFixture f;
  stg::OpInstance op = mk_op("a1", 1);
  op.stmt_id = 999;  // no such statement in fn
  f.g.state(0).ops.push_back(std::move(op));
  EXPECT_TRUE(has_check(f.verify(), "sched.stmt-ids"));
}

TEST(VerifySchedule, MissingResultWireFlagged) {
  SchedFixture f;
  f.g.state(0).ops.push_back(mk_op("a1", -1));
  EXPECT_TRUE(has_check(f.verify(), "sched.wires"));
}

TEST(VerifySchedule, DuplicateWireInOneStateFlagged) {
  SchedFixture f;
  f.g.state(0).ops.push_back(mk_op("a1", 1));
  stg::OpInstance op = mk_op("", 1);  // same net driven twice this cycle
  f.g.state(0).ops.push_back(std::move(op));
  EXPECT_TRUE(has_check(f.verify(), "sched.wires"));
}

TEST(VerifySchedule, UndefinedWireOperandFlaggedAtFullOnly) {
  SchedFixture f;
  f.g.state(0).ops.push_back(mk_op(
      "a1", 1, {stg::Operand::of_wire(9), stg::Operand::of_reg("a")}));
  EXPECT_TRUE(has_check(f.verify(Level::Full), "sched.wires"));
  EXPECT_TRUE(f.verify(Level::Fast).ok());
}

TEST(VerifySchedule, ChainingOrderFlaggedOutsideRings) {
  SchedFixture f;
  // Consumer before its same-cycle producer.
  f.g.state(0).ops.push_back(mk_op("a1", 1, {stg::Operand::of_wire(2)}));
  f.g.state(0).ops.push_back(mk_op("", 2));
  EXPECT_TRUE(has_check(f.verify(), "sched.chaining"));
  // Kernel rings read the previous traversal's wires: exempt.
  f.g.state(0).ring_id = 0;
  EXPECT_FALSE(has_check(f.verify(), "sched.chaining"));
}

TEST(VerifySchedule, RealSchedulesPassAllLevels) {
  const ir::Function fn = parse(kGcd);
  sim::TraceConfig tc;
  tc.params["a"] = {sim::InputSpec::Kind::Uniform, 0, 0, 0, 1, 60, 0};
  tc.params["b"] = {sim::InputSpec::Kind::Uniform, 0, 0, 0, 1, 60, 0};
  const sim::Trace trace = sim::generate_trace(fn, tc, 5);
  const sim::Profile profile = sim::profile_function(fn, trace);
  const auto lib = hlslib::Library::dac98();
  hlslib::Allocation alloc;
  for (const auto& t : lib.types()) alloc.counts[t.name] = 2;
  for (const bool fuse : {true, false}) {
    sched::SchedOptions so;
    so.fuse_loops = fuse;
    sched::Scheduler sch(lib, alloc, hlslib::FuSelection::defaults(lib), so);
    const sched::ScheduleResult sr = sch.schedule(fn, profile);
    const Report rs = verify_stg(sr.stg, Level::Full);
    EXPECT_TRUE(rs.ok()) << rs.str();
    const Report rl = verify_schedule(fn, sr.stg, lib, alloc, Level::Full);
    EXPECT_TRUE(rl.ok()) << rl.str();
  }
}

}  // namespace
}  // namespace fact::verify
