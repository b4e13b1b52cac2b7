// Differential test of the IR verifier: verify::verify_function and
// verify::undefined_reads against a straightforward set-based reference
// kept here (`oracle::`), which walks every statement with a std::set of
// ids, collects every If's branch ids, and runs the must-define analysis
// over std::set<std::string>. The two must agree on the whole Report
// (check names, details, order) and on the undefined-read set for every
// candidate of the Table 2 workloads and of generated programs, for the
// same candidates after each FaultInjector corruption, and for hand-made
// malformed functions. The same holds for verify::FunctionChecks of each
// candidate against a StatementChecks, a search's store of per-statement
// results, which reuses the results of the statements the candidate shares
// with the functions added to it.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <thread>

#include "lang/parser.hpp"
#include "program_gen.hpp"
#include "test_util.hpp"
#include "util/strfmt.hpp"
#include "verify/fault_injector.hpp"
#include "verify/verify.hpp"
#include "workloads/workloads.hpp"
#include "xform/transform.hpp"

namespace fact::verify {
namespace oracle {
namespace {

void add(Report& r, const char* check, std::string detail) {
  r.issues.push_back(Issue{check, std::move(detail)});
}

void check_expr(Report& r, const ir::ExprPtr& e, int stmt_id,
                const std::set<std::string>& arrays) {
  if (!e) {
    add(r, "ir.expr-null", strfmt("statement %d holds a null expression", stmt_id));
    return;
  }
  bool has_null_arg = false;
  for (const auto& a : e->args())
    if (!a) has_null_arg = true;
  if (has_null_arg) {
    add(r, "ir.expr-null",
        strfmt("statement %d: '%s' node has a null operand", stmt_id,
               ir::op_token(e->op())));
    return;
  }
  const int want = ir::op_arity(e->op());
  if (want >= 0 && static_cast<int>(e->num_args()) != want)
    add(r, "ir.expr-arity",
        strfmt("statement %d: '%s' node has %zu operand(s), expected %d",
               stmt_id, ir::op_token(e->op()), e->num_args(), want));
  switch (e->op()) {
    case ir::Op::Var:
      if (e->name().empty())
        add(r, "ir.expr-name", strfmt("statement %d: unnamed Var node", stmt_id));
      else if (arrays.count(e->name()))
        add(r, "ir.arrays",
            strfmt("statement %d: array '%s' read as a scalar", stmt_id,
                   e->name().c_str()));
      break;
    case ir::Op::ArrayRead:
      if (e->name().empty())
        add(r, "ir.expr-name",
            strfmt("statement %d: unnamed ArrayRead node", stmt_id));
      else if (!arrays.count(e->name()))
        add(r, "ir.arrays",
            strfmt("statement %d: read of undeclared array '%s'", stmt_id,
                   e->name().c_str()));
      break;
    default:
      break;
  }
  for (const auto& a : e->args()) check_expr(r, a, stmt_id, arrays);
}

void check_stmt_shape(Report& r, const ir::Stmt& s,
                      const std::set<std::string>& arrays) {
  auto null_child = [&](const std::vector<ir::StmtPtr>& list) {
    for (const auto& c : list)
      if (!c) return true;
    return false;
  };
  if (null_child(s.then_stmts) || null_child(s.else_stmts) ||
      null_child(s.stmts)) {
    add(r, "ir.stmt-null",
        strfmt("statement %d holds a null child statement", s.id));
    return;
  }
  switch (s.kind) {
    case ir::StmtKind::Assign:
      if (s.target.empty())
        add(r, "ir.shape", strfmt("assign %d has no target", s.id));
      else if (arrays.count(s.target))
        add(r, "ir.arrays",
            strfmt("assign %d writes array name '%s' as a scalar", s.id,
                   s.target.c_str()));
      if (!s.value)
        add(r, "ir.shape", strfmt("assign %d has no value", s.id));
      if (s.index || s.cond || !s.then_stmts.empty() || !s.else_stmts.empty() ||
          !s.stmts.empty())
        add(r, "ir.shape", strfmt("assign %d carries extraneous slots", s.id));
      break;
    case ir::StmtKind::Store:
      if (!arrays.count(s.target))
        add(r, "ir.arrays",
            strfmt("store %d targets undeclared array '%s'", s.id,
                   s.target.c_str()));
      if (!s.index || !s.value)
        add(r, "ir.shape", strfmt("store %d misses index or value", s.id));
      if (s.cond || !s.then_stmts.empty() || !s.else_stmts.empty() ||
          !s.stmts.empty())
        add(r, "ir.shape", strfmt("store %d carries extraneous slots", s.id));
      break;
    case ir::StmtKind::If:
      if (!s.cond) add(r, "ir.shape", strfmt("if %d has no condition", s.id));
      if (!s.stmts.empty())
        add(r, "ir.shape", strfmt("if %d carries a block list", s.id));
      break;
    case ir::StmtKind::While:
      if (!s.cond)
        add(r, "ir.shape", strfmt("while %d has no condition", s.id));
      if (s.then_stmts.empty())
        add(r, "ir.empty-loop", strfmt("while %d has an empty body", s.id));
      if (!s.else_stmts.empty() || !s.stmts.empty())
        add(r, "ir.shape", strfmt("while %d carries extraneous lists", s.id));
      break;
    case ir::StmtKind::Block:
      if (s.cond || s.value || s.index || !s.then_stmts.empty() ||
          !s.else_stmts.empty())
        add(r, "ir.shape", strfmt("block %d carries extraneous slots", s.id));
      break;
  }
}

void collect_ids(const std::vector<ir::StmtPtr>& list, std::set<int>& out) {
  for (const auto& s : list) {
    if (!s) continue;
    out.insert(s->id);
    collect_ids(s->then_stmts, out);
    collect_ids(s->else_stmts, out);
    collect_ids(s->stmts, out);
  }
}

void scalar_reads(const ir::ExprPtr& e, std::set<std::string>& out) {
  if (!e) return;
  ir::for_each_node(e, [&](const ir::ExprPtr& n) {
    if (n->op() == ir::Op::Var) out.insert(n->name());
  });
}

void undef_walk(const std::vector<ir::StmtPtr>& list,
                std::set<std::string>& defined, std::set<std::string>& undef) {
  auto note_reads = [&](const ir::ExprPtr& e) {
    std::set<std::string> reads;
    scalar_reads(e, reads);
    for (const auto& v : reads)
      if (!defined.count(v)) undef.insert(v);
  };
  for (const auto& s : list) {
    if (!s) continue;
    switch (s->kind) {
      case ir::StmtKind::Assign:
        note_reads(s->value);
        defined.insert(s->target);
        break;
      case ir::StmtKind::Store:
        note_reads(s->index);
        note_reads(s->value);
        break;
      case ir::StmtKind::If: {
        note_reads(s->cond);
        std::set<std::string> then_def = defined;
        std::set<std::string> else_def = defined;
        undef_walk(s->then_stmts, then_def, undef);
        undef_walk(s->else_stmts, else_def, undef);
        std::set<std::string> both;
        std::set_intersection(then_def.begin(), then_def.end(),
                              else_def.begin(), else_def.end(),
                              std::inserter(both, both.begin()));
        defined = std::move(both);
        break;
      }
      case ir::StmtKind::While: {
        note_reads(s->cond);
        std::set<std::string> body_def = defined;
        undef_walk(s->then_stmts, body_def, undef);
        break;
      }
      case ir::StmtKind::Block:
        undef_walk(s->stmts, defined, undef);
        break;
    }
  }
}

std::set<std::string> undefined_reads(const ir::Function& fn) {
  std::set<std::string> defined(fn.params().begin(), fn.params().end());
  std::set<std::string> undef;
  if (fn.body()) undef_walk(fn.body()->stmts, defined, undef);
  return undef;
}

Report verify_function(const ir::Function& fn,
                       const std::set<std::string>* undef_allowed) {
  Report r;
  std::set<std::string> arrays;
  for (const auto& a : fn.arrays()) {
    if (a.size == 0)
      add(r, "ir.arrays", strfmt("array '%s' has size 0", a.name.c_str()));
    if (!arrays.insert(a.name).second)
      add(r, "ir.arrays", strfmt("duplicate array '%s'", a.name.c_str()));
  }
  std::set<std::string> params(fn.params().begin(), fn.params().end());
  if (params.size() != fn.params().size())
    add(r, "ir.params", "duplicate parameter name");
  for (const auto& p : fn.params())
    if (arrays.count(p))
      add(r, "ir.arrays", strfmt("parameter '%s' collides with an array", p.c_str()));
  for (const auto& o : fn.outputs())
    if (arrays.count(o))
      add(r, "ir.outputs", strfmt("output '%s' must be a scalar", o.c_str()));

  if (!fn.body()) {
    add(r, "ir.shape", "function has no body");
    return r;
  }
  if (fn.body()->kind != ir::StmtKind::Block)
    add(r, "ir.shape", "function body is not a Block");

  std::set<int> seen_ids;
  fn.for_each([&](const ir::Stmt& s) {
    if (s.id < 0)
      add(r, "ir.stmt-id-assigned",
          "a statement has no id (renumber/assign_fresh_ids missed it)");
    else if (!seen_ids.insert(s.id).second)
      add(r, "ir.stmt-id-unique", strfmt("statement id %d appears twice", s.id));
    check_stmt_shape(r, s, arrays);
    for (const auto* slot : s.expr_slots())
      if (*slot) check_expr(r, *slot, s.id, arrays);
  });

  fn.for_each([&](const ir::Stmt& s) {
    if (s.kind != ir::StmtKind::If) return;
    std::set<int> then_ids, else_ids;
    collect_ids(s.then_stmts, then_ids);
    collect_ids(s.else_stmts, else_ids);
    for (int id : then_ids)
      if (else_ids.count(id))
        add(r, "ir.guard-exclusion",
            strfmt("statement id %d reachable in both branches of if %d", id,
                   s.id));
  });

  if (undef_allowed) {
    for (const auto& v : undefined_reads(fn))
      if (!undef_allowed->count(v))
        add(r, "ir.def-before-use",
            strfmt("transform introduced read-before-def of '%s'", v.c_str()));
  }
  return r;
}

}  // namespace
}  // namespace oracle

namespace {

using Issues = std::vector<std::pair<std::string, std::string>>;

Issues issues(const Report& r) {
  Issues out;
  for (const Issue& i : r.issues) out.emplace_back(i.check, i.detail);
  return out;
}

/// Compares both verifiers on `f`, without and with the differential
/// def-before-use check against `allowed`, at both checking levels.
/// Returns whether the reports flagged anything.
bool same_as_oracle(const ir::Function& f,
                    const std::set<std::string>& allowed,
                    const std::string& what) {
  EXPECT_EQ(undefined_reads(f), oracle::undefined_reads(f)) << what;
  bool flagged = false;
  const std::set<std::string>* none = nullptr;
  for (const std::set<std::string>* a : {none, &allowed}) {
    const Issues want = issues(oracle::verify_function(f, a));
    for (const Level level : {Level::Fast, Level::Full})
      EXPECT_EQ(issues(verify_function(f, level, a)), want)
          << what << (a ? " (differential)" : "") << "\n" << f.str();
    flagged = flagged || !want.empty();
  }
  return flagged;
}

/// A behavior and every standard-library candidate of it.
struct Neighborhood {
  std::string name;
  ir::Function fn;
  std::set<std::string> allowed;  // fn's undefined reads
  std::vector<ir::Function> candidates;
  std::vector<std::string> labels;
};

Neighborhood neighborhood(std::string name, ir::Function fn) {
  static const xform::TransformLibrary lib = xform::TransformLibrary::standard();
  Neighborhood n{std::move(name), std::move(fn), {}, {}, {}};
  n.allowed = oracle::undefined_reads(n.fn);
  for (const xform::Candidate& c : lib.find_all(n.fn, {})) {
    try {
      n.candidates.push_back(lib.apply(n.fn, c));
      n.labels.push_back(n.name + " " + c.describe());
    } catch (const std::exception&) {
      // a candidate the transform declines at apply time
    }
  }
  return n;
}

std::vector<Neighborhood> table2_neighborhoods() {
  std::vector<Neighborhood> out;
  for (workloads::Workload& w : workloads::table2_benchmarks())
    out.push_back(neighborhood(w.name, std::move(w.fn)));
  return out;
}

std::vector<Neighborhood> generated_neighborhoods(bool with_large) {
  std::vector<Neighborhood> out;
  testgen::GenOptions concurrent;
  concurrent.concurrent_loops = true;
  const testgen::GenOptions large{14, 3, 3, 8};
  // The large shape's neighborhoods hold about 200 k statements a seed.
  const struct {
    const char* shape;
    testgen::GenOptions opts;
    uint64_t first, last;
  } shapes[] = {{"default", {}, 1, 6}, {"concurrent", concurrent, 1, 6},
                {"large", large, 3, 3}};
  for (const auto& sh : shapes) {
    if (!with_large && sh.opts.max_stmts == large.max_stmts) continue;
    for (uint64_t seed = sh.first; seed <= sh.last; ++seed)
      out.push_back(neighborhood(strfmt("%s/%llu", sh.shape,
                                        static_cast<unsigned long long>(seed)),
                                 testgen::random_program(seed, sh.opts)));
  }
  return out;
}

TEST(VerifyOracle, Table2Candidates) {
  size_t n = 0;
  for (const Neighborhood& nb : table2_neighborhoods()) {
    same_as_oracle(nb.fn, nb.allowed, nb.name);
    for (size_t i = 0; i < nb.candidates.size(); ++i, ++n)
      same_as_oracle(nb.candidates[i], nb.allowed, nb.labels[i]);
  }
  EXPECT_GT(n, 80u);
}

TEST(VerifyOracle, GeneratedProgramsAndCandidates) {
  size_t n = 0;
  for (const Neighborhood& nb : generated_neighborhoods(true)) {
    same_as_oracle(nb.fn, nb.allowed, nb.name);
    for (size_t i = 0; i < nb.candidates.size(); ++i, ++n)
      same_as_oracle(nb.candidates[i], nb.allowed, nb.labels[i]);
  }
  EXPECT_GT(n, 1000u);
}

TEST(VerifyOracle, EveryFaultClassOnCandidates) {
  static const xform::TransformLibrary inner =
      xform::TransformLibrary::standard();
  // The large shape is left out here: its neighborhood alone would
  // dominate the run six times over.
  std::vector<Neighborhood> all = table2_neighborhoods();
  for (Neighborhood& nb : generated_neighborhoods(false))
    all.push_back(std::move(nb));
  for (const FaultClass cls : all_fault_classes()) {
    FaultInjectorOptions fo;
    fo.rate = 1.0;
    fo.seed = 7;
    fo.classes = {cls};
    const FaultInjector injector(inner, fo);
    size_t flagged = 0;
    for (const Neighborhood& nb : all) {
      for (const xform::Candidate& c : inner.find_all(nb.fn, {})) {
        ir::Function g;
        try {
          g = injector.apply(nb.fn, c);
        } catch (const std::exception&) {
          continue;  // ThrowException, or a declined rewrite
        }
        if (same_as_oracle(g, nb.allowed,
                           std::string(to_string(cls)) + " " + nb.name + " " +
                               c.describe()))
          ++flagged;
      }
    }
    // The IR corruptions must actually reach the verifiers.
    if (cls == FaultClass::DuplicateStmtId || cls == FaultClass::EmptyLoopBody ||
        cls == FaultClass::UndeclaredArray || cls == FaultClass::UndefinedRead) {
      EXPECT_GT(flagged, 0u) << to_string(cls);
    }
  }
}

// ---- hand cases -----------------------------------------------------------

ir::Function parse(const std::string& src) { return lang::parse_function(src); }

const char* kBranches = R"(
B(int a, int b) {
  int m[4];
  x = 0;
  if (a > b) { x = a - b; m[0] = x; } else { x = b - a; b = m[1]; }
  while (a < b) { a = a + 1; }
  output x;
}
)";

/// The first If of `fn`, through edit(): its own fields and lists may be
/// changed, and a child through edit(child id).
ir::Stmt& first_if(ir::Function& fn) {
  int id = -1;
  fn.for_each([&](const ir::Stmt& s) {
    if (id < 0 && s.kind == ir::StmtKind::If) id = s.id;
  });
  ir::Stmt* guard = fn.edit(id);
  EXPECT_NE(guard, nullptr);
  return *guard;
}

/// The ids of the loops of `fn`, in preorder.
std::vector<int> loop_ids(const ir::Function& fn) {
  std::vector<int> ids;
  fn.for_each([&](const ir::Stmt& s) {
    if (s.kind == ir::StmtKind::While) ids.push_back(s.id);
  });
  return ids;
}

bool has_check(const ir::Function& f, const char* check) {
  for (const Issue& i : verify_function(f, Level::Fast, nullptr).issues)
    if (i.check == check) return true;
  return false;
}

TEST(VerifyOracle, IdRepeatedAcrossBranches) {
  ir::Function f = parse(kBranches);
  ir::Stmt& guard = first_if(f);
  f.edit(guard.else_stmts.back()->id)->id = guard.then_stmts.front()->id;
  same_as_oracle(f, oracle::undefined_reads(parse(kBranches)), "repeated id");
  EXPECT_TRUE(has_check(f, "ir.guard-exclusion"));
}

TEST(VerifyOracle, UnassignedIdsInBothBranches) {
  // Two id -1 statements are no repeat of a non-negative id, yet the
  // guard check still reports id -1 in both branches.
  ir::Function f = parse(kBranches);
  ir::Stmt& guard = first_if(f);
  const int then_id = guard.then_stmts.front()->id;
  const int else_id = guard.else_stmts.front()->id;
  f.edit(then_id)->id = -1;
  f.edit(else_id)->id = -1;
  same_as_oracle(f, {}, "two unassigned ids");
  EXPECT_TRUE(has_check(f, "ir.guard-exclusion"));
  EXPECT_TRUE(has_check(f, "ir.stmt-id-assigned"));
}

TEST(VerifyOracle, SharedStatementInBothBranches) {
  ir::Function f = parse(kBranches);
  ir::Stmt& guard = first_if(f);
  guard.else_stmts.push_back(guard.then_stmts.front());
  same_as_oracle(f, {}, "shared statement");
  EXPECT_TRUE(has_check(f, "ir.guard-exclusion"));
}

TEST(VerifyOracle, IdHiddenInUnwalkedList) {
  // An Assign's then list is not walked by the preorder pass, but the
  // guard check collects it: the repeat hides there.
  ir::Function f = parse(kBranches);
  ir::Stmt& guard = first_if(f);
  ir::StmtPtr hidden = ir::Stmt::assign("y", ir::Expr::constant(1));
  hidden->id = guard.else_stmts.front()->id;
  f.edit(guard.then_stmts.front()->id)->then_stmts.push_back(hidden);
  same_as_oracle(f, {}, "hidden list");
  EXPECT_TRUE(has_check(f, "ir.guard-exclusion"));
  EXPECT_TRUE(has_check(f, "ir.shape"));
}

TEST(VerifyOracle, ArrayScalarClashes) {
  ir::Function f = parse(kBranches);
  f.add_param("m");
  f.add_output("m");
  ir::Stmt& guard = first_if(f);
  guard.then_stmts.push_back(
      ir::Stmt::assign("m", ir::Expr::binary(ir::Op::Add, ir::Expr::var("m"),
                                             ir::Expr::var("zz"))));
  guard.else_stmts.push_back(ir::Stmt::store(
      "nope", ir::Expr::constant(0),
      ir::Expr::array_read("gone", ir::Expr::var("x"))));
  f.assign_fresh_ids();
  same_as_oracle(f, {"zz"}, "clashes");
  same_as_oracle(f, {}, "clashes, nothing allowed");
  EXPECT_TRUE(has_check(f, "ir.arrays"));
  EXPECT_TRUE(has_check(f, "ir.outputs"));
}

TEST(VerifyOracle, DuplicateArraysAndParameters) {
  ir::Function f = parse(kBranches);
  f.add_array(ir::ArrayDecl{"m", 4, false});
  f.add_array(ir::ArrayDecl{"z", 0, false});
  f.add_param("a");
  f.add_param("b");
  same_as_oracle(f, {}, "duplicates");
  EXPECT_TRUE(has_check(f, "ir.params"));
}

TEST(VerifyOracle, MalformedStatements) {
  const std::set<std::string> allowed =
      oracle::undefined_reads(parse(kBranches));
  {
    ir::Function f = parse(kBranches);
    first_if(f).then_stmts.push_back(nullptr);
    same_as_oracle(f, allowed, "null child");
  }
  {
    ir::Function f = parse(kBranches);
    ir::Stmt& guard = first_if(f);
    f.edit(guard.then_stmts.front()->id)->value = nullptr;
    guard.cond = nullptr;
    guard.stmts.push_back(ir::Stmt::assign("q", ir::Expr::var("a")));
    same_as_oracle(f, allowed, "missing slots");
  }
  {
    ir::Function f = parse(kBranches);
    for (const int id : loop_ids(f))
      if (ir::Stmt* loop = f.edit(id)) {
        loop->else_stmts = std::move(loop->then_stmts);
        loop->then_stmts.clear();
      }
    same_as_oracle(f, allowed, "empty loop with else list");
  }
  {
    ir::Function f = parse(kBranches);
    f.set_body(ir::Stmt::assign("x", ir::Expr::var("a")));
    same_as_oracle(f, allowed, "body not a block");
    f.set_body(nullptr);
    same_as_oracle(f, allowed, "no body");
  }
}

// ---- concurrency ----------------------------------------------------------

TEST(VerifyOracle, SharedCandidatesFromFourThreads) {
  // Candidates share every untouched subtree with their parent (and with
  // each other) through the copy-on-write IR; verifying them concurrently
  // must read the shared nodes only and give the serial reports.
  std::vector<Neighborhood> all;
  all.push_back(neighborhood("SINTRAN", workloads::by_name("SINTRAN").fn));
  for (uint64_t seed = 1014; seed <= 1016; ++seed)
    all.push_back(neighborhood(strfmt("GEN%llu", static_cast<unsigned long long>(seed)),
                               testgen::random_program(seed)));
  struct Job {
    const ir::Function* fn;
    const std::set<std::string>* allowed;
  };
  std::vector<Job> jobs;
  for (const Neighborhood& nb : all) {
    jobs.push_back({&nb.fn, &nb.allowed});
    for (const ir::Function& c : nb.candidates) jobs.push_back({&c, &nb.allowed});
  }
  std::vector<Issues> serial;
  std::vector<std::set<std::string>> serial_undef;
  for (const Job& j : jobs) {
    serial.push_back(issues(verify_function(*j.fn, Level::Fast, j.allowed)));
    serial_undef.push_back(undefined_reads(*j.fn));
  }
  constexpr size_t kThreads = 4;
  std::vector<std::vector<Issues>> got(kThreads);
  std::vector<std::vector<std::set<std::string>>> got_undef(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Every thread verifies every candidate, starting at its own offset
      // so that different threads read the same shared nodes at once.
      got[t].resize(jobs.size());
      got_undef[t].resize(jobs.size());
      for (size_t k = 0; k < jobs.size(); ++k) {
        const size_t i = (k + t * jobs.size() / kThreads) % jobs.size();
        got[t][i] = issues(verify_function(*jobs[i].fn, Level::Fast, jobs[i].allowed));
        got_undef[t][i] = undefined_reads(*jobs[i].fn);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(got[t], serial) << "thread " << t;
    EXPECT_EQ(got_undef[t], serial_undef) << "thread " << t;
  }
  EXPECT_GT(jobs.size(), 100u);
}

// ---- checks against a store --------------------------------------------------

/// A store to which `fn` was added.
StatementChecks store_of(const ir::Function& fn) {
  StatementChecks checks;
  checks.add(fn);
  return checks;
}

/// same_as_oracle for FunctionChecks of `f` against `store`.
bool same_as_oracle_against(const ir::Function& f,
                            const StatementChecks& store,
                            const std::set<std::string>& allowed,
                            const std::string& what) {
  const FunctionChecks checks(f, &store);
  EXPECT_EQ(checks.undefined_reads(), oracle::undefined_reads(f)) << what;
  bool flagged = false;
  const std::set<std::string>* none = nullptr;
  for (const std::set<std::string>* a : {none, &allowed}) {
    const Issues want = issues(oracle::verify_function(f, a));
    EXPECT_EQ(issues(checks.report(a)), want)
        << what << " against the store" << (a ? " (differential)" : "")
        << "\n" << f.str();
    flagged = flagged || !want.empty();
  }
  return flagged;
}

TEST(VerifyReuse, EveryCandidateAgainstItsParent) {
  std::vector<Neighborhood> all = table2_neighborhoods();
  for (Neighborhood& nb : generated_neighborhoods(true))
    all.push_back(std::move(nb));
  size_t n = 0, checked = 0, total = 0;
  for (const Neighborhood& nb : all) {
    const StatementChecks parent = store_of(nb.fn);
    for (size_t i = 0; i < nb.candidates.size(); ++i, ++n) {
      const ir::Function& c = nb.candidates[i];
      same_as_oracle_against(c, parent, nb.allowed, nb.labels[i]);
      checked += FunctionChecks(c, &parent).checked_statements();
      total += c.stmt_count();
    }
  }
  EXPECT_GT(n, 1000u);
  // Candidates share most of their statements with the parent.
  EXPECT_LT(checked * 2, total);
}

TEST(VerifyReuse, SecondLevelCandidates) {
  // Each first-level candidate is added to the root's store, which checks
  // only what the store does not hold; the second level reuses records of
  // the root and of every first-level candidate added so far.
  for (const Neighborhood& nb : table2_neighborhoods()) {
    StatementChecks store = store_of(nb.fn);
    for (size_t i = 0; i < nb.candidates.size(); ++i) {
      const ir::Function& c = nb.candidates[i];
      const size_t fresh = FunctionChecks(c, &store).checked_statements();
      EXPECT_EQ(store.add(c), fresh) << nb.labels[i];
      EXPECT_EQ(FunctionChecks(c, &store).checked_statements(), 0u)
          << nb.labels[i];
      const Neighborhood next = neighborhood(nb.labels[i], c.clone());
      for (size_t j = 0; j < next.candidates.size(); ++j)
        same_as_oracle_against(next.candidates[j], store, nb.allowed,
                               next.labels[j]);
    }
  }
}

TEST(VerifyReuse, EveryFaultClassAgainstTheParent) {
  static const xform::TransformLibrary inner =
      xform::TransformLibrary::standard();
  std::vector<Neighborhood> all = table2_neighborhoods();
  for (Neighborhood& nb : generated_neighborhoods(false))
    all.push_back(std::move(nb));
  std::vector<StatementChecks> parents;
  for (const Neighborhood& nb : all)
    parents.push_back(store_of(nb.fn));
  for (const FaultClass cls : all_fault_classes()) {
    FaultInjectorOptions fo;
    fo.rate = 1.0;
    fo.seed = 7;
    fo.classes = {cls};
    const FaultInjector injector(inner, fo);
    size_t flagged = 0;
    for (size_t k = 0; k < all.size(); ++k) {
      const Neighborhood& nb = all[k];
      for (const xform::Candidate& c : inner.find_all(nb.fn, {})) {
        ir::Function g;
        try {
          g = injector.apply(nb.fn, c);
        } catch (const std::exception&) {
          continue;  // ThrowException, or a declined rewrite
        }
        if (same_as_oracle_against(g, parents[k], nb.allowed,
                                   std::string(to_string(cls)) + " " +
                                       nb.name + " " + c.describe()))
          ++flagged;
      }
    }
    if (cls == FaultClass::DuplicateStmtId || cls == FaultClass::EmptyLoopBody ||
        cls == FaultClass::UndeclaredArray || cls == FaultClass::UndefinedRead) {
      EXPECT_GT(flagged, 0u) << to_string(cls);
    }
  }
}

TEST(VerifyReuse, NewIdCollidesWithALaterSharedStatement) {
  // The new first statement takes the id of the While, a shared statement
  // later in preorder: the repeat is reported there, in order.
  const ir::Function f = parse(kBranches);
  const StatementChecks parent = store_of(f);
  int loop_id = -1;
  f.for_each([&](const ir::Stmt& s) {
    if (s.kind == ir::StmtKind::While) loop_id = s.id;
  });
  ir::StmtPtr first = ir::Stmt::assign("x", ir::Expr::constant(2));
  first->id = loop_id;
  const ir::Function g = f.clone_with(f.body()->stmts.front()->id, first);
  const std::set<std::string> allowed = oracle::undefined_reads(f);
  EXPECT_TRUE(same_as_oracle_against(g, parent, allowed, "colliding id"));
  const Report r = FunctionChecks(g, &parent).report(&allowed);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.issues.front().detail,
            strfmt("statement id %d appears twice", loop_id));
  // Only the new statement and the body that holds it are checked anew.
  EXPECT_EQ(FunctionChecks(g, &parent).checked_statements(), 2u);
}

TEST(VerifyReuse, OtherDeclarationsCheckWhole) {
  // The parent reads an undeclared array; a variant that declares it must
  // not keep the parent's issue for the shared statement.
  ir::Function f = parse(kBranches);
  first_if(f).then_stmts.push_back(ir::Stmt::assign(
      "y", ir::Expr::array_read("q", ir::Expr::var("a"))));
  f.assign_fresh_ids();
  const StatementChecks parent = store_of(f);
  EXPECT_TRUE(has_check(f, "ir.arrays"));
  ir::Function g = f.clone();
  g.add_array(ir::ArrayDecl{"q", 2, false});
  same_as_oracle_against(g, parent, {}, "declared array");
  EXPECT_TRUE(FunctionChecks(g, &parent).report(nullptr).ok());
  EXPECT_EQ(FunctionChecks(g, &parent).checked_statements(),
            FunctionChecks(g).checked_statements());
  // The store does not take it.
  StatementChecks store = store_of(f);
  EXPECT_EQ(store.add(g), 0u);
  EXPECT_EQ(store.size(), f.stmt_count());
  EXPECT_TRUE(FunctionChecks(g, &store).report(nullptr).ok());
}

TEST(VerifyReuse, IndexKeepsOnlyItsFunctionsNodes) {
  // The store keys the nodes of the functions added to it and nothing
  // else: a copy that shares none of fn's nodes reuses none of fn's
  // records, and once added, its variants check as against a store of the
  // copy alone.
  const Neighborhood nb =
      neighborhood("GEN1014", testgen::random_program(1014));
  ir::Function g = unshared_copy(nb.fn);
  StatementChecks store = store_of(nb.fn);
  EXPECT_EQ(store.size(), nb.fn.stmt_count());  // the body too
  const Neighborhood copies = neighborhood("GEN1014 copy", g.clone());
  for (size_t i = 0; i < copies.candidates.size(); ++i) {
    const ir::Function& c = copies.candidates[i];
    same_as_oracle_against(c, store, nb.allowed, copies.labels[i]);
    EXPECT_EQ(FunctionChecks(c, &store).checked_statements(),
              FunctionChecks(c).checked_statements());
  }
  EXPECT_EQ(store.add(g), g.stmt_count());
  EXPECT_EQ(store.size(), 2 * nb.fn.stmt_count());
  const StatementChecks own = store_of(g);
  for (size_t i = 0; i < copies.candidates.size(); ++i) {
    const ir::Function& c = copies.candidates[i];
    same_as_oracle_against(c, store, nb.allowed, copies.labels[i]);
    EXPECT_EQ(FunctionChecks(c, &store).checked_statements(),
              FunctionChecks(c, &own).checked_statements());
  }
}

TEST(VerifyReuse, StoreServesEverySiblingOnce) {
  // What a chain of per-member indexes cannot do: after the root and two
  // sibling members are added, a candidate of one sibling reuses a
  // statement that only the other sibling introduced. Adding a function
  // the store holds checks nothing.
  const ir::Function f = parse(kBranches);
  const std::set<std::string> allowed = oracle::undefined_reads(f);
  const int first = f.body()->stmts.front()->id;
  const int loop = loop_ids(f).front();
  ir::StmtPtr only_a = ir::Stmt::if_stmt(
      ir::Expr::var("a"), {ir::Stmt::assign("x", ir::Expr::var("b"))},
      {ir::Stmt::assign("x", ir::Expr::constant(3))});
  only_a->id = 20;
  only_a->then_stmts[0]->id = 21;
  only_a->else_stmts[0]->id = 22;
  const ir::Function sibling_a = f.clone_with(first, only_a);
  ir::StmtPtr only_b = ir::Stmt::assign("a", ir::Expr::constant(1));
  only_b->id = 30;
  const ir::Function sibling_b = f.clone_with(loop, only_b);
  // sibling_b with sibling_a's first statement, the same node.
  const ir::Function cand = sibling_b.clone_with(first, only_a);
  StatementChecks store = store_of(f);
  EXPECT_EQ(store.add(sibling_a), 4u);  // the If, its children, the body
  EXPECT_EQ(store.add(sibling_b), 2u);  // the assignment and the body
  same_as_oracle_against(cand, store, allowed, "sibling's statement");
  EXPECT_EQ(FunctionChecks(cand, &store).checked_statements(), 1u);  // body
  // The root's and sibling_b's results alone, all a chain would gate
  // sibling_b's candidates against, leave sibling_a's If to check.
  StatementChecks chain = store_of(f);
  chain.add(sibling_b);
  same_as_oracle_against(cand, chain, allowed, "sibling's statement (chain)");
  EXPECT_EQ(FunctionChecks(cand, &chain).checked_statements(), 4u);
  store.add(cand);
  const size_t keys = store.size();
  for (const ir::Function* held : {&f, &sibling_a, &sibling_b, &cand})
    EXPECT_EQ(store.add(*held), 0u);
  EXPECT_EQ(store.size(), keys);
}

TEST(VerifyReuse, OneParentFromFourThreads) {
  // Candidates are checked against one store concurrently, after the root
  // and a few of them were added; the results are only read, and every
  // report is the serial one.
  const Neighborhood nb =
      neighborhood("GEN1017", testgen::random_program(1017));
  StatementChecks parent = store_of(nb.fn);
  for (size_t i = 0; i < nb.candidates.size(); i += 16)
    parent.add(nb.candidates[i]);
  std::vector<Issues> serial;
  std::vector<std::set<std::string>> serial_undef;
  for (const ir::Function& c : nb.candidates) {
    serial.push_back(issues(verify_function(c, Level::Fast, &nb.allowed)));
    serial_undef.push_back(undefined_reads(c));
  }
  constexpr size_t kThreads = 4;
  const size_t n = nb.candidates.size();
  std::vector<std::vector<Issues>> got(kThreads, std::vector<Issues>(n));
  std::vector<std::vector<std::set<std::string>>> got_undef(
      kThreads, std::vector<std::set<std::string>>(n));
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t k = 0; k < n; ++k) {
        const size_t i = (k + t * n / kThreads) % n;
        const FunctionChecks checks(nb.candidates[i], &parent);
        got[t][i] = issues(checks.report(&nb.allowed));
        got_undef[t][i] = checks.undefined_reads();
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(got[t], serial) << "thread " << t;
    EXPECT_EQ(got_undef[t], serial_undef) << "thread " << t;
  }
  EXPECT_GT(n, 50u);
}

}  // namespace
}  // namespace fact::verify
