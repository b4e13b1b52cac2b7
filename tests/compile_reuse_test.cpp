// Compiling a variant against a StatementCode, a search's store of
// compiled fragments, against compiling it whole: the interpreter reuses
// the store's fragment of every statement the variant shares by pointer
// with the functions added to it, and the linked program must be the one a
// compile without the store gives, instruction for instruction, with the
// same register file, layout, branch counters and error messages
// (Interpreter::listing). Covered: generated programs of three shapes with
// two levels of standard-library candidates, hand cases for a statement
// shared by both branches of an If, for declarations that differ from the
// store's and for an unknown array, a statement only a sibling introduced,
// and one store read from four threads at once.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "ir/function.hpp"
#include "program_gen.hpp"
#include "sim/interp.hpp"
#include "test_util.hpp"
#include "xform/transform.hpp"

namespace fact::sim {
namespace {

using ir::Expr;
using ir::Op;
using ir::Stmt;

const xform::TransformLibrary& library() {
  static const xform::TransformLibrary lib = xform::TransformLibrary::standard();
  return lib;
}

/// Every `stride`-th candidate of `fn` that applies.
std::vector<ir::Function> candidates(const ir::Function& fn, size_t limit) {
  const std::vector<xform::Candidate> cands = library().find_all(fn, {});
  const size_t stride =
      std::max<size_t>(1, cands.size() / std::max<size_t>(1, limit));
  std::vector<ir::Function> out;
  for (size_t i = 0; i < cands.size(); i += stride) {
    try {
      out.push_back(library().apply(fn, cands[i]));
    } catch (const std::exception&) {
      // a candidate the transform declines at apply time
    }
  }
  return out;
}

/// A store to which `fn` was added.
StatementCode store_of(const ir::Function& fn) {
  StatementCode code;
  code.add(fn);
  return code;
}

/// The listing of `fn` compiled against `store`, after checking it is the
/// listing of `fn` compiled whole. Returns the compile.
Interpreter expect_same_program(const ir::Function& fn,
                                const StatementCode& store,
                                const std::string& what) {
  Interpreter reused(fn, &store);
  const Interpreter whole(fn);
  EXPECT_EQ(reused.listing(), whole.listing()) << what << "\n" << fn.str();
  EXPECT_LE(reused.compiled_statements(), whole.compiled_statements()) << what;
  return reused;
}

struct Shape {
  const char* name;
  testgen::GenOptions opts;
  size_t first_level, second_level;  // candidates per parent, at most
};

TEST(CompileReuse, GeneratedProgramsTwoLevelsDeep) {
  testgen::GenOptions concurrent;
  concurrent.concurrent_loops = true;
  // A large program has hundreds of candidates of hundreds of statements.
  const Shape shapes[] = {{"default", {}, 16, 8},
                          {"concurrent_loops", concurrent, 16, 8},
                          {"large", testgen::GenOptions{14, 3, 3, 8}, 4, 2}};
  size_t compiled = 0, total = 0;
  for (const Shape& shape : shapes) {
    for (uint64_t seed = 1; seed <= 16; ++seed) {
      const std::string what =
          std::string(shape.name) + " seed " + std::to_string(seed);
      const ir::Function fn = testgen::random_program(seed, shape.opts);
      StatementCode code;
      EXPECT_EQ(code.add(fn), fn.stmt_count() - 1) << what;  // all but the body
      EXPECT_EQ(code.size(), fn.stmt_count() - 1) << what;
      const std::vector<ir::Function> first_level =
          candidates(fn, shape.first_level);
      for (const ir::Function& g : first_level) {
        const Interpreter first = expect_same_program(g, code, what);
        compiled += first.compiled_statements();
        total += g.stmt_count() - 1;
      }
      // The second level reuses fragments of the root and of every first
      // level candidate added, its parent's among them.
      for (const ir::Function& g : first_level) {
        // An add compiles what a compile against the store compiles.
        const size_t fresh = Interpreter(g, &code).compiled_statements();
        EXPECT_EQ(code.add(g), fresh) << what;
        EXPECT_EQ(Interpreter(g, &code).compiled_statements(), 0u) << what;
        for (const ir::Function& h : candidates(g, shape.second_level))
          expect_same_program(h, code, what + " (second level)");
      }
    }
  }
  // Candidates share most of their statements with the parent.
  EXPECT_GT(total, 1000u);
  EXPECT_LT(compiled * 2, total);
}

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

ir::ExprPtr a() { return Expr::var("a"); }
ir::ExprPtr k(int64_t v) { return Expr::constant(v); }

/// A candidate of `fn` whose top-level statement `i` is replaced by
/// `replacement` (which gets a fresh id); the rest is shared.
ir::Function replaced(const ir::Function& fn, size_t i,
                      ir::StmtPtr replacement) {
  ir::Function g =
      fn.clone_with(fn.body()->stmts[i]->id, std::move(replacement));
  g.assign_fresh_ids();
  return g;
}

TEST(CompileReuse, StatementSharedByBothBranches) {
  // One Stmt node is the last statement of both branches of an If: its
  // fragment links twice, at two places with different step runs.
  const ir::StmtPtr shared =
      Stmt::assign("x", Expr::binary(Op::Add, Expr::var("x"), k(3)));
  ir::Function fn = behavior(
      {{"m", 4, false}},
      {Stmt::assign("y", k(5)),
       Stmt::if_stmt(Expr::binary(Op::Gt, a(), k(1)),
                     {Stmt::store("m", a(), Expr::var("y")), shared},
                     {Stmt::assign("y", Expr::select(a(), k(7), k(9))), shared}),
       Stmt::assign("x", Expr::binary(Op::Mul, Expr::var("x"), Expr::var("y")))});
  const Interpreter root(fn);
  const StatementCode code = store_of(fn);
  // The function against its own fragments reuses every statement.
  const Interpreter self(fn, &code);
  EXPECT_EQ(self.listing(), root.listing());
  EXPECT_EQ(self.compiled_statements(), 0u);
  // Variants that rewrite the statements around the If.
  expect_same_program(replaced(fn, 0, Stmt::assign("z", a())), code,
                      "new first statement");
  expect_same_program(
      replaced(fn, 2, Stmt::assign("x", Expr::select(a(), a(), k(2)))), code,
      "new last statement");
  for (const ir::Function& g : candidates(fn, 64))
    expect_same_program(g, code, "candidate");
}

TEST(CompileReuse, OtherDeclarationsCompileWhole) {
  const ir::Function fn = behavior(
      {{"m", 4, false}},
      {Stmt::store("m", a(), Expr::binary(Op::Add, a(), k(1))),
       Stmt::assign("x", Expr::array_read("m", Expr::binary(Op::Sub, a(), k(1))))});
  const Interpreter root(fn);
  const StatementCode code = store_of(fn);
  // An array that sorts before m moves m's memory segment; a reused
  // fragment would still address the old one.
  ir::Function g = fn.clone();
  g.add_array(ir::ArrayDecl{"b", 3, true});
  const Interpreter reused = expect_same_program(g, code, "new array");
  EXPECT_EQ(reused.compiled_statements(), Interpreter(g).compiled_statements());
  EXPECT_EQ(reused.compiled_statements(), 2u);
  // Another parameter or output falls back too.
  ir::Function h = fn.clone();
  h.add_param("m2");
  EXPECT_EQ(expect_same_program(h, code, "new parameter").compiled_statements(),
            2u);
  ir::Function o = fn.clone();
  o.add_output("y");
  EXPECT_EQ(expect_same_program(o, code, "new output").compiled_statements(),
            2u);
  // The store takes none of them.
  StatementCode store = store_of(fn);
  for (const ir::Function* other : {&g, &h, &o}) EXPECT_EQ(store.add(*other), 0u);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(Interpreter(g, &store).compiled_statements(), 2u);
}

TEST(CompileReuse, UnknownArrayCompilesToFail) {
  const ir::ExprPtr unknown =
      Expr::array_read("zz", Expr::binary(Op::Add, a(), k(1)));
  const ir::Function fn = behavior(
      {{"m", 2, false}},
      {Stmt::assign("y", k(4)),
       Stmt::if_stmt(a(), {Stmt::assign("x", unknown)},
                     {Stmt::store("nope", k(0), a())}),
       Stmt::assign("x", Expr::binary(Op::Add, Expr::var("x"), k(4)))});
  const Interpreter root(fn);
  const StatementCode code = store_of(fn);
  EXPECT_NE(root.listing().find("read of unknown array 'zz'"), std::string::npos);
  EXPECT_NE(root.listing().find("store to unknown array 'nope'"),
            std::string::npos);
  expect_same_program(
      replaced(fn, 0, Stmt::if_stmt(a(), {Stmt::store("zz", a(), a())})), code,
      "another unknown store first");
  expect_same_program(replaced(fn, 2, Stmt::assign("x", unknown)), code,
                      "the unknown read again");
}

TEST(CompileReuse, IndexKeepsOnlyItsFunctionsNodes) {
  // The store keys the nodes of the functions added to it and nothing
  // else: a copy that shares none of fn's nodes reuses none of fn's
  // fragments, and once added, its variants compile as against a store of
  // the copy alone.
  const ir::Function fn = testgen::random_program(1014);
  const ir::Function g = unshared_copy(fn);
  StatementCode code = store_of(fn);
  const std::vector<ir::Function> variants = candidates(g, 16);
  for (const ir::Function& h : variants) {
    const Interpreter reused = expect_same_program(h, code, "foreign");
    EXPECT_EQ(reused.compiled_statements(), Interpreter(h).compiled_statements());
  }
  EXPECT_EQ(code.add(g), g.stmt_count() - 1);
  EXPECT_EQ(code.size(), 2 * (fn.stmt_count() - 1));
  const StatementCode own = store_of(g);
  for (const ir::Function& h : variants)
    EXPECT_EQ(expect_same_program(h, code, "copy added").compiled_statements(),
              Interpreter(h, &own).compiled_statements());
  // The store keeps the functions' trees: its keys outlive the functions
  // added.
  std::optional<StatementCode> kept;
  {
    const ir::Function copy = testgen::random_program(1014);
    kept.emplace(store_of(copy));
  }
  EXPECT_EQ(kept->size(), fn.stmt_count() - 1);
}

TEST(CompileReuse, StoreServesEverySiblingOnce) {
  // What a chain of per-member indexes cannot do: after the root and two
  // sibling members are added, a candidate of one sibling reuses a
  // statement that only the other sibling introduced. Adding a function
  // the store holds compiles nothing.
  const ir::Function fn = behavior(
      {{"m", 4, false}},
      {Stmt::assign("y", k(5)), Stmt::store("m", a(), Expr::var("y")),
       Stmt::assign("x", Expr::binary(Op::Mul, a(), Expr::var("y")))});
  const ir::StmtPtr only_a = Stmt::if_stmt(
      Expr::binary(Op::Gt, a(), k(1)),
      {Stmt::assign("y", Expr::binary(Op::Add, a(), k(2)))},
      {Stmt::assign("y", Expr::select(a(), k(7), k(9)))});
  const ir::Function sibling_a = replaced(fn, 0, only_a);
  ir::StmtPtr only_b = Stmt::assign("x", Expr::binary(Op::Sub, a(), k(4)));
  only_b->id = 10;  // apart from sibling_a's fresh ids
  const ir::Function sibling_b = replaced(fn, 2, only_b);
  // sibling_b with sibling_a's first statement, the same node.
  const ir::Function cand = replaced(sibling_b, 0, sibling_a.body()->stmts[0]);
  StatementCode code = store_of(fn);
  EXPECT_EQ(code.add(sibling_a), 3u);  // the If and its two children
  EXPECT_EQ(code.add(sibling_b), 1u);
  EXPECT_EQ(expect_same_program(cand, code, "sibling's statement")
                .compiled_statements(),
            0u);
  // The root's and sibling_b's fragments alone, all a chain would gate
  // sibling_b's candidates against, leave sibling_a's If to compile.
  StatementCode chain = store_of(fn);
  chain.add(sibling_b);
  EXPECT_EQ(Interpreter(cand, &chain).compiled_statements(), 3u);
  const size_t keys = code.size();
  for (const ir::Function* held : {&fn, &sibling_a, &sibling_b, &cand})
    EXPECT_EQ(code.add(*held), 0u);
  EXPECT_EQ(code.size(), keys);
}

TEST(CompileReuse, OneParentFromFourThreads) {
  // Candidates compile against one store concurrently, after the root and
  // a few of them were added; the fragments are only read, and every
  // compile is the serial one.
  const ir::Function fn = testgen::random_program(1017);
  const std::vector<ir::Function> cands = candidates(fn, SIZE_MAX);
  StatementCode code = store_of(fn);
  for (size_t i = 0; i < cands.size(); i += 16) code.add(cands[i]);
  std::vector<std::string> serial;
  for (const ir::Function& g : cands) serial.push_back(Interpreter(g).listing());
  constexpr size_t kThreads = 4;
  std::vector<std::vector<std::string>> got(kThreads,
                                            std::vector<std::string>(cands.size()));
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t n = 0; n < cands.size(); ++n) {
        const size_t i = (n + t * cands.size() / kThreads) % cands.size();
        got[t][i] = Interpreter(cands[i], &code).listing();
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (size_t t = 0; t < kThreads; ++t) EXPECT_EQ(got[t], serial) << "thread " << t;
  EXPECT_GT(cands.size(), 50u);
}

}  // namespace
}  // namespace fact::sim
