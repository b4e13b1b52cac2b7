#include <gtest/gtest.h>

#include <utility>

#include "ir/edit.hpp"
#include "ir/expr.hpp"
#include "ir/function.hpp"
#include "ir/hash.hpp"
#include "test_util.hpp"
#include "util/error.hpp"

namespace fact::ir {
namespace {

ExprPtr v(const std::string& n) { return Expr::var(n); }
ExprPtr c(int64_t x) { return Expr::constant(x); }

TEST(Expr, FactoriesAndAccessors) {
  ExprPtr add = Expr::binary(Op::Add, v("a"), c(3));
  EXPECT_EQ(add->op(), Op::Add);
  EXPECT_EQ(add->num_args(), 2u);
  EXPECT_EQ(add->arg(0)->name(), "a");
  EXPECT_EQ(add->arg(1)->value(), 3);
  EXPECT_EQ(add->str(), "(a + 3)");
}

TEST(Expr, ArrayReadAndSelectPrint) {
  ExprPtr e = Expr::select(Expr::binary(Op::Lt, v("i"), c(4)),
                           Expr::array_read("x", v("i")), c(0));
  EXPECT_EQ(e->str(), "((i < 4) ? x[i] : 0)");
}

TEST(Expr, StructuralEquality) {
  ExprPtr a = Expr::binary(Op::Mul, v("x"), Expr::binary(Op::Add, v("y"), c(1)));
  ExprPtr b = Expr::binary(Op::Mul, v("x"), Expr::binary(Op::Add, v("y"), c(1)));
  ExprPtr d = Expr::binary(Op::Mul, v("x"), Expr::binary(Op::Add, v("y"), c(2)));
  EXPECT_TRUE(Expr::equal(a, b));
  EXPECT_FALSE(Expr::equal(a, d));
  EXPECT_EQ(a->hash(), b->hash());
}

TEST(Expr, TreeSizeCountsNodes) {
  ExprPtr e = Expr::binary(Op::Add, Expr::binary(Op::Mul, v("a"), v("b")), c(1));
  EXPECT_EQ(e->tree_size(), 5u);
}

TEST(Expr, SubexprAtAndReplaceAt) {
  ExprPtr e = Expr::binary(Op::Sub, Expr::binary(Op::Add, v("a"), v("b")), v("z"));
  EXPECT_EQ(subexpr_at(e, {0, 1})->name(), "b");
  EXPECT_EQ(subexpr_at(e, {})->op(), Op::Sub);
  EXPECT_EQ(subexpr_at(e, {5}), nullptr);
  ExprPtr r = replace_at(e, {0, 1}, c(9));
  EXPECT_EQ(r->str(), "((a + 9) - z)");
  // Original unchanged (immutability).
  EXPECT_EQ(e->str(), "((a + b) - z)");
  EXPECT_THROW(replace_at(e, {7}, c(0)), Error);
}

TEST(Expr, NullOperandThrows) {
  EXPECT_THROW(Expr::binary(Op::Add, Expr::var("a"), nullptr), Error);
  EXPECT_THROW(Expr::unary(Op::Not, nullptr), Error);
  EXPECT_THROW(Expr::array_read("m", nullptr), Error);
  const ExprPtr sum = Expr::binary(Op::Add, Expr::var("a"), Expr::var("b"));
  EXPECT_THROW(Expr::rebuild(*sum, {Expr::var("a"), nullptr}), Error);
}

TEST(Expr, OpPredicates) {
  EXPECT_TRUE(is_commutative(Op::Add));
  EXPECT_TRUE(is_commutative(Op::Mul));
  EXPECT_FALSE(is_commutative(Op::Sub));
  EXPECT_TRUE(is_associative(Op::Add));
  EXPECT_FALSE(is_associative(Op::Sub));
  EXPECT_TRUE(is_comparison(Op::Le));
  EXPECT_FALSE(is_comparison(Op::Add));
  EXPECT_TRUE(is_boolean(Op::And));
  EXPECT_EQ(op_arity(Op::Select), 3);
  EXPECT_EQ(op_arity(Op::Var), 0);
  EXPECT_EQ(op_arity(Op::BitNot), 1);
}

TEST(Stmt, CloneIsDeepAndPreservesIds) {
  StmtPtr s = Stmt::if_stmt(
      Expr::binary(Op::Gt, v("a"), v("b")),
      make_vector(Stmt::assign("a", Expr::binary(Op::Sub, v("a"), v("b")))),
      make_vector(Stmt::assign("b", Expr::binary(Op::Sub, v("b"), v("a")))));
  s->id = 5;
  s->then_stmts[0]->id = 6;
  StmtPtr copy = s->clone();
  EXPECT_EQ(copy->id, 5);
  EXPECT_EQ(copy->then_stmts[0]->id, 6);
  // Mutating the clone leaves the original intact.
  copy->then_stmts[0]->target = "zzz";
  EXPECT_EQ(s->then_stmts[0]->target, "a");
}

TEST(Stmt, PrintingRoundTripShape) {
  StmtPtr s = Stmt::while_stmt(
      Expr::binary(Op::Ne, v("a"), v("b")),
      make_vector(Stmt::store("x", v("i"), v("a"))));
  const std::string text = s->str();
  EXPECT_NE(text.find("while ((a != b))"), std::string::npos);
  EXPECT_NE(text.find("x[i] = a;"), std::string::npos);
}

TEST(Function, RenumberAssignsPreorderIds) {
  Function f("t");
  f.set_body(Stmt::block(make_vector(
      Stmt::assign("a", c(0)),
      Stmt::while_stmt(Expr::binary(Op::Lt, v("a"), c(3)),
                       make_vector(Stmt::assign("a", Expr::binary(Op::Add, v("a"), c(1))))))));
  // Body block is id 0; children follow preorder.
  EXPECT_EQ(f.body()->id, 0);
  EXPECT_EQ(f.body()->stmts[0]->id, 1);
  EXPECT_EQ(f.body()->stmts[1]->id, 2);
  EXPECT_EQ(f.body()->stmts[1]->then_stmts[0]->id, 3);
  EXPECT_EQ(f.stmt_count(), 4u);
  EXPECT_EQ(f.max_stmt_id(), 3);
}

TEST(Function, FindStmtAndClone) {
  Function f("t");
  f.set_body(Stmt::block(make_vector(Stmt::assign("a", c(1)))));
  const Stmt* s = f.find_stmt(1);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->target, "a");
  EXPECT_EQ(f.find_stmt(99), nullptr);
  Function g = f.clone();
  EXPECT_NE(g.find_stmt(1), nullptr);
  EXPECT_EQ(g.str(), f.str());
}

TEST(Function, FindStmtTakesTheFirstOfARepeatedId) {
  // A repeated id, as the fault injector's DuplicateStmtId makes (the last
  // statement takes the id of the first, the body): find_stmt names the
  // first statement with the id in preorder, the one edit() detaches.
  Function f("t");
  f.set_body(Stmt::block(make_vector(
      Stmt::while_stmt(Expr::binary(Op::Lt, v("a"), c(3)),
                       make_vector(Stmt::assign("a", Expr::binary(Op::Add, v("a"), c(1))))),
      Stmt::assign("b", c(2)))));
  // Ids: the body 0, the loop 1, its assignment 2, the last statement 3.
  const std::string last = f.find_stmt(3)->str();
  for (const int repeated : {0, 2}) {
    Function g = f.clone();
    g.edit(3)->id = repeated;
    const Stmt* found = g.find_stmt(repeated);
    ASSERT_NE(found, nullptr);
    const std::string text = found->str();
    EXPECT_NE(text, last) << repeated;
    EXPECT_EQ(g.edit(repeated)->str(), text) << repeated;
  }
}

TEST(Function, AssignFreshIdsKeepsExisting) {
  Function f("t");
  f.set_body(Stmt::block(make_vector(Stmt::assign("a", c(1)))));
  Stmt* body = f.edit(f.body()->id);
  body->stmts.push_back(Stmt::assign("b", c(2)));  // id -1
  f.assign_fresh_ids();
  EXPECT_EQ(body->stmts[0]->id, 1);  // unchanged
  EXPECT_EQ(body->stmts[1]->id, 2);  // fresh, after max
  const auto ids = f.stmt_ids();
  EXPECT_EQ(ids.size(), 3u);
}

TEST(Function, ValidateRejectsBadPrograms) {
  {
    Function f("t");
    f.set_body(Stmt::block(make_vector(Stmt::store("nope", c(0), c(1)))));
    EXPECT_THROW(f.validate(), Error);
  }
  {
    Function f("t");
    f.add_array({"x", 4, false});
    f.set_body(Stmt::block(make_vector(Stmt::assign("x", c(1)))));
    EXPECT_THROW(f.validate(), Error);  // assignment to array name
  }
  {
    Function f("t");
    f.add_array({"x", 0, false});
    f.set_body(Stmt::block({}));
    EXPECT_THROW(f.validate(), Error);  // zero-size array
  }
  {
    Function f("t");
    f.set_body(Stmt::block(make_vector(
        Stmt::while_stmt(Expr::binary(Op::Lt, v("a"), c(1)), {}))));
    EXPECT_THROW(f.validate(), Error);  // empty loop body
  }
}

TEST(Edit, ReplaceStmtSplices) {
  Function f("t");
  f.set_body(Stmt::block(make_vector(Stmt::assign("a", c(1)),
                                     Stmt::assign("b", c(2)))));
  const int bid = f.body()->stmts[1]->id;
  std::vector<StmtPtr> repl;
  repl.push_back(Stmt::assign("c", c(3)));
  repl.push_back(Stmt::assign("d", c(4)));
  EXPECT_TRUE(replace_stmt(f, bid, std::move(repl)));
  EXPECT_EQ(f.body()->stmts.size(), 3u);
  EXPECT_EQ(f.body()->stmts[1]->target, "c");
  EXPECT_EQ(f.body()->stmts[2]->target, "d");
  EXPECT_FALSE(replace_stmt(f, 999, {}));
}

TEST(Edit, InsertBeforeNested) {
  Function f("t");
  f.set_body(Stmt::block(make_vector(Stmt::while_stmt(
      Expr::binary(Op::Lt, v("i"), c(3)),
      make_vector(Stmt::assign("i", Expr::binary(Op::Add, v("i"), c(1))))))));
  const int inner = f.body()->stmts[0]->then_stmts[0]->id;
  std::vector<StmtPtr> pre;
  pre.push_back(Stmt::assign("t", c(1)));
  EXPECT_TRUE(insert_before(f, inner, std::move(pre)));
  EXPECT_EQ(f.body()->stmts[0]->then_stmts.size(), 2u);
  EXPECT_EQ(f.body()->stmts[0]->then_stmts[0]->target, "t");
}

TEST(Edit, SubstituteReplacesVariables) {
  ExprPtr e = Expr::binary(Op::Add, v("a"), Expr::binary(Op::Mul, v("b"), v("a")));
  const std::map<std::string, ExprPtr> sub{{"a", c(7)}};
  EXPECT_EQ(substitute(e, sub)->str(), "(7 + (b * 7))");
  // No-op substitution returns the same nodes (structural sharing).
  const std::map<std::string, ExprPtr> none{{"zz", c(1)}};
  EXPECT_EQ(substitute(e, none).get(), e.get());
}

TEST(Edit, SymbolicAssignsComposesSequentially) {
  std::vector<StmtPtr> stmts;
  stmts.push_back(Stmt::assign("t", Expr::binary(Op::Add, v("a"), c(7))));
  stmts.push_back(Stmt::assign("a", Expr::binary(Op::Mul, c(13), v("t"))));
  const auto env = symbolic_assigns(stmts);
  EXPECT_EQ(env.at("a")->str(), "(13 * (a + 7))");
  EXPECT_EQ(env.at("t")->str(), "(a + 7)");
}

TEST(Edit, SymbolicAssignsRejectsControlFlow) {
  std::vector<StmtPtr> stmts;
  stmts.push_back(Stmt::while_stmt(v("a"), make_vector(Stmt::assign("a", c(0)))));
  EXPECT_THROW(symbolic_assigns(stmts), Error);
}

TEST(Edit, FreshNameAvoidsCollisions) {
  Function f("t");
  f.add_param("t_x0");
  f.set_body(Stmt::block(make_vector(Stmt::assign("t_x1", c(1)))));
  const std::string n = fresh_name(f, "x");
  EXPECT_NE(n, "t_x0");
  EXPECT_NE(n, "t_x1");
}

TEST(Edit, WrittenVarsRecursesAndDedups) {
  std::vector<StmtPtr> stmts;
  stmts.push_back(Stmt::assign("a", c(1)));
  stmts.push_back(Stmt::if_stmt(v("a"), make_vector(Stmt::assign("b", c(2)), Stmt::assign("a", c(3)))));
  const auto w = written_vars(stmts);
  EXPECT_EQ(w.size(), 2u);
}

TEST(Edit, ClearIdsRecurses) {
  std::vector<StmtPtr> stmts;
  stmts.push_back(Stmt::if_stmt(v("a"), make_vector(Stmt::assign("b", c(2)))));
  stmts[0]->id = 3;
  stmts[0]->then_stmts[0]->id = 4;
  clear_ids(stmts);
  EXPECT_EQ(stmts[0]->id, -1);
  EXPECT_EQ(stmts[0]->then_stmts[0]->id, -1);
}

// ---- structural hashing ------------------------------------------------

namespace {
// A small but representative function: params, an array, an output, and
// every statement kind (assign, store, if/else, while, nested block).
Function hash_fixture() {
  Function f("hf");
  f.add_param("n");
  f.add_array({"mem", 8, true});
  f.add_output("s");
  f.set_body(Stmt::block(make_vector(
      Stmt::assign("i", c(0)), Stmt::assign("s", c(0)),
      Stmt::while_stmt(
          Expr::binary(Op::Lt, v("i"), v("n")),
          make_vector(
              Stmt::if_stmt(Expr::binary(Op::Gt, v("i"), c(2)),
                            make_vector(Stmt::store("mem", v("i"), v("s"))),
                            make_vector(Stmt::assign("s", c(7)))),
              Stmt::assign("s",
                           Expr::binary(Op::Add, v("s"),
                                        Expr::array_read("mem", v("i")))),
              Stmt::assign("i", Expr::binary(Op::Add, v("i"), c(1))))))));
  f.renumber();
  return f;
}

void bump_ids(Function& f) {
  for (int id : f.stmt_ids()) f.edit(id)->id += 100;
}
}  // namespace

TEST(StructuralHash, EqualFunctionsHashEqual) {
  const Function a = hash_fixture();
  const Function b = hash_fixture();
  EXPECT_EQ(structural_hash(a), structural_hash(b));
  EXPECT_EQ(structural_hash(a), structural_hash(a.clone()));
}

TEST(StructuralHash, IgnoresStatementIds) {
  // The hash must match the old str()-based dedup semantics: statement ids
  // are not rendered, so renumbering must not change the hash.
  const Function a = hash_fixture();
  Function b = hash_fixture();
  bump_ids(b);
  EXPECT_EQ(structural_hash(a), structural_hash(b));
}

TEST(StructuralHash, MutationsChangeTheHash) {
  const uint64_t base = structural_hash(hash_fixture());

  {  // changed constant
    Function f = hash_fixture();
    f.edit(f.body()->stmts[0]->id)->value = c(1);
    EXPECT_NE(structural_hash(f), base);
  }
  {  // renamed assignment target
    Function f = hash_fixture();
    f.edit(f.body()->stmts[0]->id)->target = "j";
    EXPECT_NE(structural_hash(f), base);
  }
  {  // different operator deep inside the loop body
    Function f = hash_fixture();
    const Stmt* wh = f.body()->stmts[2].get();
    f.edit(wh->then_stmts[2]->id)->value = Expr::binary(Op::Sub, v("i"), c(1));
    EXPECT_NE(structural_hash(f), base);
  }
  {  // extra trailing statement
    Function f = hash_fixture();
    f.edit(f.body()->id)->stmts.push_back(Stmt::assign("t", c(0)));
    f.renumber();
    EXPECT_NE(structural_hash(f), base);
  }
  {  // statement moved across a child-list boundary (same statement set)
    Function f = hash_fixture();
    Stmt* br = f.edit(f.body()->stmts[2]->then_stmts[0]->id);
    br->else_stmts.push_back(std::move(br->then_stmts[0]));
    br->then_stmts.clear();
    EXPECT_NE(structural_hash(f), base);
  }
  {  // array metadata (size) differs
    Function f = hash_fixture();
    Function g("hf");
    g.add_param("n");
    g.add_array({"mem", 16, true});
    g.add_output("s");
    g.set_body(f.body()->clone());
    g.renumber();
    EXPECT_NE(structural_hash(g), base);
  }
}

TEST(StructuralHash, DistinguishesStmtKindsWithSharedFields) {
  // An If with an empty else and a While share (cond, one child list);
  // only the kind tag separates them.
  const StmtPtr a =
      Stmt::if_stmt(v("p"), make_vector(Stmt::assign("x", c(1))));
  const StmtPtr w =
      Stmt::while_stmt(v("p"), make_vector(Stmt::assign("x", c(1))));
  EXPECT_NE(structural_hash(*a), structural_hash(*w));
}

TEST(StructuralHash, PinnedValues) {
  // Fragment hashes key the scheduler's fragment cache and structural
  // hashes the optimizer's dedup, so a rewrite of the hash walk must keep
  // every value bit-identical. Names fold through std::hash<std::string>,
  // so the pins hold for libstdc++.
  const Function f = hash_fixture();
  const Stmt& body = *f.body();
  const Stmt& loop = *body.stmts[2];
  EXPECT_EQ(structural_hash(f), 6806942339117211919ull);
  EXPECT_EQ(structural_hash(body), 15170107818443968335ull);
  EXPECT_EQ(fragment_hash(body), 16655766451379620649ull);
  EXPECT_EQ(fragment_hash(loop), 13375837107178813812ull);
  const Stmt& branch = *loop.then_stmts[0];  // if/else
  EXPECT_EQ(fragment_hash(branch), 4020117449223010681ull);
  EXPECT_EQ(fragment_hash(*branch.then_stmts[0]), 4690895914973772317ull);
  EXPECT_EQ(fragment_hash(*loop.then_stmts[2]), 8837076815746501633ull);
}

// ---- Copy-on-write Function sharing ------------------------------------

/// A body with some nesting so path-copies leave real subtrees shared:
///   { a = 1; while (a < n) { if (a > 2) { b = a; } a = a + 1; } c = b; }
Function cow_fixture() {
  Function f("cw");
  f.add_param("n");
  f.set_body(Stmt::block(make_vector(
      Stmt::assign("a", c(1)),
      Stmt::while_stmt(
          Expr::binary(Op::Lt, v("a"), v("n")),
          make_vector(Stmt::if_stmt(Expr::binary(Op::Gt, v("a"), c(2)),
                                    make_vector(Stmt::assign("b", v("a")))),
                      Stmt::assign("a", Expr::binary(Op::Add, v("a"), c(1))))),
      Stmt::assign("c", v("b")))));
  return f;
}

TEST(Cow, CloneSharesAndEditDetaches) {
  Function f = cow_fixture();
  const uint64_t h = structural_hash(f);
  Function g = f.clone();
  // The clone shares the body outright; no statement was copied.
  EXPECT_EQ(f.body()->stmts[0].get(), g.body()->stmts[0].get());
  // Mutating the child through ir::edit leaves the parent untouched.
  std::vector<StmtPtr> repl;
  repl.push_back(Stmt::assign("c", c(7)));
  const int cid = g.body()->stmts[2]->id;
  ASSERT_TRUE(replace_stmt(g, cid, std::move(repl)));
  EXPECT_EQ(structural_hash(f), h);
  EXPECT_NE(structural_hash(g), h);
  // Untouched siblings are still the same nodes.
  EXPECT_EQ(f.body()->stmts[1].get(), g.body()->stmts[1].get());
}

TEST(Cow, EditIsolatesTheChild) {
  Function f = cow_fixture();
  const uint64_t h = structural_hash(f);
  const std::string before = f.str();
  Function g = f.clone();
  // Mutate deep inside the loop through edit().
  const Stmt& loop = *f.body()->stmts[1];
  Stmt* s = g.edit(loop.then_stmts[1]->id);
  ASSERT_NE(s, nullptr);
  s->value = c(99);
  EXPECT_EQ(structural_hash(f), h);
  EXPECT_EQ(f.str(), before);
  EXPECT_NE(g.str(), before);
  // Only the path to the statement was copied: the loop's other statement
  // and the statements beside the loop are still the parent's nodes.
  const Stmt& g_loop = *g.body()->stmts[1];
  EXPECT_NE(&g_loop, &loop);
  EXPECT_EQ(g_loop.then_stmts[0].get(), loop.then_stmts[0].get());
  EXPECT_EQ(g.body()->stmts[0].get(), f.body()->stmts[0].get());
  EXPECT_EQ(g.body()->stmts[2].get(), f.body()->stmts[2].get());
}

TEST(Cow, EditLeavesTheChildrenShared) {
  Function f = cow_fixture();
  Function g = f.clone();
  // Editing the loop copies the loop node, never the statements below it.
  const Stmt& loop = *f.body()->stmts[1];
  cow::reset();
  Stmt* s = g.edit(loop.id);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(cow::node_copies(), 2u);  // the body block and the loop
  EXPECT_NE(s, &loop);
  ASSERT_EQ(s->then_stmts.size(), loop.then_stmts.size());
  for (size_t i = 0; i < loop.then_stmts.size(); ++i)
    EXPECT_EQ(s->then_stmts[i].get(), loop.then_stmts[i].get());
  EXPECT_EQ(g.edit(12345), nullptr);
}

TEST(Cow, CloneWithReplacesExactlyOneStatement) {
  Function f = cow_fixture();
  const uint64_t h = structural_hash(f);
  const int target = f.body()->stmts[2]->id;  // c = b
  Function g = f.clone_with(target, Stmt::assign("c", c(0)));
  EXPECT_EQ(structural_hash(f), h);
  EXPECT_NE(structural_hash(g), h);
  EXPECT_NE(f.str(), g.str());
  // The loop subtree was not on the path to the replacement: still shared.
  EXPECT_EQ(f.body()->stmts[1].get(), g.body()->stmts[1].get());
  EXPECT_THROW(f.clone_with(12345, Stmt::assign("x", c(1))), Error);
}

TEST(Cow, InstrumentationCountsClonesAndCopies) {
  Function f = cow_fixture();
  cow::reset();
  Function g = f.clone();
  EXPECT_EQ(cow::clones(), 1u);
  EXPECT_EQ(cow::node_copies(), 0u);
  // Replacing the last top-level statement copies only the spine: the
  // body block itself (the replacement node is fresh, not a copy).
  ASSERT_TRUE(g.splice(g.body()->stmts[2]->id,
                       make_vector(Stmt::assign("c", c(5))), false));
  EXPECT_EQ(cow::node_copies(), 1u);
  EXPECT_LT(cow::node_copies(), f.stmt_count());
}

}  // namespace
}  // namespace fact::ir
