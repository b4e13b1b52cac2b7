#include "program_gen.hpp"

#include "util/rng.hpp"

namespace fact::testgen {

using ir::Expr;
using ir::ExprPtr;
using ir::Op;
using ir::Stmt;
using ir::StmtPtr;

namespace {

/// `prefix` followed by `k`, appended in place (a `"x" + std::to_string(k)`
/// temporary draws a GCC 12 -Wrestrict false positive in Release builds).
std::string numbered(const char* prefix, int k) {
  std::string s = prefix;
  s += std::to_string(k);
  return s;
}

class Generator {
 public:
  Generator(uint64_t seed, const GenOptions& opts) : rng_(seed), opts_(opts) {}

  ir::Function run() {
    ir::Function fn("FUZZ");
    fn.add_param("p0");
    fn.add_param("p1");
    names_ = {"p0", "p1"};
    for (int i = 0; i < opts_.scalar_pool; ++i)
      names_.push_back(numbered("v", i));
    // Loop counters are readable but never reassigned by generated code,
    // which keeps every loop's termination proof intact.
    assignable_ = names_;
    if (opts_.with_arrays) {
      fn.add_array({"ain", 8, true});
      arrays_.push_back("ain");
      fn.add_array({"ascratch", 8, false});
      arrays_.push_back("ascratch");
    }
    std::vector<StmtPtr> body = gen_block(opts_.max_depth);
    if (opts_.concurrent_loops) append_concurrent_loops(fn, body);
    fn.set_body(Stmt::block(std::move(body)));
    // Observe a couple of scalars (plus all arrays, via the equivalence
    // checker's array comparison).
    fn.add_output("v0");
    fn.add_output("v1");
    fn.renumber();
    fn.validate();
    return fn;
  }

 private:
  int irand(int lo, int hi) {
    return static_cast<int>(rng_.uniform_int(lo, hi));
  }

  const std::string& pick_name() {
    return names_[static_cast<size_t>(irand(0, static_cast<int>(names_.size()) - 1))];
  }

  const std::string& pick_assignable() {
    return assignable_[static_cast<size_t>(
        irand(0, static_cast<int>(assignable_.size()) - 1))];
  }

  ExprPtr gen_expr(int depth) {
    if (depth <= 0 || irand(0, 3) == 0) {
      // Leaf: variable, constant, or array read.
      const int kind = irand(0, 4);
      if (kind == 0) return Expr::constant(irand(-8, 12));
      if (kind == 1 && !arrays_.empty())
        return Expr::array_read(
            arrays_[static_cast<size_t>(irand(0, static_cast<int>(arrays_.size()) - 1))],
            gen_expr(0));
      return Expr::var(pick_name());
    }
    switch (irand(0, 9)) {
      case 0: return Expr::binary(Op::Add, gen_expr(depth - 1), gen_expr(depth - 1));
      case 1: return Expr::binary(Op::Sub, gen_expr(depth - 1), gen_expr(depth - 1));
      case 2: return Expr::binary(Op::Mul, gen_expr(depth - 1), gen_expr(depth - 1));
      case 3: return Expr::binary(Op::Lt, gen_expr(depth - 1), gen_expr(depth - 1));
      case 4: return Expr::binary(Op::Gt, gen_expr(depth - 1), gen_expr(depth - 1));
      case 5: return Expr::binary(Op::Eq, gen_expr(depth - 1), gen_expr(depth - 1));
      case 6: return Expr::binary(Op::Shr, gen_expr(depth - 1),
                                  Expr::constant(irand(0, 3)));
      case 7: return Expr::unary(Op::BitNot, gen_expr(depth - 1));
      case 8:
        return Expr::select(gen_expr(depth - 1), gen_expr(depth - 1),
                            gen_expr(depth - 1));
      default:
        return Expr::binary(Op::Add, gen_expr(depth - 1), gen_expr(depth - 1));
    }
  }

  /// Appends adjacent independent loops: every counter and private
  /// scalar is initialized up front (an init between two loops would split
  /// the run), and loop k writes only f<k>, af<k>[] and its counter. Loop
  /// bodies read anything else, so their operand mix stays random.
  void append_concurrent_loops(ir::Function& fn, std::vector<StmtPtr>& out) {
    const int loops = irand(2, 4);
    for (int k = 0; k < loops; ++k) {
      out.push_back(Stmt::assign(numbered("f", k),
                                 Expr::constant(irand(-4, 4))));
      out.push_back(Stmt::assign(numbered("cf", k), Expr::constant(0)));
    }
    for (int k = 0; k < loops; ++k) {
      const std::string scalar = numbered("f", k);
      const std::string array = numbered("af", k);
      const std::string counter = numbered("cf", k);
      fn.add_array({array, 8, false});
      fn.add_output(scalar);
      names_.push_back(scalar);
      names_.push_back(counter);
      std::vector<StmtPtr> body;
      const int n = irand(1, opts_.max_stmts);
      for (int i = 0; i < n; ++i) {
        if (irand(0, 2) == 0) {
          body.push_back(Stmt::store(array, gen_expr(1),
                                     gen_expr(opts_.max_expr_depth)));
        } else {
          body.push_back(
              Stmt::assign(scalar, gen_expr(opts_.max_expr_depth)));
        }
      }
      body.push_back(Stmt::assign(
          counter,
          Expr::binary(Op::Add, Expr::var(counter), Expr::constant(1))));
      // The next loop must not read this one's variables.
      names_.resize(names_.size() - 2);
      out.push_back(Stmt::while_stmt(
          Expr::binary(Op::Lt, Expr::var(counter),
                       Expr::constant(irand(1, opts_.max_loop_trip))),
          std::move(body)));
    }
  }

  std::vector<StmtPtr> gen_block(int depth) {
    std::vector<StmtPtr> out;
    const int n = irand(1, opts_.max_stmts);
    for (int i = 0; i < n; ++i) {
      const int kind = irand(0, 9);
      if (kind <= 4 || depth <= 0) {
        // Assignment (the common case).
        out.push_back(Stmt::assign(pick_assignable(), gen_expr(opts_.max_expr_depth)));
      } else if (kind <= 6 && !arrays_.empty()) {
        out.push_back(Stmt::store(
            arrays_[static_cast<size_t>(irand(0, static_cast<int>(arrays_.size()) - 1))],
            gen_expr(1), gen_expr(opts_.max_expr_depth)));
      } else if (kind <= 8) {
        auto then_b = gen_block(depth - 1);
        auto else_b = irand(0, 1) ? gen_block(depth - 1)
                                  : std::vector<StmtPtr>{};
        out.push_back(Stmt::if_stmt(gen_expr(2), std::move(then_b),
                                    std::move(else_b)));
      } else {
        // Counted loop: fresh counter, constant trip, i++ at the end.
        const std::string counter = numbered("c", counter_id_++);
        names_.push_back(counter);
        const int trip = irand(1, opts_.max_loop_trip);
        out.push_back(Stmt::assign(counter, Expr::constant(0)));
        auto body = gen_block(depth - 1);
        body.push_back(Stmt::assign(
            counter, Expr::binary(Op::Add, Expr::var(counter), Expr::constant(1))));
        out.push_back(Stmt::while_stmt(
            Expr::binary(Op::Lt, Expr::var(counter), Expr::constant(trip)),
            std::move(body)));
      }
    }
    return out;
  }

  Rng rng_;
  GenOptions opts_;
  std::vector<std::string> names_;
  std::vector<std::string> assignable_;
  std::vector<std::string> arrays_;
  int counter_id_ = 0;
};

}  // namespace

ir::Function random_program(uint64_t seed, const GenOptions& opts) {
  return Generator(seed, opts).run();
}

}  // namespace fact::testgen
