// Statement-level transformations: constant propagation, code motion
// (loop-invariant hoisting), loop unrolling, and speculation
// (if-conversion) — the transform that carries rewrites across basic-block
// boundaries by turning control dependence into select data flow.

#include <algorithm>
#include <set>

#include "ir/edit.hpp"
#include "util/error.hpp"
#include "util/strfmt.hpp"
#include "xform/transform.hpp"

namespace fact::xform {

using ir::Expr;
using ir::ExprPtr;
using ir::Op;
using ir::Stmt;
using ir::StmtKind;
using ir::StmtPtr;

namespace {

std::set<std::string> vars_in_expr(const ExprPtr& e) {
  std::set<std::string> vars;
  ir::for_each_node(e, [&](const ExprPtr& n) {
    if (n->op() == Op::Var) vars.insert(n->name());
  });
  return vars;
}

bool expr_reads_memory(const ExprPtr& e) {
  bool reads = false;
  ir::for_each_node(e, [&](const ExprPtr& n) {
    if (n->op() == Op::ArrayRead) reads = true;
  });
  return reads;
}

/// Where statement `stmt_id` sits: the statement whose child list `list`
/// holds it at `index`. `owner` is null if no statement has the id.
struct Place {
  const Stmt* owner = nullptr;
  size_t list = 0, index = 0;

  const std::vector<StmtPtr>& siblings() const {
    return *owner->child_lists()[list];
  }
};

Place find_place(const ir::Function& fn, int stmt_id) {
  Place found;
  std::function<bool(const Stmt&)> walk = [&](const Stmt& owner) {
    const auto lists = owner.child_lists();
    for (size_t li = 0; li < lists.size(); ++li)
      for (size_t ei = 0; ei < lists[li]->size(); ++ei) {
        const Stmt& s = *(*lists[li])[ei];
        if (s.id == stmt_id) {
          found = {&owner, li, ei};
          return true;
        }
        if (walk(s)) return true;
      }
    return false;
  };
  if (fn.body()) walk(*fn.body());
  return found;
}

/// `s` with `subst` applied to its expressions and to those of every
/// statement below it. Copies only the statements whose expressions change
/// and the paths to them; returns `s` itself if nothing changes.
StmtPtr substituted(const StmtPtr& s,
                    const std::map<std::string, ExprPtr>& subst) {
  const Stmt& src = *s;
  StmtPtr out = s;
  auto own = [&]() -> Stmt& {
    if (out == s) ir::detach(out);
    return *out;
  };
  const auto slots = src.expr_slots();
  for (size_t k = 0; k < slots.size(); ++k) {
    ExprPtr e = ir::substitute(*slots[k], subst);
    if (e != *slots[k]) *own().expr_slots()[k] = std::move(e);
  }
  const auto lists = src.child_lists();
  for (size_t li = 0; li < lists.size(); ++li)
    for (size_t ei = 0; ei < lists[li]->size(); ++ei) {
      StmtPtr c = substituted((*lists[li])[ei], subst);
      if (c != (*lists[li])[ei]) (*own().child_lists()[li])[ei] = std::move(c);
    }
  return out;
}

// ---------------------------------------------------------------------------

/// Constant propagation: after `v = <const>`, substitute the constant into
/// following statements of the same list until v is redefined (descending
/// into control statements that never write v).
class ConstantPropagation final : public Transform {
 public:
  std::string name() const override { return "constprop"; }

  std::vector<Candidate> find(const ir::Function& fn,
                              const std::set<int>& region) const override {
    std::vector<Candidate> out;
    // A candidate is useful only if some later statement actually reads the
    // variable before redefinition; checked cheaply during apply-time
    // propagation, so here we just require a constant rhs.
    fn.for_each([&](const Stmt& s) {
      if (!region.empty() && !region.count(s.id)) return;
      if (s.kind == StmtKind::Assign && s.value->op() == Op::Const) {
        Candidate c;
        c.transform = name();
        c.stmt_id = s.id;
        out.push_back(std::move(c));
      }
    });
    return out;
  }

  ir::Function apply(const ir::Function& fn, const Candidate& c) const override {
    const Place at = find_place(fn, c.stmt_id);
    if (!at.owner) throw Error("constprop: candidate statement not found");
    const Stmt& def = *at.siblings()[at.index];
    if (def.kind != StmtKind::Assign || def.value->op() != Op::Const)
      throw Error("constprop: candidate is not a constant assignment");
    const std::string& var = def.target;
    const std::map<std::string, ExprPtr> subst{{var, def.value}};

    ir::Function g = fn.clone();
    std::vector<StmtPtr>& list = *g.edit(at.owner->id)->child_lists()[at.list];
    for (size_t j = at.index + 1; j < list.size(); ++j) {
      const Stmt& s = *list[j];
      // Stop before a control statement that redefines var anywhere inside
      // it. An assignment to var still reads the constant in its rhs, so
      // it is substituted and ends the run.
      if (s.kind != StmtKind::Assign) {
        bool redefines = false;
        for (const auto* child : s.child_lists())
          for (const auto& inner : ir::written_vars(*child))
            if (inner == var) redefines = true;
        if (redefines) break;
      }
      const bool redefined = s.kind == StmtKind::Assign && s.target == var;
      list[j] = substituted(list[j], subst);  // nothing below redefines var
      if (redefined) break;
    }
        return g;
  }
};

// ---------------------------------------------------------------------------

/// Loop-invariant code motion: hoists a pure subexpression whose variables
/// the loop never writes into a temp computed before the loop.
class CodeMotion final : public Transform {
 public:
  std::string name() const override { return "licm"; }

  std::vector<Candidate> find(const ir::Function& fn,
                              const std::set<int>& region) const override {
    std::vector<Candidate> out;
    fn.for_each([&](const Stmt& loop) {
      if (loop.kind != StmtKind::While) return;
      if (!region.empty() && !region.count(loop.id)) return;
      std::set<std::string> written;
      for (const auto& w : ir::written_vars(loop.then_stmts)) written.insert(w);

      // Walk every expression slot of every statement in the body.
      std::function<void(const Stmt&)> scan = [&](const Stmt& s) {
        const auto slots = s.expr_slots();
        for (size_t k = 0; k < slots.size(); ++k) {
          std::vector<int> path;
          std::function<void(const ExprPtr&)> walk = [&](const ExprPtr& e) {
            if (e->num_args() > 0 && !expr_reads_memory(e) &&
                e->op() != Op::Select) {
              bool invariant = true;
              for (const auto& v : vars_in_expr(e))
                if (written.count(v)) {
                  invariant = false;
                  break;
                }
              if (invariant) {
                Candidate c;
                c.transform = name();
                c.stmt_id = s.id;
                c.slot = static_cast<int>(k);
                c.path = path;
                c.variant = loop.id;  // the loop to hoist out of
                out.push_back(std::move(c));
                return;  // hoisting the maximal invariant subtree is enough
              }
            }
            for (size_t a = 0; a < e->num_args(); ++a) {
              path.push_back(static_cast<int>(a));
              walk(e->arg(a));
              path.pop_back();
            }
          };
          walk(*slots[k]);
        }
        for (const auto* child : s.child_lists())
          for (const auto& cs : *child) scan(*cs);
      };
      for (const auto& s : loop.then_stmts) scan(*s);
    });
    return out;
  }

  ir::Function apply(const ir::Function& fn, const Candidate& c) const override {
    ir::Function g = fn.clone();
    Stmt* s = g.edit(c.stmt_id);
    if (!s) throw Error("licm: candidate statement not found");
    auto slots = s->expr_slots();
    if (c.slot < 0 || static_cast<size_t>(c.slot) >= slots.size())
      throw Error("licm: bad slot");
    ExprPtr root = *slots[static_cast<size_t>(c.slot)];
    ExprPtr target = ir::subexpr_at(root, c.path);
    if (!target) throw Error("licm: bad path");

    const std::string temp = ir::fresh_name(g, "inv");
    *slots[static_cast<size_t>(c.slot)] =
        ir::replace_at(root, c.path, Expr::var(temp));
    std::vector<StmtPtr> pre;
    pre.push_back(Stmt::assign(temp, target));
    if (!ir::insert_before(g, c.variant, std::move(pre)))
      throw Error("licm: loop statement not found");
    g.assign_fresh_ids();
    return g;
  }
};

// ---------------------------------------------------------------------------

/// Loop unrolling. Partial unrolling by factor k rewrites
///   while (c) { B }  ==>  while (c) { B; if (c) { B; if (c) ... } }
/// which is always functionally equivalent. Full unrolling replaces a
/// counted loop (constant init/bound/step) by its iterations laid out
/// straight-line, eliminating the loop control entirely.
class LoopUnrolling final : public Transform {
 public:
  std::string name() const override { return "unroll"; }

  static constexpr int kFullUnrollVariant = 100;
  static constexpr int kMaxFullTrip = 32;

  std::vector<Candidate> find(const ir::Function& fn,
                              const std::set<int>& region) const override {
    std::vector<Candidate> out;
    fn.for_each([&](const Stmt& s) {
      if (s.kind != StmtKind::While) return;
      if (!region.empty() && !region.count(s.id)) return;
      for (int factor : {2, 4}) {
        Candidate c;
        c.transform = name();
        c.stmt_id = s.id;
        c.variant = factor;
        out.push_back(std::move(c));
      }
      if (full_trip_count(fn, s) > 0) {
        Candidate c;
        c.transform = name();
        c.stmt_id = s.id;
        c.variant = kFullUnrollVariant;
        out.push_back(std::move(c));
      }
    });
    return out;
  }

  ir::Function apply(const ir::Function& fn, const Candidate& c) const override {
    ir::Function g = fn.clone();
    const Stmt* loop = g.find_stmt(c.stmt_id);
    if (!loop || loop->kind != StmtKind::While)
      throw Error("unroll: candidate loop not found");

    if (c.variant == kFullUnrollVariant) {
      const int trip = full_trip_count(g, *loop);
      if (trip <= 0) throw Error("unroll: loop is not statically counted");
      std::vector<StmtPtr> flat;
      for (int t = 0; t < trip; ++t)
        for (const auto& s : loop->then_stmts) flat.push_back(s->clone());
      ir::clear_ids(flat);  // duplicated statements get fresh ids
      if (!ir::replace_stmt(g, c.stmt_id, std::move(flat)))
        throw Error("unroll: loop replacement failed");
      g.assign_fresh_ids();
      return g;
    }

    const int factor = c.variant;
    if (factor < 2) throw Error("unroll: bad factor");
    std::vector<StmtPtr> body = clone_list(loop->then_stmts);
    for (int k = 1; k < factor; ++k) {
      // The previously accumulated tail goes inside a fresh guard.
      std::vector<StmtPtr> tail = std::move(body);
      body = clone_list(loop->then_stmts);
      body.push_back(Stmt::if_stmt(loop->cond, std::move(tail)));
    }
    ir::clear_ids(body);  // all copies count as new statements
    g.edit(c.stmt_id)->then_stmts = std::move(body);
    g.assign_fresh_ids();
    return g;
  }

 private:
  static std::vector<StmtPtr> clone_list(const std::vector<StmtPtr>& in) {
    std::vector<StmtPtr> out;
    out.reserve(in.size());
    for (const auto& s : in) out.push_back(s->clone());
    return out;
  }

  /// Trip count of a counted loop `i = k0; while (i < C) { ...; i = i + s }`
  /// (all comparison directions supported), or -1 if not recognized or the
  /// count exceeds kMaxFullTrip.
  static int full_trip_count(const ir::Function& fn, const Stmt& loop) {
    // Condition: Var vs Const comparison.
    const ExprPtr& cond = loop.cond;
    if (!ir::is_comparison(cond->op())) return -1;
    std::string var;
    int64_t bound = 0;
    Op op = cond->op();
    if (cond->arg(0)->op() == Op::Var && cond->arg(1)->op() == Op::Const) {
      var = cond->arg(0)->name();
      bound = cond->arg(1)->value();
    } else if (cond->arg(0)->op() == Op::Const &&
               cond->arg(1)->op() == Op::Var) {
      var = cond->arg(1)->name();
      bound = cond->arg(0)->value();
      switch (op) {  // flip to put the variable on the left
        case Op::Lt: op = Op::Gt; break;
        case Op::Le: op = Op::Ge; break;
        case Op::Gt: op = Op::Lt; break;
        case Op::Ge: op = Op::Le; break;
        default: break;
      }
    } else {
      return -1;
    }

    // Initial value: the assignment `var = const` immediately preceding the
    // loop in its parent list.
    const Place at = find_place(fn, loop.id);
    if (!at.owner || at.index == 0) return -1;
    const Stmt& init = *at.siblings()[at.index - 1];
    if (init.kind != StmtKind::Assign || init.target != var ||
        init.value->op() != Op::Const)
      return -1;
    int64_t value = init.value->value();

    // Step: exactly one top-level `var = var +/- const` in the body and no
    // other writes to var anywhere in the loop.
    int64_t step = 0;
    int writes = 0;
    for (const auto& w : ir::written_vars(loop.then_stmts))
      if (w == var) writes++;
    if (writes != 1) return -1;
    for (const auto& s : loop.then_stmts) {
      if (s->kind != StmtKind::Assign || s->target != var) continue;
      const ExprPtr& v = s->value;
      if (v->op() == Op::Add && v->arg(0)->op() == Op::Var &&
          v->arg(0)->name() == var && v->arg(1)->op() == Op::Const) {
        step = v->arg(1)->value();
      } else if (v->op() == Op::Add && v->arg(1)->op() == Op::Var &&
                 v->arg(1)->name() == var && v->arg(0)->op() == Op::Const) {
        step = v->arg(0)->value();
      } else if (v->op() == Op::Sub && v->arg(0)->op() == Op::Var &&
                 v->arg(0)->name() == var && v->arg(1)->op() == Op::Const) {
        step = -v->arg(1)->value();
      } else {
        return -1;
      }
    }
    if (step == 0) return -1;

    auto holds = [&](int64_t x) {
      switch (op) {
        case Op::Lt: return x < bound;
        case Op::Le: return x <= bound;
        case Op::Gt: return x > bound;
        case Op::Ge: return x >= bound;
        case Op::Ne: return x != bound;
        case Op::Eq: return x == bound;
        default: return false;
      }
    };
    int trip = 0;
    while (holds(value)) {
      if (++trip > kMaxFullTrip) return -1;
      value += step;
    }
    return trip;
  }
};

// ---------------------------------------------------------------------------

/// Speculation (if-conversion): executes both branches of a conditional
/// unconditionally and merges results through selects. This is the
/// transformation-across-basic-blocks workhorse: it converts control
/// dependence into select dataflow, after which select fusion/hoisting and
/// the algebraic transforms can rewrite patterns spanning the original
/// branches.
class Speculation final : public Transform {
 public:
  std::string name() const override { return "speculate"; }

  std::vector<Candidate> find(const ir::Function& fn,
                              const std::set<int>& region) const override {
    std::vector<Candidate> out;
    fn.for_each([&](const Stmt& s) {
      if (s.kind != StmtKind::If) return;
      if (!region.empty() && !region.count(s.id)) return;
      if (s.then_stmts.empty() && s.else_stmts.empty()) return;
      if (!ir::all_scalar_assigns(s.then_stmts) ||
          !ir::all_scalar_assigns(s.else_stmts))
        return;
      Candidate c;
      c.transform = name();
      c.stmt_id = s.id;
      out.push_back(std::move(c));
    });
    return out;
  }

  ir::Function apply(const ir::Function& fn, const Candidate& c) const override {
    ir::Function g = fn.clone();
    const Stmt* s = g.find_stmt(c.stmt_id);
    if (!s || s->kind != StmtKind::If)
      throw Error("speculate: candidate if not found");
    const auto env_then = ir::symbolic_assigns(s->then_stmts);
    const auto env_else = ir::symbolic_assigns(s->else_stmts);
    std::set<std::string> written;
    for (const auto& [v, e] : env_then) written.insert(v);
    for (const auto& [v, e] : env_else) written.insert(v);

    // All selects must read pre-branch values. A select whose expression
    // reads no written variable can assign its target directly; the rest
    // compute into temps first and commit afterwards.
    std::vector<StmtPtr> repl;
    std::vector<std::pair<std::string, std::string>> commits;
    int n = 0;
    for (const auto& v : written) {
      auto t = env_then.find(v);
      auto e = env_else.find(v);
      const ExprPtr tv = t != env_then.end() ? t->second : Expr::var(v);
      const ExprPtr ev = e != env_else.end() ? e->second : Expr::var(v);
      const ExprPtr sel = Expr::select(s->cond, tv, ev);
      bool reads_written = false;
      ir::for_each_node(sel, [&](const ExprPtr& node) {
        if (node->op() == Op::Var && written.count(node->name()))
          reads_written = true;
      });
      if (reads_written) {
        const std::string temp = ir::fresh_name(g, strfmt("sp%d_", n++));
        repl.push_back(Stmt::assign(temp, sel));
        commits.emplace_back(v, temp);
      } else {
        repl.push_back(Stmt::assign(v, sel));
      }
    }
    for (const auto& [v, temp] : commits)
      repl.push_back(Stmt::assign(v, Expr::var(temp)));
    if (!ir::replace_stmt(g, c.stmt_id, std::move(repl)))
      throw Error("speculate: replacement failed");
    g.assign_fresh_ids();
    return g;
  }
};

}  // namespace

TransformPtr make_constant_propagation() {
  return std::make_unique<ConstantPropagation>();
}
TransformPtr make_code_motion() { return std::make_unique<CodeMotion>(); }
TransformPtr make_loop_unrolling() { return std::make_unique<LoopUnrolling>(); }
TransformPtr make_speculation() { return std::make_unique<Speculation>(); }

}  // namespace fact::xform
