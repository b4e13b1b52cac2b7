// Dataflow cleanup transformations: forward substitution (which exposes
// cross-statement patterns, e.g. two selects produced by speculation, to
// the expression-level rewrites) and dead-code elimination (which removes
// the definitions substitution leaves behind — dead operations would still
// burn functional units and power if left in the schedule).

#include <set>
#include <utility>

#include "ir/edit.hpp"
#include "util/error.hpp"
#include "xform/transform.hpp"

namespace fact::xform {

using ir::ExprPtr;
using ir::Op;
using ir::Stmt;
using ir::StmtKind;
using ir::StmtPtr;

namespace {

std::set<std::string> expr_vars(const ExprPtr& e) {
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

/// Forward substitution: for `v = E; ...; use(v)` within one statement
/// list, replace the use of v by E when nothing between the definition and
/// the use redefines v, any variable E reads, or (if E reads memory) any
/// array. The candidate's stmt_id/slot address the *use*; `variant` holds
/// the defining statement's id.
class ForwardSubstitution final : public Transform {
 public:
  std::string name() const override { return "fwdsub"; }

  std::vector<Candidate> find(const ir::Function& fn,
                              const std::set<int>& region) const override {
    std::vector<Candidate> out;
    std::function<void(const std::vector<StmtPtr>&)> scan =
        [&](const std::vector<StmtPtr>& list) {
          for (size_t i = 0; i < list.size(); ++i) {
            const Stmt& def = *list[i];
            for (const auto* child : def.child_lists()) scan(*child);
            if (def.kind != StmtKind::Assign) continue;
            if (def.value->op() == Op::Const) continue;  // constprop's job
            if (!region.empty() && !region.count(def.id)) continue;
            const std::set<std::string> inputs = expr_vars(def.value);
            // A self-referential definition (v = f(v)) cannot be
            // substituted: after it executes, re-evaluating f would read
            // the new v.
            if (inputs.count(def.target)) continue;
            const bool reads_mem = expr_reads_memory(def.value);
            for (size_t j = i + 1; j < list.size(); ++j) {
              const Stmt& use = *list[j];
              // A direct use in this statement's expression slots? (A
              // while-condition is excluded: it re-evaluates each
              // iteration, after the body may have changed E's inputs.)
              const auto slots = use.expr_slots();
              for (size_t k = 0;
                   use.kind != StmtKind::While && k < slots.size(); ++k) {
                if (expr_vars(*slots[k]).count(def.target)) {
                  Candidate c;
                  c.transform = name();
                  c.stmt_id = use.id;
                  c.slot = static_cast<int>(k);
                  c.variant = def.id;
                  out.push_back(std::move(c));
                }
              }
              // Interference ends the window.
              bool clobbered = false;
              if (use.kind == StmtKind::Assign) {
                if (use.target == def.target || inputs.count(use.target))
                  clobbered = true;
              } else if (use.kind == StmtKind::Store) {
                if (reads_mem) clobbered = true;
              } else {
                // Control statement: anything written inside may interfere,
                // and the statement may execute repeatedly.
                clobbered = true;
              }
              if (clobbered) break;
            }
          }
        };
    scan(fn.body()->stmts);
    return out;
  }

  ir::Function apply(const ir::Function& fn, const Candidate& c) const override {
    ir::Function g = fn.clone();
    Stmt* use = g.edit(c.stmt_id);
    const Stmt* def = g.find_stmt(c.variant);
    if (!def || !use || def->kind != StmtKind::Assign)
      throw Error("fwdsub: candidate statements not found");
    auto slots = use->expr_slots();
    if (c.slot < 0 || static_cast<size_t>(c.slot) >= slots.size())
      throw Error("fwdsub: bad slot");
    const std::map<std::string, ExprPtr> subst{{def->target, def->value}};
    *slots[static_cast<size_t>(c.slot)] =
        ir::substitute(*slots[static_cast<size_t>(c.slot)], subst);
    return g;
  }
};

/// Dead-code elimination: removes scalar assignments whose target is never
/// read anywhere else in the function and is not an output. Conservative
/// but sound: a variable read anywhere (even "earlier" in text, e.g. by a
/// surrounding loop's next iteration) counts as live.
class DeadCodeElimination final : public Transform {
 public:
  std::string name() const override { return "dce"; }

  std::vector<Candidate> find(const ir::Function& fn,
                              const std::set<int>& region) const override {
    // Collect every variable read anywhere and every output.
    std::set<std::string> live(fn.outputs().begin(), fn.outputs().end());
    fn.for_each([&](const Stmt& s) {
      for (const auto* slot : s.expr_slots())
        for (const auto& v : expr_vars(*slot)) live.insert(v);
    });
    std::vector<Candidate> out;
    fn.for_each([&](const Stmt& s) {
      if (s.kind != StmtKind::Assign) return;
      if (!region.empty() && !region.count(s.id)) return;
      if (live.count(s.target)) return;
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
    if (!s || s->kind != StmtKind::Assign)
      throw Error("dce: candidate statement not found");
    if (!ir::replace_stmt(g, c.stmt_id, {}))
      throw Error("dce: removal failed");
    return g;
  }
};

/// Common subexpression elimination: a non-trivial subexpression that
/// occurs two or more times within one statement's expression is computed
/// once into a fresh temporary assigned immediately before the statement,
/// and every occurrence is replaced by the temporary. (Repetitions are
/// common after speculation duplicates branch expressions; the DFG
/// builder's value numbering shares them during scheduling, but an
/// explicit CSE also exposes the shared value to further rewrites and to
/// forward substitution into later statements.)
class CommonSubexpressionElimination final : public Transform {
 public:
  std::string name() const override { return "cse"; }

  std::vector<Candidate> find(const ir::Function& fn,
                              const std::set<int>& region) const override {
    std::vector<Candidate> out;
    fn.for_each([&](const Stmt& s) {
      if (!region.empty() && !region.count(s.id)) return;
      if (s.kind != StmtKind::Assign && s.kind != StmtKind::Store) return;
      const auto slots = s.expr_slots();
      for (size_t k = 0; k < slots.size(); ++k) {
        // Count structural occurrences of every non-leaf subexpression.
        std::vector<ExprPtr> repeated;
        std::vector<ExprPtr> seen_once;
        ir::for_each_node(*slots[k], [&](const ExprPtr& e) {
          if (e->num_args() == 0) return;
          for (const auto& r : repeated)
            if (ir::Expr::equal(r, e)) return;
          for (auto it = seen_once.begin(); it != seen_once.end(); ++it) {
            if (ir::Expr::equal(*it, e)) {
              repeated.push_back(e);
              seen_once.erase(it);
              return;
            }
          }
          seen_once.push_back(e);
        });
        for (size_t r = 0; r < repeated.size(); ++r) {
          Candidate c;
          c.transform = name();
          c.stmt_id = s.id;
          c.slot = static_cast<int>(k);
          c.variant = static_cast<int>(r);  // index into the repeated list
          out.push_back(std::move(c));
        }
      }
    });
    return out;
  }

  ir::Function apply(const ir::Function& fn, const Candidate& c) const override {
    ir::Function g = fn.clone();
    Stmt* s = g.edit(c.stmt_id);
    if (!s) throw Error("cse: candidate statement not found");
    auto slots = s->expr_slots();
    if (c.slot < 0 || static_cast<size_t>(c.slot) >= slots.size())
      throw Error("cse: bad slot");

    // Recompute the repeated list with the same deterministic order.
    std::vector<ExprPtr> repeated;
    std::vector<ExprPtr> seen_once;
    ir::for_each_node(*slots[static_cast<size_t>(c.slot)],
                      [&](const ExprPtr& e) {
                        if (e->num_args() == 0) return;
                        for (const auto& r : repeated)
                          if (ir::Expr::equal(r, e)) return;
                        for (auto it = seen_once.begin();
                             it != seen_once.end(); ++it) {
                          if (ir::Expr::equal(*it, e)) {
                            repeated.push_back(e);
                            seen_once.erase(it);
                            return;
                          }
                        }
                        seen_once.push_back(e);
                      });
    if (c.variant < 0 || static_cast<size_t>(c.variant) >= repeated.size())
      throw Error("cse: candidate no longer present");
    const ExprPtr target = repeated[static_cast<size_t>(c.variant)];

    const std::string temp = ir::fresh_name(g, "cse");
    // Replace every occurrence of the target subexpression.
    std::function<ExprPtr(const ExprPtr&)> rewrite =
        [&](const ExprPtr& e) -> ExprPtr {
      if (ir::Expr::equal(e, target)) return ir::Expr::var(temp);
      if (e->num_args() == 0) return e;
      bool changed = false;
      std::vector<ExprPtr> children;
      children.reserve(e->num_args());
      for (const auto& a : e->args()) {
        ExprPtr sub = rewrite(a);
        if (sub.get() != a.get()) changed = true;
        children.push_back(std::move(sub));
      }
      return changed ? ir::Expr::rebuild(*e, std::move(children)) : e;
    };
    *slots[static_cast<size_t>(c.slot)] =
        rewrite(*slots[static_cast<size_t>(c.slot)]);
    std::vector<StmtPtr> pre;
    pre.push_back(Stmt::assign(temp, target));
    if (!ir::insert_before(g, c.stmt_id, std::move(pre)))
      throw Error("cse: insertion failed");
    g.assign_fresh_ids();
    return g;
  }
};

}  // namespace

TransformPtr make_forward_substitution() {
  return std::make_unique<ForwardSubstitution>();
}
TransformPtr make_dead_code_elimination() {
  return std::make_unique<DeadCodeElimination>();
}
TransformPtr make_common_subexpression_elimination() {
  return std::make_unique<CommonSubexpressionElimination>();
}

}  // namespace fact::xform
