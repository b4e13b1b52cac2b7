#include "ir/edit.hpp"

#include <set>

#include "util/error.hpp"

namespace fact::ir {

bool replace_stmt(Function& fn, int stmt_id,
                  std::vector<StmtPtr> replacement) {
  return fn.splice(stmt_id, std::move(replacement), /*insert_only=*/false);
}

bool insert_before(Function& fn, int stmt_id, std::vector<StmtPtr> stmts) {
  return fn.splice(stmt_id, std::move(stmts), /*insert_only=*/true);
}

ExprPtr substitute(const ExprPtr& e,
                   const std::map<std::string, ExprPtr>& subst) {
  if (e->op() == Op::Var) {
    auto it = subst.find(e->name());
    return it == subst.end() ? e : it->second;
  }
  if (e->num_args() == 0) return e;
  bool changed = false;
  std::vector<ExprPtr> children;
  children.reserve(e->num_args());
  for (const auto& a : e->args()) {
    ExprPtr sub = substitute(a, subst);
    if (sub.get() != a.get()) changed = true;
    children.push_back(std::move(sub));
  }
  return changed ? Expr::rebuild(*e, std::move(children)) : e;
}

std::map<std::string, ExprPtr> symbolic_assigns(
    const std::vector<StmtPtr>& stmts) {
  std::map<std::string, ExprPtr> env;
  for (const auto& s : stmts) {
    if (s->kind != StmtKind::Assign)
      throw Error("symbolic_assigns: non-assign statement");
    env[s->target] = substitute(s->value, env);
  }
  return env;
}

std::string fresh_name(const Function& fn, const std::string& tag) {
  std::set<std::string> used(fn.params().begin(), fn.params().end());
  fn.for_each([&](const Stmt& s) {
    if (s.kind == StmtKind::Assign) used.insert(s.target);
  });
  for (int i = 0;; ++i) {
    std::string name = "t_" + tag + std::to_string(i);
    if (!used.count(name)) return name;
  }
}

std::vector<std::string> written_vars(const std::vector<StmtPtr>& stmts) {
  std::set<std::string> seen;
  std::vector<std::string> out;
  std::function<void(const std::vector<StmtPtr>&)> walk =
      [&](const std::vector<StmtPtr>& list) {
        for (const auto& s : list) {
          if (s->kind == StmtKind::Assign && seen.insert(s->target).second)
            out.push_back(s->target);
          for (const auto* child : s->child_lists()) walk(*child);
        }
      };
  walk(stmts);
  return out;
}

bool all_scalar_assigns(const std::vector<StmtPtr>& stmts) {
  for (const auto& s : stmts)
    if (s->kind != StmtKind::Assign) return false;
  return true;
}

void clear_ids(std::vector<StmtPtr>& stmts) {
  for (auto& s : stmts) {
    detach(s);  // callers usually pass fresh clones; detach makes it safe
                // on shared statements too
    s->id = -1;
    for (auto* child : s->child_lists()) clear_ids(*child);
  }
}

}  // namespace fact::ir
