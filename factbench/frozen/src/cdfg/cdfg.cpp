#include "cdfg/cdfg.hpp"

#include <limits>
#include <map>
#include <optional>
#include <set>

#include "util/dot.hpp"
#include "util/strfmt.hpp"

namespace fact::cdfg {

using ir::Expr;
using ir::ExprPtr;
using ir::Op;
using ir::Stmt;
using ir::StmtKind;

int Cdfg::add_node(Node n) {
  nodes_.push_back(std::move(n));
  return static_cast<int>(nodes_.size()) - 1;
}

bool Cdfg::mutually_exclusive(int a, int b) const {
  // Collect (guard node, polarity) pairs up each guard chain; the nodes
  // are mutually exclusive if some condition appears with opposite
  // polarities.
  auto chain = [&](int n) {
    std::map<int, bool> guards;
    int cur = node(n).guard;
    bool pol = node(n).guard_polarity;
    std::set<int> seen;
    while (cur >= 0 && !seen.count(cur)) {
      seen.insert(cur);
      guards.emplace(cur, pol);
      pol = node(cur).guard_polarity;
      cur = node(cur).guard;
    }
    return guards;
  };
  const auto ga = chain(a);
  const auto gb = chain(b);
  for (const auto& [g, pol] : ga) {
    auto it = gb.find(g);
    if (it != gb.end() && it->second != pol) return true;
  }
  return false;
}

std::string Cdfg::dot(const std::string& graph_name) const {
  DotWriter w(graph_name);
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    std::string attrs = "shape=ellipse";
    switch (n.kind) {
      case NodeKind::Const:
      case NodeKind::Input:
        attrs = "shape=plaintext";
        break;
      case NodeKind::Join:
        attrs = "shape=diamond";
        break;
      case NodeKind::Select:
        attrs = "shape=trapezium";
        break;
      case NodeKind::Output:
        attrs = "shape=box";
        break;
      case NodeKind::Op:
        break;
    }
    w.node(strfmt("n%zu", i), n.label.empty() ? n.name : n.label, attrs);
  }
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    for (int p : n.data_preds) w.edge(strfmt("n%d", p), strfmt("n%zu", i));
    if (n.guard >= 0)
      w.edge(strfmt("n%d", n.guard), strfmt("n%zu", i),
             n.guard_polarity ? "+" : "-", "style=dashed");
  }
  return w.str();
}

namespace {

std::set<std::string> assigned_vars(const std::vector<ir::StmtPtr>& stmts) {
  std::set<std::string> vars;
  for (const auto& s : stmts) {
    if (s->kind == StmtKind::Assign) vars.insert(s->target);
    for (const auto* list : s->child_lists()) {
      auto sub = assigned_vars(*list);
      vars.insert(sub.begin(), sub.end());
    }
  }
  return vars;
}

class CdfgBuilder {
 public:
  Cdfg build(const ir::Function& fn) {
    for (const auto& s : fn.body()->stmts) exec(*s);
    for (const auto& o : fn.outputs()) {
      Node out;
      out.kind = NodeKind::Output;
      out.name = o;
      out.label = "out:" + o;
      out.data_preds.push_back(lookup(o));
      g_.add_node(std::move(out));
    }
    return std::move(g_);
  }

 private:
  int lookup(const std::string& var) {
    auto it = env_.find(var);
    if (it != env_.end()) return it->second;
    Node in;
    in.kind = NodeKind::Input;
    in.name = var;
    in.label = var;
    const int id = g_.add_node(std::move(in));
    env_[var] = id;
    return id;
  }

  int build_expr(const ExprPtr& e, int stmt_id) {
    switch (e->op()) {
      case Op::Const: {
        Node c;
        c.kind = NodeKind::Const;
        c.value = e->value();
        c.label = std::to_string(e->value());
        return g_.add_node(std::move(c));
      }
      case Op::Var:
        return lookup(e->name());
      case Op::Select: {
        Node sel;
        sel.kind = NodeKind::Select;
        sel.stmt_id = stmt_id;
        sel.label = "sel";
        sel.data_preds.push_back(build_expr(e->arg(0), stmt_id));
        sel.data_preds.push_back(build_expr(e->arg(1), stmt_id));
        sel.data_preds.push_back(build_expr(e->arg(2), stmt_id));
        sel.guard = guard_;
        sel.guard_polarity = guard_pol_;
        return g_.add_node(std::move(sel));
      }
      default: {
        Node op;
        op.kind = NodeKind::Op;
        op.op = e->op();
        op.stmt_id = stmt_id;
        op.label = e->op() == Op::ArrayRead ? e->name() + "[]"
                                            : std::string(op_token(e->op()));
        for (const auto& a : e->args())
          op.data_preds.push_back(build_expr(a, stmt_id));
        op.guard = guard_;
        op.guard_polarity = guard_pol_;
        return g_.add_node(std::move(op));
      }
    }
  }

  void exec_list(const std::vector<ir::StmtPtr>& stmts) {
    for (const auto& s : stmts) exec(*s);
  }

  void exec(const Stmt& s) {
    switch (s.kind) {
      case StmtKind::Assign:
        env_[s.target] = build_expr(s.value, s.id);
        break;
      case StmtKind::Store: {
        Node st;
        st.kind = NodeKind::Op;
        st.op = Op::ArrayRead;
        st.stmt_id = s.id;
        st.label = s.target + "[]=";
        st.data_preds.push_back(build_expr(s.index, s.id));
        st.data_preds.push_back(build_expr(s.value, s.id));
        st.guard = guard_;
        st.guard_polarity = guard_pol_;
        g_.add_node(std::move(st));
        break;
      }
      case StmtKind::If: {
        const int c = build_expr(s.cond, s.id);
        const auto saved_env = env_;
        const int saved_guard = guard_;
        const bool saved_pol = guard_pol_;

        guard_ = c;
        guard_pol_ = true;
        exec_list(s.then_stmts);
        auto env_then = env_;

        env_ = saved_env;
        guard_pol_ = false;
        exec_list(s.else_stmts);
        auto env_else = env_;

        guard_ = saved_guard;
        guard_pol_ = saved_pol;
        env_ = saved_env;

        std::set<std::string> merged;
        for (const auto& [v, n] : env_then) merged.insert(v);
        for (const auto& [v, n] : env_else) merged.insert(v);
        for (const auto& v : merged) {
          auto base = saved_env.find(v);
          auto t = env_then.find(v);
          auto e = env_else.find(v);
          const int tn = t != env_then.end() ? t->second
                         : base != saved_env.end() ? base->second : -1;
          const int en = e != env_else.end() ? e->second
                         : base != saved_env.end() ? base->second : -1;
          if (tn == en) {
            if (tn >= 0) env_[v] = tn;
            continue;
          }
          Node join;
          join.kind = NodeKind::Join;
          join.stmt_id = s.id;
          join.label = "J:" + v;
          if (tn >= 0) join.data_preds.push_back(tn);
          if (en >= 0) join.data_preds.push_back(en);
          join.guard = saved_guard;
          join.guard_polarity = saved_pol;
          env_[v] = g_.add_node(std::move(join));
        }
        break;
      }
      case StmtKind::While: {
        // Loop-carried variables become Join nodes with a back edge.
        const std::set<std::string> carried = assigned_vars(s.then_stmts);
        std::map<std::string, int> joins;
        for (const auto& v : carried) {
          Node join;
          join.kind = NodeKind::Join;
          join.stmt_id = s.id;
          join.label = "LJ:" + v;
          join.data_preds.push_back(lookup(v));
          const int id = g_.add_node(std::move(join));
          joins[v] = id;
          env_[v] = id;
        }
        const int c = build_expr(s.cond, s.id);
        const int saved_guard = guard_;
        const bool saved_pol = guard_pol_;
        guard_ = c;
        guard_pol_ = true;
        exec_list(s.then_stmts);
        guard_ = saved_guard;
        guard_pol_ = saved_pol;
        // Back edges and post-loop values.
        for (const auto& [v, join_id] : joins) {
          g_.node_mut(join_id).data_preds.push_back(env_[v]);
          env_[v] = join_id;
        }
        break;
      }
      case StmtKind::Block:
        exec_list(s.stmts);
        break;
    }
  }

  Cdfg g_;
  std::map<std::string, int> env_;
  int guard_ = -1;
  bool guard_pol_ = true;
};

// ---- condition disjointness ------------------------------------------------

struct Constraint {
  std::string var;
  Op op;       // Lt/Le/Gt/Ge/Eq/Ne with var on the left
  int64_t c;
};

Op flip(Op op) {
  switch (op) {
    case Op::Lt: return Op::Gt;
    case Op::Le: return Op::Ge;
    case Op::Gt: return Op::Lt;
    case Op::Ge: return Op::Le;
    default: return op;  // Eq/Ne symmetric
  }
}

Op negate(Op op) {
  switch (op) {
    case Op::Lt: return Op::Ge;
    case Op::Le: return Op::Gt;
    case Op::Gt: return Op::Le;
    case Op::Ge: return Op::Lt;
    case Op::Eq: return Op::Ne;
    case Op::Ne: return Op::Eq;
    default: return op;
  }
}

std::optional<Constraint> normalize(const ExprPtr& e, bool polarity) {
  if (!ir::is_comparison(e->op())) return std::nullopt;
  Constraint cons;
  if (e->arg(0)->op() == Op::Var && e->arg(1)->op() == Op::Const) {
    cons.var = e->arg(0)->name();
    cons.op = e->op();
    cons.c = e->arg(1)->value();
  } else if (e->arg(0)->op() == Op::Const && e->arg(1)->op() == Op::Var) {
    cons.var = e->arg(1)->name();
    cons.op = flip(e->op());
    cons.c = e->arg(0)->value();
  } else {
    return std::nullopt;
  }
  if (!polarity) cons.op = negate(cons.op);
  return cons;
}

constexpr int64_t kInf = std::numeric_limits<int64_t>::max() / 2;

/// [lo, hi] satisfied range; Ne has no interval form (handled separately).
std::optional<std::pair<int64_t, int64_t>> interval(const Constraint& c) {
  switch (c.op) {
    case Op::Lt: return {{-kInf, c.c - 1}};
    case Op::Le: return {{-kInf, c.c}};
    case Op::Gt: return {{c.c + 1, kInf}};
    case Op::Ge: return {{c.c, kInf}};
    case Op::Eq: return {{c.c, c.c}};
    default: return std::nullopt;
  }
}

}  // namespace

bool conditions_disjoint(const ExprPtr& c1, bool pol1, const ExprPtr& c2,
                         bool pol2) {
  // Identical conditions with opposite polarities.
  if (Expr::equal(c1, c2) && pol1 != pol2) return true;

  const auto a = normalize(c1, pol1);
  const auto b = normalize(c2, pol2);
  if (!a || !b || a->var != b->var) return false;

  // Ne only clashes with Eq of the same constant.
  if (a->op == Op::Ne || b->op == Op::Ne) {
    const Constraint& ne = a->op == Op::Ne ? *a : *b;
    const Constraint& other = a->op == Op::Ne ? *b : *a;
    return other.op == Op::Eq && other.c == ne.c;
  }
  const auto ia = interval(*a);
  const auto ib = interval(*b);
  if (!ia || !ib) return false;
  return ia->second < ib->first || ib->second < ia->first;
}

Cdfg Cdfg::from_function(const ir::Function& fn) {
  CdfgBuilder b;
  return b.build(fn);
}

}  // namespace fact::cdfg
