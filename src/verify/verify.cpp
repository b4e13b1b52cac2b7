#include "verify/verify.hpp"

#include <algorithm>
#include <map>
#include <queue>
#include <unordered_map>
#include <unordered_set>

#include "util/strfmt.hpp"

namespace fact::verify {

namespace {

void add(Report& r, const char* check, std::string detail) {
  r.issues.push_back(Issue{check, std::move(detail)});
}

}  // namespace

Level level_from_string(const std::string& s) {
  if (s == "off") return Level::Off;
  if (s == "fast") return Level::Fast;
  if (s == "full") return Level::Full;
  throw Error("bad validation level '" + s + "' (want off|fast|full)");
}

const char* to_string(Level level) {
  switch (level) {
    case Level::Off: return "off";
    case Level::Fast: return "fast";
    case Level::Full: return "full";
  }
  return "?";
}

std::string Report::str() const {
  std::string out;
  for (const Issue& i : issues) {
    if (!out.empty()) out += "\n";
    out += i.check + ": " + i.detail;
  }
  return out;
}

VerifyError::VerifyError(Report r)
    : Error(r.ok() ? "verification passed" : r.str()), report_(std::move(r)) {}

void check_or_throw(const Report& r) {
  if (!r.ok()) throw VerifyError(r);
}

// ---------------------------------------------------------------------------
// IR checks
// ---------------------------------------------------------------------------

namespace {

/// Checks one expression tree: non-null nodes/args, op arity, named leaves,
/// and the scalar/array namespace split.
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
    return;  // cannot recurse safely
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

/// Statement shape: per kind, the right slots must be present and the
/// others empty; child lists must hold no null statements.
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

/// Collects the statement ids of a subtree list.
void collect_ids(const std::vector<ir::StmtPtr>& list, std::set<int>& out) {
  for (const auto& s : list) {
    if (!s) continue;
    out.insert(s->id);
    collect_ids(s->then_stmts, out);
    collect_ids(s->else_stmts, out);
    collect_ids(s->stmts, out);
  }
}

/// Scalars read by an expression.
void scalar_reads(const ir::ExprPtr& e, std::set<std::string>& out) {
  if (!e) return;
  ir::for_each_node(e, [&](const ir::ExprPtr& n) {
    if (n->op() == ir::Op::Var) out.insert(n->name());
  });
}

/// Must-define forward analysis: walks a statement list with the set of
/// variables surely defined on entry; records reads outside the set.
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
        // The body may execute zero times: defs inside do not reach the
        // code after the loop, but they do reach later body statements.
        std::set<std::string> body_def = defined;
        undef_walk(s->then_stmts, body_def, undef);
        break;
      }
      case ir::StmtKind::Block: {
        undef_walk(s->stmts, defined, undef);
        break;
      }
    }
  }
}

}  // namespace

std::set<std::string> undefined_reads(const ir::Function& fn) {
  std::set<std::string> defined(fn.params().begin(), fn.params().end());
  std::set<std::string> undef;
  if (fn.body()) undef_walk(fn.body()->stmts, defined, undef);
  return undef;
}

Report verify_function(const ir::Function& fn, Level level,
                       const std::set<std::string>* undef_allowed) {
  Report r;
  if (level == Level::Off) return r;

  // Declarations.
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

  // Statement ids, shape, and expression well-formedness.
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

  // Guard exclusion: an If's branches must cover disjoint id sets. A
  // statement id reachable under both polarities of one guard breaks the
  // mutual exclusion that cross-basic-block transforms rely on, and makes
  // profile keys ambiguous.
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

  // Differential def-before-use.
  if (undef_allowed) {
    for (const auto& v : undefined_reads(fn))
      if (!undef_allowed->count(v))
        add(r, "ir.def-before-use",
            strfmt("transform introduced read-before-def of '%s'", v.c_str()));
  }

  return r;
}

// ---------------------------------------------------------------------------
// STG checks
// ---------------------------------------------------------------------------

Report verify_stg(const stg::Stg& stg, Level level) {
  Report r;
  if (level == Level::Off) return r;

  const auto& states = stg.states();
  const auto& edges = stg.edges();
  if (states.empty()) {
    add(r, "stg.empty", "STG has no states");
    return r;
  }
  if (stg.entry() < 0 || static_cast<size_t>(stg.entry()) >= states.size())
    add(r, "stg.entry", strfmt("entry state %d out of range", stg.entry()));

  // Edge table and out-edge list consistency.
  std::vector<int> indexed(edges.size(), 0);
  for (size_t si = 0; si < states.size(); ++si) {
    for (int ei : states[si].out_edges) {
      if (ei < 0 || static_cast<size_t>(ei) >= edges.size()) {
        add(r, "stg.edges",
            strfmt("state '%s' indexes nonexistent edge %d",
                   states[si].name.c_str(), ei));
        continue;
      }
      indexed[static_cast<size_t>(ei)]++;
      if (edges[static_cast<size_t>(ei)].from != static_cast<int>(si))
        add(r, "stg.edges",
            strfmt("edge %d in out-list of state '%s' but from state %d", ei,
                   states[si].name.c_str(), edges[static_cast<size_t>(ei)].from));
    }
  }
  for (size_t ei = 0; ei < edges.size(); ++ei) {
    const stg::Edge& e = edges[ei];
    if (e.from < 0 || static_cast<size_t>(e.from) >= states.size() ||
        e.to < 0 || static_cast<size_t>(e.to) >= states.size()) {
      add(r, "stg.edges", strfmt("edge %zu has dangling endpoints %d->%d", ei,
                                 e.from, e.to));
      continue;
    }
    if (indexed[ei] != 1)
      add(r, "stg.edges",
          strfmt("edge %zu indexed %d time(s) by out-edge lists", ei, indexed[ei]));
    if (e.prob < -1e-9 || e.prob > 1.0 + 1e-9)
      add(r, "stg.prob", strfmt("edge %zu has probability %g", ei, e.prob));
  }
  if (!r.ok()) return r;  // structure broken; later checks would misreport

  bool has_boundary = false;
  for (size_t si = 0; si < states.size(); ++si) {
    const stg::State& s = states[si];
    if (s.out_edges.empty()) {
      add(r, "stg.edges", strfmt("state '%s' has no outgoing edge", s.name.c_str()));
      continue;
    }
    double sum = 0.0;
    for (int ei : s.out_edges) {
      sum += edges[static_cast<size_t>(ei)].prob;
      if (edges[static_cast<size_t>(ei)].exec_boundary) has_boundary = true;
    }
    if (std::abs(sum - 1.0) > 1e-6)
      add(r, "stg.prob",
          strfmt("state '%s' outgoing probabilities sum to %g", s.name.c_str(),
                 sum));
    // Determinism: more than one successor requires a steering signal the
    // controller can test; probability annotations alone cannot be
    // implemented in hardware.
    if (s.out_edges.size() > 1 && s.cond_signal.empty())
      add(r, "stg.deterministic",
          strfmt("state '%s' has %zu successors but no cond_signal",
                 s.name.c_str(), s.out_edges.size()));
  }
  if (!has_boundary)
    add(r, "stg.boundary", "no execution-boundary edge (no renewal point)");

  // Reachability from entry.
  if (stg.entry() >= 0 && static_cast<size_t>(stg.entry()) < states.size()) {
    std::vector<bool> seen(states.size(), false);
    std::queue<int> work;
    work.push(stg.entry());
    seen[static_cast<size_t>(stg.entry())] = true;
    while (!work.empty()) {
      const int s = work.front();
      work.pop();
      for (int ei : states[static_cast<size_t>(s)].out_edges) {
        const int t = edges[static_cast<size_t>(ei)].to;
        if (!seen[static_cast<size_t>(t)]) {
          seen[static_cast<size_t>(t)] = true;
          work.push(t);
        }
      }
    }
    for (size_t i = 0; i < states.size(); ++i)
      if (!seen[i])
        add(r, "stg.reachable",
            strfmt("state '%s' unreachable from entry", states[i].name.c_str()));
  }

  return r;
}

// ---------------------------------------------------------------------------
// Schedule legality
// ---------------------------------------------------------------------------

Report verify_schedule(const ir::Function& fn, const stg::Stg& stg,
                       const hlslib::Library& lib,
                       const hlslib::Allocation& alloc, Level level) {
  Report r;
  if (level == Level::Off) return r;
  (void)lib;

  const std::set<int> ids = fn.stmt_ids();

  // Pass 1: collect wire definition sites. A pipelined loop legitimately
  // materializes one op (one wire) into its prologue, kernel-ring, and
  // drain states, and a fused phase repeats an op across its hyperperiod
  // slots — so a wire may be defined in several states. What is never
  // legal is the same wire defined twice within one state (two ops would
  // drive one net in the same cycle), or an op without a result wire.
  std::unordered_map<int, std::vector<int>> wire_def_states;
  for (size_t si = 0; si < stg.num_states(); ++si) {
    std::unordered_set<int> in_state;
    for (const stg::OpInstance& op : stg.state(static_cast<int>(si)).ops) {
      if (op.wire < 0) {
        add(r, "sched.wires",
            strfmt("state '%s': op '%s' has no result wire",
                   stg.state(static_cast<int>(si)).name.c_str(),
                   op.label().c_str()));
        continue;
      }
      if (!in_state.insert(op.wire).second)
        add(r, "sched.wires",
            strfmt("wire '%s' defined twice in state '%s'",
                   stg::wire_name(op.wire).c_str(),
                   stg.state(static_cast<int>(si)).name.c_str()));
      wire_def_states[op.wire].push_back(static_cast<int>(si));
    }
  }

  // Pass 2: per-state resource bounds, stmt ids, and chaining order.
  for (size_t si = 0; si < stg.num_states(); ++si) {
    const stg::State& st = stg.state(static_cast<int>(si));
    std::map<std::string_view, int> fu_used;
    std::map<std::string_view, int> mem_used;
    std::unordered_set<int> defined_here;
    for (const stg::OpInstance& op : st.ops) {
      if (op.stmt_id >= 0 && !ids.count(op.stmt_id))
        add(r, "sched.stmt-ids",
            strfmt("state '%s': op '%s' references missing statement %d",
                   st.name.c_str(), op.label().c_str(), op.stmt_id));

      // Resource accounting mirrors the scheduler's ResourceTable: memory
      // ops are bounded per array (one port each); datapath ops per FU
      // type; ops with neither (register copies, boolean glue) are free.
      if (!op.array.empty()) {
        if (++mem_used[op.array] > 1)
          add(r, "sched.resources",
              strfmt("state '%s': %d concurrent accesses to array '%s' "
                     "(1 memory port)",
                     st.name.c_str(), mem_used[op.array],
                     std::string(op.array).c_str()));
      } else if (!op.fu_type.empty()) {
        const int avail = alloc.count(op.fu_type);
        if (++fu_used[op.fu_type] > avail)
          add(r, "sched.resources",
              strfmt("state '%s': %d op(s) on FU type '%s' but only %d "
                     "allocated",
                     st.name.c_str(), fu_used[op.fu_type],
                     std::string(op.fu_type).c_str(), avail));
      }

      if (level == Level::Full) {
        for (const stg::Operand& operand : op.operands) {
          if (operand.kind() != stg::Operand::Kind::Wire) continue;
          const int wire = operand.wire();
          auto it = wire_def_states.find(wire);
          if (it == wire_def_states.end()) {
            add(r, "sched.wires",
                strfmt("state '%s': op '%s' reads undefined wire '%s'",
                       st.name.c_str(), op.label().c_str(),
                       operand.str().c_str()));
          } else if (st.ring_id < 0 && !defined_here.count(wire) &&
                     it->second.size() == 1 &&
                     it->second.front() == static_cast<int>(si)) {
            // The operand's only definition is later in this same state:
            // a chained consumer ahead of its producer. Ring states
            // legally read the previous traversal's wires, and a wire
            // with definitions in other states reaches here through a
            // register, so neither case is flagged.
            add(r, "sched.chaining",
                strfmt("state '%s': op '%s' reads wire '%s' before it is "
                       "produced in the same cycle",
                       st.name.c_str(), op.label().c_str(),
                       operand.str().c_str()));
          }
        }
      }
      if (op.wire >= 0) defined_here.insert(op.wire);
    }
  }

  return r;
}

}  // namespace fact::verify
