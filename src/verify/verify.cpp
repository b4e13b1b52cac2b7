#include "verify/verify.hpp"

#include <algorithm>
#include <map>
#include <string_view>
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

/// The declared array names, in declaration order. Programs declare a
/// handful, so a linear scan serves.
using ArrayNames = std::vector<std::string_view>;

bool is_array(const ArrayNames& arrays, std::string_view name) {
  return std::find(arrays.begin(), arrays.end(), name) != arrays.end();
}

/// Preorder over the statements Function::for_each visits: `s`, then each
/// child list its kind walks (If: then, else; While: body; Block: stmts),
/// skipping null children.
template <typename F>
void preorder(const ir::Stmt& s, F& f) {
  f(s);
  s.for_each_child_list([&](const std::vector<ir::StmtPtr>& list) {
    for (const auto& c : list)
      if (c) preorder(*c, f);
  });
}

/// True when `s` holds a non-empty child list its kind does not walk
/// (always also an ir.shape issue). The guard walk sees such lists.
bool has_unwalked_list(const ir::Stmt& s) {
  switch (s.kind) {
    case ir::StmtKind::If:
      return !s.stmts.empty();
    case ir::StmtKind::While:
      return !s.else_stmts.empty() || !s.stmts.empty();
    case ir::StmtKind::Block:
      return !s.then_stmts.empty() || !s.else_stmts.empty();
    default:
      return !s.then_stmts.empty() || !s.else_stmts.empty() ||
             !s.stmts.empty();
  }
}

/// Checks one expression tree: non-null nodes/args, op arity, named leaves,
/// and the scalar/array namespace split.
void check_expr(Report& r, const ir::ExprPtr& e, int stmt_id,
                const ArrayNames& arrays) {
  if (!e) {
    add(r, "ir.expr-null", strfmt("statement %d holds a null expression", stmt_id));
    return;
  }
  for (const auto& a : e->args()) {
    if (!a) {
      add(r, "ir.expr-null",
          strfmt("statement %d: '%s' node has a null operand", stmt_id,
                 ir::op_token(e->op())));
      return;  // cannot recurse safely
    }
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
      else if (is_array(arrays, e->name()))
        add(r, "ir.arrays",
            strfmt("statement %d: array '%s' read as a scalar", stmt_id,
                   e->name().c_str()));
      break;
    case ir::Op::ArrayRead:
      if (e->name().empty())
        add(r, "ir.expr-name",
            strfmt("statement %d: unnamed ArrayRead node", stmt_id));
      else if (!is_array(arrays, e->name()))
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
void check_stmt_shape(Report& r, const ir::Stmt& s, const ArrayNames& arrays) {
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
      else if (is_array(arrays, s.target))
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
      if (!is_array(arrays, s.target))
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

/// Statement ids seen so far: one flag per id below kFlagged, a set for
/// the rest (only a corrupted function carries ids that large).
class IdSet {
 public:
  /// False when `id` (>= 0) was inserted before.
  bool insert(int id) {
    if (id >= kFlagged) return rest_.insert(id).second;
    const size_t i = static_cast<size_t>(id);
    if (i >= flags_.size())
      flags_.resize(std::max({i + 1, 2 * flags_.size(), size_t{256}}));
    if (flags_[i]) return false;
    flags_[i] = 1;
    return true;
  }

 private:
  static constexpr int kFlagged = 1 << 20;
  std::vector<char> flags_;
  std::set<int> rest_;
};

/// Every statement id of a subtree list, walking all three child lists
/// whatever the statement's kind, sorted and unique.
void collect_ids(const std::vector<ir::StmtPtr>& list, std::vector<int>& out) {
  for (const auto& s : list) {
    if (!s) continue;
    out.push_back(s->id);
    collect_ids(s->then_stmts, out);
    collect_ids(s->else_stmts, out);
    collect_ids(s->stmts, out);
  }
}

std::vector<int> sorted_ids(const std::vector<ir::StmtPtr>& list) {
  std::vector<int> ids;
  collect_ids(list, ids);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

/// Must-define forward analysis over interned scalar names: walks a
/// statement list with the flags of the names surely defined on entry and
/// flags every read outside them. Names are views into the function, which
/// outlives the analysis.
class MustDefine {
 public:
  /// Flags per name id; ids past the end are not defined.
  using Defined = std::vector<char>;

  explicit MustDefine(const ir::Function& fn) {
    names_.reserve(32);
    Defined defined;
    for (const auto& p : fn.params()) define(defined, intern(p));
    if (fn.body()) walk(fn.body()->stmts, defined);
  }

  /// The names read before any definition, sorted.
  std::vector<std::string_view> undefined() const {
    std::vector<std::string_view> out;
    for (const Name& n : names_)
      if (n.undefined) out.push_back(n.text);
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  struct Name {
    std::string_view text;
    bool undefined = false;
  };

  /// The slot of `name` in the open-addressing table of name ids (-1 =
  /// empty), or the empty slot where it belongs.
  size_t slot(std::string_view name) const {
    const size_t mask = slots_.size() - 1;
    size_t i = std::hash<std::string_view>{}(name) & mask;
    while (slots_[i] >= 0 && names_[static_cast<size_t>(slots_[i])].text != name)
      i = (i + 1) & mask;
    return i;
  }

  /// The dense id of `name`; the table is kept at most half full.
  int intern(std::string_view name) {
    const size_t i = slot(name);
    if (slots_[i] >= 0) return slots_[i];
    const int id = static_cast<int>(names_.size());
    slots_[i] = id;
    names_.push_back(Name{name});
    if (2 * names_.size() > slots_.size()) {
      slots_.assign(2 * slots_.size(), -1);
      for (size_t k = 0; k < names_.size(); ++k)
        slots_[slot(names_[k].text)] = static_cast<int>(k);
    }
    return id;
  }

  static void define(Defined& d, int id) {
    const size_t i = static_cast<size_t>(id);
    if (i >= d.size()) d.resize(i + 1, 0);
    d[i] = 1;
  }

  void reads(const ir::ExprPtr& e, const Defined& d) {
    if (!e) return;
    if (e->op() == ir::Op::Var) {
      const size_t i = static_cast<size_t>(intern(e->name()));
      if (i >= d.size() || !d[i]) names_[i].undefined = true;
    }
    for (const auto& a : e->args()) reads(a, d);
  }

  void walk(const std::vector<ir::StmtPtr>& list, Defined& defined) {
    for (const auto& s : list) {
      if (!s) continue;
      switch (s->kind) {
        case ir::StmtKind::Assign:
          reads(s->value, defined);
          define(defined, intern(s->target));
          break;
        case ir::StmtKind::Store:
          reads(s->index, defined);
          reads(s->value, defined);
          break;
        case ir::StmtKind::If: {
          reads(s->cond, defined);
          // Defined after the If: defined on exit from both branches.
          Defined then_def = defined;
          walk(s->then_stmts, then_def);
          walk(s->else_stmts, defined);
          if (defined.size() > then_def.size()) defined.resize(then_def.size());
          for (size_t i = 0; i < defined.size(); ++i) defined[i] &= then_def[i];
          break;
        }
        case ir::StmtKind::While: {
          reads(s->cond, defined);
          // The body may execute zero times: defs inside do not reach the
          // code after the loop, but they do reach later body statements.
          Defined body_def = defined;
          walk(s->then_stmts, body_def);
          break;
        }
        case ir::StmtKind::Block:
          walk(s->stmts, defined);
          break;
      }
    }
  }

  std::vector<int> slots_ = std::vector<int>(64, -1);
  std::vector<Name> names_;
};

}  // namespace

std::set<std::string> undefined_reads(const ir::Function& fn) {
  std::set<std::string> out;
  for (std::string_view v : MustDefine(fn).undefined()) out.emplace(v);
  return out;
}

Report verify_function(const ir::Function& fn, Level level,
                       const std::set<std::string>* undef_allowed) {
  Report r;
  if (level == Level::Off) return r;

  // Declarations.
  ArrayNames arrays;
  arrays.reserve(fn.arrays().size());
  for (const auto& a : fn.arrays()) {
    if (a.size == 0)
      add(r, "ir.arrays", strfmt("array '%s' has size 0", a.name.c_str()));
    if (is_array(arrays, a.name))
      add(r, "ir.arrays", strfmt("duplicate array '%s'", a.name.c_str()));
    else
      arrays.push_back(a.name);
  }
  const auto& params = fn.params();
  for (size_t i = 0; i < params.size(); ++i) {
    if (std::find(params.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                  params.end(), params[i]) != params.end()) {
      add(r, "ir.params", "duplicate parameter name");
      break;
    }
  }
  for (const auto& p : params)
    if (is_array(arrays, p))
      add(r, "ir.arrays", strfmt("parameter '%s' collides with an array", p.c_str()));
  for (const auto& o : fn.outputs())
    if (is_array(arrays, o))
      add(r, "ir.outputs", strfmt("output '%s' must be a scalar", o.c_str()));

  if (!fn.body()) {
    add(r, "ir.shape", "function has no body");
    return r;
  }
  if (fn.body()->kind != ir::StmtKind::Block)
    add(r, "ir.shape", "function body is not a Block");

  // Statement ids, shape, and expression well-formedness, in one preorder
  // walk. `guard_possible` records whether the guard-exclusion check below
  // can fire: only when some id is unassigned or repeats, or when a
  // statement holds a child list the walk skips.
  IdSet seen_ids;
  bool guard_possible = false;
  auto check_stmt = [&](const ir::Stmt& s) {
    if (s.id < 0) {
      add(r, "ir.stmt-id-assigned",
          "a statement has no id (renumber/assign_fresh_ids missed it)");
      guard_possible = true;
    } else if (!seen_ids.insert(s.id)) {
      add(r, "ir.stmt-id-unique", strfmt("statement id %d appears twice", s.id));
      guard_possible = true;
    }
    if (has_unwalked_list(s)) guard_possible = true;
    check_stmt_shape(r, s, arrays);
    s.for_each_expr_slot(
        [&](const ir::ExprPtr& e) { check_expr(r, e, s.id, arrays); });
  };
  preorder(*fn.body(), check_stmt);

  // Guard exclusion: an If's branches must cover disjoint id sets. A
  // statement id reachable under both polarities of one guard breaks the
  // mutual exclusion that cross-basic-block transforms rely on, and makes
  // profile keys ambiguous. When every id above was assigned and distinct
  // and no skipped list exists, the branches' ids are disjoint and the
  // walk is skipped.
  if (guard_possible) {
    auto check_guard = [&](const ir::Stmt& s) {
      if (s.kind != ir::StmtKind::If) return;
      const std::vector<int> then_ids = sorted_ids(s.then_stmts);
      const std::vector<int> else_ids = sorted_ids(s.else_stmts);
      for (int id : then_ids)
        if (std::binary_search(else_ids.begin(), else_ids.end(), id))
          add(r, "ir.guard-exclusion",
              strfmt("statement id %d reachable in both branches of if %d",
                     id, s.id));
    };
    preorder(*fn.body(), check_guard);
  }

  // Differential def-before-use.
  if (undef_allowed) {
    for (std::string_view v : MustDefine(fn).undefined()) {
      std::string name(v);
      if (!undef_allowed->count(name))
        add(r, "ir.def-before-use",
            strfmt("transform introduced read-before-def of '%s'",
                   name.c_str()));
    }
  }

  return r;
}

// ---------------------------------------------------------------------------
// STG checks
// ---------------------------------------------------------------------------

Report verify_stg(const stg::Stg& stg, Level level) {
  Report r;
  if (level == Level::Off) return r;
  for (stg::StructureIssue& i : stg::structure_issues(stg))
    add(r, i.check, std::move(i.detail));
  for (Issue& i : verify_steering(stg, level).issues)
    r.issues.push_back(std::move(i));
  return r;
}

Report verify_steering(const stg::Stg& stg, Level level) {
  Report r;
  if (level == Level::Off) return r;
  // More than one successor requires a steering signal the controller can
  // test; probability annotations alone cannot be implemented in hardware.
  for (const stg::State& s : stg.states())
    if (s.out_edges.size() > 1 && s.cond_signal.empty())
      add(r, "stg.deterministic",
          strfmt("state '%s' has %zu successors but no cond_signal",
                 s.name.c_str(), s.out_edges.size()));
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

  const std::vector<int> ids = fn.stmt_ids();

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
      if (op.stmt_id >= 0 &&
          !std::binary_search(ids.begin(), ids.end(), op.stmt_id))
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
