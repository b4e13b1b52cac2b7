#include "sched/dfg.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <set>

#include "util/error.hpp"
#include "util/strfmt.hpp"

namespace fact::sched {

using hlslib::FuClass;
using ir::Expr;
using ir::ExprPtr;
using ir::Op;
using ir::Stmt;
using ir::StmtKind;

namespace {

// Delays of operations that consume no datapath FU: boolean connectives
// and the select mux are thin logic layers; register copies are free
// (they retime at the cycle boundary).
constexpr double kGlueDelayNs = 1.0;

bool is_const_one(const ExprPtr& e) {
  return e->op() == Op::Const && e->value() == 1;
}

}  // namespace

int Dfg::num_csteps() const {
  int max_cstep = -1;
  for (const auto& n : nodes)
    if (n.cstep >= 0) max_cstep = std::max(max_cstep, n.avail_cstep());
  return max_cstep + 1;
}

struct DfgBuilder::BuildState {
  // Per-variable dataflow within the segment.
  std::map<std::string, int> last_def;
  std::map<std::string, std::vector<int>> reads_of_current;
  // Per-array memory ordering.
  std::map<std::string, int> last_store;
  std::map<std::string, std::vector<int>> reads_since_store;
  // Value numbering: identical subexpressions over unchanged inputs bind
  // to one node (so e.g. a condition referenced by several selects costs
  // one comparator). Entries are invalidated when an input is redefined.
  std::vector<std::pair<ir::ExprPtr, int>> value_cache;

  void invalidate_var(const std::string& var) {
    std::erase_if(value_cache, [&](const auto& entry) {
      bool uses = false;
      for_each_node(entry.first, [&](const ir::ExprPtr& n) {
        if (n->op() == Op::Var && n->name() == var) uses = true;
      });
      return uses;
    });
  }
  void invalidate_array(const std::string& array) {
    std::erase_if(value_cache, [&](const auto& entry) {
      bool uses = false;
      for_each_node(entry.first, [&](const ir::ExprPtr& n) {
        if (n->op() == Op::ArrayRead && n->name() == array) uses = true;
      });
      return uses;
    });
  }
};

DfgBuilder::DfgBuilder(const hlslib::Library& lib,
                       const hlslib::Allocation& alloc,
                       const hlslib::FuSelection& sel, double vdd, double vt)
    : lib_(lib), alloc_(alloc), sel_(sel), scale_(hlslib::delay_scale(vdd, vt)) {}

std::string DfgBuilder::bind_fu(const ExprPtr& e,
                                const std::string* self_var) const {
  const Op op = e->op();
  // Incrementer special case: a self-increment `i = i + 1` binds to an
  // incrementer when one is allocated (Table 1 binds "++1" to incr1 while
  // "a + 7" uses the adder). A data add that merely has a constant-1
  // operand stays on the adder so counters keep their incrementers.
  if (self_var && op == Op::Add) {
    const bool self_incr =
        (is_const_one(e->arg(1)) && e->arg(0)->op() == Op::Var &&
         e->arg(0)->name() == *self_var) ||
        (is_const_one(e->arg(0)) && e->arg(1)->op() == Op::Var &&
         e->arg(1)->name() == *self_var);
    if (self_incr) {
      if (const hlslib::FuType* inc = lib_.first_of(FuClass::Incrementer)) {
        if (alloc_.count(inc->name) > 0) return inc->name;
      }
    }
  }
  if (op == Op::ArrayRead) {
    const hlslib::FuType* mem = lib_.first_of(FuClass::Memory);
    if (!mem) throw Error("library has no memory component");
    return mem->name;
  }
  // Comparisons of a variable against a constant are FSM-counter
  // comparisons resolved in the controller, not the datapath: Table 3
  // allocates no comparator at all for FIR or PPS, whose loops are purely
  // counted, while GCD's data comparisons (a > b) get cp1/e1.
  if (ir::is_comparison(op)) {
    auto counter_operand = [](const ExprPtr& a) {
      return a->op() == Op::Const || a->op() == Op::Var;
    };
    const bool has_const =
        e->arg(0)->op() == Op::Const || e->arg(1)->op() == Op::Const;
    if (has_const && counter_operand(e->arg(0)) && counter_operand(e->arg(1)))
      return "";
  }
  const FuClass cls = hlslib::op_fu_class(op);
  if (cls == FuClass::None) return "";
  auto it = sel_.choice.find(op);
  if (it != sel_.choice.end()) return it->second;
  const hlslib::FuType* t = lib_.first_of(cls);
  if (!t)
    throw Error(strfmt("no functional unit for operation '%s'", op_token(op)));
  return t->name;
}

double DfgBuilder::op_delay(Op op) const {
  const FuClass cls = hlslib::op_fu_class(op);
  if (cls == FuClass::None) return kGlueDelayNs * scale_;
  const hlslib::FuType* t = lib_.first_of(cls);
  return (t ? t->delay_ns : kGlueDelayNs) * scale_;
}

int DfgBuilder::add_expr(Dfg& dfg, BuildState& bs, const ExprPtr& e,
                         int stmt_id, const std::string* self_var) const {
  switch (e->op()) {
    case Op::Const:
      return -1;  // literal: wired constant, no node
    case Op::Var:
      return -2;  // handled by the caller (register read)
    default:
      break;
  }

  for (const auto& [cached_expr, cached_id] : bs.value_cache)
    if (Expr::equal(cached_expr, e)) return cached_id;

  DfgNode node;
  node.op = e->op();
  node.stmt_id = stmt_id;
  node.fu = bind_fu(e, self_var);
  if (e->op() == Op::ArrayRead) {
    node.array = e->name();
    node.label = e->name() + "[]";
  } else {
    node.label = op_token(e->op());
  }
  if (!node.fu.empty()) {
    node.delay_ns = lib_.get(node.fu).delay_ns * scale_;
  } else {
    node.delay_ns = kGlueDelayNs * scale_;
  }

  // First build all child subtrees; variable reads are registered against
  // this node's id only after it is known (sibling subtrees may create
  // nodes in between).
  std::vector<std::string> var_operands;
  for (const auto& arg : e->args()) {
    const int child = add_expr(dfg, bs, arg, stmt_id);
    if (child >= 0) {
      node.preds.push_back(child);
      node.operand_names.push_back("%" + std::to_string(child));
    } else if (child == -1) {
      node.operand_names.push_back(std::to_string(arg->value()));
    } else if (child == -2) {
      node.operand_names.push_back(arg->name());
      // Variable operand: register read; depends on the segment-local
      // definition if one exists.
      node.var_reads++;
      const std::string& v = arg->name();
      auto def = bs.last_def.find(v);
      if (def != bs.last_def.end()) node.preds.push_back(def->second);
      var_operands.push_back(v);
    }
  }

  const int id = static_cast<int>(dfg.nodes.size());
  for (const auto& v : var_operands) {
    if (!bs.last_def.count(v)) dfg.livein_reads[v].push_back(id);
    bs.reads_of_current[v].push_back(id);
  }
  if (e->op() == Op::ArrayRead) {
    auto st = bs.last_store.find(node.array);
    if (st != bs.last_store.end()) node.preds.push_back(st->second);
    bs.reads_since_store[node.array].push_back(id);
  }
  dfg.nodes.push_back(std::move(node));
  bs.value_cache.emplace_back(e, id);
  return id;
}

Dfg DfgBuilder::build(const std::vector<const Stmt*>& stmts,
                      const ExprPtr& cond, int cond_stmt_id) const {
  Dfg dfg;
  BuildState bs;

  auto define_var = [&](const std::string& var, int value_node,
                        const ExprPtr& value_expr, int stmt_id,
                        int first_new_node) {
    int root = value_node;
    if (root < 0) {
      // Copy assignment (x = y or x = 5): a register transfer node.
      DfgNode copy;
      copy.op = Op::Var;
      copy.stmt_id = stmt_id;
      copy.delay_ns = 0.0;
      copy.label = "cp";
      if (value_expr->op() == Op::Var) {
        copy.var_reads = 1;
        const std::string& v = value_expr->name();
        copy.operand_names.push_back(v);
        auto def = bs.last_def.find(v);
        const int self = static_cast<int>(dfg.nodes.size());
        if (def != bs.last_def.end()) {
          copy.preds.push_back(def->second);
        } else {
          dfg.livein_reads[v].push_back(self);
        }
        bs.reads_of_current[v].push_back(self);
      } else {
        copy.operand_names.push_back(std::to_string(value_expr->value()));
      }
      root = static_cast<int>(dfg.nodes.size());
      dfg.nodes.push_back(std::move(copy));
    }
    if (dfg.nodes[static_cast<size_t>(root)].reg_write ||
        root < first_new_node) {
      // The value node already defines another variable, or predates this
      // statement entirely (a value-numbering hit): route the definition
      // through a fresh copy. Defining the old node directly would give it
      // anti-dependence edges pointing at its own consumers (a cycle).
      DfgNode copy;
      copy.op = Op::Var;
      copy.stmt_id = stmt_id;
      copy.delay_ns = 0.0;
      copy.label = "cp";
      copy.preds.push_back(root);
      copy.operand_names.push_back("%" + std::to_string(root));
      root = static_cast<int>(dfg.nodes.size());
      dfg.nodes.push_back(std::move(copy));
    }
    DfgNode& n = dfg.nodes[static_cast<size_t>(root)];
    n.reg_write = true;
    n.def_var = var;
    n.label = var + "=" + n.label;
    // Anti-dependencies: earlier reads of the variable's previous value
    // must not be scheduled after this definition.
    for (int r : bs.reads_of_current[var])
      if (r != root) n.war_preds.push_back(r);
    auto prev = bs.last_def.find(var);
    if (prev != bs.last_def.end()) n.war_preds.push_back(prev->second);
    bs.reads_of_current[var].clear();
    bs.last_def[var] = root;
    dfg.final_def[var] = root;
    bs.invalidate_var(var);
  };

  for (const Stmt* s : stmts) {
    switch (s->kind) {
      case StmtKind::Assign: {
        const int first_new = static_cast<int>(dfg.nodes.size());
        const int v = add_expr(dfg, bs, s->value, s->id, &s->target);
        define_var(s->target, v, s->value, s->id, first_new);
        break;
      }
      case StmtKind::Store: {
        const int idx = add_expr(dfg, bs, s->index, s->id);
        const int val = add_expr(dfg, bs, s->value, s->id);
        DfgNode st;
        st.op = Op::ArrayRead;
        st.is_store = true;
        st.stmt_id = s->id;
        st.array = s->target;
        const hlslib::FuType* mem = lib_.first_of(FuClass::Memory);
        if (!mem) throw Error("library has no memory component");
        st.fu = mem->name;
        st.delay_ns = mem->delay_ns * scale_;
        st.label = s->target + "[]=";
        auto hook_operand = [&](int node_id, const ExprPtr& expr) {
          if (node_id >= 0) {
            st.preds.push_back(node_id);
            st.operand_names.push_back("%" + std::to_string(node_id));
          } else if (expr->op() == Op::Var) {
            st.var_reads++;
            const std::string& v = expr->name();
            st.operand_names.push_back(v);
            auto def = bs.last_def.find(v);
            const int self = static_cast<int>(dfg.nodes.size());
            if (def != bs.last_def.end()) {
              st.preds.push_back(def->second);
            } else {
              dfg.livein_reads[v].push_back(self);
            }
            bs.reads_of_current[v].push_back(self);
          } else {
            st.operand_names.push_back(std::to_string(expr->value()));
          }
        };
        hook_operand(idx, s->index);
        hook_operand(val, s->value);
        // Memory ordering: after the previous store and all reads since.
        auto prev = bs.last_store.find(s->target);
        if (prev != bs.last_store.end())
          st.mem_war_preds.push_back(prev->second);
        for (int r : bs.reads_since_store[s->target])
          st.mem_war_preds.push_back(r);
        const int id = static_cast<int>(dfg.nodes.size());
        dfg.nodes.push_back(std::move(st));
        bs.last_store[s->target] = id;
        bs.reads_since_store[s->target].clear();
        bs.invalidate_array(s->target);
        break;
      }
      default:
        throw Error("DfgBuilder: segment contains control flow");
    }
  }

  // Anti-dependences on multi-definition variables must keep their order
  // even under modulo scheduling (see DfgNode::relax_war).
  {
    std::map<std::string, int> def_count;
    for (const auto& n : dfg.nodes)
      if (n.reg_write) def_count[n.def_var]++;
    for (auto& n : dfg.nodes)
      if (n.reg_write && def_count[n.def_var] == 1) n.relax_war = true;
  }

  if (cond) {
    int c = add_expr(dfg, bs, cond, cond_stmt_id);
    if (c < 0) {
      // Condition is a bare variable or constant: model as a copy node so
      // there is a concrete check point in the schedule.
      DfgNode chk;
      chk.op = Op::Var;
      chk.stmt_id = cond_stmt_id;
      chk.delay_ns = 0.0;
      chk.label = "chk";
      if (cond->op() == Op::Var) {
        chk.var_reads = 1;
        const std::string& v = cond->name();
        chk.operand_names.push_back(v);
        auto def = bs.last_def.find(v);
        const int self = static_cast<int>(dfg.nodes.size());
        if (def != bs.last_def.end()) {
          chk.preds.push_back(def->second);
        } else {
          dfg.livein_reads[v].push_back(self);
        }
      } else {
        chk.operand_names.push_back(std::to_string(cond->value()));
      }
      c = static_cast<int>(dfg.nodes.size());
      dfg.nodes.push_back(std::move(chk));
    }
    dfg.cond_node = c;
  }
  return dfg;
}

// ---------------------------------------------------------------------------
// ResourceTable
// ---------------------------------------------------------------------------

ResourceTable::ResourceTable(const hlslib::Library& lib,
                             const hlslib::Allocation& alloc, int hyperperiod)
    : alloc_(alloc), hyperperiod_(hyperperiod) {
  (void)lib;
  if (hyperperiod_ > 0) rows_ = static_cast<size_t>(hyperperiod_);
}

int ResourceTable::column(const DfgNode& n) {
  // A memory op is bounded by its array's port, not the memory FU type.
  const bool memory = !n.array.empty();
  const std::string& name = memory ? n.array : n.fu;
  if (name.empty()) return kFree;
  for (size_t c = 0; c < columns_.size(); ++c)
    if (columns_[c].memory == memory && columns_[c].name == name)
      return static_cast<int>(c);
  // New column: widen every row by one zero count.
  const size_t old_width = columns_.size();
  columns_.push_back({memory, name, memory ? mem_ports_ : alloc_.count(name)});
  std::vector<int> widened(rows_ * columns_.size(), 0);
  for (size_t r = 0; r < rows_; ++r)
    std::copy_n(used_.begin() + static_cast<std::ptrdiff_t>(r * old_width),
                old_width,
                widened.begin() +
                    static_cast<std::ptrdiff_t>(r * columns_.size()));
  used_ = std::move(widened);
  return static_cast<int>(old_width);
}

bool ResourceTable::can_place(int col, int cstep, int period) const {
  if (col == kFree) return true;
  const int capacity = columns_[static_cast<size_t>(col)].capacity;
  if (capacity <= 0) return false;
  const size_t width = columns_.size();
  if (hyperperiod_ <= 0) {
    const size_t row = static_cast<size_t>(cstep);
    return row >= rows_ || used_[row * width + static_cast<size_t>(col)] < capacity;
  }
  if (period <= 0) period = hyperperiod_;
  for (int s = cstep % period; s < hyperperiod_; s += period)
    if (used_[static_cast<size_t>(s) * width + static_cast<size_t>(col)] >=
        capacity)
      return false;
  return true;
}

void ResourceTable::place(int col, int cstep, int period) {
  if (col == kFree) return;
  const size_t width = columns_.size();
  if (hyperperiod_ <= 0) {
    const size_t row = static_cast<size_t>(cstep);
    if (row >= rows_) {  // plain rows grow on demand
      rows_ = row + 1;
      used_.resize(rows_ * width, 0);
    }
    used_[row * width + static_cast<size_t>(col)]++;
    return;
  }
  if (period <= 0) period = hyperperiod_;
  for (int s = cstep % period; s < hyperperiod_; s += period)
    used_[static_cast<size_t>(s) * width + static_cast<size_t>(col)]++;
}

// ---------------------------------------------------------------------------
// List scheduling
// ---------------------------------------------------------------------------

namespace {

/// Longest downstream delay (ns) from each node, the classic list-scheduling
/// priority.
std::vector<double> compute_priorities(const Dfg& dfg) {
  const size_t n = dfg.nodes.size();
  std::vector<double> prio(n, 0.0);
  // Nodes are created in topological order (children before parents), so a
  // reverse sweep propagates from consumers to producers.
  std::vector<std::vector<int>> succs(n);
  for (size_t i = 0; i < n; ++i)
    for (int p : dfg.nodes[i].preds) succs[static_cast<size_t>(p)].push_back(static_cast<int>(i));
  for (size_t ii = n; ii-- > 0;) {
    double best = 0.0;
    for (int s : succs[ii]) best = std::max(best, prio[static_cast<size_t>(s)]);
    prio[ii] = best + dfg.nodes[ii].delay_ns;
  }
  return prio;
}

}  // namespace

bool list_schedule(Dfg& dfg, ResourceTable& table, double clock_ns, int period,
                   int max_csteps) {
  const size_t n = dfg.nodes.size();
  const std::vector<double> prio = compute_priorities(dfg);
  std::vector<int> column(n);
  for (size_t i = 0; i < n; ++i) column[i] = table.column(dfg.nodes[i]);
  std::vector<bool> done(n, false);
  size_t remaining = n;

  std::vector<int> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = static_cast<int>(i);

  while (remaining > 0) {
    // Pick the highest-priority ready node (all preds and war-preds done).
    int pick = -1;
    for (int i : order) {
      if (done[static_cast<size_t>(i)]) continue;
      const DfgNode& node = dfg.nodes[static_cast<size_t>(i)];
      bool ready = true;
      for (int p : node.preds)
        if (!done[static_cast<size_t>(p)]) { ready = false; break; }
      if (ready)
        for (int p : node.mem_war_preds)
          if (!done[static_cast<size_t>(p)]) { ready = false; break; }
      if (ready && (period == 0 || !node.relax_war))
        for (int p : node.war_preds)
          if (!done[static_cast<size_t>(p)]) { ready = false; break; }
      if (!ready) continue;
      if (pick < 0 || prio[static_cast<size_t>(i)] > prio[static_cast<size_t>(pick)])
        pick = i;
    }
    if (pick < 0) {
      std::string stuck;
      for (int i : order)
        if (!done[static_cast<size_t>(i)])
          stuck += dfg.nodes[static_cast<size_t>(i)].label + " ";
      throw Error("list_schedule: dependence cycle among: " + stuck);
    }

    DfgNode& node = dfg.nodes[static_cast<size_t>(pick)];
    const int col = column[static_cast<size_t>(pick)];
    // Multi-cycle operations occupy ceil(delay/clock) steps, start at a
    // cycle boundary, and cannot be chained into.
    node.span = std::max(1, static_cast<int>(std::ceil(node.delay_ns / clock_ns - 1e-9)));
    if (period > 0 && node.span > period) return false;

    int earliest = 0;
    for (int p : node.preds)
      earliest = std::max(earliest, dfg.nodes[static_cast<size_t>(p)].avail_cstep());
    for (int p : node.mem_war_preds)
      earliest = std::max(earliest, dfg.nodes[static_cast<size_t>(p)].cstep);
    if (period == 0 || !node.relax_war)
      for (int p : node.war_preds)
        earliest = std::max(earliest, dfg.nodes[static_cast<size_t>(p)].cstep);

    bool placed = false;
    for (int cstep = earliest; cstep < earliest + max_csteps; ++cstep) {
      // Chaining: operands that become available within this same cstep
      // delay our start time.
      double start = 0.0;
      for (int p : node.preds) {
        const DfgNode& pd = dfg.nodes[static_cast<size_t>(p)];
        if (pd.avail_cstep() == cstep) start = std::max(start, pd.end_ns);
      }
      if (node.span > 1 && start > 0.0) continue;  // must start on a boundary
      if (node.span == 1 && start + node.delay_ns > clock_ns + 1e-9) continue;
      bool fits = true;
      for (int k = 0; k < node.span; ++k)
        if (!table.can_place(col, cstep + k, period)) { fits = false; break; }
      if (!fits) {
        // With a modulo table all steps >= earliest repeat the same slots;
        // if a full period of steps fails, the op can never be placed.
        if (period > 0 && cstep - earliest >= std::max(period, 1) &&
            start == 0.0)
          return false;
        continue;
      }
      for (int k = 0; k < node.span; ++k) table.place(col, cstep + k, period);
      node.cstep = cstep;
      node.start_ns = start;
      node.end_ns = node.span == 1 ? start + node.delay_ns
                                   : node.delay_ns - (node.span - 1) * clock_ns;
      placed = true;
      break;
    }
    if (!placed) return false;
    done[static_cast<size_t>(pick)] = true;
    remaining--;
  }
  return true;
}

bool recurrences_ok(const Dfg& dfg, int ii) {
  for (const auto& [var, def_node] : dfg.final_def) {
    auto reads = dfg.livein_reads.find(var);
    if (reads == dfg.livein_reads.end()) continue;
    const int def_cstep = dfg.nodes[static_cast<size_t>(def_node)].cstep;
    for (int r : reads->second) {
      const int read_cstep = dfg.nodes[static_cast<size_t>(r)].cstep;
      if (def_cstep > read_cstep + ii - 1) return false;
    }
  }
  return true;
}

bool pipeline_lags_consistent(const Dfg& dfg, int ii) {
  std::vector<int> lag(dfg.nodes.size(), 0);
  for (size_t i = 0; i < dfg.nodes.size(); ++i) {
    const DfgNode& n = dfg.nodes[i];
    if (n.cstep < 0) continue;
    const int slot = n.cstep % ii;
    bool first = true;
    for (int p : n.preds) {
      const DfgNode& pred = dfg.nodes[static_cast<size_t>(p)];
      const int wrap = pred.avail_cstep() % ii > slot ? 1 : 0;
      const int via = lag[static_cast<size_t>(p)] + wrap;
      if (first) {
        lag[i] = via;
        first = false;
      } else if (via != lag[i]) {
        return false;  // operands from different in-flight iterations
      }
    }
  }
  // Ordered (non-relaxed) anti/output/memory dependences must hold per
  // iteration in the overlapped ring: with instance time
  // (k + lag)*II + slot, a predecessor must not land after its dependent.
  for (size_t i = 0; i < dfg.nodes.size(); ++i) {
    const DfgNode& n = dfg.nodes[i];
    if (n.cstep < 0) continue;
    auto ordered_ok = [&](int p) {
      const DfgNode& pred = dfg.nodes[static_cast<size_t>(p)];
      const int delta = (lag[static_cast<size_t>(p)] - lag[i]) * ii +
                        (pred.cstep % ii - n.cstep % ii);
      return delta <= 0;
    };
    if (!n.relax_war) {
      for (int p : n.war_preds)
        if (!ordered_ok(p)) return false;
    } else {
      // Relaxed anti-dependences are repaired by one shadow register per
      // variable: the reader's desired value must be either the def's most
      // recent execution or exactly one update older (the shadow). With
      // def lag Ld running before/after the reader (slot order) and reader
      // lag Lr, that bounds Ld - Lr to {0,1} / {-1,0} respectively.
      for (int p : n.war_preds) {
        const DfgNode& r = dfg.nodes[static_cast<size_t>(p)];
        if (r.cstep < 0) continue;
        const bool before = n.cstep % ii < r.cstep % ii;
        const int diff = lag[i] - lag[static_cast<size_t>(p)];
        if (before ? (diff < 0 || diff > 1) : (diff < -1 || diff > 0))
          return false;
      }
    }
    for (int p : n.mem_war_preds)
      if (!ordered_ok(p)) return false;
  }
  return true;
}

int resource_min_ii(const Dfg& dfg, const hlslib::Allocation& alloc,
                    int mem_ports) {
  std::map<std::string, int> fu_uses;
  std::map<std::string, int> mem_uses;
  for (const auto& n : dfg.nodes) {
    if (!n.array.empty()) {
      mem_uses[n.array]++;
    } else if (!n.fu.empty()) {
      fu_uses[n.fu]++;
    }
  }
  int ii = 1;
  for (const auto& [fu, uses] : fu_uses) {
    const int avail = alloc.count(fu);
    if (avail <= 0) return -1;  // infeasible
    ii = std::max(ii, (uses + avail - 1) / avail);
  }
  for (const auto& [arr, uses] : mem_uses)
    ii = std::max(ii, (uses + mem_ports - 1) / mem_ports);
  return ii;
}

}  // namespace fact::sched
