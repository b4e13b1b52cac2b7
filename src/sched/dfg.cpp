#include "sched/dfg.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <iterator>
#include <string_view>

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

// Ports per array memory, for the resource table and the resource-bound II.
constexpr int kMemPorts = 1;

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
  // Every per-variable and per-array list below is a singly linked list
  // threaded through one pool, appended at the tail so iteration keeps
  // insertion order. The pool, the variable and array tables and the
  // value-number table are flat arrays, sized per build from upper bounds
  // on its nodes and names and reused by the builder's next build.
  struct List {
    int head = -1;
    int tail = -1;
  };
  struct Link {
    int value;
    int next;
  };
  std::vector<Link> links;

  void append(List& l, int value) {
    const int k = static_cast<int>(links.size());
    links.push_back({value, -1});
    if (l.tail >= 0) {
      links[static_cast<size_t>(l.tail)].next = k;
    } else {
      l.head = k;
    }
    l.tail = k;
  }
  template <typename F>
  void for_each(const List& l, F&& f) const {
    for (int k = l.head; k >= 0; k = links[static_cast<size_t>(k)].next)
      f(links[static_cast<size_t>(k)].value);
  }

  // Per-variable dataflow within the segment, one slot per variable name
  // in first-sight order. A segment names a handful of variables, so a
  // linear scan interns them.
  struct Var {
    std::string_view name;  // views `names`
    int last_def = -1;
    int defs = 0;  // in-segment definitions
    List reads_of_current;
    List livein_reads;
    List cached;  // value-cache entries whose expression reads it
  };
  // Per-array memory ordering.
  struct Array {
    std::string_view name;  // views `names`
    int last_store = -1;
    List reads_since_store;
    List cached;  // value-cache entries whose expression reads it
  };
  std::vector<Var> vars;
  std::vector<Array> arrays;
  std::vector<std::string_view> fus;  // FU type names interned so far
  // The DFG's name buffer, sized for every name the build can intern.
  std::shared_ptr<char[]> names;
  size_t names_used = 0;
  size_t names_capacity = 0;
  // The node array under construction; build() hands the DFG an exact
  // copy and keeps this one's capacity for the next build.
  std::vector<DfgNode> nodes;

  // Value numbering: identical subexpressions over unchanged inputs bind
  // to one node (so e.g. a condition referenced by several selects costs
  // one comparator). Entries are chained per Expr::hash() value and
  // killed when an input is redefined; at most one live entry matches any
  // expression, since an entry is only added after a miss. `heads` is an
  // open-addressing table over the distinct hash values: each slot holds
  // the newest entry of one hash value, or -1.
  struct Cached {
    const ExprPtr* expr;  // a slot of the IR being built, which outlives it
    size_t hash;
    int node;
    int next;  // older entry with the same hash, or -1
    bool live;
  };
  std::vector<Cached> cache;
  std::vector<int> heads;

  /// Empties every array for a build that creates at most `max_nodes`
  /// nodes, names at most `max_vars` variables and `max_arrays` arrays,
  /// and interns at most `name_bytes` bytes of names.
  void reset(size_t max_nodes, size_t max_vars, size_t max_arrays,
             size_t name_bytes) {
    links.clear();
    vars.clear();
    arrays.clear();
    fus.clear();
    cache.clear();
    nodes.clear();
    vars.reserve(max_vars);
    arrays.reserve(max_arrays);
    cache.reserve(max_nodes);
    nodes.reserve(max_nodes);
    links.reserve(2 * (max_nodes + max_vars + max_arrays));
    size_t slots = 16;
    while (slots < 2 * max_nodes) slots *= 2;
    heads.assign(slots, -1);
    names = std::make_shared_for_overwrite<char[]>(name_bytes);
    names_used = 0;
    names_capacity = name_bytes;
  }

  std::string_view intern(std::string_view name) {
    assert(names_used + name.size() <= names_capacity);
    char* at = names.get() + names_used;
    std::copy(name.begin(), name.end(), at);
    names_used += name.size();
    return {at, name.size()};
  }
  Var& var(std::string_view name) {
    for (Var& v : vars)
      if (v.name == name) return v;
    Var& v = vars.emplace_back();
    v.name = intern(name);
    return v;
  }
  Array& array(std::string_view name) {
    for (Array& a : arrays)
      if (a.name == name) return a;
    Array& a = arrays.emplace_back();
    a.name = intern(name);
    return a;
  }
  std::string_view fu(const Binding& b) {
    if (b.fu.empty()) return {};
    for (std::string_view name : fus)
      if (name == b.fu) return name;
    return fus.emplace_back(intern(b.fu));
  }

  /// The `heads` slot of hash value `h`: its chain, or the empty slot
  /// where it would go. The table is at most half full.
  int& head(size_t h) {
    const size_t mask = heads.size() - 1;
    for (size_t i = h & mask;; i = (i + 1) & mask) {
      int& slot = heads[i];
      if (slot < 0 || cache[static_cast<size_t>(slot)].hash == h) return slot;
    }
  }

  int lookup(const ExprPtr& e) {
    for (int k = head(e->hash()); k >= 0;
         k = cache[static_cast<size_t>(k)].next) {
      const Cached& c = cache[static_cast<size_t>(k)];
      if (c.live && Expr::equal(*c.expr, e)) return c.node;
    }
    return -1;
  }

  void remember(const ExprPtr& e, int node) {
    const int k = static_cast<int>(cache.size());
    int& slot = head(e->hash());
    cache.push_back({&e, e->hash(), node, slot, true});
    slot = k;
    // Entries never outnumber nodes, and `heads` has twice the node bound.
    assert(2 * cache.size() <= heads.size());
    // Register the entry with every variable and array its expression
    // reads, so a redefinition kills exactly the entries that use it.
    auto note = [&](List& users) {
      if (users.tail < 0 || links[static_cast<size_t>(users.tail)].value != k)
        append(users, k);
    };
    auto walk = [&](const auto& self, const Expr& x) -> void {
      if (x.op() == Op::Var) note(var(x.name()).cached);
      if (x.op() == Op::ArrayRead) note(array(x.name()).cached);
      for (const ExprPtr& a : x.args()) self(self, *a);
    };
    walk(walk, *e);
  }

  void invalidate(List& users) {
    for_each(users, [&](int k) { cache[static_cast<size_t>(k)].live = false; });
    users = {};
  }
};

DfgBuilder::DfgBuilder(const hlslib::Library& lib,
                       const hlslib::Allocation& alloc,
                       const hlslib::FuSelection& sel, double vdd, double vt) {
  const double scale = hlslib::delay_scale(vdd, vt);
  glue_.delay_ns = kGlueDelayNs * scale;
  // A bound type's delay, looked up by name like every binding.
  auto resolve = [&](const std::string& name) {
    if (name.empty()) return glue_;
    Binding b;
    b.fu = name;
    if (const hlslib::FuType* t = lib.find(name))
      b.delay_ns = t->delay_ns * scale;
    else
      b.error = "unknown functional unit type '" + name + "'";
    return b;
  };
  const hlslib::FuType* mem = lib.first_of(FuClass::Memory);
  if (mem) {
    memory_ = {mem->name, mem->delay_ns * scale, ""};
  } else {
    memory_.error = "library has no memory component";
  }
  if (const hlslib::FuType* inc = lib.first_of(FuClass::Incrementer))
    if (alloc.count(inc->name) > 0) incrementer_ = resolve(inc->name);

  by_op_.resize(static_cast<size_t>(Op::Select) + 1);
  for (size_t i = 0; i < by_op_.size(); ++i) {
    const Op op = static_cast<Op>(i);
    Binding& b = by_op_[i];
    if (op == Op::ArrayRead) {
      b = mem ? resolve(mem->name) : memory_;
      continue;
    }
    const FuClass cls = hlslib::op_fu_class(op);
    if (cls == FuClass::None) {
      b = glue_;
      continue;
    }
    const auto it = sel.choice.find(op);
    if (it != sel.choice.end()) {
      b = resolve(it->second);
    } else if (const hlslib::FuType* t = lib.first_of(cls)) {
      b = resolve(t->name);
    } else {
      b.error = strfmt("no functional unit for operation '%s'", op_token(op));
    }
  }

  // Room for every FU name a build may intern.
  std::vector<std::string_view> fus;
  for (const Binding* b : {&memory_, &incrementer_})
    if (!b->fu.empty()) fus.push_back(b->fu);
  for (const Binding& b : by_op_)
    if (!b.fu.empty()) fus.push_back(b.fu);
  std::sort(fus.begin(), fus.end());
  fus.erase(std::unique(fus.begin(), fus.end()), fus.end());
  for (std::string_view name : fus) fu_name_bytes_ += name.size();
  scratch_ = std::make_unique<BuildState>();
}

DfgBuilder::~DfgBuilder() = default;

const DfgBuilder::Binding& DfgBuilder::bind_fu(
    const ExprPtr& e, const std::string* self_var) const {
  const Op op = e->op();
  // Incrementer special case: a self-increment `i = i + 1` binds to an
  // incrementer when one is allocated (Table 1 binds "++1" to incr1 while
  // "a + 7" uses the adder). A data add that merely has a constant-1
  // operand stays on the adder so counters keep their incrementers.
  if (self_var && op == Op::Add && !incrementer_.fu.empty()) {
    const bool self_incr =
        (is_const_one(e->arg(1)) && e->arg(0)->op() == Op::Var &&
         e->arg(0)->name() == *self_var) ||
        (is_const_one(e->arg(0)) && e->arg(1)->op() == Op::Var &&
         e->arg(1)->name() == *self_var);
    if (self_incr) return incrementer_;
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
      return glue_;
  }
  const Binding& b = by_op_[static_cast<size_t>(op)];
  if (!b.error.empty()) throw Error(b.error);
  return b;
}

const DfgBuilder::Binding& DfgBuilder::memory() const {
  if (!memory_.error.empty()) throw Error(memory_.error);
  return memory_;
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

  if (const int hit = bs.lookup(e); hit >= 0) return hit;

  DfgNode node;
  node.op = e->op();
  node.stmt_id = stmt_id;
  const Binding& fu = bind_fu(e, self_var);
  node.fu = bs.fu(fu);
  node.delay_ns = fu.delay_ns;
  if (e->op() == Op::ArrayRead) node.array = bs.array(e->name()).name;

  // First build all child subtrees; variable reads are registered against
  // this node's id only after it is known (sibling subtrees may create
  // nodes in between).
  int preds[stg::Operands::kMax + 1];  // + an array read's last store
  size_t num_preds = 0;
  for (const auto& arg : e->args()) {
    const int child = add_expr(dfg, bs, arg, stmt_id);
    if (child >= 0) {
      preds[num_preds++] = child;
      node.operands.push_back(stg::Operand::of_wire(child));
    } else if (child == -1) {
      node.operands.push_back(stg::Operand::of_literal(arg->value()));
    } else if (child == -2) {
      // Variable operand: register read; depends on the segment-local
      // definition if one exists.
      const BuildState::Var& v = bs.var(arg->name());
      node.operands.push_back(stg::Operand::of_reg(v.name));
      node.var_reads++;
      if (v.last_def >= 0) preds[num_preds++] = v.last_def;
    }
  }

  const int id = static_cast<int>(dfg.nodes.size());
  for (const auto& arg : e->args()) {
    if (arg->op() != Op::Var) continue;
    BuildState::Var& v = bs.var(arg->name());
    if (v.last_def < 0) bs.append(v.livein_reads, id);
    bs.append(v.reads_of_current, id);
  }
  if (e->op() == Op::ArrayRead) {
    BuildState::Array& a = bs.array(e->name());
    if (a.last_store >= 0) preds[num_preds++] = a.last_store;
    bs.append(a.reads_since_store, id);
  }
  node.preds.assign(preds, preds + num_preds);
  dfg.nodes.push_back(std::move(node));
  bs.remember(e, id);
  return id;
}

namespace {

/// Upper bounds for a build's flat arrays: nodes (one per non-leaf
/// expression, plus at most two copies per assignment, one node per store
/// and one condition check), variable and array references, and the
/// bytes of the names they spell.
struct BuildBounds {
  size_t nodes = 1;
  size_t vars = 0;
  size_t arrays = 0;
  size_t name_bytes = 0;

  void add(const Expr& e) {
    if (e.op() == Op::Var) {
      vars++;
      name_bytes += e.name().size();
      return;
    }
    if (e.op() == Op::Const) return;
    nodes++;
    if (e.op() == Op::ArrayRead) {
      arrays++;
      name_bytes += e.name().size();
    }
    for (const ExprPtr& a : e.args()) add(*a);
  }
};

}  // namespace

Dfg DfgBuilder::build(const std::vector<const Stmt*>& stmts,
                      const ExprPtr& cond, int cond_stmt_id) {
  BuildBounds bound;
  for (const Stmt* s : stmts) {
    if (s->kind == StmtKind::Assign) {
      bound.nodes += 2;
      bound.vars++;
    } else {
      bound.nodes++;
      bound.arrays++;
    }
    bound.name_bytes += s->target.size();
    s->for_each_expr_slot([&](const ExprPtr& e) { bound.add(*e); });
  }
  if (cond) bound.add(*cond);

  BuildState& bs = *scratch_;
  bs.reset(bound.nodes, bound.vars, bound.arrays,
           bound.name_bytes + fu_name_bytes_);
  Dfg dfg;
  dfg.nodes = std::move(bs.nodes);

  // A register read by `self` (a copy, store or check node) of variable
  // `name`: depends on the segment-local definition if one exists.
  auto read_var = [&](DfgNode& self, const std::string& name,
                      bool note_reader) {
    self.var_reads++;
    BuildState::Var& v = bs.var(name);
    self.operands.push_back(stg::Operand::of_reg(v.name));
    const int id = static_cast<int>(dfg.nodes.size());
    if (v.last_def >= 0) {
      self.preds.push_back(v.last_def);
    } else {
      bs.append(v.livein_reads, id);
    }
    if (note_reader) bs.append(v.reads_of_current, id);
  };

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
      if (value_expr->op() == Op::Var) {
        read_var(copy, value_expr->name(), /*note_reader=*/true);
      } else {
        copy.operands.push_back(stg::Operand::of_literal(value_expr->value()));
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
      copy.preds.push_back(root);
      copy.operands.push_back(stg::Operand::of_wire(root));
      root = static_cast<int>(dfg.nodes.size());
      dfg.nodes.push_back(std::move(copy));
    }
    DfgNode& n = dfg.nodes[static_cast<size_t>(root)];
    BuildState::Var& v = bs.var(var);
    n.reg_write = true;
    n.def_var = v.name;
    // Anti-dependencies: earlier reads of the variable's previous value
    // must not be scheduled after this definition.
    size_t wars = v.last_def >= 0 ? 1 : 0;
    bs.for_each(v.reads_of_current, [&](int r) { wars += r != root; });
    n.war_preds.reserve(wars);
    bs.for_each(v.reads_of_current, [&](int r) {
      if (r != root) n.war_preds.push_back(r);
    });
    if (v.last_def >= 0) n.war_preds.push_back(v.last_def);
    v.reads_of_current = {};
    v.last_def = root;
    v.defs++;
    bs.invalidate(v.cached);
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
        BuildState::Array& a = bs.array(s->target);
        st.array = a.name;
        const Binding& mem = memory();
        st.fu = bs.fu(mem);
        st.delay_ns = mem.delay_ns;
        auto hook_operand = [&](int node_id, const ExprPtr& expr) {
          if (node_id >= 0) {
            st.preds.push_back(node_id);
            st.operands.push_back(stg::Operand::of_wire(node_id));
          } else if (expr->op() == Op::Var) {
            read_var(st, expr->name(), /*note_reader=*/true);
          } else {
            st.operands.push_back(stg::Operand::of_literal(expr->value()));
          }
        };
        hook_operand(idx, s->index);
        hook_operand(val, s->value);
        // Memory ordering: after the previous store and all reads since.
        size_t mem_wars = a.last_store >= 0 ? 1 : 0;
        bs.for_each(a.reads_since_store, [&](int) { mem_wars++; });
        st.mem_war_preds.reserve(mem_wars);
        if (a.last_store >= 0) st.mem_war_preds.push_back(a.last_store);
        bs.for_each(a.reads_since_store,
                    [&](int r) { st.mem_war_preds.push_back(r); });
        const int id = static_cast<int>(dfg.nodes.size());
        dfg.nodes.push_back(std::move(st));
        a.last_store = id;
        a.reads_since_store = {};
        bs.invalidate(a.cached);
        break;
      }
      default:
        throw Error("DfgBuilder: segment contains control flow");
    }
  }

  // Anti-dependences on multi-definition variables must keep their order
  // even under modulo scheduling (see DfgNode::relax_war).
  for (const BuildState::Var& v : bs.vars)
    if (v.defs == 1) dfg.nodes[static_cast<size_t>(v.last_def)].relax_war = true;

  if (cond) {
    int c = add_expr(dfg, bs, cond, cond_stmt_id);
    if (c < 0) {
      // Condition is a bare variable or constant: model as a copy node so
      // there is a concrete check point in the schedule.
      DfgNode chk;
      chk.op = Op::Var;
      chk.stmt_id = cond_stmt_id;
      chk.delay_ns = 0.0;
      if (cond->op() == Op::Var) {
        read_var(chk, cond->name(), /*note_reader=*/false);
      } else {
        chk.operands.push_back(stg::Operand::of_literal(cond->value()));
      }
      c = static_cast<int>(dfg.nodes.size());
      dfg.nodes.push_back(std::move(chk));
    }
    dfg.cond_node = c;
  }

  for (const BuildState::Var& v : bs.vars) {
    if (v.last_def < 0 || v.livein_reads.head < 0) continue;
    Dfg::Carried& c = dfg.carried.emplace_back();
    c.def = v.last_def;
    bs.for_each(v.livein_reads, [&](int r) { c.livein_reads.push_back(r); });
  }
  dfg.names = std::move(bs.names);
  // Hand the DFG an exact-size node array (cached DFGs keep their
  // capacity) and keep the scratch array's for the next build.
  std::vector<DfgNode> exact;
  exact.reserve(dfg.nodes.size());
  std::move(dfg.nodes.begin(), dfg.nodes.end(), std::back_inserter(exact));
  bs.nodes = std::move(dfg.nodes);
  dfg.nodes = std::move(exact);
  return dfg;
}

// ---------------------------------------------------------------------------
// ResourceTable
// ---------------------------------------------------------------------------

ResourceTable::ResourceTable(const hlslib::Allocation& alloc, int hyperperiod)
    : alloc_(&alloc), hyperperiod_(hyperperiod) {
  if (hyperperiod_ > 0) rows_ = static_cast<size_t>(hyperperiod_);
}

int ResourceTable::find(bool memory, std::string_view name) const {
  for (size_t c = 0; c < columns_.size(); ++c)
    if (columns_[c].memory == memory && columns_[c].name == name)
      return static_cast<int>(c);
  return kFree;
}

int ResourceTable::capacity(bool memory, std::string_view name) const {
  return memory ? kMemPorts : alloc_->count(name);
}

int ResourceTable::column(const DfgNode& n) {
  // A memory op is bounded by its array's port, not the memory FU type.
  const bool memory = !n.array.empty();
  const std::string_view name = memory ? n.array : n.fu;
  if (name.empty()) return kFree;
  if (const int c = find(memory, name); c != kFree) return c;
  // New column: widen every row by one zero count.
  const size_t old_width = columns_.size();
  columns_.push_back({memory, std::string(name), capacity(memory, name)});
  std::vector<int> widened(rows_ * columns_.size(), 0);
  for (size_t r = 0; r < rows_; ++r)
    std::copy_n(used_.begin() + static_cast<std::ptrdiff_t>(r * old_width),
                old_width,
                widened.begin() +
                    static_cast<std::ptrdiff_t>(r * columns_.size()));
  used_ = std::move(widened);
  return static_cast<int>(old_width);
}

void ResourceTable::extend(int hyperperiod) {
  assert(hyperperiod_ > 0 && hyperperiod % hyperperiod_ == 0);
  const size_t tile = used_.size();
  rows_ = static_cast<size_t>(hyperperiod);
  used_.resize(rows_ * columns_.size());
  for (size_t k = tile; tile > 0 && k < used_.size(); k += tile)
    std::copy_n(used_.begin(), tile,
                used_.begin() + static_cast<std::ptrdiff_t>(k));
  hyperperiod_ = hyperperiod;
}

int ResourceTable::free_units(const DfgNode& n) const {
  assert(hyperperiod_ > 0);
  const bool memory = !n.array.empty();
  const std::string_view name = memory ? n.array : n.fu;
  const int col = find(memory, name);
  if (col == kFree) return capacity(memory, name) * hyperperiod_;
  const size_t width = columns_.size();
  const int cap = columns_[static_cast<size_t>(col)].capacity;
  int free = 0;
  for (size_t r = 0; r < rows_; ++r)
    free += std::max(0, cap - used_[r * width + static_cast<size_t>(col)]);
  return free;
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

DfgDeps::DfgDeps(const Dfg& dfg) {
  const size_t n = dfg.nodes.size();
  num_preds.assign(n, 0);
  num_war_preds.assign(n, 0);
  succ_begin.assign(n + 1, 0);
  war_begin.assign(n + 1, 0);
  // Counting pass, then fill: successors of each node in index order.
  for (size_t i = 0; i < n; ++i) {
    const DfgNode& node = dfg.nodes[i];
    num_preds[i] = static_cast<int>(node.preds.size() +
                                    node.mem_war_preds.size());
    num_war_preds[i] = static_cast<int>(node.war_preds.size());
    for (int p : node.preds) succ_begin[static_cast<size_t>(p) + 1]++;
    for (int p : node.mem_war_preds) succ_begin[static_cast<size_t>(p) + 1]++;
    for (int p : node.war_preds) war_begin[static_cast<size_t>(p) + 1]++;
  }
  for (size_t i = 0; i < n; ++i) {
    succ_begin[i + 1] += succ_begin[i];
    war_begin[i + 1] += war_begin[i];
  }
  succs.resize(static_cast<size_t>(succ_begin[n]));
  war_succs.resize(static_cast<size_t>(war_begin[n]));
  std::vector<int> fill(succ_begin.begin(), succ_begin.end() - 1);
  std::vector<int> war_fill(war_begin.begin(), war_begin.end() - 1);
  for (size_t i = 0; i < n; ++i) {
    const DfgNode& node = dfg.nodes[i];
    const int self = static_cast<int>(i);
    for (int p : node.preds) succs[static_cast<size_t>(fill[static_cast<size_t>(p)]++)] = self;
    for (int p : node.mem_war_preds)
      succs[static_cast<size_t>(fill[static_cast<size_t>(p)]++)] = self;
    for (int p : node.war_preds)
      war_succs[static_cast<size_t>(war_fill[static_cast<size_t>(p)]++)] = self;
  }

  resource.assign(n, -1);
  for (size_t i = 0; i < n; ++i) {
    const DfgNode& node = dfg.nodes[i];
    // Same identity as ResourceTable::column: an array's port, else the FU.
    const bool memory = !node.array.empty();
    const std::string_view name = memory ? node.array : node.fu;
    if (name.empty()) continue;
    for (size_t r = 0; r < resource_nodes.size() && resource[i] < 0; ++r) {
      const DfgNode& first = dfg.nodes[static_cast<size_t>(resource_nodes[r])];
      if (first.array.empty() != memory &&
          (memory ? first.array : first.fu) == name)
        resource[i] = static_cast<int>(r);
    }
    if (resource[i] < 0) {
      resource[i] = static_cast<int>(resource_nodes.size());
      resource_nodes.push_back(static_cast<int>(i));
    }
  }

  // Priorities over data edges only. Nodes are created in topological
  // order (children before parents), so a reverse sweep propagates from
  // consumers to producers.
  // prio[i] collects the maximum over i's successors before i's turn.
  prio.assign(n, 0.0);
  for (size_t i = n; i-- > 0;) {
    prio[i] += dfg.nodes[i].delay_ns;
    for (int p : dfg.nodes[i].preds) {
      double& best = prio[static_cast<size_t>(p)];
      best = std::max(best, prio[i]);
    }
  }
}

bool list_schedule(Dfg& dfg, ResourceTable& table, double clock_ns, int period,
                   int max_csteps) {
  return list_schedule(dfg, DfgDeps(dfg), table, clock_ns, period, max_csteps);
}

bool list_schedule(Dfg& dfg, const DfgDeps& deps, ResourceTable& table,
                   double clock_ns, int period, int max_csteps) {
  const size_t n = dfg.nodes.size();
  // Modulo scheduling relaxes the anti/output edges of single-definition
  // variables (see DfgNode::relax_war).
  auto honors_war = [&](size_t i) {
    return period == 0 || !dfg.nodes[i].relax_war;
  };
  std::vector<int> column(deps.resource_nodes.size());
  for (size_t r = 0; r < column.size(); ++r)
    column[r] = table.column(
        dfg.nodes[static_cast<size_t>(deps.resource_nodes[r])]);
  std::vector<int> pending(n);  // unscheduled ordering predecessors
  std::vector<int> ready;       // max-heap: highest priority, lowest index
  ready.reserve(n);
  const auto lower = [&](int a, int b) {
    const double pa = deps.prio[static_cast<size_t>(a)];
    const double pb = deps.prio[static_cast<size_t>(b)];
    return pa < pb || (pa == pb && a > b);
  };
  for (size_t i = 0; i < n; ++i) {
    pending[i] = deps.num_preds[i] + (honors_war(i) ? deps.num_war_preds[i] : 0);
    if (pending[i] == 0) ready.push_back(static_cast<int>(i));
  }
  std::make_heap(ready.begin(), ready.end(), lower);

  for (size_t placed_count = 0; placed_count < n; ++placed_count) {
    if (ready.empty()) {
      std::string stuck;
      for (size_t i = 0; i < n; ++i)
        if (pending[i] > 0) stuck += dfg.nodes[i].label() + " ";
      throw Error("list_schedule: dependence cycle among: " + stuck);
    }
    std::pop_heap(ready.begin(), ready.end(), lower);
    const int pick = ready.back();
    ready.pop_back();

    DfgNode& node = dfg.nodes[static_cast<size_t>(pick)];
    const int res = deps.resource[static_cast<size_t>(pick)];
    const int col =
        res < 0 ? ResourceTable::kFree : column[static_cast<size_t>(res)];
    // Multi-cycle operations occupy ceil(delay/clock) steps, start at a
    // cycle boundary, and cannot be chained into.
    node.span = std::max(1, static_cast<int>(std::ceil(node.delay_ns / clock_ns - 1e-9)));
    if (period > 0 && node.span > period) return false;

    int earliest = 0;
    for (int p : node.preds)
      earliest = std::max(earliest, dfg.nodes[static_cast<size_t>(p)].avail_cstep());
    for (int p : node.mem_war_preds)
      earliest = std::max(earliest, dfg.nodes[static_cast<size_t>(p)].cstep);
    if (honors_war(static_cast<size_t>(pick)))
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

    // Release the successors whose last ordering predecessor this was.
    auto release = [&](int s) {
      if (--pending[static_cast<size_t>(s)] == 0) {
        ready.push_back(s);
        std::push_heap(ready.begin(), ready.end(), lower);
      }
    };
    const size_t p = static_cast<size_t>(pick);
    for (int k = deps.succ_begin[p]; k < deps.succ_begin[p + 1]; ++k)
      release(deps.succs[static_cast<size_t>(k)]);
    for (int k = deps.war_begin[p]; k < deps.war_begin[p + 1]; ++k) {
      const int s = deps.war_succs[static_cast<size_t>(k)];
      if (honors_war(static_cast<size_t>(s))) release(s);
    }
  }
  return true;
}

bool recurrences_ok(const Dfg& dfg, int ii) {
  for (const Dfg::Carried& c : dfg.carried) {
    const int def_cstep = dfg.nodes[static_cast<size_t>(c.def)].cstep;
    for (int r : c.livein_reads) {
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

int resource_min_ii(const Dfg& dfg, const ResourceTable& table) {
  // Uses per FU type and per array, in first-use order (a DFG names a
  // handful of each, so a linear scan beats a map).
  struct Uses {
    std::string_view name;
    bool memory;
    int count;
    const DfgNode* first;
  };
  std::vector<Uses> uses;
  for (const auto& n : dfg.nodes) {
    const bool memory = !n.array.empty();
    const std::string_view name = memory ? n.array : n.fu;
    if (name.empty()) continue;
    auto it = std::find_if(uses.begin(), uses.end(), [&](const Uses& u) {
      return u.memory == memory && u.name == name;
    });
    if (it == uses.end()) {
      uses.push_back({name, memory, 1, &n});
    } else {
      it->count++;
    }
  }
  const int h = table.hyperperiod();
  int ii = 1;
  for (const Uses& u : uses) {
    const int free = table.free_units(*u.first);
    if (free <= 0) return -1;  // no unit left
    ii = std::max(ii, (u.count * h + free - 1) / free);
  }
  return ii;
}

}  // namespace fact::sched
