#include "sched/dfg.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <span>
#include <string_view>

#include "util/error.hpp"
#include "util/hash.hpp"
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

// ---------------------------------------------------------------------------
// DfgBuilder
// ---------------------------------------------------------------------------

namespace {

/// Moves every name a node views from the buffer at `from` to the same
/// offset in the buffer at `to`.
void rebase(std::span<DfgNode> nodes, const char* from, const char* to) {
  const auto move = [&](std::string_view s) -> std::string_view {
    return s.empty() ? s : std::string_view(to + (s.data() - from), s.size());
  };
  for (DfgNode& n : nodes) {
    n.fu = move(n.fu);
    n.array = move(n.array);
    n.def_var = move(n.def_var);
    for (stg::Operand& o : n.operands)
      if (o.kind() == stg::Operand::Kind::Reg)
        o = stg::Operand::of_reg(move(o.reg()));
  }
}

}  // namespace

struct DfgScratch::State {
  // Every per-variable and per-array list below is a singly linked list
  // threaded through one pool, appended at the tail so iteration keeps
  // insertion order.
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

  // The names the DFG views, each distinct one once, in a buffer build()
  // hands to the DFG; the next build starts a new one of the largest
  // size any build has needed.
  struct Name {
    size_t offset = 0;
    size_t size = 0;
  };
  std::shared_ptr<char[]> names;
  size_t names_used = 0;
  size_t names_capacity = 256;

  std::string_view view(Name n) const {
    return {names.get() + n.offset, n.size};
  }
  Name intern(std::string_view name) {
    if (names_used + name.size() > names_capacity) {
      // Grow, and move the names the nodes so far view along.
      const size_t capacity =
          std::max(names_used + name.size(), 2 * names_capacity);
      auto grown = std::make_shared_for_overwrite<char[]>(capacity);
      std::copy_n(names.get(), names_used, grown.get());
      rebase(nodes, names.get(), grown.get());
      names = std::move(grown);
      names_capacity = capacity;
    }
    std::copy(name.begin(), name.end(), names.get() + names_used);
    const Name n{names_used, name.size()};
    names_used += name.size();
    return n;
  }

  // Per-variable dataflow within the segment, one slot per variable name
  // in first-sight order. A segment names a handful of variables, so a
  // linear scan interns them. `version` counts the definitions so far.
  struct Var {
    Name name;
    int version = 0;
    int last_def = -1;
    int defs = 0;  // in-segment definitions
    List reads_of_current;
    List livein_reads;
  };
  // Per-array memory ordering; `version` counts the stores so far.
  struct Array {
    Name name;
    int version = 0;
    int last_store = -1;
    List reads_since_store;
    int resource = -1;
  };
  // Per FU type of the builder: its interned name (once a node binds it)
  // and its resource index.
  struct Fu {
    Name name;
    bool interned = false;
    int resource = -1;
  };
  std::vector<Var> vars;
  std::vector<Array> arrays;
  std::vector<Fu> fus;

  size_t var(std::string_view name) {
    for (size_t i = 0; i < vars.size(); ++i)
      if (view(vars[i].name) == name) return i;
    vars.emplace_back().name = intern(name);
    return vars.size() - 1;
  }
  size_t array(std::string_view name) {
    for (size_t i = 0; i < arrays.size(); ++i)
      if (view(arrays[i].name) == name) return i;
    arrays.emplace_back().name = intern(name);
    return arrays.size() - 1;
  }

  // The nodes and their edges under construction (DfgEdges::begin and
  // preds), each node's successor counts along data and memory-order
  // edges and along anti edges, and each node's resource.
  std::vector<DfgNode> nodes;
  std::vector<int> begin;
  std::vector<int> preds;
  std::vector<int> succ_count, war_count;
  std::vector<int> resource, resource_nodes;
  std::vector<int> cursor;  // successor fill positions, at the end

  /// Adds a data or memory-order edge from `p` to the newest node.
  void edge(int p) {
    preds.push_back(p);
    succ_count[static_cast<size_t>(p)]++;
  }
  /// Adds an anti/output edge from `p` to the newest node.
  void anti_edge(int p) {
    preds.push_back(p);
    war_count[static_cast<size_t>(p)]++;
  }

  // Local value numbering: the key of a node made for an expression is its
  // op, the array it reads and that array's version, and per operand a
  // literal, a node, or a variable and its version. Keys are
  // open-addressed in `slots`; a slot belongs to the current build only
  // when it carries the build's stamp, so a build starts with an empty
  // table without clearing it.
  enum class Arg : uint8_t { None, Literal, Node, Var };
  struct Key {
    ir::Op op = ir::Op::Const;
    std::array<Arg, stg::Operands::kMax> kind{};
    int array = -1;
    int array_version = 0;
    std::array<int64_t, stg::Operands::kMax> arg{};

    bool operator==(const Key&) const = default;
    uint64_t hash() const {
      uint64_t h = hash_mix(static_cast<uint64_t>(op),
                            static_cast<uint64_t>(array) << 32 |
                                static_cast<uint32_t>(array_version));
      for (size_t i = 0; i < arg.size(); ++i)
        h = hash_mix(h, static_cast<uint64_t>(arg[i]) * 4 +
                            static_cast<uint64_t>(kind[i]));
      return h;
    }
  };
  struct Entry {
    Key key;
    uint64_t hash;
    int node;
  };
  struct Slot {
    uint32_t stamp = 0;
    int entry = -1;
  };
  std::vector<Entry> entries;
  std::vector<Slot> slots;
  uint32_t stamp = 0;

  /// The node an earlier expression with this key made, or -1.
  int lookup(const Key& key, uint64_t h) const {
    const size_t mask = slots.size() - 1;
    for (size_t i = h & mask;; i = (i + 1) & mask) {
      const Slot& slot = slots[i];
      if (slot.stamp != stamp) return -1;
      const Entry& e = entries[static_cast<size_t>(slot.entry)];
      if (e.hash == h && e.key == key) return e.node;
    }
  }
  void place(size_t entry) {
    const size_t mask = slots.size() - 1;
    size_t i = entries[entry].hash & mask;
    while (slots[i].stamp == stamp) i = (i + 1) & mask;
    slots[i] = {stamp, static_cast<int>(entry)};
  }
  void remember(const Key& key, uint64_t h, int node) {
    entries.push_back({key, h, node});
    if (2 * entries.size() <= slots.size()) {
      place(entries.size() - 1);
      return;
    }
    // Keep the table at most half full.
    slots.assign(2 * slots.size(), Slot{});
    for (size_t e = 0; e < entries.size(); ++e) place(e);
  }

  /// Empties every table for a build by a builder of `num_fus` FU types.
  void reset(size_t num_fus) {
    links.clear();
    if (!names) names = std::make_shared_for_overwrite<char[]>(names_capacity);
    names_used = 0;
    vars.clear();
    arrays.clear();
    fus.assign(num_fus, Fu{});
    nodes.clear();
    begin.assign(1, 0);
    preds.clear();
    succ_count.clear();
    war_count.clear();
    resource.clear();
    resource_nodes.clear();
    entries.clear();
    if (slots.empty()) slots.resize(64);
    if (++stamp == 0) {  // the stamp wrapped: clear for real
      slots.assign(slots.size(), Slot{});
      stamp = 1;
    }
  }
};

DfgScratch::DfgScratch() : state_(std::make_unique<State>()) {}
DfgScratch::~DfgScratch() = default;

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
    if (const hlslib::FuType* t = lib.find(name)) {
      b.delay_ns = t->delay_ns * scale;
      b.fu_type = static_cast<int>(t - lib.types().data());
    } else {
      b.error = "unknown functional unit type '" + name + "'";
    }
    return b;
  };
  const hlslib::FuType* mem = lib.first_of(FuClass::Memory);
  if (mem) {
    memory_ = {mem->name, -1,
               static_cast<int>(lib.find(mem->name) - lib.types().data()),
               mem->delay_ns * scale, ""};
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

  // Number the distinct FU types bound, so a build interns each by index.
  std::vector<Binding*> bound{&memory_, &incrementer_};
  for (Binding& b : by_op_) bound.push_back(&b);
  for (const Binding* b : bound)
    if (!b->fu.empty()) fus_.push_back(b->fu);
  std::sort(fus_.begin(), fus_.end());
  fus_.erase(std::unique(fus_.begin(), fus_.end()), fus_.end());
  for (Binding* b : bound)
    if (!b->fu.empty())
      b->fu_id = static_cast<int>(
          std::lower_bound(fus_.begin(), fus_.end(), b->fu) - fus_.begin());
}

const DfgBuilder::Binding& DfgBuilder::bind_fu(
    const Expr& e, const std::string* self_var) const {
  const Op op = e.op();
  // Incrementer special case: a self-increment `i = i + 1` binds to an
  // incrementer when one is allocated (Table 1 binds "++1" to incr1 while
  // "a + 7" uses the adder). A data add that merely has a constant-1
  // operand stays on the adder so counters keep their incrementers.
  if (self_var && op == Op::Add && !incrementer_.fu.empty()) {
    const bool self_incr =
        (is_const_one(e.arg(1)) && e.arg(0)->op() == Op::Var &&
         e.arg(0)->name() == *self_var) ||
        (is_const_one(e.arg(0)) && e.arg(1)->op() == Op::Var &&
         e.arg(1)->name() == *self_var);
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
        e.arg(0)->op() == Op::Const || e.arg(1)->op() == Op::Const;
    if (has_const && counter_operand(e.arg(0)) && counter_operand(e.arg(1)))
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

/// One build's pass over the statements, in the scratch state.
class DfgBuilder::Pass {
 public:
  using State = DfgScratch::State;

  Pass(const DfgBuilder& builder, State& s) : b_(builder), s_(s) {}

  /// add_expr results that are not nodes.
  static constexpr int kLiteral = -1;
  static constexpr int kRegister = -2;

  /// The node computing `e` (made unless value numbering finds it), or
  /// kLiteral / kRegister for a constant / variable leaf.
  int add_expr(const Expr& e, int stmt_id,
               const std::string* self_var = nullptr) {
    switch (e.op()) {
      case Op::Const:
        return kLiteral;
      case Op::Var:
        return kRegister;
      default:
        break;
    }
    // Binding first: an op without a unit fails before its operands are
    // built. Such an op never has a node to find (making one would have
    // failed), so the failing op is the first unbound one in pre-order.
    const Binding& fu = b_.bind_fu(e, self_var);

    State::Key key;
    key.op = e.op();
    if (e.op() == Op::ArrayRead) {
      const size_t a = s_.array(e.name());
      key.array = static_cast<int>(a);
      key.array_version = s_.arrays[a].version;
    }
    // Operands: child nodes first (sibling subtrees may make nodes in
    // between), then this node's key.
    const auto& args = e.args();
    int operand[stg::Operands::kMax];
    for (size_t i = 0; i < args.size(); ++i) {
      const Expr& arg = *args[i];
      operand[i] = add_expr(arg, stmt_id);
      if (operand[i] >= 0) {
        key.kind[i] = State::Arg::Node;
        key.arg[i] = operand[i];
      } else if (operand[i] == kLiteral) {
        key.kind[i] = State::Arg::Literal;
        key.arg[i] = arg.value();
      } else {
        const size_t v = s_.var(arg.name());
        key.kind[i] = State::Arg::Var;
        key.arg[i] = static_cast<int64_t>(v) << 32 | s_.vars[v].version;
      }
    }
    const uint64_t h = key.hash();
    if (const int hit = s_.lookup(key, h); hit >= 0) return hit;

    const int id = open_node(e.op(), stmt_id, &fu);
    DfgNode& node = s_.nodes.back();
    for (size_t i = 0; i < args.size(); ++i) {
      if (operand[i] >= 0) {
        s_.edge(operand[i]);
        node.operands.push_back(stg::Operand::of_wire(operand[i]));
      } else if (operand[i] == kLiteral) {
        node.operands.push_back(stg::Operand::of_literal(args[i]->value()));
      } else {
        // Variable operand: register read; depends on the segment-local
        // definition if one exists.
        const State::Var& v = s_.vars[static_cast<size_t>(key.arg[i] >> 32)];
        node.operands.push_back(stg::Operand::of_reg(s_.view(v.name)));
        node.var_reads++;
        if (v.last_def >= 0) s_.edge(v.last_def);
      }
    }
    if (key.array >= 0) {
      State::Array& a = s_.arrays[static_cast<size_t>(key.array)];
      node.array = s_.view(a.name);
      if (a.last_store >= 0) s_.edge(a.last_store);
      s_.append(a.reads_since_store, id);
    }
    for (size_t i = 0; i < args.size(); ++i) {
      if (key.kind[i] != State::Arg::Var) continue;
      State::Var& v = s_.vars[static_cast<size_t>(key.arg[i] >> 32)];
      if (v.last_def < 0) s_.append(v.livein_reads, id);
      s_.append(v.reads_of_current, id);
    }
    close_node(-1, key.array);
    s_.remember(key, h, id);
    return id;
  }

  void assign(const Stmt& s) {
    const int first_new = static_cast<int>(s_.nodes.size());
    int root = add_expr(*s.value, s.id, &s.target);
    if (root < 0) {
      // Copy assignment (x = y or x = 5): a register transfer node.
      root = open_node(Op::Var, s.id, nullptr);
      if (s.value->op() == Op::Var) {
        read_var(s.value->name(), /*note_reader=*/true);
      } else {
        s_.nodes.back().operands.push_back(
            stg::Operand::of_literal(s.value->value()));
      }
      close_node();
    }
    if (s_.nodes[static_cast<size_t>(root)].reg_write || root < first_new) {
      // The value node already defines another variable, or predates this
      // statement entirely (a value-numbering hit): route the definition
      // through a fresh copy. Defining the old node directly would give it
      // anti-dependence edges pointing at its own consumers (a cycle).
      const int value = root;
      root = open_node(Op::Var, s.id, nullptr);
      s_.edge(value);
      s_.nodes.back().operands.push_back(stg::Operand::of_wire(value));
      close_node();
    }
    // The root is the newest node, so its anti-dependence edges (earlier
    // reads of the variable's previous value, then that value's
    // definition) still end the edge array.
    assert(root + 1 == static_cast<int>(s_.nodes.size()));
    State::Var& v = s_.vars[s_.var(s.target)];
    DfgNode& n = s_.nodes.back();
    n.reg_write = true;
    n.def_var = s_.view(v.name);
    s_.for_each(v.reads_of_current, [&](int r) {
      if (r != root) s_.anti_edge(r);
    });
    if (v.last_def >= 0) s_.anti_edge(v.last_def);
    const int end = static_cast<int>(s_.preds.size());
    s_.begin[s_.begin.size() - 2] = end;
    s_.begin.back() = end;
    v.reads_of_current = {};
    v.last_def = root;
    v.defs++;
    v.version++;
  }

  void store(const Stmt& s) {
    const int idx = add_expr(*s.index, s.id);
    const int val = add_expr(*s.value, s.id);
    const size_t a = s_.array(s.target);
    const Binding& mem = b_.memory();
    const int id = open_node(Op::ArrayRead, s.id, &mem);
    s_.nodes.back().is_store = true;
    s_.nodes.back().array = s_.view(s_.arrays[a].name);
    auto hook_operand = [&](int node_id, const Expr& expr) {
      if (node_id >= 0) {
        s_.edge(node_id);
        s_.nodes.back().operands.push_back(stg::Operand::of_wire(node_id));
      } else if (expr.op() == Op::Var) {
        read_var(expr.name(), /*note_reader=*/true);
      } else {
        s_.nodes.back().operands.push_back(
            stg::Operand::of_literal(expr.value()));
      }
    };
    hook_operand(idx, *s.index);
    hook_operand(val, *s.value);
    // Memory ordering: after the previous store and all reads since.
    State::Array& arr = s_.arrays[a];
    const int data_end = static_cast<int>(s_.preds.size());
    if (arr.last_store >= 0) s_.edge(arr.last_store);
    s_.for_each(arr.reads_since_store, [&](int r) { s_.edge(r); });
    close_node(data_end, static_cast<int>(a));
    arr.last_store = id;
    arr.reads_since_store = {};
    arr.version++;
  }

  /// The node checking `cond`, appended after the statements.
  int condition(const Expr& cond, int stmt_id) {
    int c = add_expr(cond, stmt_id);
    if (c >= 0) return c;
    // Condition is a bare variable or constant: model as a copy node so
    // there is a concrete check point in the schedule.
    c = open_node(Op::Var, stmt_id, nullptr);
    if (cond.op() == Op::Var) {
      read_var(cond.name(), /*note_reader=*/false);
    } else {
      s_.nodes.back().operands.push_back(
          stg::Operand::of_literal(cond.value()));
    }
    close_node();
    return c;
  }

 private:
  /// Appends a node bound to `fu`, or a register copy (no FU, no delay)
  /// when `fu` is null. Its edges follow, up to close_node().
  int open_node(Op op, int stmt_id, const Binding* fu) {
    const int id = static_cast<int>(s_.nodes.size());
    DfgNode& n = s_.nodes.emplace_back();
    n.op = op;
    n.stmt_id = stmt_id;
    s_.succ_count.push_back(0);
    s_.war_count.push_back(0);
    int resource = -1;
    if (fu) {
      n.delay_ns = fu->delay_ns;
      if (fu->fu_id >= 0) {
        State::Fu& f = s_.fus[static_cast<size_t>(fu->fu_id)];
        if (!f.interned) {
          f.name = s_.intern(fu->fu);
          f.interned = true;
        }
        n.fu = s_.view(f.name);
        n.fu_type = static_cast<int16_t>(fu->fu_type);
        // A memory op's resource is its array's port (close_node).
        if (op != Op::ArrayRead) {
          if (f.resource < 0) f.resource = new_resource(id);
          resource = f.resource;
        }
      }
    }
    s_.resource.push_back(resource);
    return id;
  }

  /// Ends the newest node's edges: data edges up to `data_end` (default:
  /// all pushed so far), no anti edges yet, memory-order edges after. A
  /// memory op names its `array`, whose port is its resource.
  void close_node(int data_end = -1, int array = -1) {
    const int end = static_cast<int>(s_.preds.size());
    if (data_end < 0) data_end = end;
    s_.begin.push_back(data_end);
    s_.begin.push_back(data_end);
    s_.begin.push_back(end);
    if (array >= 0) {
      State::Array& a = s_.arrays[static_cast<size_t>(array)];
      if (a.resource < 0)
        a.resource = new_resource(static_cast<int>(s_.nodes.size()) - 1);
      s_.resource.back() = a.resource;
    }
  }

  int new_resource(int node) {
    s_.resource_nodes.push_back(node);
    return static_cast<int>(s_.resource_nodes.size()) - 1;
  }

  /// A register read of variable `name` by the newest node (a copy, store
  /// or check node): depends on the segment-local definition if one
  /// exists.
  void read_var(const std::string& name, bool note_reader) {
    const int id = static_cast<int>(s_.nodes.size()) - 1;
    State::Var& v = s_.vars[s_.var(name)];
    DfgNode& self = s_.nodes.back();
    self.var_reads++;
    self.operands.push_back(stg::Operand::of_reg(s_.view(v.name)));
    if (v.last_def >= 0) {
      s_.edge(v.last_def);
    } else {
      s_.append(v.livein_reads, id);
    }
    if (note_reader) s_.append(v.reads_of_current, id);
  }

  const DfgBuilder& b_;
  State& s_;
};

Dfg DfgBuilder::build(DfgScratch& scratch,
                      const std::vector<const Stmt*>& stmts,
                      const ExprPtr& cond, int cond_stmt_id) const {
  DfgScratch::State& s = *scratch.state_;
  s.reset(fus_.size());
  Pass pass(*this, s);
  for (const Stmt* st : stmts) {
    switch (st->kind) {
      case StmtKind::Assign:
        pass.assign(*st);
        break;
      case StmtKind::Store:
        pass.store(*st);
        break;
      default:
        throw Error("DfgBuilder: segment contains control flow");
    }
  }
  Dfg dfg;
  if (cond) dfg.cond_node = pass.condition(*cond, cond_stmt_id);
  // Anti-dependences on multi-definition variables must keep their order
  // even under modulo scheduling (see DfgNode::relax_war).
  for (const DfgScratch::State::Var& v : s.vars)
    if (v.defs == 1) s.nodes[static_cast<size_t>(v.last_def)].relax_war = true;

  // The DFG's own arrays, each allocated once at its exact size, and the
  // name buffer its nodes view.
  const size_t n = s.nodes.size();
  dfg.nodes.assign(s.nodes.begin(), s.nodes.end());
  dfg.names = std::move(s.names);

  // The edge block: every int array carved from one buffer, in order.
  size_t carried = 0, reads = 0;
  for (const DfgScratch::State::Var& v : s.vars) {
    if (v.last_def < 0 || v.livein_reads.head < 0) continue;
    carried++;
    s.for_each(v.livein_reads, [&](int) { reads++; });
  }
  // Each edge appears once among the predecessors and once among the
  // successors of either kind.
  const size_t num_edges = s.preds.size();
  auto edges = std::make_shared<DfgEdges>();
  DfgEdges& e = *edges;
  e.ints_.resize(s.begin.size() + 2 * num_edges + n + s.resource_nodes.size() +
                 2 * (n + 1) + reads);
  int* next = e.ints_.data();
  auto carve = [&](std::span<const int>& out, size_t size) {
    int* first = next;
    next += size;
    out = {first, size};
    return first;
  };
  std::copy(s.begin.begin(), s.begin.end(), carve(e.begin, s.begin.size()));
  std::copy(s.preds.begin(), s.preds.end(), carve(e.preds, num_edges));
  std::copy(s.resource.begin(), s.resource.end(), carve(e.resource, n));
  std::copy(s.resource_nodes.begin(), s.resource_nodes.end(),
            carve(e.resource_nodes, s.resource_nodes.size()));
  // Successor lists from the counts the pass kept, filled in node order.
  int* succ_begin = carve(e.succ_begin, n + 1);
  int* war_begin = carve(e.war_begin, n + 1);
  succ_begin[0] = war_begin[0] = 0;
  for (size_t i = 0; i < n; ++i) {
    succ_begin[i + 1] = succ_begin[i] + s.succ_count[i];
    war_begin[i + 1] = war_begin[i] + s.war_count[i];
  }
  int* succs = carve(e.succs, static_cast<size_t>(succ_begin[n]));
  int* war_succs = carve(e.war_succs, static_cast<size_t>(war_begin[n]));
  s.cursor.assign(succ_begin, succ_begin + n);
  s.cursor.insert(s.cursor.end(), war_begin, war_begin + n);
  for (size_t i = 0; i < n; ++i) {
    const int* b = &s.begin[3 * i];
    for (int k = b[0]; k < b[3]; ++k) {
      const size_t p = static_cast<size_t>(s.preds[static_cast<size_t>(k)]);
      if (k >= b[1] && k < b[2]) {
        war_succs[s.cursor[n + p]++] = static_cast<int>(i);
      } else {
        succs[s.cursor[p]++] = static_cast<int>(i);
      }
    }
  }
  // Priorities over data edges only. Nodes are created in topological
  // order (children before parents), so a reverse sweep propagates from
  // consumers to producers; prio[i] collects the maximum over i's
  // successors before i's turn.
  e.prio_.assign(n, 0.0);
  for (size_t i = n; i-- > 0;) {
    e.prio_[i] += dfg.nodes[i].delay_ns;
    for (int k = s.begin[3 * i]; k < s.begin[3 * i + 1]; ++k) {
      const size_t p = static_cast<size_t>(s.preds[static_cast<size_t>(k)]);
      e.prio_[p] = std::max(e.prio_[p], e.prio_[i]);
    }
  }
  e.prio = e.prio_;
  // Carried variables, in first-sight order.
  int* livein = carve(e.livein_reads, reads);
  dfg.carried.reserve(carried);
  for (const DfgScratch::State::Var& v : s.vars) {
    if (v.last_def < 0 || v.livein_reads.head < 0) continue;
    const int* first = livein;
    s.for_each(v.livein_reads, [&](int r) { *livein++ = r; });
    dfg.carried.push_back(
        {v.last_def, {first, static_cast<size_t>(livein - first)}});
  }
  dfg.edges = std::move(edges);
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

bool list_schedule(Dfg& dfg, ResourceTable& table, double clock_ns, int period,
                   int max_csteps) {
  const size_t n = dfg.nodes.size();
  if (n == 0) return true;
  const DfgEdges& deps = *dfg.edges;
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
    const int* b = &deps.begin[3 * i];
    pending[i] = b[3] - b[0] - (honors_war(i) ? 0 : b[2] - b[1]);
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

    const std::span<const int> preds = dfg.preds(static_cast<size_t>(pick));
    int earliest = 0;
    for (int p : preds)
      earliest = std::max(earliest, dfg.nodes[static_cast<size_t>(p)].avail_cstep());
    for (int p : dfg.mem_war_preds(static_cast<size_t>(pick)))
      earliest = std::max(earliest, dfg.nodes[static_cast<size_t>(p)].cstep);
    if (honors_war(static_cast<size_t>(pick)))
      for (int p : dfg.war_preds(static_cast<size_t>(pick)))
        earliest = std::max(earliest, dfg.nodes[static_cast<size_t>(p)].cstep);

    bool placed = false;
    for (int cstep = earliest; cstep < earliest + max_csteps; ++cstep) {
      // Chaining: operands that become available within this same cstep
      // delay our start time.
      double start = 0.0;
      for (int p : preds) {
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
    for (int p : dfg.preds(i)) {
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
      for (int p : dfg.war_preds(i))
        if (!ordered_ok(p)) return false;
    } else {
      // Relaxed anti-dependences are repaired by one shadow register per
      // variable: the reader's desired value must be either the def's most
      // recent execution or exactly one update older (the shadow). With
      // def lag Ld running before/after the reader (slot order) and reader
      // lag Lr, that bounds Ld - Lr to {0,1} / {-1,0} respectively.
      for (int p : dfg.war_preds(i)) {
        const DfgNode& r = dfg.nodes[static_cast<size_t>(p)];
        if (r.cstep < 0) continue;
        const bool before = n.cstep % ii < r.cstep % ii;
        const int diff = lag[i] - lag[static_cast<size_t>(p)];
        if (before ? (diff < 0 || diff > 1) : (diff < -1 || diff > 0))
          return false;
      }
    }
    for (int p : dfg.mem_war_preds(i))
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
