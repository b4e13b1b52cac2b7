#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <numeric>
#include <set>
#include <span>
#include <sstream>
#include <thread>

#include "ir/hash.hpp"
#include "lang/parser.hpp"
#include "program_gen.hpp"
#include "sched/dfg.hpp"
#include "sched/fragment_cache.hpp"
#include "sched/region.hpp"
#include "sched/scheduler.hpp"
#include "sim/trace.hpp"
#include "summary_oracle.hpp"
#include "test_util.hpp"
#include "util/error.hpp"
#include "util/strfmt.hpp"
#include "workloads/workloads.hpp"
#include "xform/transform.hpp"

namespace fact::sched {
namespace {

ir::Function parse(const std::string& src) { return lang::parse_function(src); }

struct Harness {
  hlslib::Library lib = hlslib::Library::dac98();
  hlslib::FuSelection sel = hlslib::FuSelection::defaults(lib);
  hlslib::Allocation alloc;
  SchedOptions opts;

  Harness() {
    alloc.counts = {{"a1", 2}, {"sb1", 2}, {"mt1", 1}, {"cp1", 2},
                    {"e1", 1}, {"i1", 1},  {"n1", 1},  {"s1", 1}};
  }

  ScheduleResult schedule(const ir::Function& fn,
                          const sim::TraceConfig& tc = {}) const {
    const sim::Trace trace = sim::generate_trace(fn, tc, 7);
    const sim::Profile profile = sim::profile_function(fn, trace);
    Scheduler s(lib, alloc, sel, opts);
    return s.schedule(fn, profile);
  }
};

// ---- region tree ------------------------------------------------------

TEST(RegionTree, GroupsStraightLineCode) {
  const auto fn = parse("F(int a) { int x = a + 1; int y = x * 2; int z = y - 1; }");
  const RegionTree tree(fn);
  ASSERT_EQ(tree->children.size(), 1u);
  EXPECT_TRUE(tree->children[0]->is_straight());
  EXPECT_EQ(tree->children[0]->stmts.size(), 3u);
}

TEST(RegionTree, SplitsAtControlFlow) {
  const auto fn = parse(R"(
F(int a) {
  int x = a + 1;
  if (x > 0) { x = x - 1; }
  int y = x * 2;
}
)");
  const RegionTree tree(fn);
  ASSERT_EQ(tree->children.size(), 3u);
  EXPECT_TRUE(tree->children[0]->is_straight());
  EXPECT_EQ(tree->children[1]->kind, Region::Kind::If);
  EXPECT_TRUE(tree->children[2]->is_straight());
}

TEST(RegionTree, LoopBodyStraightDetection) {
  const auto straight = parse("F(int n) { int i = 0; while (i < n) { i = i + 1; } }");
  const RegionTree tree1(straight);
  const Region* loop1 = tree1->children[1];
  ASSERT_EQ(loop1->kind, Region::Kind::Loop);
  EXPECT_TRUE(loop1->loop_body_is_straight());

  const auto branchy = parse(R"(
F(int n) {
  int i = 0;
  while (i < n) { if (i > 2) { i = i + 2; } else { i = i + 1; } }
}
)");
  const RegionTree tree2(branchy);
  EXPECT_FALSE(tree2->children[1]->loop_body_is_straight());
}

TEST(RegionTree, FlattensNestedBlocks) {
  // for-lowering produces nested blocks; adjacent straight code must merge.
  const auto fn = parse("F() { int a = 1; for (a = 0; a < 2; a++) { int b = a; } int c = 2; }");
  const RegionTree tree(fn);
  // init statements merge into one straight region before the loop.
  ASSERT_GE(tree->children.size(), 2u);
  EXPECT_TRUE(tree->children[0]->is_straight());
  EXPECT_EQ(tree->children[0]->stmts.size(), 2u);  // a=1; a=0
}

// ---- DFG construction -------------------------------------------------

/// A DFG built in a scratch of its own.
Dfg build(const DfgBuilder& b, const std::vector<const ir::Stmt*>& stmts,
          const ir::ExprPtr& cond = nullptr, int cond_stmt_id = -1) {
  DfgScratch scratch;
  return b.build(scratch, stmts, cond, cond_stmt_id);
}

TEST(Dfg, ValueNumberingSharesCommonSubexpressions) {
  Harness s;
  const auto fn = parse("F(int a, int b) { int x = (a > b) ? a : b; int y = (a > b) ? b : a; }");
  DfgBuilder b(s.lib, s.alloc, s.sel, 5.0, 1.0);
  const RegionTree tree(fn);
  const Dfg dfg = build(b, tree->children[0]->stmts);
  int comparators = 0;
  for (const auto& n : dfg.nodes)
    if (n.fu == "cp1") comparators++;
  EXPECT_EQ(comparators, 1);
}

TEST(Dfg, ValueNumberingInvalidatedOnRedefine) {
  Harness s;
  const auto fn = parse("F(int a) { int x = a * a; a = a + 1; int y = a * a; }");
  DfgBuilder b(s.lib, s.alloc, s.sel, 5.0, 1.0);
  const RegionTree tree(fn);
  const Dfg dfg = build(b, tree->children[0]->stmts);
  int mults = 0;
  for (const auto& n : dfg.nodes)
    if (n.fu == "mt1") mults++;
  EXPECT_EQ(mults, 2);  // a*a before and after redefinition differ
}

TEST(Dfg, CountedLoopComparisonsAreControllerResident) {
  Harness s;
  const auto fn = parse("F(int n, int c) { int x = (n < 5) + (n < c); }");
  DfgBuilder b(s.lib, s.alloc, s.sel, 5.0, 1.0);
  const RegionTree tree(fn);
  const Dfg dfg = build(b, tree->children[0]->stmts);
  int datapath_cmp = 0, controller_cmp = 0;
  for (const auto& n : dfg.nodes) {
    if (n.op != ir::Op::Lt) continue;
    if (n.fu.empty()) controller_cmp++; else datapath_cmp++;
  }
  EXPECT_EQ(controller_cmp, 1);  // n < 5
  EXPECT_EQ(datapath_cmp, 1);    // n < c
}

TEST(Dfg, IncrementerBindsSelfIncrementsOnly) {
  Harness s;
  // `i = i + 1` is a counter update (incr1 per Table 1); `j = a + 1` is a
  // data add and must stay on the adder so counters keep incrementers.
  const auto fn = parse("F(int a) { int i = 3; i = i + 1; int j = a + 1; }");
  DfgBuilder b(s.lib, s.alloc, s.sel, 5.0, 1.0);
  const RegionTree tree(fn);
  const Dfg dfg = build(b, tree->children[0]->stmts);
  int incrs = 0, adders = 0;
  for (const auto& n : dfg.nodes) {
    if (n.fu == "i1") incrs++;
    if (n.fu == "a1") adders++;
  }
  EXPECT_EQ(incrs, 1);
  EXPECT_EQ(adders, 1);
}

TEST(Dfg, ChainingRespectsClockPeriod) {
  Harness s;
  // Three dependent adds at 10ns each: two chain into 20ns <= 25, the
  // third starts a new cstep.
  const auto fn = parse("F(int a, int b) { int x = ((a + b) + a) + b; }");
  DfgBuilder b(s.lib, s.alloc, s.sel, 5.0, 1.0);
  const RegionTree tree(fn);
  Dfg dfg = build(b, tree->children[0]->stmts);
  ResourceTable table(s.alloc, 0);
  ASSERT_TRUE(list_schedule(dfg, table, 25.0));
  EXPECT_EQ(dfg.num_csteps(), 2);
}

TEST(Dfg, ResourceConstraintSerializes) {
  Harness s;
  s.alloc.counts["mt1"] = 1;
  // Two independent multiplies, one multiplier: 2 csteps.
  const auto fn = parse("F(int a, int b) { int x = a * a; int y = b * b; }");
  DfgBuilder b(s.lib, s.alloc, s.sel, 5.0, 1.0);
  const RegionTree tree(fn);
  Dfg dfg = build(b, tree->children[0]->stmts);
  ResourceTable table(s.alloc, 0);
  ASSERT_TRUE(list_schedule(dfg, table, 25.0));
  EXPECT_EQ(dfg.num_csteps(), 2);
}

TEST(Dfg, MultiCycleOperations) {
  Harness s;
  // Multiplier (23ns at 5V) at 4V scales to ~34ns > 25ns: spans 2 csteps.
  const auto fn = parse("F(int a) { int x = a * a; }");
  DfgBuilder b(s.lib, s.alloc, s.sel, 4.0, 1.0);
  const RegionTree tree(fn);
  Dfg dfg = build(b, tree->children[0]->stmts);
  ResourceTable table(s.alloc, 0);
  ASSERT_TRUE(list_schedule(dfg, table, 25.0));
  EXPECT_EQ(dfg.nodes[0].span, 2);
  EXPECT_EQ(dfg.num_csteps(), 2);
}

TEST(Dfg, MemoryPortSerializesSameArray) {
  Harness s;
  const auto fn = parse(R"(
F(int i) {
  input int x[8];
  int a = x[i];
  int b = x[i + 1];
}
)");
  DfgBuilder b(s.lib, s.alloc, s.sel, 5.0, 1.0);
  const RegionTree tree(fn);
  Dfg dfg = build(b, tree->children[0]->stmts);
  ResourceTable table(s.alloc, 0);
  ASSERT_TRUE(list_schedule(dfg, table, 25.0));
  // Two reads of x cannot share a cycle on a single-ported memory.
  int c0 = -1, c1 = -1;
  for (const auto& n : dfg.nodes)
    if (n.array == "x") (c0 < 0 ? c0 : c1) = n.cstep;
  EXPECT_NE(c0, c1);
}

TEST(Dfg, ResourceMinIiMatchesCounts) {
  Harness s;
  s.alloc.counts["a1"] = 2;
  const auto fn = parse("F(int a) { int x = a + 1 + a + 2 + a + 3; }");
  // Note: +1 binds to the incrementer; remaining adds to a1.
  DfgBuilder b(s.lib, s.alloc, s.sel, 5.0, 1.0);
  const RegionTree tree(fn);
  const Dfg dfg = build(b, tree->children[0]->stmts);
  const int ii = resource_min_ii(dfg, ResourceTable(s.alloc, 1));
  EXPECT_GE(ii, 2);  // 4 adds on 2 adders (chain is left-leaning: a+1 first)
}

// ---- DFG construction against the reference builder --------------------

/// The DFG builder at its simplest, kept as the oracle: value numbering by
/// structural equality against every earlier expression, each entry
/// killed by name when a variable or array its expression reads is
/// redefined, and per-node edge vectors. A build renders as text: every
/// node with its annotations and edge lists, the carried variables and
/// the condition node.
class ReferenceDfgBuilder {
 public:
  ReferenceDfgBuilder(const hlslib::Library& lib,
                      const hlslib::Allocation& alloc,
                      const hlslib::FuSelection& sel)
      : lib_(lib), alloc_(alloc), sel_(sel) {}

  std::string build(const std::vector<const ir::Stmt*>& stmts,
                    const ir::ExprPtr& cond, int cond_stmt_id) {
    nodes_.clear();
    vars_.clear();
    order_.clear();
    arrays_.clear();
    entries_.clear();
    for (const ir::Stmt* s : stmts) {
      if (s->kind == ir::StmtKind::Assign) {
        const int first_new = static_cast<int>(nodes_.size());
        define(s->target, add(s->value, s->id, &s->target), s->value, s->id,
               first_new);
      } else if (s->kind == ir::StmtKind::Store) {
        store(*s);
      } else {
        throw Error("DfgBuilder: segment contains control flow");
      }
    }
    for (const std::string& name : order_) {
      const Var& v = vars_[name];
      if (v.defs == 1) nodes_[static_cast<size_t>(v.last_def)].relax_war = true;
    }
    int cond_node = -1;
    if (cond) {
      cond_node = add(cond, cond_stmt_id);
      if (cond_node < 0) {
        Node chk{ir::Op::Var, cond_stmt_id};
        if (cond->op() == ir::Op::Var) {
          read_var(chk, cond->name(), /*note_reader=*/false);
        } else {
          chk.operands.push_back(std::to_string(cond->value()));
        }
        cond_node = push(std::move(chk));
      }
    }
    std::string out;
    for (size_t i = 0; i < nodes_.size(); ++i) {
      const Node& n = nodes_[i];
      out += render_node(i, n.op, n.is_store, n.reg_write, n.relax_war, n.fu,
                         n.array, n.def_var, n.stmt_id, n.var_reads,
                         n.operands, n.preds, n.war_preds, n.mem_war_preds);
    }
    for (const std::string& name : order_) {
      const Var& v = vars_[name];
      if (v.last_def >= 0 && !v.livein_reads.empty())
        out += render_carried(v.last_def, v.livein_reads);
    }
    return out + strfmt("cond %d\n", cond_node);
  }

  static std::string render_node(size_t i, ir::Op op, bool is_store,
                                 bool reg_write, bool relax_war,
                                 std::string_view fu, std::string_view array,
                                 std::string_view def_var, int stmt_id,
                                 int var_reads,
                                 const std::vector<std::string>& operands,
                                 std::span<const int> preds,
                                 std::span<const int> war_preds,
                                 std::span<const int> mem_war_preds) {
    std::string out = strfmt(
        "%zu: op %d%s%s%s fu '%s' array '%s' def '%s' stmt %d reads %d (",
        i, static_cast<int>(op), is_store ? " store" : "",
        reg_write ? " reg_write" : "", relax_war ? " relax_war" : "",
        std::string(fu).c_str(), std::string(array).c_str(),
        std::string(def_var).c_str(), stmt_id, var_reads);
    for (const std::string& o : operands) {
      out += ' ';
      out += o;
    }
    out += " )";
    for (const auto& [what, list] :
         {std::pair{" preds", preds}, std::pair{" war", war_preds},
          std::pair{" mem", mem_war_preds}}) {
      out += what;
      for (int p : list) {
        out += ' ';
        out += std::to_string(p);
      }
    }
    return out + "\n";
  }
  static std::string render_carried(int def, std::span<const int> reads) {
    std::string out = strfmt("carried %d:", def);
    for (int r : reads) {
      out += ' ';
      out += std::to_string(r);
    }
    return out + "\n";
  }

 private:
  struct Node {
    Node(ir::Op op, int stmt_id) : op(op), stmt_id(stmt_id) {}

    ir::Op op;
    int stmt_id;
    bool is_store = false;
    bool reg_write = false;
    bool relax_war = false;
    std::string fu, array, def_var;
    int var_reads = 0;
    std::vector<std::string> operands;
    std::vector<int> preds, war_preds, mem_war_preds;
  };
  struct Var {
    int last_def = -1;
    int defs = 0;
    std::vector<int> reads_of_current, livein_reads;
  };
  struct Array {
    int last_store = -1;
    std::vector<int> reads_since_store;
  };
  struct Entry {
    ir::ExprPtr expr;
    int node;
    bool live;
    std::set<std::string> vars, arrays;  // read anywhere in expr
  };

  Var& var(const std::string& name) {
    if (!vars_.count(name)) order_.push_back(name);
    return vars_[name];
  }
  int push(Node n) {
    nodes_.push_back(std::move(n));
    return static_cast<int>(nodes_.size()) - 1;
  }
  void kill(bool array, const std::string& name) {
    for (Entry& e : entries_)
      if ((array ? e.arrays : e.vars).count(name)) e.live = false;
  }
  static void reads_of(const ir::Expr& e, Entry& entry) {
    if (e.op() == ir::Op::Var) entry.vars.insert(e.name());
    if (e.op() == ir::Op::ArrayRead) entry.arrays.insert(e.name());
    for (const ir::ExprPtr& a : e.args()) reads_of(*a, entry);
  }

  std::string bind(const ir::Expr& e, const std::string* self_var) const {
    const ir::Op op = e.op();
    auto is_one = [](const ir::ExprPtr& a) {
      return a->op() == ir::Op::Const && a->value() == 1;
    };
    auto is_self = [&](const ir::ExprPtr& a) {
      return a->op() == ir::Op::Var && a->name() == *self_var;
    };
    const hlslib::FuType* inc = lib_.first_of(hlslib::FuClass::Incrementer);
    if (self_var && op == ir::Op::Add && inc && alloc_.count(inc->name) > 0 &&
        ((is_one(e.arg(1)) && is_self(e.arg(0))) ||
         (is_one(e.arg(0)) && is_self(e.arg(1)))))
      return known(inc->name);
    if (ir::is_comparison(op)) {
      auto leaf = [](const ir::ExprPtr& a) {
        return a->op() == ir::Op::Const || a->op() == ir::Op::Var;
      };
      const bool has_const = e.arg(0)->op() == ir::Op::Const ||
                             e.arg(1)->op() == ir::Op::Const;
      if (has_const && leaf(e.arg(0)) && leaf(e.arg(1))) return "";
    }
    if (op == ir::Op::ArrayRead) return memory();
    const hlslib::FuClass cls = hlslib::op_fu_class(op);
    if (cls == hlslib::FuClass::None) return "";
    if (const auto it = sel_.choice.find(op); it != sel_.choice.end())
      return known(it->second);
    if (const hlslib::FuType* t = lib_.first_of(cls)) return t->name;
    throw Error(strfmt("no functional unit for operation '%s'",
                       ir::op_token(op)));
  }
  std::string known(const std::string& name) const {
    if (!lib_.find(name))
      throw Error("unknown functional unit type '" + name + "'");
    return name;
  }
  std::string memory() const {
    const hlslib::FuType* mem = lib_.first_of(hlslib::FuClass::Memory);
    if (!mem) throw Error("library has no memory component");
    return mem->name;
  }

  int add(const ir::ExprPtr& e, int stmt_id,
          const std::string* self_var = nullptr) {
    if (e->op() == ir::Op::Const) return -1;
    if (e->op() == ir::Op::Var) return -2;
    for (const Entry& c : entries_)
      if (c.live && ir::Expr::equal(c.expr, e)) return c.node;
    Node node{e->op(), stmt_id};
    node.fu = bind(*e, self_var);
    if (e->op() == ir::Op::ArrayRead) node.array = e->name();
    for (const ir::ExprPtr& arg : e->args()) {
      const int child = add(arg, stmt_id);
      if (child >= 0) {
        node.preds.push_back(child);
        node.operands.push_back(stg::wire_name(child));
      } else if (child == -1) {
        node.operands.push_back(std::to_string(arg->value()));
      } else {
        const Var& v = var(arg->name());
        node.operands.push_back(arg->name());
        node.var_reads++;
        if (v.last_def >= 0) node.preds.push_back(v.last_def);
      }
    }
    const int id = static_cast<int>(nodes_.size());
    for (const ir::ExprPtr& arg : e->args()) {
      if (arg->op() != ir::Op::Var) continue;
      Var& v = var(arg->name());
      if (v.last_def < 0) v.livein_reads.push_back(id);
      v.reads_of_current.push_back(id);
    }
    if (e->op() == ir::Op::ArrayRead) {
      Array& a = arrays_[e->name()];
      if (a.last_store >= 0) node.preds.push_back(a.last_store);
      a.reads_since_store.push_back(id);
    }
    push(std::move(node));
    Entry entry{e, id, true, {}, {}};
    reads_of(*e, entry);
    entries_.push_back(std::move(entry));
    return id;
  }

  void read_var(Node& self, const std::string& name, bool note_reader) {
    self.var_reads++;
    Var& v = var(name);
    self.operands.push_back(name);
    const int id = static_cast<int>(nodes_.size());
    if (v.last_def >= 0) {
      self.preds.push_back(v.last_def);
    } else {
      v.livein_reads.push_back(id);
    }
    if (note_reader) v.reads_of_current.push_back(id);
  }

  void define(const std::string& target, int root, const ir::ExprPtr& value,
              int stmt_id, int first_new) {
    if (root < 0) {
      Node copy{ir::Op::Var, stmt_id};
      if (value->op() == ir::Op::Var) {
        read_var(copy, value->name(), /*note_reader=*/true);
      } else {
        copy.operands.push_back(std::to_string(value->value()));
      }
      root = push(std::move(copy));
    }
    if (nodes_[static_cast<size_t>(root)].reg_write || root < first_new) {
      Node copy{ir::Op::Var, stmt_id};
      copy.preds.push_back(root);
      copy.operands.push_back(stg::wire_name(root));
      root = push(std::move(copy));
    }
    Node& n = nodes_[static_cast<size_t>(root)];
    Var& v = var(target);
    n.reg_write = true;
    n.def_var = target;
    for (int r : v.reads_of_current)
      if (r != root) n.war_preds.push_back(r);
    if (v.last_def >= 0) n.war_preds.push_back(v.last_def);
    v.reads_of_current.clear();
    v.last_def = root;
    v.defs++;
    kill(false, target);
  }

  void store(const ir::Stmt& s) {
    const int idx = add(s.index, s.id);
    const int val = add(s.value, s.id);
    Node st{ir::Op::ArrayRead, s.id};
    st.is_store = true;
    st.array = s.target;
    st.fu = memory();
    for (const auto& [child, expr] : {std::pair{idx, s.index},
                                      std::pair{val, s.value}}) {
      if (child >= 0) {
        st.preds.push_back(child);
        st.operands.push_back(stg::wire_name(child));
      } else if (expr->op() == ir::Op::Var) {
        read_var(st, expr->name(), /*note_reader=*/true);
      } else {
        st.operands.push_back(std::to_string(expr->value()));
      }
    }
    Array& a = arrays_[s.target];
    if (a.last_store >= 0) st.mem_war_preds.push_back(a.last_store);
    for (int r : a.reads_since_store) st.mem_war_preds.push_back(r);
    a.last_store = push(std::move(st));
    a.reads_since_store.clear();
    kill(true, s.target);
  }

  const hlslib::Library& lib_;
  const hlslib::Allocation& alloc_;
  const hlslib::FuSelection& sel_;
  std::vector<Node> nodes_;
  std::map<std::string, Var> vars_;
  std::vector<std::string> order_;  // variables in first-sight order
  std::map<std::string, Array> arrays_;
  std::vector<Entry> entries_;
};

/// A built DFG rendered as the reference builder renders its own.
std::string render_dfg(const Dfg& dfg) {
  std::string out;
  for (size_t i = 0; i < dfg.nodes.size(); ++i) {
    const DfgNode& n = dfg.nodes[i];
    std::vector<std::string> operands;
    for (const stg::Operand& o : n.operands) operands.push_back(o.str());
    out += ReferenceDfgBuilder::render_node(
        i, n.op, n.is_store, n.reg_write, n.relax_war, n.fu, n.array,
        n.def_var, n.stmt_id, n.var_reads, operands, dfg.preds(i),
        dfg.war_preds(i), dfg.mem_war_preds(i));
  }
  for (const Dfg::Carried& c : dfg.carried)
    out += ReferenceDfgBuilder::render_carried(c.def, c.livein_reads);
  return out + strfmt("cond %d\n", dfg.cond_node);
}

// Every segment DFG of generated programs and of each of their first-level
// candidates equals the reference builder's, node for node and edge for
// edge: straight segments, conditions, and loop bodies with their exit
// condition. Some allocations leave the incrementer out, and some
// selections bind multiplies and subtractions to unknown types, so both
// bindings of a self-increment and the failing builds are compared too: a
// failing build must fail with the same message, that of the first
// unbound op in pre-order.
TEST(Dfg, MatchesReferenceBuilder) {
  const hlslib::Library lib = hlslib::Library::dac98();
  const xform::TransformLibrary xlib = xform::TransformLibrary::standard();
  size_t built = 0, failed = 0, nodes = 0;
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    hlslib::Allocation alloc;
    for (const auto& t : lib.types())
      alloc.counts[t.name] = 1 + static_cast<int>(seed % 2);
    if (seed % 3 == 0) alloc.counts["i1"] = 0;
    hlslib::FuSelection sel = hlslib::FuSelection::defaults(lib);
    if (seed % 4 == 0) {
      sel.choice[ir::Op::Mul] = "mt9";
      sel.choice[ir::Op::Sub] = "sb9";
    }
    const DfgBuilder builder(lib, alloc, sel, 5.0, 1.0);
    ReferenceDfgBuilder reference(lib, alloc, sel);
    DfgScratch scratch;

    const ir::Function fn = testgen::random_program(seed);
    std::vector<ir::Function> fns;
    fns.push_back(fn.clone());
    for (const xform::Candidate& c : xlib.find_all(fn, {})) {
      try {
        fns.push_back(xlib.apply(fn, c));
      } catch (const Error&) {
      }
    }
    // Candidates share most segments with their parent: compare each
    // distinct one once (by statement fragment hashes, condition and id).
    std::set<std::vector<uint64_t>> seen;
    for (const ir::Function& f : fns) {
      const RegionTree tree(f);
      std::vector<const Region*> todo{&tree.root()};
      auto compare = [&](const std::vector<const ir::Stmt*>& stmts,
                         const ir::ExprPtr& cond, int id) {
        std::vector<uint64_t> key{cond ? cond->hash() : 0,
                                  static_cast<uint64_t>(id)};
        for (const ir::Stmt* st : stmts) key.push_back(ir::fragment_hash(*st));
        if (!seen.insert(std::move(key)).second) return;
        std::string want, got;
        try {
          want = reference.build(stmts, cond, id);
        } catch (const Error& e) {
          want = std::string("error: ") + e.what();
        }
        try {
          const Dfg dfg = builder.build(scratch, stmts, cond, id);
          got = render_dfg(dfg);
          nodes += dfg.nodes.size();
        } catch (const Error& e) {
          got = std::string("error: ") + e.what();
          failed++;
        }
        built++;
        ASSERT_EQ(got, want) << "seed " << seed << "\n" << f.str();
      };
      while (!todo.empty()) {
        const Region& r = *todo.back();
        todo.pop_back();
        if (r.kind == Region::Kind::Straight) compare(r.stmts, nullptr, -1);
        if (r.kind == Region::Kind::If || r.kind == Region::Kind::Loop)
          compare({}, r.ctrl->cond, r.ctrl->id);
        if (r.kind == Region::Kind::Loop && r.loop_body_is_straight() &&
            !r.children[0]->children.empty())
          compare(r.children[0]->children[0]->stmts, r.ctrl->cond, r.ctrl->id);
        if (HasFatalFailure()) return;
        for (const auto& c : r.children) todo.push_back(c);
      }
    }
  }
  std::printf("compared %zu builds (%zu failing), %zu nodes\n", built, failed,
              nodes);
  EXPECT_GT(built, 1000u);
  EXPECT_GT(failed, 100u);
  EXPECT_GT(nodes, 5000u);
}

// ---- resource table ---------------------------------------------------

DfgNode fu_node(std::string_view fu) {
  DfgNode n;
  n.op = ir::Op::Add;
  n.fu = fu;
  return n;
}

DfgNode mem_node(std::string_view array, bool store = false) {
  DfgNode n;
  n.op = ir::Op::ArrayRead;
  n.fu = "mem1";
  n.array = array;
  n.is_store = store;
  return n;
}

TEST(ResourceTable, MixedPeriodsCollideOnlyOnMatchingResidues) {
  Harness s;
  s.alloc.counts["a1"] = 2;
  const DfgNode add = fu_node("a1");
  // Hyperperiod 6 shared by an II-2 and an II-3 loop: an II-2 op at cstep
  // c holds slots {c%2, c%2+2, c%2+4}, an II-3 op {c%3, c%3+3}.
  ResourceTable t(s.alloc, 6);
  t.place(add, 0, 2);  // slots 0, 2, 4
  t.place(add, 0, 3);  // slots 0, 3 -> slot 0 now full
  EXPECT_FALSE(t.can_place(add, 0, 6));
  EXPECT_FALSE(t.can_place(add, 6, 6));  // same residue, later cstep
  EXPECT_TRUE(t.can_place(add, 2, 6));
  EXPECT_TRUE(t.can_place(add, 3, 6));
  EXPECT_FALSE(t.can_place(add, 0, 2));  // slot 0
  EXPECT_FALSE(t.can_place(add, 3, 3));  // residue 0 again: slot 0
  EXPECT_TRUE(t.can_place(add, 1, 3));   // slots 1, 4
  EXPECT_TRUE(t.can_place(add, 1, 2));   // slots 1, 3, 5
  // Period 0 in modulo mode is the hyperperiod: one slot, cstep % 6.
  EXPECT_TRUE(t.can_place(add, 7, 0));
  EXPECT_FALSE(t.can_place(add, 12, 0));
  t.place(add, 3, 6);  // slot 3 -> full
  EXPECT_FALSE(t.can_place(add, 1, 2));  // slot 3 now blocks residue 1
  EXPECT_TRUE(t.can_place(add, 1, 3));   // slots 1, 4 still free
  t.place(add, 1, 3);                    // slots 1, 4 -> slot 4 full
  EXPECT_FALSE(t.can_place(add, 2, 2));  // slots 0, 2, 4
  EXPECT_TRUE(t.can_place(add, 5, 6));
}

TEST(ResourceTable, OnePortPerArrayCountedPerArray) {
  Harness s;
  ResourceTable t(s.alloc, 0);
  const DfgNode rx = mem_node("x");
  const DfgNode ry = mem_node("y");
  const DfgNode wx = mem_node("x", /*store=*/true);
  // Memory ops are bounded by ports, not by the memory FU's allocation
  // (mem1 is not allocated in the harness).
  ASSERT_EQ(s.alloc.count("mem1"), 0);
  EXPECT_TRUE(t.can_place(rx, 0));
  t.place(rx, 0);
  EXPECT_FALSE(t.can_place(rx, 0));
  EXPECT_FALSE(t.can_place(wx, 0));  // a store uses the same port
  EXPECT_TRUE(t.can_place(ry, 0));   // another array has its own port
  t.place(ry, 0);
  EXPECT_FALSE(t.can_place(ry, 0));
  EXPECT_TRUE(t.can_place(wx, 1));
  // Memory ports do not consume datapath FUs.
  EXPECT_TRUE(t.can_place(fu_node("a1"), 0));
  // Modulo mode: the port repeats every period.
  ResourceTable m(s.alloc, 4);
  m.place(wx, 1, 2);  // slots 1, 3
  EXPECT_FALSE(m.can_place(rx, 3, 4));
  EXPECT_TRUE(m.can_place(rx, 2, 4));
  EXPECT_TRUE(m.can_place(ry, 3, 4));
}

TEST(ResourceTable, PlainRowsGrowOnDemand) {
  Harness s;
  s.alloc.counts["a1"] = 1;
  ResourceTable t(s.alloc, 0);
  const DfgNode add = fu_node("a1");
  EXPECT_TRUE(t.can_place(add, 1000));
  t.place(add, 1000);
  EXPECT_FALSE(t.can_place(add, 1000));
  EXPECT_TRUE(t.can_place(add, 999));
  EXPECT_TRUE(t.can_place(add, 5000));
  t.place(add, 3);  // a lower row after the table grew
  EXPECT_FALSE(t.can_place(add, 3));
  EXPECT_FALSE(t.can_place(add, 1000));
  // Plain rows are per cstep: a period does not wrap them.
  EXPECT_FALSE(t.can_place(add, 1000, 4));
  EXPECT_TRUE(t.can_place(add, 1004, 4));
}

TEST(ResourceTable, UnallocatedFuIsNeverPlaceable) {
  Harness s;
  s.alloc.counts["mt1"] = 0;
  const DfgNode mul = fu_node("mt1");
  const DfgNode shl = fu_node("s1_missing");  // no such allocation entry
  ResourceTable plain(s.alloc, 0);
  ResourceTable modulo(s.alloc, 4);
  for (int c = 0; c < 8; ++c) {
    EXPECT_FALSE(plain.can_place(mul, c));
    EXPECT_FALSE(plain.can_place(shl, c));
    EXPECT_FALSE(modulo.can_place(mul, c, 2));
    EXPECT_FALSE(modulo.can_place(shl, c, 4));
  }
  // Nodes that need no resource (register copies, glue) always fit.
  DfgNode copy;
  for (int k = 0; k < 4; ++k) plain.place(copy, 0);
  EXPECT_TRUE(plain.can_place(copy, 0));
  EXPECT_TRUE(modulo.can_place(copy, 0, 1));
}

TEST(ResourceTable, ExtendKeepsReservations) {
  Harness s;
  s.alloc.counts["a1"] = 2;
  s.alloc.counts["mt1"] = 1;
  s.alloc.counts["mt1_missing"] = 0;
  const std::vector<DfgNode> nodes = {fu_node("a1"), fu_node("mt1"),
                                      mem_node("x"), mem_node("y"),
                                      fu_node("mt1_missing")};
  for (const int h : {1, 2, 3, 4, 6, 12}) {
    std::vector<int> periods;  // every period dividing h
    for (int p = 1; p <= h; ++p)
      if (h % p == 0) periods.push_back(p);
    // Fill the table part way: walk csteps and periods, placing whatever
    // fits on the first three resources (never on "y").
    ResourceTable t(s.alloc, h);
    int step = 0;
    for (size_t k = 0; k < 3 * periods.size() * static_cast<size_t>(h); ++k) {
      const DfgNode& n = nodes[k % 3];
      const int p = periods[k % periods.size()];
      step = (step * 7 + 3) % 97;
      if (t.can_place(n, step, p)) t.place(n, step, p);
    }
    for (const int factor : {1, 2, 5}) {
      const int wide = h * factor;
      ResourceTable w = t;
      w.extend(wide);
      ASSERT_EQ(w.hyperperiod(), wide);
      for (const DfgNode& n : nodes) {
        EXPECT_EQ(w.free_units(n), t.free_units(n) * factor)
            << n.fu << n.array << " h " << h << " -> " << wide;
        for (int c = 0; c < wide; ++c)
          for (const int p : periods)
            EXPECT_EQ(w.can_place(n, c, p), t.can_place(n, c, p))
                << n.fu << n.array << " h " << h << " -> " << wide
                << " cstep " << c << " period " << p;
      }
    }
  }
}

// ---- list_schedule against the quadratic picker -----------------------

/// The list scheduler as it was before the ready list, kept as the oracle:
/// every step rescans all nodes for the ready one of highest priority
/// (lowest index on ties), and priorities are rebuilt per call.
std::vector<double> reference_priorities(const Dfg& dfg) {
  const size_t n = dfg.nodes.size();
  std::vector<double> prio(n, 0.0);
  std::vector<std::vector<int>> succs(n);
  for (size_t i = 0; i < n; ++i)
    for (int p : dfg.preds(i))
      succs[static_cast<size_t>(p)].push_back(static_cast<int>(i));
  for (size_t ii = n; ii-- > 0;) {
    double best = 0.0;
    for (int s : succs[ii]) best = std::max(best, prio[static_cast<size_t>(s)]);
    prio[ii] = best + dfg.nodes[ii].delay_ns;
  }
  return prio;
}

bool reference_list_schedule(Dfg& dfg, ResourceTable& table, double clock_ns,
                             int period) {
  const size_t n = dfg.nodes.size();
  const std::vector<double> prio = reference_priorities(dfg);
  std::vector<int> column(n);
  for (size_t i = 0; i < n; ++i) column[i] = table.column(dfg.nodes[i]);
  std::vector<bool> done(n, false);
  for (size_t remaining = n; remaining > 0; --remaining) {
    int pick = -1;
    for (size_t i = 0; i < n; ++i) {
      if (done[i]) continue;
      const DfgNode& node = dfg.nodes[i];
      bool ready = true;
      for (int p : dfg.preds(i)) ready = ready && done[static_cast<size_t>(p)];
      for (int p : dfg.mem_war_preds(i))
        ready = ready && done[static_cast<size_t>(p)];
      if (period == 0 || !node.relax_war)
        for (int p : dfg.war_preds(i)) ready = ready && done[static_cast<size_t>(p)];
      if (ready && (pick < 0 || prio[i] > prio[static_cast<size_t>(pick)]))
        pick = static_cast<int>(i);
    }
    if (pick < 0) throw Error("reference_list_schedule: dependence cycle");

    DfgNode& node = dfg.nodes[static_cast<size_t>(pick)];
    const int col = column[static_cast<size_t>(pick)];
    node.span = std::max(
        1, static_cast<int>(std::ceil(node.delay_ns / clock_ns - 1e-9)));
    if (period > 0 && node.span > period) return false;
    const size_t self = static_cast<size_t>(pick);
    int earliest = 0;
    for (int p : dfg.preds(self))
      earliest = std::max(earliest, dfg.nodes[static_cast<size_t>(p)].avail_cstep());
    for (int p : dfg.mem_war_preds(self))
      earliest = std::max(earliest, dfg.nodes[static_cast<size_t>(p)].cstep);
    if (period == 0 || !node.relax_war)
      for (int p : dfg.war_preds(self))
        earliest = std::max(earliest, dfg.nodes[static_cast<size_t>(p)].cstep);
    bool placed = false;
    for (int cstep = earliest; cstep < earliest + 100000; ++cstep) {
      double start = 0.0;
      for (int p : dfg.preds(self)) {
        const DfgNode& pd = dfg.nodes[static_cast<size_t>(p)];
        if (pd.avail_cstep() == cstep) start = std::max(start, pd.end_ns);
      }
      if (node.span > 1 && start > 0.0) continue;
      if (node.span == 1 && start + node.delay_ns > clock_ns + 1e-9) continue;
      bool fits = true;
      for (int k = 0; k < node.span; ++k)
        if (!table.can_place(col, cstep + k, period)) fits = false;
      if (!fits) {
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
  }
  return true;
}

/// Every segment DFG the scheduler builds for a region tree: straight
/// segments, branch and loop conditions, and the body-plus-condition DFG
/// of every straight-bodied loop. Segments whose operations have no FU in
/// the library are skipped.
void collect_segments(const Region& r, DfgBuilder& b,
                      std::vector<Dfg>* out) {
  auto add = [&](const std::vector<const ir::Stmt*>& stmts,
                 const ir::ExprPtr& cond, int id) {
    try {
      out->push_back(build(b, stmts, cond, id));
    } catch (const Error&) {
    }
  };
  if (r.kind == Region::Kind::Straight) add(r.stmts, nullptr, -1);
  if (r.kind == Region::Kind::If || r.kind == Region::Kind::Loop)
    add({}, r.ctrl->cond, r.ctrl->id);
  if (r.kind == Region::Kind::Loop && r.loop_body_is_straight()) {
    const Region& body = *r.children[0];
    if (!body.children.empty())
      add(body.children[0]->stmts, r.ctrl->cond, r.ctrl->id);
  }
  for (const auto& c : r.children) collect_segments(*c, b, out);
}

// The ready-list scheduler against the quadratic picker on every segment
// DFG of generated programs, plain and at modulo periods 1-4, with short
// and multi-cycle delays. One working copy of each DFG is rescheduled in
// place, as the II search does.
TEST(ListSchedule, MatchesQuadraticPicker) {
  const hlslib::Library lib = hlslib::Library::dac98();
  const hlslib::FuSelection sel = hlslib::FuSelection::defaults(lib);
  int compared = 0, modulo_feasible = 0, multi_cycle = 0;
  for (const bool concurrent : {false, true}) {
    testgen::GenOptions gen;
    gen.concurrent_loops = concurrent;
    for (uint64_t seed = 1; seed <= 30; ++seed) {
      hlslib::Allocation alloc;
      for (const auto& t : lib.types())
        alloc.counts[t.name] = 1 + static_cast<int>(seed % 2);
      const ir::Function fn = testgen::random_program(seed, gen);
      const RegionTree tree(fn);
      for (const double vdd : {5.0, 3.3}) {
        DfgBuilder builder(lib, alloc, sel, vdd, 1.0);
        std::vector<Dfg> segments;
        collect_segments(*tree, builder, &segments);
        for (const Dfg& dfg : segments) {
          Dfg got = dfg;
          for (int period = 0; period <= 4; ++period) {
            const std::string what = "seed " + std::to_string(seed) +
                                     (concurrent ? " concurrent" : "") +
                                     " vdd " + std::to_string(vdd) +
                                     " period " + std::to_string(period);
            Dfg want = dfg;
            ResourceTable want_table(alloc, period);
            ResourceTable got_table(alloc, period);
            const bool want_ok =
                reference_list_schedule(want, want_table, 25.0, period);
            const bool got_ok =
                list_schedule(got, got_table, 25.0, period);
            ASSERT_EQ(want_ok, got_ok) << what;
            if (!want_ok) continue;
            compared++;
            if (period > 0) modulo_feasible++;
            for (size_t i = 0; i < dfg.nodes.size(); ++i) {
              const DfgNode& w = want.nodes[i];
              const DfgNode& g = got.nodes[i];
              EXPECT_EQ(w.cstep, g.cstep) << what << " node " << i;
              EXPECT_EQ(w.span, g.span) << what << " node " << i;
              EXPECT_EQ(w.start_ns, g.start_ns) << what << " node " << i;
              EXPECT_EQ(w.end_ns, g.end_ns) << what << " node " << i;
              if (w.span > 1) multi_cycle++;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(compared, 1000);
  EXPECT_GT(modulo_feasible, 500);
  EXPECT_GT(multi_cycle, 100);
}

// ---- full scheduling --------------------------------------------------

TEST(Scheduler, StraightLineProducesLinearStg) {
  Harness s;
  const auto fn = parse("F(int a, int b) { int x = a * b; int y = x * 2; output y; }");
  const ScheduleResult r = s.schedule(fn);
  // Two dependent multiplies on one multiplier: 2 states, deterministic.
  EXPECT_EQ(r.stg.num_states(), 2u);
  EXPECT_NEAR(stg::average_schedule_length(r.stg), 2.0, 1e-9);
}

TEST(Scheduler, EmptyFunctionIdles) {
  const auto fn = parse("F() { }");
  Harness s;
  const ScheduleResult r = s.schedule(fn);
  EXPECT_EQ(r.stg.num_states(), 1u);
  EXPECT_NEAR(stg::average_schedule_length(r.stg), 1.0, 1e-9);
}

TEST(Scheduler, IfCreatesBranchStates) {
  Harness s;
  const auto fn = parse(R"(
F(int a, int b) {
  int x = 0;
  if (a > b) { x = a * 2; } else { x = b * 3; }
  output x;
}
)");
  const ScheduleResult r = s.schedule(fn);
  // Branch probabilities on the condition state's out edges sum to 1 and
  // both branches are represented.
  r.stg.validate();
  EXPECT_GE(r.stg.num_states(), 4u);
}

TEST(Scheduler, SimpleLoopPipelinesToIiOne) {
  Harness s;
  const auto fn = parse(R"(
F(int n) {
  int i = 0;
  int acc = 0;
  while (i < n) {
    acc = acc + i;
    i = i + 1;
  }
  output acc;
}
)");
  sim::TraceConfig tc;
  tc.params["n"] = {sim::InputSpec::Kind::Uniform, 0, 0, 0, 10, 30, 0};
  const ScheduleResult r = s.schedule(fn, tc);
  ASSERT_EQ(r.loops.size(), 1u);
  EXPECT_TRUE(r.loops[0].pipelined);
  EXPECT_EQ(r.loops[0].ii, 1);
}

TEST(Scheduler, RecurrenceLimitsIi) {
  Harness s;
  // Loop-carried chain: acc = (acc * k) computed on the 23ns multiplier,
  // then used next iteration: II >= 1 but the mult occupies a full cycle;
  // acc = acc*k + i*k has a 2-op recurrence -> II 2.
  const auto fn = parse(R"(
F(int n, int k) {
  int i = 0;
  int acc = 1;
  while (i < n) {
    acc = (acc * k) * k;
    i = i + 1;
  }
  output acc;
}
)");
  sim::TraceConfig tc;
  tc.params["n"] = {sim::InputSpec::Kind::Uniform, 0, 0, 0, 5, 10, 0};
  tc.params["k"] = {sim::InputSpec::Kind::Uniform, 0, 0, 0, 1, 3, 0};
  const ScheduleResult r = s.schedule(fn, tc);
  ASSERT_EQ(r.loops.size(), 1u);
  EXPECT_TRUE(r.loops[0].pipelined);
  EXPECT_GE(r.loops[0].ii, 2);  // two dependent mults, one multiplier
}

TEST(Scheduler, LoopWithBranchFallsBackToStateMachine) {
  Harness s;
  const auto fn = parse(R"(
F(int a, int b) {
  while (a != b) {
    if (a > b) { a = a - b; } else { b = b - a; }
  }
  output a;
}
)");
  sim::TraceConfig tc;
  tc.params["a"] = {sim::InputSpec::Kind::Uniform, 0, 0, 0, 1, 40, 0};
  tc.params["b"] = {sim::InputSpec::Kind::Uniform, 0, 0, 0, 1, 40, 0};
  const ScheduleResult r = s.schedule(fn, tc);
  ASSERT_EQ(r.loops.size(), 1u);
  EXPECT_FALSE(r.loops[0].pipelined);
  // test state + if-test state + branch states.
  EXPECT_GE(r.stg.num_states(), 3u);
}

TEST(Scheduler, AverageLengthTracksExpectedIterations) {
  Harness s;
  const auto fn = parse(R"(
F(int n) {
  int i = 0;
  while (i < n) { i = i + 1; }
}
)");
  sim::TraceConfig tc;
  tc.params["n"] = {sim::InputSpec::Kind::Constant, 0, 0, 0, 0, 0, 20};
  const ScheduleResult r = s.schedule(fn, tc);
  // II=1 pipelined loop with ~20 iterations plus the init state.
  EXPECT_NEAR(stg::average_schedule_length(r.stg), 21.0, 2.0);
}

TEST(Scheduler, InfeasibleAllocationDiagnosed) {
  Harness s;
  s.alloc.counts.erase("mt1");
  const auto fn = parse("F(int a) { int x = a * a; }");
  EXPECT_THROW(s.schedule(fn), Error);
}

TEST(Scheduler, ShortClockMultiCyclesOps) {
  Harness s;
  s.opts.clock_ns = 6.0;  // adder (10ns) must span two cycles
  const auto fn = parse("F(int a, int b) { int x = a + b; output x; }");
  const ScheduleResult r = s.schedule(fn);
  EXPECT_GE(r.stg.num_states(), 2u);
  EXPECT_NEAR(stg::average_schedule_length(r.stg), 2.0, 1e-9);
}

constexpr const char* kIndependentLoops = R"(
F(int n) {
  input int x[32];
  input int z[32];
  int x1[32];
  int z1[32];
  int i = 0;
  int j = 0;
  while (i < 20) { x1[i] = x[i] + 1; i = i + 1; }
  while (j < 30) { z1[j] = z[j] + 2; j = j + 1; }
}
)";

TEST(Scheduler, IndependentLoopsFuse) {
  Harness s;
  s.alloc.counts["i1"] = 2;  // one incrementer per loop counter
  const auto fn = parse(kIndependentLoops);
  const ScheduleResult r = s.schedule(fn);
  ASSERT_EQ(r.loops.size(), 2u);
  EXPECT_FALSE(r.loops[0].fused_with.empty());
  EXPECT_FALSE(r.loops[1].fused_with.empty());
  // Both loops at II=1 concurrently: the total length is near the longer
  // loop (30), far below the sequential sum (50).
  EXPECT_LT(stg::average_schedule_length(r.stg), 42.0);
}

TEST(Scheduler, DependentLoopsDoNotFuse) {
  Harness s;
  const auto fn = parse(R"(
F(int n) {
  input int x[32];
  int y[32];
  int i = 0;
  int j = 0;
  while (i < 8) { y[i] = x[i] + 1; i = i + 1; }
  while (j < 8) { y[j] = y[j] * 2; j = j + 1; }
}
)");
  const ScheduleResult r = s.schedule(fn);
  ASSERT_EQ(r.loops.size(), 2u);
  EXPECT_TRUE(r.loops[0].fused_with.empty());
  EXPECT_TRUE(r.loops[1].fused_with.empty());
}

TEST(Scheduler, FusionDisabledByOption) {
  Harness s;
  s.opts.fuse_loops = false;
  const auto fn = parse(R"(
F(int n) {
  int i = 0;
  int j = 0;
  int a = 0;
  int b = 0;
  while (i < 20) { a = a + 1; i = i + 1; }
  while (j < 30) { b = b + 2; j = j + 1; }
}
)");
  const ScheduleResult r = s.schedule(fn);
  for (const auto& l : r.loops) EXPECT_TRUE(l.fused_with.empty());
}

TEST(Scheduler, StgAnnotationsCoverOpsAndRegisters) {
  Harness s;
  const auto fn = parse("F(int a, int b) { int x = a + b; output x; }");
  const ScheduleResult r = s.schedule(fn);
  int adds = 0, reads = 0, writes = 0;
  for (const auto& st : r.stg.states()) {
    for (const auto& op : st.ops)
      if (op.fu_type == "a1") adds++;
    reads += st.reg_reads;
    writes += st.reg_writes;
  }
  EXPECT_EQ(adds, 1);
  EXPECT_EQ(reads, 2);
  EXPECT_EQ(writes, 1);
}

constexpr const char* kWaitingLoop = R"(
F(int n) {
  int i = 0;
  int j = 0;
  int a = 0;
  int b = 0;
  while (i < 20) { a = a + 2; i = i + 1; }
  while (j < 20) { b = b + 3; j = j + 1; }
}
)";

TEST(Scheduler, WaitingLoopDoesNotDegradeAdmittedOnes) {
  Harness s;
  s.alloc.counts["a1"] = 1;  // one adder: the two adder loops cannot share
  const auto fn = parse(kWaitingLoop);
  const ScheduleResult r = s.schedule(fn);
  ASSERT_EQ(r.loops.size(), 2u);
  // First loop admitted at II=1; second waits (phases), still II=1 when
  // it eventually runs alone.
  EXPECT_EQ(r.loops[0].ii, 1);
  EXPECT_EQ(r.loops[1].ii, 1);
  // Sequential-ish length: about 40 cycles, not 20.
  EXPECT_GT(stg::average_schedule_length(r.stg), 35.0);
}

// ---- fused runs in the fragment cache ---------------------------------

/// One function to schedule with its allocation and profile.
struct FusedCase {
  std::string name;
  ir::Function fn;
  hlslib::Allocation alloc;
  sim::Profile profile;
};

FusedCase make_case(std::string name, ir::Function fn,
                    hlslib::Allocation alloc, const sim::TraceConfig& tc) {
  const sim::Trace trace = sim::generate_trace(fn, tc, 7);
  sim::Profile profile = sim::profile_function(fn, trace);
  return {std::move(name), std::move(fn), std::move(alloc),
          std::move(profile)};
}

ScheduleResult schedule_case(const FusedCase& c, FragmentCache* cache) {
  Harness h;
  h.opts.fragment_cache = cache;
  return Scheduler(h.lib, c.alloc, h.sel, h.opts).schedule(c.fn, c.profile);
}

/// Fragment-cache traffic since construction, read from the registry (the
/// only place the cache counts it).
struct FragmentTraffic {
  CounterDelta hits{"fact_fragment_cache_hits_total"};
  CounterDelta misses{"fact_fragment_cache_misses_total"};
};

bool has_fused_loop(const ScheduleResult& r) {
  for (const auto& l : r.loops)
    if (!l.fused_with.empty()) return true;
  return false;
}

void expect_same_schedule(const ScheduleResult& want, const ScheduleResult& got,
                          const std::string& what) {
  EXPECT_EQ(want.stg.dot(), got.stg.dot()) << what;
  EXPECT_EQ(want.rtl_exact, got.rtl_exact) << what;
  ASSERT_EQ(want.loops.size(), got.loops.size()) << what;
  for (size_t i = 0; i < want.loops.size(); ++i) {
    EXPECT_EQ(want.loops[i].stmt_id, got.loops[i].stmt_id) << what;
    EXPECT_EQ(want.loops[i].pipelined, got.loops[i].pipelined) << what;
    EXPECT_EQ(want.loops[i].ii, got.loops[i].ii) << what;
    EXPECT_EQ(want.loops[i].body_csteps, got.loops[i].body_csteps) << what;
    EXPECT_EQ(want.loops[i].fused_with, got.loops[i].fused_with) << what;
  }
}

/// Functions whose schedules fuse concurrent loops: the paper's TEST2 and
/// FIR, the fusion fixtures above, and generated programs with adjacent
/// independent loops.
std::vector<FusedCase> fused_cases() {
  std::vector<FusedCase> cases;
  for (const char* name : {"TEST2", "FIR"}) {
    workloads::Workload w = workloads::by_name(name);
    cases.push_back(
        make_case(name, std::move(w.fn), std::move(w.allocation), w.trace));
  }
  Harness h;
  hlslib::Allocation two_incr = h.alloc;
  two_incr.counts["i1"] = 2;
  cases.push_back(make_case("IndependentLoopsFuse", parse(kIndependentLoops),
                            two_incr, {}));
  hlslib::Allocation one_adder = h.alloc;
  one_adder.counts["a1"] = 1;
  cases.push_back(make_case("WaitingLoopDoesNotDegradeAdmittedOnes",
                            parse(kWaitingLoop), one_adder, {}));

  hlslib::Allocation generous;
  for (const auto& t : h.lib.types()) generous.counts[t.name] = 2;
  sim::TraceConfig tc;
  tc.executions = 6;
  testgen::GenOptions gen;
  gen.concurrent_loops = true;
  int generated = 0;
  for (uint64_t seed = 1; seed < 200 && generated < 24; ++seed) {
    FusedCase c = make_case("seed " + std::to_string(seed),
                            testgen::random_program(seed, gen), generous, tc);
    try {
      if (!has_fused_loop(schedule_case(c, nullptr))) continue;
    } catch (const Error&) {
      continue;
    }
    cases.push_back(std::move(c));
    generated++;
  }
  EXPECT_GE(generated, 20);
  return cases;
}

/// The DFG (body plus exit condition) of every straight-bodied loop of
/// `fn`, in program order, as the scheduler builds it for pipelining.
std::vector<Dfg> loop_dfgs(const ir::Function& fn, DfgBuilder& builder) {
  std::vector<Dfg> out;
  const RegionTree tree(fn);
  std::vector<const Region*> todo{&tree.root()};
  std::vector<const Region*> loops;
  while (!todo.empty()) {
    const Region* r = todo.back();
    todo.pop_back();
    if (r->kind == Region::Kind::Loop && r->loop_body_is_straight())
      loops.push_back(r);
    for (auto it = r->children.rbegin(); it != r->children.rend(); ++it)
      todo.push_back(*it);
  }
  static const std::vector<const ir::Stmt*> kNone;
  for (const Region* loop : loops) {
    const Region& body = *loop->children[0];
    out.push_back(build(builder,
        body.children.empty() ? kNone : body.children[0]->stmts,
        loop->ctrl->cond, loop->ctrl->id));
  }
  return out;
}

// The residual II bound that fused-loop admission starts a newcomer at
// only skips IIs that list_schedule would reject: with the earlier loops
// of a case already placed in one modulo table, the newcomer fails at
// every II from its solo bound up to one below the residual bound.
TEST(ResourceMinIi, IsALowerBoundOverAPartialTable) {
  constexpr int kMaxHyperperiod = 64;
  int skipped = 0, raised = 0, deferred = 0;
  for (const FusedCase& c : fused_cases()) {
    Harness h;
    DfgBuilder builder(h.lib, c.alloc, h.sel, 5.0, 1.0);
    ResourceTable table(c.alloc, 1);
    for (Dfg& dfg : loop_dfgs(c.fn, builder)) {
      const int solo = resource_min_ii(dfg, ResourceTable(c.alloc, 1));
      if (solo < 0) continue;
      const int bound = resource_min_ii(dfg, table);
      if (bound >= 0) {
        EXPECT_GE(bound, solo) << c.name;
      }
      const int stop = bound < 0 ? kMaxHyperperiod + 1 : bound;
      if (bound < 0) deferred++;
      if (bound > solo) raised++;
      for (int ii = solo; ii < stop; ++ii) {
        const int wide = std::lcm(table.hyperperiod(), ii);
        if (wide > kMaxHyperperiod) continue;
        ResourceTable trial = table;
        trial.extend(wide);
        EXPECT_FALSE(list_schedule(dfg, trial, h.opts.clock_ns, ii))
            << c.name << " ii " << ii << " below the residual bound "
            << bound;
        skipped++;
      }
      // Place the loop at the first II that fits, as admission does, so
      // later loops see a fuller table.
      for (int ii = std::max(1, bound); bound >= 0 && ii <= kMaxHyperperiod;
           ++ii) {
        const int wide = std::lcm(table.hyperperiod(), ii);
        if (wide > kMaxHyperperiod) continue;
        ResourceTable trial = table;
        trial.extend(wide);
        if (!list_schedule(dfg, trial, h.opts.clock_ns, ii) ||
            !recurrences_ok(dfg, ii))
          continue;
        table = std::move(trial);
        break;
      }
    }
  }
  EXPECT_GE(raised, 10);
  EXPECT_GE(deferred, 10);
  EXPECT_GE(skipped, 100);
}

TEST(FusedFragment, CacheInvisible) {
  int fused = 0;
  for (const FusedCase& c : fused_cases()) {
    const ScheduleResult uncached = schedule_case(c, nullptr);
    FragmentCache cache;
    const FragmentTraffic cold_traffic;
    const ScheduleResult cold = schedule_case(c, &cache);
    const uint64_t cold_lookups = cold_traffic.hits() + cold_traffic.misses();
    const FragmentTraffic warm_traffic;
    const ScheduleResult warm = schedule_case(c, &cache);
    expect_same_schedule(uncached, cold, c.name + " (cold cache)");
    expect_same_schedule(uncached, warm, c.name + " (warm cache)");
    EXPECT_EQ(warm_traffic.misses(), 0u) << c.name;
    EXPECT_EQ(warm_traffic.hits(), cold_lookups) << c.name;
    if (has_fused_loop(uncached)) fused++;
  }
  EXPECT_GE(fused, 23);  // TEST2, both fixtures and every generated program
}

TEST(FusedFragment, PartnerSetIsPartOfTheKey) {
  Harness h;
  h.alloc.counts["a1"] = 1;
  const FusedCase original =
      make_case("original", parse(kWaitingLoop), h.alloc, {});
  // Same statement ids and the same first loop; only its partner differs.
  std::string src = kWaitingLoop;
  src.replace(src.find("b + 3"), 5, "b - 3");
  const FusedCase changed = make_case("changed", parse(src), h.alloc, {});

  FragmentCache cache;
  ASSERT_TRUE(has_fused_loop(schedule_case(original, &cache)));
  const FragmentTraffic traffic;
  const ScheduleResult r = schedule_case(changed, &cache);
  // The straight prologue hits; the fused run does not, although its
  // first loop is unchanged.
  EXPECT_EQ(traffic.misses(), 1u);
  EXPECT_GE(traffic.hits(), 1u);
  expect_same_schedule(schedule_case(changed, nullptr), r, "changed partner");
}

TEST(FusedFragment, SharedCacheAcrossThreads) {
  workloads::Workload w = workloads::make_test2();
  const FusedCase c = make_case("TEST2", std::move(w.fn),
                                std::move(w.allocation), w.trace);
  const std::string want = schedule_case(c, nullptr).stg.dot();
  ASSERT_TRUE(has_fused_loop(schedule_case(c, nullptr)));

  Harness h;
  FragmentCache cache;
  h.opts.fragment_cache = &cache;
  const Scheduler shared(h.lib, c.alloc, h.sel, h.opts);
  constexpr int kThreads = 4;
  constexpr int kRounds = 3;
  std::vector<std::vector<std::string>> dots(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r)
        dots[static_cast<size_t>(t)].push_back(
            shared.schedule(c.fn, c.profile).stg.dot());
    });
  for (auto& th : threads) th.join();
  for (const auto& per_thread : dots) {
    ASSERT_EQ(per_thread.size(), static_cast<size_t>(kRounds));
    for (const auto& dot : per_thread) EXPECT_EQ(dot, want);
  }
}

/// 64-bit FNV-1a of a string: a compact, platform-independent digest for
/// pinning renderings that are too large to store whole.
uint64_t fnv1a(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char ch : s) {
    h ^= ch;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Every kernel ring of an STG (a pipelined loop's, or a fused phase's) as
/// "[loop:II,...]": the loops whose exit condition the ring checks, in
/// wire order (admission order for a fused phase), each with its II, which
/// is the ring length over the number of ring states checking it.
std::string render_rings(const stg::Stg& stg) {
  std::map<int, std::vector<const stg::State*>> rings;
  for (const stg::State& st : stg.states())
    if (st.ring_id >= 0) rings[st.ring_id].push_back(&st);
  std::string out;
  for (const auto& [id, states] : rings) {
    std::map<std::string, int> loop_of;  // wire name -> statement id
    for (const stg::State* st : states)
      for (const stg::OpInstance& op : st->ops)
        loop_of[stg::wire_name(op.wire)] = op.stmt_id;
    std::map<int, std::pair<int, int>> checks;  // wire -> (loop, count)
    for (const stg::State* st : states) {
      std::stringstream signals(st->cond_signal);
      std::string wire;
      while (std::getline(signals, wire, ',')) {
        auto& [loop, count] = checks[std::stoi(wire.substr(1))];
        loop = loop_of.count(wire) ? loop_of[wire] : -1;
        count++;
      }
    }
    out += "[";
    for (const auto& [wire, check] : checks)
      out += strfmt("%s%d:%d", out.back() == '[' ? "" : ",", check.first,
                    static_cast<int>(states.size()) / check.second);
    out += "]";
  }
  return out;
}

/// One pinned line: the schedule's DOT digest and its kernel rings, or the
/// scheduling error.
std::string fused_golden_line(const FusedCase& c, const ir::Function& fn,
                              const hlslib::Allocation& alloc) {
  Harness h;
  try {
    const ScheduleResult r =
        Scheduler(h.lib, alloc, h.sel, h.opts).schedule(fn, c.profile);
    return strfmt("%016llx %s",
                  static_cast<unsigned long long>(fnv1a(r.stg.dot())),
                  render_rings(r.stg).c_str());
  } catch (const Error& e) {
    return strfmt("error %016llx",
                  static_cast<unsigned long long>(fnv1a(e.what())));
  }
}

// Pins fused-loop admission far beyond the root schedules SchedGolden
// covers: every fused case and every standard-library candidate of it
// (each move applied once), scheduled from scratch under the case's own
// allocation and under one and two instances of every FU type (where
// those differ from its own). On a
// mismatch the produced file goes to <gtest temp dir>/fused_golden.txt.
TEST(FusedGolden, CandidatesOfFusedCases) {
  Harness h;
  const xform::TransformLibrary xlib = xform::TransformLibrary::standard();
  std::map<std::string, hlslib::Allocation> uniform;
  for (const int n : {1, 2})
    for (const auto& t : h.lib.types())
      uniform["x" + std::to_string(n)].counts[t.name] = n;
  std::string got;
  size_t lines = 0;
  for (const FusedCase& c : fused_cases()) {
    std::vector<std::pair<std::string, ir::Function>> fns;
    fns.emplace_back("original", c.fn.clone());
    const std::vector<xform::Candidate> cands = xlib.find_all(c.fn, {});
    for (size_t k = 0; k < cands.size(); ++k) {
      try {
        fns.emplace_back(strfmt("c%zu:%s", k, cands[k].transform.c_str()),
                         xlib.apply(c.fn, cands[k]));
      } catch (const Error&) {
        continue;  // a move that does not apply is not pinned
      }
    }
    std::vector<std::pair<std::string, const hlslib::Allocation*>> allocs{
        {"own", &c.alloc}};
    for (const auto& [name, alloc] : uniform)
      if (alloc.counts != c.alloc.counts) allocs.emplace_back(name, &alloc);
    for (const auto& [fn_name, fn] : fns)
      for (const auto& [alloc_name, alloc] : allocs) {
        got += c.name + "/" + alloc_name + "/" + fn_name + " " +
               fused_golden_line(c, fn, *alloc) + "\n";
        lines++;
      }
  }
  EXPECT_GE(lines, 1000u);
  const std::string path =
      std::string(FACT_TEST_DATA_DIR) + "/fused_golden.txt";
  std::ifstream in(path);
  std::stringstream want;
  want << in.rdbuf();
  if (in.good() && got == want.str()) return;
  const std::filesystem::path out =
      std::filesystem::path(::testing::TempDir()) / "fused_golden.txt";
  std::ofstream(out) << got;
  ADD_FAILURE() << "fused schedules differ from " << path
                << (in.good() ? "" : " (missing)") << "; produced output in "
                << out.string();
}

/// The FusedGolden behaviors, candidates and allocations: each
/// candidate's summary is its STG's chain, with the same estimates.
TEST(SummaryOracle, FusedGoldenCandidates) {
  Harness h;
  const xform::TransformLibrary xlib = xform::TransformLibrary::standard();
  std::vector<hlslib::Allocation> uniform(2);
  for (const int n : {1, 2})
    for (const auto& t : h.lib.types())
      uniform[static_cast<size_t>(n - 1)].counts[t.name] = n;
  size_t scheduled = 0;
  for (const FusedCase& c : fused_cases()) {
    std::vector<std::pair<std::string, ir::Function>> fns;
    fns.emplace_back("original", c.fn.clone());
    for (const xform::Candidate& cand : xlib.find_all(c.fn, {})) {
      try {
        fns.emplace_back(cand.describe(), xlib.apply(c.fn, cand));
      } catch (const Error&) {
        continue;
      }
    }
    std::vector<const hlslib::Allocation*> allocs{&c.alloc};
    for (const hlslib::Allocation& a : uniform)
      if (a.counts != c.alloc.counts) allocs.push_back(&a);
    for (const hlslib::Allocation* alloc : allocs) {
      // schedule() fills the cache, so summarize() emits from hits.
      FragmentCache cache;
      SchedOptions opts = h.opts;
      opts.fragment_cache = &cache;
      const Scheduler s(h.lib, *alloc, h.sel, opts);
      for (const auto& [tag, fn] : fns) {
        if (oracle::expect_summary_matches(s, fn, c.profile, h.lib, 100.0,
                                           c.name + " " + tag))
          scheduled++;
        if (HasFailure()) return;
      }
    }
  }
  std::printf("fused golden: %zu schedules compared\n", scheduled);
  EXPECT_GE(scheduled, 1000u);
}

}  // namespace
}  // namespace fact::sched
