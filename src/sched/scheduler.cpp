#include "sched/scheduler.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <map>
#include <numeric>
#include <set>
#include <span>
#include <string_view>

#include "ir/hash.hpp"
#include "obs/trace.hpp"
#include "sched/dfg.hpp"
#include "sched/fragment_cache.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/strfmt.hpp"

namespace fact::sched {

using ir::ExprPtr;
using ir::Op;
using ir::Stmt;
using ir::StmtKind;

namespace {

/// Edge probabilities are clamped away from 0 and 1 so every control path
/// stays represented in the Markov chain (a branch never observed in the
/// profile still has hardware).
double clamp_prob(double p) { return std::clamp(p, 0.01, 0.995); }

/// Variables and arrays a loop touches; used for the concurrent-loop
/// independence test. Each list is sorted and duplicate-free; the names
/// view strings of the function being scheduled.
struct RwSets {
  std::vector<std::string_view> var_reads, var_writes, arr_reads, arr_writes;
};

void collect_expr(const ir::Expr& e, RwSets& rw) {
  if (e.op() == Op::Var) rw.var_reads.push_back(e.name());
  if (e.op() == Op::ArrayRead) rw.arr_reads.push_back(e.name());
  for (const ExprPtr& a : e.args()) collect_expr(*a, rw);
}

void collect_region_rw(const Region& r, RwSets& rw) {
  for (const Stmt* s : r.stmts) {
    if (s->kind == StmtKind::Assign) {
      rw.var_writes.push_back(s->target);
      collect_expr(*s->value, rw);
    } else if (s->kind == StmtKind::Store) {
      rw.arr_writes.push_back(s->target);
      collect_expr(*s->index, rw);
      collect_expr(*s->value, rw);
    }
  }
  if (r.ctrl) collect_expr(*r.ctrl->cond, rw);
  for (const auto& c : r.children) collect_region_rw(*c, rw);
}

/// Fills `rw` (its lists' storage reused) with what `loop` touches.
void collect_loop_rw(const Region& loop, RwSets& rw) {
  for (auto* names :
       {&rw.var_reads, &rw.var_writes, &rw.arr_reads, &rw.arr_writes})
    names->clear();
  collect_expr(*loop.ctrl->cond, rw);
  collect_region_rw(*loop.children[0], rw);
  for (auto* names :
       {&rw.var_reads, &rw.var_writes, &rw.arr_reads, &rw.arr_writes}) {
    std::sort(names->begin(), names->end());
    names->erase(std::unique(names->begin(), names->end()), names->end());
  }
}

bool disjoint(const std::vector<std::string_view>& a,
              const std::vector<std::string_view>& b) {
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) return false;
    if (a[i] < b[j]) ++i; else ++j;
  }
  return true;
}

bool loops_independent(const RwSets& a, const RwSets& b) {
  return disjoint(a.var_writes, b.var_reads) &&
         disjoint(a.var_writes, b.var_writes) &&
         disjoint(b.var_writes, a.var_reads) &&
         disjoint(a.arr_writes, b.arr_reads) &&
         disjoint(a.arr_writes, b.arr_writes) &&
         disjoint(b.arr_writes, a.arr_reads);
}

int lcm_int(int a, int b) { return a / std::gcd(a, b) * b; }

// The fixed scheduling policy (the paper's setup).
constexpr double kVdd = 5.0;        // supply the FU delays are scaled for
constexpr double kVt = 1.0;         // threshold voltage
constexpr int kMaxIi = 64;          // give up pipelining past this II
constexpr int kMaxHyperperiod = 64; // fused-phase schedule table size cap
constexpr size_t kMaxFused = 4;     // at most this many loops fused at once
static_assert(kMaxFused <= 31, "fused phases are 32-bit loop masks");
/// Pathological-schedule guard: emission producing more states than this
/// throws fact::Error. A runaway candidate (e.g. an over-unrolled loop)
/// would otherwise drown the optimization loop in STG analysis.
constexpr size_t kMaxStates = 100000;

// Fragment kinds live in disjoint key spaces.
constexpr uint64_t kTagStraight = 0x51A16u;
constexpr uint64_t kTagCond = 0xC09Du;
constexpr uint64_t kTagPipe = 0x919Eu;
constexpr uint64_t kTagFused = 0xF05Eu;

/// Statements of a straight-bodied loop's body segment (empty body: none).
const std::vector<const Stmt*>& loop_body_stmts(const Region& loop) {
  static const std::vector<const Stmt*> kNone;
  const Region& body = *loop.children[0];
  return body.children.empty() ? kNone : body.children[0]->stmts;
}

/// Op placement walks, one per fragment kind. Each calls
/// visit(row, loop, node, iteration, lag) once per op a state of the
/// fragment executes: node `node` of the DFG of loop `loop` (0 except in a
/// fused phase) runs in the fragment's row `row` (its state first + row)
/// with that iteration tag and pipeline lag. Nodes are visited in index
/// order, so a state's ops come out in node order. An entry's summary rows
/// (built once, on the miss) and a full STG's ops (appended per emission)
/// both come from these walks.

/// A plain fragment: a node runs in its first control step.
template <typename Visit>
void place_plain(const Dfg& dfg, Visit&& visit) {
  for (size_t i = 0; i < dfg.nodes.size(); ++i)
    visit(static_cast<size_t>(dfg.nodes[i].cstep), 0, i, 0, 0);
}

/// A pipelined loop's rows are its prologue's control steps (iteration 0,
/// linear), then its II kernel-ring slots (a node at slot cstep % II,
/// tagged with the traversal it belongs to), then its drain states (a node
/// in drain state (round, cstep) for each round it owes).
template <typename Visit>
void place_pipelined(const FragmentCache::Entry& e, Visit&& visit) {
  const size_t ring = static_cast<size_t>(e.csteps);
  const size_t drain = ring + static_cast<size_t>(e.ii);
  for (size_t i = 0; i < e.dfg.nodes.size(); ++i) {
    const int c = e.dfg.nodes[i].cstep;
    visit(static_cast<size_t>(c), 0, i, 0, 0);
    visit(ring + static_cast<size_t>(c % e.ii), 0, i, c / e.ii, e.lag[i]);
    for (int round = 1; round <= e.owed[i]; ++round) {
      const auto d = std::lower_bound(e.drain.begin(), e.drain.end(),
                                      std::pair{round, c});
      visit(drain + static_cast<size_t>(d - e.drain.begin()), 0, i, 0,
            e.lag[i]);
    }
  }
}

/// A fused phase's rows are its hyperperiod's ring slots: loop a's node at
/// cstep c runs in every slot == c mod II_a.
template <typename Visit>
void place_phase(const FragmentCache::Entry::FusedPhase& ps, Visit&& visit) {
  for (size_t a = 0; a < ps.active.size(); ++a) {
    const int ii = ps.active[a].second;
    const Dfg& dfg = ps.dfgs[a];
    for (size_t i = 0; i < dfg.nodes.size(); ++i) {
      const int c = dfg.nodes[i].cstep;
      for (int s = c % ii; s < ps.hyperperiod; s += ii)
        visit(static_cast<size_t>(s), a, i, c / ii + (s - c % ii) / ii, 0);
    }
  }
}

/// An edge label, spelled only into a full STG: a fixed text, or the exit
/// of a fused run's loop ("exitL<position>").
struct Label {
  Label(const char* text = "") : text(text) {}
  static Label exit_of(size_t loop) {
    Label l;
    l.exit_loop = static_cast<int>(loop);
    return l;
  }
  std::string str() const {
    return exit_loop >= 0 ? strfmt("exitL%d", exit_loop) : std::string(text);
  }

  const char* text;
  int exit_loop = -1;
};

/// A pending transition into the next state to be created.
struct Attach {
  int state = -1;
  double prob = 1.0;
  Label label;
};

/// What emission reuses from one schedule to the next on a thread: the
/// region tree, the stack of pending transitions, the loops' read/write
/// sets, the op count of each state of one fragment and the DFG builder's
/// working storage. Storage keeps its capacity, so a warm emission
/// allocates none of it.
struct EmitScratch {
  RegionTree tree;
  std::vector<Attach> pending;
  std::array<RwSets, kMaxFused> rw;
  std::vector<int> ops;
  DfgScratch dfg;
};

/// This thread's EmitScratch. One Emitter runs at a time on a thread.
EmitScratch& emit_scratch() {
  thread_local EmitScratch scratch;
  return scratch;
}

/// One control code for both outputs: the Emitter decides states, edges
/// and probabilities once, and writes them either into a full STG (ops,
/// names, labels, condition signals, loop decisions) or, given a chain,
/// into that summary only (each state's op counts come from rows the
/// fragment-cache entries carry).
class Emitter {
 public:
  Emitter(const hlslib::Library& lib, const hlslib::Allocation& alloc,
          const DfgBuilder& builder, const SchedOptions& opts,
          const sim::Profile& profile, stg::Chain* chain = nullptr)
      : lib_(lib),
        alloc_(alloc),
        builder_(builder),
        opts_(opts),
        profile_(profile),
        chain_(chain) {}

  void run(const ir::Function& fn) {
    fn_name_ = &fn.name();
    scratch_.tree.build(fn);
    pending_.clear();
    emit_seq(*scratch_.tree, 0);
    const size_t states = static_cast<size_t>(num_states());
    if (states > kMaxStates)
      throw Error(strfmt(
          "schedule for '%s' exploded to %zu states (max_states %zu)",
          fn_name_->c_str(), states, kMaxStates));
    if (states == 0) {
      const int idle = add_named_state("idle");
      add_edge(idle, idle, 1.0, "", /*exec_boundary=*/true);
    } else {
      for (const Attach& a : pending_)
        add_edge(a.state, 0, a.prob, a.label, /*exec_boundary=*/true);
    }
    if (chain_) {
      chain_->set_entry(0);
      chain_->validate();
    } else {
      stg_.set_entry(0);
      stg_.validate();
    }
  }

  /// The full schedule run() emitted (without a chain).
  ScheduleResult result() {
    ScheduleResult result;
    result.stg = std::move(stg_);
    result.loops = std::move(loops_);
    result.rtl_exact = rtl_exact_;
    return result;
  }

 private:
  // ---- output ----------------------------------------------------------

  bool full() const { return chain_ == nullptr; }

  int num_states() const {
    return static_cast<int>(full() ? stg_.num_states()
                                   : chain_->num_states());
  }

  /// Appends a state. A summary takes its op counts and register traffic
  /// from row r of `rows`; into a full STG the caller adds the ops.
  int add_state(const stg::OpRows& rows, size_t r) {
    return full() ? stg_.add_state("") : chain_->add_state(rows, r);
  }

  /// Appends a state without ops, named in a full STG.
  int add_named_state(const char* name) {
    return full() ? stg_.add_state(name) : chain_->add_state();
  }

  void add_edge(int from, int to, double prob, const Label& label = {},
                bool exec_boundary = false) {
    if (full())
      stg_.add_edge(from, to, prob, label.str(), exec_boundary);
    else
      chain_->add_edge(from, to, prob, exec_boundary);
  }

  // ---- helpers ---------------------------------------------------------

  // Emission keeps its pending transitions on one stack: a region's
  // incoming ones are pending_[in, end) when it starts, and its outgoing
  // ones replace them there when it returns.

  /// Connects the pending transitions [first, last) to `state`.
  void connect(size_t first, size_t last, int state) {
    for (size_t a = first; a < last; ++a)
      add_edge(pending_[a].state, state, pending_[a].prob, pending_[a].label);
  }

  /// Connects the pending transitions from `in` on to `state` and drops
  /// them.
  void enter(size_t in, int state) {
    connect(in, pending_.size(), state);
    pending_.resize(in);
  }

  /// Every op must have a nonzero allocation; diagnose infeasible
  /// allocations up front instead of failing to schedule.
  void check_feasible(const Dfg& dfg) const {
    for (const auto& n : dfg.nodes) {
      if (!n.array.empty() || n.fu.empty()) continue;
      if (alloc_.count(n.fu) <= 0)
        throw Error(strfmt(
            "infeasible allocation for '%s': operation '%s' needs FU type "
            "'%s' but none are allocated",
            fn_name_->c_str(), n.label().c_str(), std::string(n.fu).c_str()));
    }
  }

  /// Reserves one result wire per node of a scheduled DFG (wires are
  /// global across the whole STG so bindings can refer to them); node i
  /// drives wire number base + i. Returns the base.
  int assign_wires(const Dfg& dfg) {
    const int base = wire_counter_;
    wire_counter_ += static_cast<int>(dfg.nodes.size());
    return base;
  }

  /// Appends the STG op of node `node_idx` to `st`, numbering node
  /// operands and pre-readers from `wire_base`, and counts the node's
  /// register traffic. The op views the node: the caller hands the STG
  /// the fragment entry holding the DFG (Stg::keep_alive).
  static void add_op(stg::State& st, const Dfg& dfg, int wire_base,
                     size_t node_idx, int iteration, int lag = 0) {
    const DfgNode& node = dfg.nodes[node_idx];
    stg::OpInstance& op = st.ops.emplace_back();
    op.fu_type = node.fu;
    op.op = node.op;
    op.is_store = node.is_store;
    op.stmt_id = node.stmt_id;
    op.iteration = iteration;
    op.lag = lag;
    op.wire = wire_base + static_cast<int>(node_idx);
    op.def_var = node.def_var;
    op.array = node.array;
    op.operands = node.operands;
    for (stg::Operand& operand : op.operands)
      if (operand.kind() == stg::Operand::Kind::Wire)
        operand = stg::Operand::of_wire(wire_base + operand.wire());
    op.pre_readers = stg::WireList(dfg.war_preds(node_idx), wire_base);
    st.reg_reads += node.var_reads;
    if (node.reg_write) st.reg_writes++;
  }

  /// Appends to state first + row of a full STG the op of every visit of
  /// `place` (a placement walk over `rows` rows), numbering loop l's wires
  /// from wires[l]. Each state's op list is sized exactly first.
  template <typename Place>
  void add_ops(int first, size_t rows, std::span<const Dfg> dfgs,
               std::span<const int> wires, Place&& place) {
    std::vector<int>& ops = scratch_.ops;
    ops.assign(rows, 0);
    place([&](size_t row, size_t, size_t, int, int) { ops[row]++; });
    for (size_t r = 0; r < rows; ++r)
      stg_.state(first + static_cast<int>(r))
          .ops.reserve(static_cast<size_t>(ops[r]));
    place([&](size_t row, size_t loop, size_t node, int iteration, int lag) {
      add_op(stg_.state(first + static_cast<int>(row)), dfgs[loop],
             wires[loop], node, iteration, lag);
    });
  }

  /// Creates one STG state per control step of a fragment's scheduled
  /// plain DFG and, into a full STG, fills op and register-traffic
  /// annotations. Returns {first, last}.
  std::pair<int, int> materialize(
      const std::shared_ptr<const FragmentCache::Entry>& entry) {
    const Dfg& dfg = entry->dfg;
    const int n = entry->csteps;
    assert(n > 0);
    const int first = num_states();
    for (int c = 0; c < n; ++c) {
      const int s = add_state(entry->rows, static_cast<size_t>(c));
      if (c > 0) add_edge(s - 1, s, 1.0);
    }
    if (full()) {
      stg_.keep_alive(entry);
      const int wires = assign_wires(dfg);
      add_ops(first, static_cast<size_t>(n), {&dfg, 1}, {&wires, 1},
              [&](auto&& visit) { place_plain(dfg, visit); });
      if (dfg.cond_node >= 0) {
        const int cstep =
            dfg.nodes[static_cast<size_t>(dfg.cond_node)].avail_cstep();
        stg_.state(first + cstep).cond_signal =
            stg::wire_name(wires + dfg.cond_node);
      }
    }
    return {first, first + n - 1};
  }

  // ---- summary rows -----------------------------------------------------

  /// Appends the `n` summary rows of a placement walk over `dfgs` (by
  /// loop) to `out`: each op counts toward its FU type and its register
  /// reads and write.
  template <typename Place>
  void add_rows(stg::OpRows& out, size_t n, std::span<const Dfg> dfgs,
                Place&& place) const {
    const size_t nf = lib_.types().size();
    std::vector<int> ops(n * nf, 0), reg(n, 0);
    place([&](size_t row, size_t loop, size_t i, int, int) {
      const DfgNode& node = dfgs[loop].nodes[i];
      if (node.fu_type >= 0)
        ops[row * nf + static_cast<size_t>(node.fu_type)]++;
      reg[row] += node.var_reads + (node.reg_write ? 1 : 0);
    });
    std::vector<stg::FuCount> counts;
    for (size_t r = 0; r < n; ++r) {
      counts.clear();
      for (size_t f = 0; f < nf; ++f)
        if (const int c = ops[r * nf + f]) counts.push_back({static_cast<int>(f), c});
      out.push_back(counts, reg[r]);
    }
  }

  // ---- fragment cache ---------------------------------------------------

  uint64_t straight_key(const std::vector<const Stmt*>& stmts) const {
    uint64_t h = hash_mix(kTagStraight, stmts.size());
    for (const Stmt* s : stmts) h = hash_mix(h, ir::fragment_hash(*s));
    return h;
  }

  uint64_t cond_key(const ExprPtr& cond, int stmt_id) const {
    uint64_t h = hash_mix(kTagCond, static_cast<uint64_t>(cond->hash()));
    return hash_mix(h, static_cast<uint64_t>(static_cast<int64_t>(stmt_id)));
  }

  uint64_t pipe_key(const std::vector<const Stmt*>& body_stmts,
                    const ExprPtr& cond, int stmt_id) const {
    uint64_t h = hash_mix(kTagPipe, body_stmts.size());
    for (const Stmt* s : body_stmts) h = hash_mix(h, ir::fragment_hash(*s));
    h = hash_mix(h, static_cast<uint64_t>(cond->hash()));
    return hash_mix(h, static_cast<uint64_t>(static_cast<int64_t>(stmt_id)));
  }

  /// A fused run's key: the ordered partner set, each loop by its
  /// pipelined-loop key (body fragments, condition, statement id). A loop's
  /// schedule in a phase depends on its partners and on admission order,
  /// so both are in the key.
  uint64_t fused_key(std::span<const Region* const> run) const {
    uint64_t h = hash_mix(kTagFused, run.size());
    for (const Region* loop : run)
      h = hash_mix(h, pipe_key(loop_body_stmts(*loop), loop->ctrl->cond,
                              loop->ctrl->id));
    return h;
  }

  /// Runs `build` (DFG construction + scheduling) through the fragment
  /// cache: a hit returns the previously scheduled entry, a miss computes
  /// and publishes it. fact::Error failures are cached too and rethrown
  /// with the identical message, so a cached failure is indistinguishable
  /// from a recomputed one. Exceptions other than fact::Error propagate
  /// uncached.
  template <typename BuildFn>
  std::shared_ptr<const FragmentCache::Entry> fragment(uint64_t key,
                                                       BuildFn&& build) {
    FragmentCache* cache = opts_.fragment_cache;
    if (cache) {
      if (auto entry = cache->lookup(key)) {
        if (!entry->ok) throw Error(entry->error);
        return entry;
      }
    }
    auto fresh = std::make_shared<FragmentCache::Entry>();
    try {
      build(*fresh);
      fresh->ok = true;
    } catch (const Error& ex) {
      fresh->error = ex.what();
    }
    std::shared_ptr<const FragmentCache::Entry> entry = fresh;
    if (cache) entry = cache->insert(key, std::move(fresh));
    if (!entry->ok) throw Error(entry->error);
    return entry;
  }

  /// Cached build + schedule of a branch/loop condition evaluation.
  std::shared_ptr<const FragmentCache::Entry> cond_fragment(
      const ExprPtr& cond, int stmt_id) {
    return fragment(cond_key(cond, stmt_id), [&](FragmentCache::Entry& e) {
      e.dfg = build_dfg({}, cond, stmt_id);
      schedule_plain(e);
    });
  }

  double branch_prob(int stmt_id) const {
    return clamp_prob(profile_.branch_prob(stmt_id, 0.5));
  }

  /// Loop closing probabilities keep much more headroom than generic
  /// branches: p encodes the expected iteration count (p/(1-p)), so
  /// clamping at 0.995 would flatten every loop beyond ~200 iterations.
  double loop_prob(int stmt_id) const {
    return std::clamp(profile_.branch_prob(stmt_id, 0.5), 0.01, 0.99999);
  }

  /// DfgBuilder::build, in this thread's scratch, under the `dfg_build`
  /// span (annotated with the DFG's node count).
  Dfg build_dfg(const std::vector<const Stmt*>& stmts,
                const ExprPtr& cond = nullptr, int cond_stmt_id = -1) {
    obs::Span sp = obs::span("dfg_build", "sched");
    Dfg dfg = builder_.build(scratch_.dfg, stmts, cond, cond_stmt_id);
    sp.arg("nodes", dfg.nodes.size());
    return dfg;
  }

  /// Schedules a plain (non-modulo) fragment's DFG, if it has nodes, and
  /// records its control steps and their summary rows.
  void schedule_plain(FragmentCache::Entry& e) const {
    if (!e.dfg.nodes.empty()) {
      check_feasible(e.dfg);
      obs::Span sp = obs::span("list_schedule", "sched");
      ResourceTable table(alloc_, 0);
      if (!list_schedule(e.dfg, table, opts_.clock_ns))
        throw Error(strfmt("cannot schedule segment of '%s' under clock %.1fns",
                           fn_name_->c_str(), opts_.clock_ns));
    }
    e.csteps = e.dfg.num_csteps();
    add_rows(e.rows, static_cast<size_t>(e.csteps), {&e.dfg, 1},
             [&](auto&& visit) { place_plain(e.dfg, visit); });
  }

  // ---- region emission --------------------------------------------------

  void emit_seq(const Region& seq, size_t in) {
    assert(seq.kind == Region::Kind::Seq);
    size_t i = 0;
    while (i < seq.children.size()) {
      const Region& child = *seq.children[i];
      if (child.kind == Region::Kind::Loop && opts_.fuse_loops) {
        // Collect a maximal run of adjacent, independent, pipelineable
        // loops for concurrent execution. rw[k] holds loop k's read/write
        // sets once needed; rw[size] the next loop's, while it is tested.
        std::array<const Region*, kMaxFused> run{&child};
        size_t size = 1, with_rw = 0;
        std::array<RwSets, kMaxFused>& rw = scratch_.rw;
        size_t j = i + 1;
        while (j < seq.children.size() && size < kMaxFused) {
          const Region& next = *seq.children[j];
          if (next.kind != Region::Kind::Loop) break;
          if (!next.loop_body_is_straight() ||
              !run.front()->loop_body_is_straight())
            break;
          if (with_rw == 0) collect_loop_rw(child, rw[with_rw++]);
          collect_loop_rw(next, rw[with_rw]);
          bool indep = true;
          for (size_t k = 0; k < with_rw; ++k)
            if (!loops_independent(rw[k], rw[with_rw])) { indep = false; break; }
          if (!indep) break;
          run[size++] = &next;
          with_rw++;
          ++j;
        }
        if (size >= 2 && emit_fused_run({run.data(), size}, in)) {
          i = j;
          continue;
        }
      }
      emit_region(child, in);
      ++i;
    }
  }

  void emit_region(const Region& r, size_t in) {
    switch (r.kind) {
      case Region::Kind::Straight:
        return emit_straight(r, in);
      case Region::Kind::If:
        return emit_if(r, in);
      case Region::Kind::Loop:
        return emit_loop(r, in);
      case Region::Kind::Seq:
        return emit_seq(r, in);
    }
  }

  void emit_straight(const Region& r, size_t in) {
    const auto entry =
        fragment(straight_key(r.stmts), [&](FragmentCache::Entry& e) {
          e.dfg = build_dfg(r.stmts);
          schedule_plain(e);
        });
    if (entry->dfg.nodes.empty()) return;
    auto [first, last] = materialize(entry);
    enter(in, first);
    pending_.push_back({last, 1.0, ""});
  }

  void emit_if(const Region& r, size_t in) {
    const auto cond = cond_fragment(r.ctrl->cond, r.ctrl->id);
    auto [cfirst, clast] = materialize(cond);
    enter(in, cfirst);
    const double p = branch_prob(r.ctrl->id);
    // The then-branch's outgoing transitions, then the else-branch's.
    pending_.push_back({clast, p, "T"});
    emit_seq(*r.children[0], in);
    const size_t else_in = pending_.size();
    pending_.push_back({clast, 1.0 - p, "F"});
    emit_seq(*r.children[1], else_in);
  }

  void emit_loop(const Region& r, size_t in) {
    const double p = loop_prob(r.ctrl->id);  // closing probability

    if (r.loop_body_is_straight() && emit_pipelined_loop(r, p, in)) return;

    // General path: test states, body, back edge.
    const auto test = cond_fragment(r.ctrl->cond, r.ctrl->id);
    auto [tfirst, tlast] = materialize(test);
    enter(in, tfirst);
    pending_.push_back({tlast, p, "loop"});
    emit_seq(*r.children[0], in);
    enter(in, tfirst);

    if (full()) {
      LoopInfo info;
      info.stmt_id = r.ctrl->id;
      info.pipelined = false;
      loops_.push_back(info);
    }
    pending_.push_back({tlast, 1.0 - p, "exit"});
  }

  /// Derived per-op pipeline bookkeeping of a modulo-scheduled body:
  /// lags (slot wraparounds along each op's dependence chain — how many
  /// traversals behind the newest iteration it runs) and the drain debts
  /// owed when the check fires the exit. The winning II's is kept in the
  /// pipelined fragment's entry.
  struct PipeDerived {
    int body_csteps = 0;
    int cond_cstep = 0;
    int check_slot = 0;
    std::vector<int> lag;
    std::vector<int> owed;
  };

  static PipeDerived derive_pipe(const Dfg& dfg, int ii) {
    PipeDerived d;
    d.body_csteps = dfg.num_csteps();
    d.cond_cstep = dfg.nodes[static_cast<size_t>(dfg.cond_node)].avail_cstep();
    d.check_slot = d.cond_cstep % ii;
    d.lag.assign(dfg.nodes.size(), 0);
    for (size_t i = 0; i < dfg.nodes.size(); ++i) {
      const DfgNode& node = dfg.nodes[i];
      for (int pidx : dfg.preds(i)) {
        const DfgNode& pred = dfg.nodes[static_cast<size_t>(pidx)];
        const int wrap = pred.cstep % ii > node.cstep % ii ? 1 : 0;
        d.lag[i] = std::max(d.lag[i], d.lag[static_cast<size_t>(pidx)] + wrap);
      }
    }
    const int check_lag = d.lag[static_cast<size_t>(dfg.cond_node)];
    d.owed.assign(dfg.nodes.size(), 0);
    for (size_t i = 0; i < dfg.nodes.size(); ++i) {
      const int extra = dfg.nodes[i].cstep % ii > d.check_slot ? 1 : 0;
      d.owed[i] = std::max(0, d.lag[i] - check_lag + extra);
    }
    return d;
  }

  /// Drain representability for relaxed anti-dependences: a reader
  /// flushed in the drain still has a single shadow level available.
  /// With the def having run in the truncated final traversal iff its
  /// slot <= check slot, the reader's desired value must be the def's
  /// most recent execution or one update older.
  static bool drain_representable(const Dfg& dfg, int ii,
                                  const PipeDerived& d) {
    for (size_t i = 0; i < dfg.nodes.size(); ++i) {
      const DfgNode& node = dfg.nodes[i];
      if (!node.relax_war) continue;
      for (int p : dfg.war_preds(i)) {
        const DfgNode& r = dfg.nodes[static_cast<size_t>(p)];
        if (r.cstep < 0 || d.owed[static_cast<size_t>(p)] <= 0) continue;
        const int ran = node.cstep % ii <= d.check_slot ? 0 : 1;
        const int gap =
            (d.lag[static_cast<size_t>(p)] + 1) - (d.lag[i] + ran);
        if (gap < 0 || gap > 1) return false;
      }
    }
    return true;
  }

  /// Pipelined (implicitly unrolled) loop: modulo-schedule the body plus
  /// the loop condition at the smallest feasible II and materialize the
  /// full software pipeline:
  ///   guard (while-test on entry values)
  ///     -> prologue (iteration 0, linear; fills the pipe)
  ///     -> kernel ring of II states (one iteration completes per
  ///        traversal; overlapped iterations read last-traversal wires)
  ///     -> epilogue drain on exit (ops past the check complete the
  ///        in-flight iteration).
  /// This structure is functionally exact for the RTL backend and only
  /// adds entry/exit states that the steady state amortizes.
  /// Returns false if pipelining is infeasible.
  bool emit_pipelined_loop(const Region& r, double p, size_t in) {
    const std::vector<const Stmt*>& body_stmts = loop_body_stmts(r);
    // The II search through the fragment cache: the winning modulo
    // schedule — or the not-pipelineable verdict — is a pure function of
    // the body + condition fragment.
    const auto entry = fragment(
        pipe_key(body_stmts, r.ctrl->cond, r.ctrl->id),
        [&](FragmentCache::Entry& e) {
          Dfg dfg = build_dfg(body_stmts, r.ctrl->cond, r.ctrl->id);
          check_feasible(dfg);
          const int res_ii = resource_min_ii(dfg, ResourceTable(alloc_, 1));
          if (res_ii < 0) return;  // e.pipelined stays false
          obs::Span sp = obs::span("list_schedule", "sched");
          // Every attempt reschedules the same DFG in place: a successful
          // list_schedule rewrites every node's placement.
          for (int ii = res_ii; ii <= kMaxIi; ++ii) {
            ResourceTable table(alloc_, ii);
            if (!list_schedule(dfg, table, opts_.clock_ns, ii)) continue;
            if (!recurrences_ok(dfg, ii)) continue;
            if (!pipeline_lags_consistent(dfg, ii)) continue;
            PipeDerived derived = derive_pipe(dfg, ii);
            if (!drain_representable(dfg, ii, derived))
              continue;  // try the next II
            e.pipelined = true;
            e.ii = ii;
            e.dfg = std::move(dfg);
            e.csteps = derived.body_csteps;
            e.lag = std::move(derived.lag);
            e.owed = std::move(derived.owed);
            e.drain = drain_states(e);
            add_rows(e.rows,
                     static_cast<size_t>(e.csteps + ii) + e.drain.size(),
                     {&e.dfg, 1},
                     [&](auto&& visit) { place_pipelined(e, visit); });
            return;
          }
        });
    if (!entry->pipelined) return false;

    const Dfg& dfg = entry->dfg;
    const int ii = entry->ii;
    const int body_csteps = entry->csteps;
    const int cond_cstep =
        dfg.nodes[static_cast<size_t>(dfg.cond_node)].avail_cstep();
    int wires = 0;
    std::string cond_wire;
    if (full()) {
      stg_.keep_alive(entry);
      wires = assign_wires(dfg);
      cond_wire = stg::wire_name(wires + dfg.cond_node);
    }

    // Guard: the while-test on entry values (separate evaluation). The
    // loop's exits replace its incoming transitions as they arise.
    const auto guard = cond_fragment(r.ctrl->cond, r.ctrl->id);
    auto [gfirst, glast] = materialize(guard);
    enter(in, gfirst);
    pending_.push_back({glast, 1.0 - p, "exit"});

    // Prologue: iteration 0 executed linearly (fills wires). Kernel ring:
    // every op once per traversal, at slot cstep % II. Epilogue drain:
    // when the check fires the exit, each op still owes
    //   owed = lag - lag(check) + (slot > check_slot ? 1 : 0)
    // executions to complete the in-flight iterations, flushed round by
    // round in cstep order (resource-legal: each drain state re-uses one
    // kernel cstep's op set). The states of all three follow the entry's
    // rows.
    const int prologue_first = num_states();
    for (size_t row = 0; row < entry->rows.size(); ++row)
      add_state(entry->rows, row);
    const int prologue_last = prologue_first + body_csteps - 1;
    const int ring0 = prologue_first + body_csteps;
    const int ring_id = next_ring_id_++;
    const int drain_first = ring0 + ii;
    const int drain_end = drain_first + static_cast<int>(entry->drain.size());
    const bool drains = drain_end > drain_first;
    if (full()) {
      for (int s = ring0; s < ring0 + ii; ++s) stg_.state(s).ring_id = ring_id;
      add_ops(prologue_first, entry->rows.size(), {&dfg, 1}, {&wires, 1},
              [&](auto&& visit) { place_pipelined(*entry, visit); });
    }
    for (int s = prologue_first + 1; s <= prologue_last; ++s)
      add_edge(s - 1, s, 1.0);
    add_edge(glast, prologue_first, p, "loop");
    for (int s = drain_first + 1; s < drain_end; ++s) add_edge(s - 1, s, 1.0);
    const auto exit_target = [&](int from, double prob, const Label& label) {
      if (drains) {
        add_edge(from, drain_first, prob, label);
      } else {
        pending_.push_back({from, prob, label});
      }
    };

    // Prologue branch: the iteration-1 check was computed at its cstep;
    // branch at the last prologue state on the stored wire. A prologue
    // exit bypasses the drain — iteration 0's tail already ran linearly.
    if (full()) stg_.state(prologue_last).cond_signal = cond_wire;
    add_edge(prologue_last, ring0, p, "loop");
    pending_.push_back({prologue_last, 1.0 - p, "exit"});

    // Ring transitions with the per-traversal check.
    const int check_state = ring0 + cond_cstep % ii;
    if (full()) stg_.state(check_state).cond_signal = cond_wire;
    for (int k = 0; k < ii; ++k) {
      const int cur = ring0 + k;
      const int next = ring0 + (k + 1) % ii;
      if (cur == check_state) {
        add_edge(cur, next, p, "loop");
        exit_target(cur, 1.0 - p, "exit");
      } else {
        add_edge(cur, next, 1.0);
      }
    }
    if (drains) pending_.push_back({drain_end - 1, 1.0, ""});

    if (full()) {
      LoopInfo info;
      info.stmt_id = r.ctrl->id;
      info.pipelined = true;
      info.ii = ii;
      info.body_csteps = body_csteps;
      loops_.push_back(info);
    }
    return true;
  }

  /// The (round, cstep) of every drain state of a pipelined entry, in
  /// emission order: round by round, the control steps where some op
  /// still owes that round.
  static std::vector<std::pair<int, int>> drain_states(
      const FragmentCache::Entry& e) {
    std::vector<int> most(static_cast<size_t>(e.csteps), 0);  // per cstep
    for (size_t i = 0; i < e.dfg.nodes.size(); ++i) {
      int& m = most[static_cast<size_t>(e.dfg.nodes[i].cstep)];
      m = std::max(m, e.owed[i]);
    }
    std::vector<std::pair<int, int>> drain;
    const int rounds = *std::max_element(most.begin(), most.end());
    for (int round = 1; round <= rounds; ++round)
      for (int c = 0; c < e.csteps; ++c)
        if (most[static_cast<size_t>(c)] >= round) drain.emplace_back(round, c);
    return drain;
  }

  using FusedPhase = FragmentCache::Entry::FusedPhase;

  /// Admission policy (the Figure 2(b) behavior) for the remaining-loop
  /// set `mask`: loops are admitted in program order; a newcomer may slow
  /// itself down (larger II) but must not degrade already-admitted loops,
  /// otherwise it waits for a later phase. An empty `active` list means no
  /// loop could be admitted.
  ///
  /// The phase's loops share one modulo table, and admitted loops keep
  /// their placements: a newcomer at II `ii` is list-scheduled alone into
  /// a copy of the table widened from hyperperiod h to lcm(h, ii). That
  /// equals scheduling the whole phase afresh, because every admitted II
  /// divides h (so the widened table is what rescheduling the admitted
  /// loops in admission order would reserve) and list_schedule is
  /// deterministic. The newcomer's first II is resource_min_ii over what
  /// the table has left; every smaller II would fail list_schedule.
  /// `dfgs` holds each loop's DFG, built once per run; admission schedules
  /// it in place.
  FusedPhase admit(std::vector<Dfg>& dfgs, unsigned mask) const {
    FusedPhase current;
    int h = 1;  // hyperperiod: lcm of the admitted IIs
    ResourceTable table(alloc_, h);
    for (size_t i = 0; i < dfgs.size(); ++i) {
      if (!(mask & (1u << i))) continue;
      Dfg& dfg = dfgs[i];
      const int first_ii = resource_min_ii(dfg, table);
      if (first_ii < 0) continue;  // no unit left: wait for a later phase
      for (int ii = first_ii; ii <= kMaxHyperperiod; ++ii) {
        const int widened = lcm_int(h, ii);
        if (widened > kMaxHyperperiod) continue;
        ResourceTable trial = table;
        trial.extend(widened);
        // Fused phases are metrics-grade (rtl_exact = false); pipeline-lag
        // consistency is not enforced here to preserve the paper's
        // steady-state throughput shapes.
        if (!list_schedule(dfg, trial, opts_.clock_ns, ii) ||
            !recurrences_ok(dfg, ii))
          continue;
        table = std::move(trial);
        current.active.emplace_back(i, ii);
        h = widened;
        break;
      }
    }
    current.dfgs.reserve(current.active.size());
    for (const auto& [i, ii] : current.active)
      current.dfgs.push_back(dfgs[i]);
    current.hyperperiod = h;
    return current;
  }

  /// The fused run's schedule-side work, a pure function of its loops (the
  /// fragment-cache value): the admitted joint schedule of every
  /// remaining-loop set reachable from the full run, or no phases at all
  /// when the run is not fusable. Probabilities stay out: they come from
  /// the profile and are applied at emission.
  void admit_fused_run(std::span<const Region* const> run,
                       FragmentCache::Entry& e) {
    const size_t k = run.size();
    std::vector<Dfg> dfgs;
    dfgs.reserve(k);
    for (const Region* loop : run) {
      dfgs.push_back(build_dfg(loop_body_stmts(*loop), loop->ctrl->cond,
                               loop->ctrl->id));
      check_feasible(dfgs.back());
    }
    obs::Span sp = obs::span("list_schedule", "sched");
    auto phase = [&](unsigned mask) -> const FusedPhase& {
      auto it = e.phases.find(mask);
      if (it == e.phases.end())
        it = e.phases.emplace(mask, admit(dfgs, mask)).first;
      return it->second;
    };
    // Every loop must at least pipeline alone, or fusion degrades to the
    // sequential path.
    const unsigned full = (1u << k) - 1u;
    bool fusable = true;
    for (size_t i = 0; i < k && fusable; ++i)
      fusable = !phase(1u << i).active.empty();
    if (!fusable || phase(full).active.empty()) {
      e.phases.clear();
      return;
    }
    // Phases reachable from the full run: an active loop's exit leaves
    // the others.
    std::vector<unsigned> work{full};
    std::set<unsigned> seen{full};
    while (!work.empty()) {
      const unsigned mask = work.back();
      work.pop_back();
      for (const auto& [i, ii] : phase(mask).active) {
        const unsigned rest = mask & ~(1u << i);
        if (rest != 0 && seen.insert(rest).second) work.push_back(rest);
      }
    }
    for (auto& [mask, ps] : e.phases)
      add_rows(ps.rows, static_cast<size_t>(ps.hyperperiod), ps.dfgs,
               [&](auto&& visit) { place_phase(ps, visit); });
  }

  /// Per-loop values of a fused run, by run position.
  using PerLoop = std::array<double, kMaxFused>;

  /// Emission state of one fused run. Its exits go on the pending stack.
  struct FusedEmission {
    explicit FusedEmission(const std::map<unsigned, FusedPhase>& phases)
        : phases(&phases) {
      phase_entry.fill(-1);
    }

    const std::map<unsigned, FusedPhase>* phases;
    /// Entry state of each remaining-loop set's phase; -1 before it is
    /// emitted.
    std::array<int, 1u << kMaxFused> phase_entry;
    /// Per loop: (II, body csteps) of its first phase; II 0 before it.
    std::array<std::pair<int, int>, kMaxFused> first_sched{};
  };

  /// Concurrent-loop phases: execute the run's loops together, sharing
  /// resources; when a loop exits, transition to the phase executing the
  /// remaining subset. Returns false if no joint schedule fits.
  bool emit_fused_run(std::span<const Region* const> run, size_t in) {
    const auto entry = fragment(
        fused_key(run),
        [&](FragmentCache::Entry& e) { admit_fused_run(run, e); });
    if (entry->phases.empty()) return false;
    if (full()) stg_.keep_alive(entry);

    // Expected total iterations per loop (geometric mean from the measured
    // closing probability). Phases consume these in a fluid model: the
    // loop whose remaining work rem_i * II_i is smallest finishes first
    // (the node annotations of Figure 2(b)); its exit probability is set
    // so the phase's expected length matches the fluid duration, while
    // non-finishers survive the phase with high probability.
    const size_t k = run.size();
    PerLoop initial_rem{};
    for (size_t i = 0; i < k; ++i) {
      const double close_p = loop_prob(run[i]->ctrl->id);
      initial_rem[i] =
          std::max(0.5, close_p / std::max(1e-6, 1.0 - close_p));
    }

    FusedEmission fe(entry->phases);
    const size_t exits = pending_.size();
    const int entry_state = emit_phase(fe, (1u << k) - 1u, initial_rem);
    connect(in, exits, entry_state);
    pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(in),
                   pending_.begin() + static_cast<std::ptrdiff_t>(exits));
    rtl_exact_ = false;  // fused phases are metrics-grade (see header)

    if (full()) {
      for (size_t i = 0; i < k; ++i) {
        LoopInfo info;
        info.stmt_id = run[i]->ctrl->id;
        info.pipelined = true;
        if (fe.first_sched[i].first > 0) {
          info.ii = fe.first_sched[i].first;
          info.body_csteps = fe.first_sched[i].second;
        }
        for (size_t j = 0; j < k; ++j)
          if (j != i) info.fused_with.push_back(run[j]->ctrl->id);
        loops_.push_back(info);
      }
    }

    return true;
  }

  /// Creates the phase for the remaining-loop set `mask` (and transitively
  /// its successors); returns its entry state. `rem` is the per-loop
  /// remaining-iteration estimate at phase entry; memoized per mask (the
  /// dominant exit path fixes each phase's calibration).
  int emit_phase(FusedEmission& fe, unsigned mask, const PerLoop& rem) {
    if (fe.phase_entry[mask] >= 0) return fe.phase_entry[mask];
    if (mask == 0) {
      const int join = add_named_state("join");
      fe.phase_entry[0] = join;
      pending_.push_back({join, 1.0, ""});
      return join;
    }
    const auto found = fe.phases->find(mask);
    if (found == fe.phases->end() || found->second.active.empty())
      throw Error("fused-loop phase unschedulable (unexpected)");
    const FusedPhase& ps = found->second;
    const int h = ps.hyperperiod;

    // Fluid duration of this phase: cycles until the first active loop
    // exhausts its remaining iterations. Waiting (non-admitted) loops
    // make no progress.
    double duration = 1e30;
    size_t finisher = ps.active.front().first;
    for (const auto& [i, ii] : ps.active) {
      const double d = rem[i] * ii;
      if (d < duration) {
        duration = d;
        finisher = i;
      }
    }
    duration = std::max(duration, 1.0);

    // The ring: one state per hyperperiod slot.
    const int phase_ring_id = next_ring_id_++;
    const int ring0 = num_states();
    for (int s = 0; s < h; ++s) {
      const int st = add_state(ps.rows, static_cast<size_t>(s));
      if (full()) stg_.state(st).ring_id = phase_ring_id;
    }
    fe.phase_entry[mask] = ring0;

    // Remaining iterations at phase exit (for successor phases).
    PerLoop rem_after = rem;
    for (const auto& [i, ii] : ps.active)
      rem_after[i] = std::max(0.5, rem[i] - duration / ii);

    // Per active loop: the slot of its exit check and the probability it
    // keeps looping there. Into a full STG, its wires, its condition
    // signals and then its ops.
    std::array<int, kMaxFused> check_slot{}, wires{};
    PerLoop keep{};
    for (size_t a = 0; a < ps.active.size(); ++a) {
      const auto [i, ii] = ps.active[a];
      const Dfg& dfg = ps.dfgs[a];
      const int cond_cstep =
          dfg.nodes[static_cast<size_t>(dfg.cond_node)].avail_cstep();
      check_slot[a] = cond_cstep % ii;
      if (full()) {
        if (fe.first_sched[i].first == 0)
          fe.first_sched[i] = {ii, dfg.num_csteps()};
        wires[a] = assign_wires(dfg);
        const std::string cond_wire = stg::wire_name(wires[a] + dfg.cond_node);
        for (int s = check_slot[a]; s < h; s += ii) {
          stg::State& st = stg_.state(ring0 + s);
          if (!st.cond_signal.empty()) st.cond_signal += ",";
          st.cond_signal += cond_wire;
        }
      }
      // Closing probability calibrated to the fluid phase: the finisher
      // expects duration/II more iterations; survivors rarely exit here.
      const double expect_iters = duration / ii;
      keep[a] = i == finisher ? expect_iters / (expect_iters + 1.0)
                              : std::min(0.9999, 1.0 - 1.0 / (16.0 * rem[i]));
    }
    if (full())
      add_ops(ring0, static_cast<size_t>(h), ps.dfgs, wires,
              [&](auto&& visit) { place_phase(ps, visit); });

    // Each slot's exits, in admission order, then the step to the next
    // slot.
    for (int s = 0; s < h; ++s) {
      const int next = ring0 + (s + 1) % h;
      double remaining = 1.0;
      bool checks = false;
      for (size_t a = 0; a < ps.active.size(); ++a) {
        const auto [i, ii] = ps.active[a];
        if (s % ii != check_slot[a]) continue;
        checks = true;
        const int target = emit_phase(fe, mask & ~(1u << i), rem_after);
        add_edge(ring0 + s, target, remaining * (1.0 - keep[a]),
                 Label::exit_of(i));
        remaining *= keep[a];
      }
      add_edge(ring0 + s, next, remaining, checks ? "loop" : "");
    }
    return ring0;
  }

  const hlslib::Library& lib_;
  const hlslib::Allocation& alloc_;
  const DfgBuilder& builder_;
  const SchedOptions& opts_;
  const sim::Profile& profile_;
  stg::Chain* const chain_;  // the summary being emitted; null: full STG
  EmitScratch& scratch_ = emit_scratch();
  std::vector<Attach>& pending_ = scratch_.pending;
  stg::Stg stg_;
  std::vector<LoopInfo> loops_;
  const std::string* fn_name_ = nullptr;
  int wire_counter_ = 0;
  int next_ring_id_ = 0;
  bool rtl_exact_ = true;
};

}  // namespace

Scheduler::Scheduler(const hlslib::Library& lib, const hlslib::Allocation& alloc,
                     const hlslib::FuSelection& sel, SchedOptions opts)
    : lib_(lib),
      alloc_(alloc),
      opts_(opts),
      builder_(lib_, alloc_, sel, kVdd, kVt) {}

ScheduleResult Scheduler::schedule(const ir::Function& fn,
                                   const sim::Profile& profile) const {
  // Everything but fragment-cache misses is emission; the misses' DFG
  // construction and list scheduling nest inside as their own spans.
  obs::Span sp = obs::span("emit", "sched");
  Emitter emitter(lib_, alloc_, builder_, opts_, profile);
  emitter.run(fn);
  return emitter.result();
}

stg::Chain Scheduler::summarize(const ir::Function& fn,
                                const sim::Profile& profile) const {
  obs::Span sp = obs::span("emit", "sched");
  // Emission appends to per-thread storage that keeps its capacity
  // across calls; the result is an exact-size copy of it.
  thread_local stg::Chain chain;
  chain.clear();
  for (const hlslib::FuType& t : lib_.types()) chain.fus.push_back(t.name);
  Emitter emitter(lib_, alloc_, builder_, opts_, profile, &chain);
  emitter.run(fn);
  return chain;
}

}  // namespace fact::sched
