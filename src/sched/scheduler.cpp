#include "sched/scheduler.hpp"

#include <algorithm>
#include <cassert>
#include <map>
#include <numeric>
#include <optional>
#include <set>
#include <span>
#include <string_view>

#include "ir/hash.hpp"
#include "obs/trace.hpp"
#include "sched/dfg.hpp"
#include "sched/fragment_cache.hpp"
#include "util/error.hpp"
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

RwSets collect_loop_rw(const Region& loop) {
  RwSets rw;
  collect_expr(*loop.ctrl->cond, rw);
  collect_region_rw(*loop.children[0], rw);
  for (auto* names :
       {&rw.var_reads, &rw.var_writes, &rw.arr_reads, &rw.arr_writes}) {
    std::sort(names->begin(), names->end());
    names->erase(std::unique(names->begin(), names->end()), names->end());
  }
  return rw;
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

/// Key folding for fragment-cache keys (same splitmix64-style mix as
/// ir::hash so key quality matches).
uint64_t key_mix(uint64_t seed, uint64_t v) {
  v += 0x9E3779B97F4A7C15ull;
  v = (v ^ (v >> 30)) * 0xBF58476D1CE4E5B9ull;
  v = (v ^ (v >> 27)) * 0x94D049BB133111EBull;
  v ^= v >> 31;
  return seed * 0x100000001B3ull ^ v;
}

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

/// Nodes of a scheduled DFG grouped by an integer key in [0, count) —
/// first cstep, or kernel-ring slot — in index order within each group,
/// so a state's ops come out in the order a scan over all nodes would
/// produce them. Reusable: assign() keeps the buffers' capacity.
class NodeBuckets {
 public:
  template <typename Key>
  void assign(const Dfg& dfg, int count, Key key) {
    begin_.assign(static_cast<size_t>(count) + 1, 0);
    for (const DfgNode& node : dfg.nodes)
      begin_[static_cast<size_t>(key(node)) + 1]++;
    for (size_t k = 1; k < begin_.size(); ++k) begin_[k] += begin_[k - 1];
    fill_.assign(begin_.begin(), begin_.end() - 1);
    order_.resize(dfg.nodes.size());
    for (size_t i = 0; i < dfg.nodes.size(); ++i)
      order_[static_cast<size_t>(fill_[static_cast<size_t>(key(dfg.nodes[i]))]++)] =
          static_cast<int>(i);
  }

  /// The nodes of group k.
  std::span<const int> operator[](int k) const {
    const size_t b = static_cast<size_t>(begin_[static_cast<size_t>(k)]);
    const size_t e = static_cast<size_t>(begin_[static_cast<size_t>(k) + 1]);
    return {order_.data() + b, e - b};
  }

 private:
  std::vector<int> begin_;
  std::vector<int> order_;
  std::vector<int> fill_;
};

int node_cstep(const DfgNode& node) { return node.cstep; }

/// A pending transition into the next state to be created.
struct Attach {
  int state = -1;
  double prob = 1.0;
  std::string label;
};

class Emitter {
 public:
  Emitter(const hlslib::Library& lib, const hlslib::Allocation& alloc,
          const hlslib::FuSelection& sel, const SchedOptions& opts,
          const sim::Profile& profile)
      : lib_(lib),
        alloc_(alloc),
        sel_(sel),
        opts_(opts),
        profile_(profile) {}

  ScheduleResult run(const ir::Function& fn) {
    fn_name_ = fn.name();
    RegionPtr tree = build_region_tree(fn);
    std::vector<Attach> outs = emit_seq(*tree, {});
    if (stg_.num_states() > kMaxStates)
      throw Error(strfmt(
          "schedule for '%s' exploded to %zu states (max_states %zu)",
          fn_name_.c_str(), stg_.num_states(), kMaxStates));
    if (stg_.num_states() == 0) {
      const int idle = stg_.add_state("idle");
      stg_.add_edge(idle, idle, 1.0, "", /*exec_boundary=*/true);
    } else {
      for (const Attach& a : outs)
        stg_.add_edge(a.state, 0, a.prob, a.label, /*exec_boundary=*/true);
    }
    stg_.set_entry(0);
    stg_.validate();
    ScheduleResult result;
    result.stg = std::move(stg_);
    result.loops = std::move(loops_);
    result.rtl_exact = rtl_exact_;
    return result;
  }

 private:
  // ---- helpers ---------------------------------------------------------

  void connect(const std::vector<Attach>& in, int state) {
    for (const Attach& a : in) stg_.add_edge(a.state, state, a.prob, a.label);
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
            fn_name_.c_str(), n.label().c_str(), std::string(n.fu).c_str()));
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
    op.pre_readers = stg::WireList(node.war_preds, wire_base);
    st.reg_reads += node.var_reads;
    if (node.reg_write) st.reg_writes++;
  }

  /// Creates one STG state per control step of a fragment's scheduled
  /// plain DFG and fills op and register-traffic annotations. Returns
  /// {first, last}.
  std::pair<int, int> materialize(
      const std::shared_ptr<const FragmentCache::Entry>& entry) {
    stg_.keep_alive(entry);
    const Dfg& dfg = entry->dfg;
    const int n = dfg.num_csteps();
    assert(n > 0);
    by_cstep_.assign(dfg, n, node_cstep);
    const int wires = assign_wires(dfg);
    const int first = static_cast<int>(stg_.num_states());
    for (int c = 0; c < n; ++c) {
      const int s = stg_.add_state("");
      if (c > 0) stg_.add_edge(s - 1, s, 1.0);
      stg::State& st = stg_.state(s);
      st.ops.reserve(by_cstep_[c].size());
      for (int i : by_cstep_[c]) add_op(st, dfg, wires, static_cast<size_t>(i), 0);
    }
    if (dfg.cond_node >= 0) {
      const int cstep =
          dfg.nodes[static_cast<size_t>(dfg.cond_node)].avail_cstep();
      stg_.state(first + cstep).cond_signal =
          stg::wire_name(wires + dfg.cond_node);
    }
    return {first, first + n - 1};
  }

  // ---- fragment cache ---------------------------------------------------

  uint64_t straight_key(const std::vector<const Stmt*>& stmts) const {
    uint64_t h = key_mix(kTagStraight, stmts.size());
    for (const Stmt* s : stmts) h = key_mix(h, ir::fragment_hash(*s));
    return h;
  }

  uint64_t cond_key(const ExprPtr& cond, int stmt_id) const {
    uint64_t h = key_mix(kTagCond, static_cast<uint64_t>(cond->hash()));
    return key_mix(h, static_cast<uint64_t>(static_cast<int64_t>(stmt_id)));
  }

  uint64_t pipe_key(const std::vector<const Stmt*>& body_stmts,
                    const ExprPtr& cond, int stmt_id) const {
    uint64_t h = key_mix(kTagPipe, body_stmts.size());
    for (const Stmt* s : body_stmts) h = key_mix(h, ir::fragment_hash(*s));
    h = key_mix(h, static_cast<uint64_t>(cond->hash()));
    return key_mix(h, static_cast<uint64_t>(static_cast<int64_t>(stmt_id)));
  }

  /// A fused run's key: the ordered partner set, each loop by its
  /// pipelined-loop key (body fragments, condition, statement id). A loop's
  /// schedule in a phase depends on its partners and on admission order,
  /// so both are in the key.
  uint64_t fused_key(const std::vector<const Region*>& run) const {
    uint64_t h = key_mix(kTagFused, run.size());
    for (const Region* loop : run)
      h = key_mix(h, pipe_key(loop_body_stmts(*loop), loop->ctrl->cond,
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
      schedule_plain(e.dfg);
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

  /// DfgBuilder::build under the `dfg_build` span. The builder resolves
  /// its FU bindings on construction, so it is made on the first fragment
  /// miss: a schedule whose fragments all hit never needs one.
  Dfg build_dfg(const std::vector<const Stmt*>& stmts,
                const ExprPtr& cond = nullptr, int cond_stmt_id = -1) {
    obs::Span sp = obs::span("dfg_build", "sched");
    if (!builder_) builder_.emplace(lib_, alloc_, sel_, kVdd, kVt);
    return builder_->build(stmts, cond, cond_stmt_id);
  }

  /// Schedules a plain (non-modulo) DFG.
  void schedule_plain(Dfg& dfg) const {
    check_feasible(dfg);
    obs::Span sp = obs::span("list_schedule", "sched");
    ResourceTable table(alloc_, 0);
    if (!list_schedule(dfg, table, opts_.clock_ns))
      throw Error(strfmt("cannot schedule segment of '%s' under clock %.1fns",
                         fn_name_.c_str(), opts_.clock_ns));
  }

  // ---- region emission --------------------------------------------------

  std::vector<Attach> emit_seq(const Region& seq, std::vector<Attach> in) {
    assert(seq.kind == Region::Kind::Seq);
    size_t i = 0;
    while (i < seq.children.size()) {
      const Region& child = *seq.children[i];
      if (child.kind == Region::Kind::Loop && opts_.fuse_loops) {
        // Collect a maximal run of adjacent, independent, pipelineable
        // loops for concurrent execution.
        std::vector<const Region*> run{&child};
        std::vector<RwSets> rw;  // of each loop in `run`, once needed
        size_t j = i + 1;
        while (j < seq.children.size() && run.size() < kMaxFused) {
          const Region& next = *seq.children[j];
          if (next.kind != Region::Kind::Loop) break;
          if (!next.loop_body_is_straight() ||
              !run.front()->loop_body_is_straight())
            break;
          if (rw.empty()) rw.push_back(collect_loop_rw(child));
          RwSets next_rw = collect_loop_rw(next);
          bool indep = true;
          for (const RwSets& r : rw)
            if (!loops_independent(r, next_rw)) { indep = false; break; }
          if (!indep) break;
          run.push_back(&next);
          rw.push_back(std::move(next_rw));
          ++j;
        }
        if (run.size() >= 2) {
          std::vector<Attach> out;
          if (emit_fused_run(run, in, &out)) {
            in = std::move(out);
            i = j;
            continue;
          }
        }
      }
      in = emit_region(child, std::move(in));
      ++i;
    }
    return in;
  }

  std::vector<Attach> emit_region(const Region& r, std::vector<Attach> in) {
    switch (r.kind) {
      case Region::Kind::Straight:
        return emit_straight(r, std::move(in));
      case Region::Kind::If:
        return emit_if(r, std::move(in));
      case Region::Kind::Loop:
        return emit_loop(r, std::move(in));
      case Region::Kind::Seq:
        return emit_seq(r, std::move(in));
    }
    return in;
  }

  std::vector<Attach> emit_straight(const Region& r, std::vector<Attach> in) {
    const auto entry =
        fragment(straight_key(r.stmts), [&](FragmentCache::Entry& e) {
          e.dfg = build_dfg(r.stmts);
          if (!e.dfg.nodes.empty()) schedule_plain(e.dfg);
        });
    if (entry->dfg.nodes.empty()) return in;
    auto [first, last] = materialize(entry);
    connect(in, first);
    return {{last, 1.0, ""}};
  }

  std::vector<Attach> emit_if(const Region& r, std::vector<Attach> in) {
    const auto cond = cond_fragment(r.ctrl->cond, r.ctrl->id);
    auto [cfirst, clast] = materialize(cond);
    connect(in, cfirst);
    const double p = branch_prob(r.ctrl->id);
    std::vector<Attach> outs =
        emit_seq(*r.children[0], {{clast, p, "T"}});
    std::vector<Attach> else_outs =
        emit_seq(*r.children[1], {{clast, 1.0 - p, "F"}});
    outs.insert(outs.end(), else_outs.begin(), else_outs.end());
    return outs;
  }

  std::vector<Attach> emit_loop(const Region& r, std::vector<Attach> in) {
    const double p = loop_prob(r.ctrl->id);  // closing probability

    if (r.loop_body_is_straight()) {
      std::vector<Attach> out;
      if (emit_pipelined_loop(r, p, in, &out)) return out;
    }

    // General path: test states, body, back edge.
    const auto test = cond_fragment(r.ctrl->cond, r.ctrl->id);
    auto [tfirst, tlast] = materialize(test);
    connect(in, tfirst);
    std::vector<Attach> body_out =
        emit_seq(*r.children[0], {{tlast, p, "loop"}});
    connect(body_out, tfirst);

    LoopInfo info;
    info.stmt_id = r.ctrl->id;
    info.pipelined = false;
    loops_.push_back(info);
    return {{tlast, 1.0 - p, "exit"}};
  }

  /// Derived per-op pipeline bookkeeping of a modulo-scheduled body:
  /// lags (slot wraparounds along each op's dependence chain — how many
  /// traversals behind the newest iteration it runs) and the drain debts
  /// owed when the check fires the exit. O(nodes + dependence edges), so
  /// cached pipelined fragments re-derive it from the stored DFG instead
  /// of storing it.
  struct PipeDerived {
    int body_csteps = 0;
    int cond_cstep = 0;
    int check_slot = 0;
    std::vector<int> lag;
    std::vector<int> owed;
    int max_owed = 0;
  };

  static PipeDerived derive_pipe(const Dfg& dfg, int ii) {
    PipeDerived d;
    d.body_csteps = dfg.num_csteps();
    d.cond_cstep = dfg.nodes[static_cast<size_t>(dfg.cond_node)].avail_cstep();
    d.check_slot = d.cond_cstep % ii;
    d.lag.assign(dfg.nodes.size(), 0);
    for (size_t i = 0; i < dfg.nodes.size(); ++i) {
      const DfgNode& node = dfg.nodes[i];
      for (int pidx : node.preds) {
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
      d.max_owed = std::max(d.max_owed, d.owed[i]);
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
      for (int p : node.war_preds) {
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
  bool emit_pipelined_loop(const Region& r, double p,
                           const std::vector<Attach>& in,
                           std::vector<Attach>* out) {
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
          const DfgDeps deps(dfg);
          for (int ii = res_ii; ii <= kMaxIi; ++ii) {
            ResourceTable table(alloc_, ii);
            if (!list_schedule(dfg, deps, table, opts_.clock_ns, ii)) continue;
            if (!recurrences_ok(dfg, ii)) continue;
            if (!pipeline_lags_consistent(dfg, ii)) continue;
            if (!drain_representable(dfg, ii, derive_pipe(dfg, ii)))
              continue;  // try the next II
            e.pipelined = true;
            e.ii = ii;
            e.dfg = std::move(dfg);
            return;
          }
        });
    if (!entry->pipelined) return false;

    stg_.keep_alive(entry);
    const Dfg& dfg = entry->dfg;
    const int ii = entry->ii;
    const PipeDerived derived = derive_pipe(dfg, ii);
    const int body_csteps = derived.body_csteps;
    const std::vector<int>& lag = derived.lag;
    const std::vector<int>& owed = derived.owed;

    const int wires = assign_wires(dfg);
    const std::string cond_wire = stg::wire_name(wires + dfg.cond_node);

    // Guard: the while-test on entry values (separate evaluation).
    const auto guard = cond_fragment(r.ctrl->cond, r.ctrl->id);
    auto [gfirst, glast] = materialize(guard);
    connect(in, gfirst);
    std::vector<Attach> exits;
    exits.push_back({glast, 1.0 - p, "exit"});

    by_cstep_.assign(dfg, body_csteps, node_cstep);

    // Prologue: iteration 0 executed linearly (fills wires).
    const int prologue_first = static_cast<int>(stg_.num_states());
    for (int c = 0; c < body_csteps; ++c) {
      const int s = stg_.add_state("");
      if (c > 0) stg_.add_edge(s - 1, s, 1.0);
      stg::State& st = stg_.state(s);
      st.ops.reserve(by_cstep_[c].size());
      for (int i : by_cstep_[c]) add_op(st, dfg, wires, static_cast<size_t>(i), 0);
    }
    const int prologue_last = prologue_first + body_csteps - 1;
    stg_.add_edge(glast, prologue_first, p, "loop");

    // Kernel ring: every op once per traversal, at slot cstep % II.
    const int ring_id = next_ring_id_++;
    const int ring0 = static_cast<int>(stg_.num_states());
    by_slot_.assign(dfg, ii,
                    [ii](const DfgNode& node) { return node.cstep % ii; });
    for (int k = 0; k < ii; ++k) {
      stg::State& st = stg_.state(stg_.add_state(""));
      st.ring_id = ring_id;
      st.ops.reserve(by_slot_[k].size());
      for (int i : by_slot_[k]) {
        const size_t idx = static_cast<size_t>(i);
        add_op(st, dfg, wires, idx, dfg.nodes[idx].cstep / ii, lag[idx]);
      }
    }

    // Epilogue drain: when the check fires the exit, each op still owes
    //   owed = lag - lag(check) + (slot > check_slot ? 1 : 0)
    // executions to complete the in-flight iterations. The drain flushes
    // them round by round in cstep order (resource-legal: each drain
    // state re-uses one kernel cstep's op set).
    int drain_first = -1, drain_last = -1;
    for (int round = 1; round <= derived.max_owed; ++round) {
      for (int c = 0; c < body_csteps; ++c) {
        size_t count = 0;
        for (int i : by_cstep_[c])
          if (owed[static_cast<size_t>(i)] >= round) count++;
        if (count == 0) continue;
        const int s = stg_.add_state("");
        stg::State& st = stg_.state(s);
        st.ops.reserve(count);
        for (int i : by_cstep_[c]) {
          const size_t idx = static_cast<size_t>(i);
          if (owed[idx] >= round) add_op(st, dfg, wires, idx, 0, lag[idx]);
        }
        if (drain_last >= 0) stg_.add_edge(drain_last, s, 1.0);
        if (drain_first < 0) drain_first = s;
        drain_last = s;
      }
    }
    const auto exit_target = [&](int from, double prob,
                                 const std::string& label) {
      if (drain_first < 0) {
        exits.push_back({from, prob, label});
      } else {
        stg_.add_edge(from, drain_first, prob, label);
      }
    };

    // Prologue branch: the iteration-1 check was computed at its cstep;
    // branch at the last prologue state on the stored wire. A prologue
    // exit bypasses the drain — iteration 0's tail already ran linearly.
    stg_.state(prologue_last).cond_signal = cond_wire;
    stg_.add_edge(prologue_last, ring0, p, "loop");
    exits.push_back({prologue_last, 1.0 - p, "exit"});

    // Ring transitions with the per-traversal check.
    const int check_state = ring0 + derived.cond_cstep % ii;
    stg_.state(check_state).cond_signal = cond_wire;
    for (int k = 0; k < ii; ++k) {
      const int cur = ring0 + k;
      const int next = ring0 + (k + 1) % ii;
      if (cur == check_state) {
        stg_.add_edge(cur, next, p, "loop");
        exit_target(cur, 1.0 - p, "exit");
      } else {
        stg_.add_edge(cur, next, 1.0);
      }
    }
    if (drain_last >= 0) exits.push_back({drain_last, 1.0, ""});

    *out = std::move(exits);

    LoopInfo info;
    info.stmt_id = r.ctrl->id;
    info.pipelined = true;
    info.ii = ii;
    info.body_csteps = body_csteps;
    loops_.push_back(info);
    return true;
  }

  using FusedPhase = FragmentCache::Entry::FusedPhase;

  /// The loops of a fused run during admission: each loop's DFG, which
  /// admission schedules in place, and its dependence lists (both built
  /// once per run).
  struct FusedLoops {
    std::vector<Dfg> dfgs;
    std::vector<DfgDeps> deps;
  };

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
  FusedPhase admit(FusedLoops& loops, unsigned mask) const {
    FusedPhase current;
    int h = 1;  // hyperperiod: lcm of the admitted IIs
    ResourceTable table(alloc_, h);
    for (size_t i = 0; i < loops.dfgs.size(); ++i) {
      if (!(mask & (1u << i))) continue;
      Dfg& dfg = loops.dfgs[i];
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
        if (!list_schedule(dfg, loops.deps[i], trial, opts_.clock_ns, ii) ||
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
      current.dfgs.push_back(loops.dfgs[i]);
    current.hyperperiod = h;
    return current;
  }

  /// The fused run's schedule-side work, a pure function of its loops (the
  /// fragment-cache value): the admitted joint schedule of every
  /// remaining-loop set reachable from the full run, or no phases at all
  /// when the run is not fusable. Probabilities stay out: they come from
  /// the profile and are applied at emission.
  void admit_fused_run(const std::vector<const Region*>& run,
                       FragmentCache::Entry& e) {
    const size_t k = run.size();
    FusedLoops loops;
    loops.dfgs.reserve(k);
    for (const Region* loop : run) {
      loops.dfgs.push_back(build_dfg(loop_body_stmts(*loop), loop->ctrl->cond,
                                     loop->ctrl->id));
      check_feasible(loops.dfgs.back());
    }
    obs::Span sp = obs::span("list_schedule", "sched");
    loops.deps.reserve(k);
    for (const Dfg& dfg : loops.dfgs) loops.deps.emplace_back(dfg);
    auto phase = [&](unsigned mask) -> const FusedPhase& {
      auto it = e.phases.find(mask);
      if (it == e.phases.end())
        it = e.phases.emplace(mask, admit(loops, mask)).first;
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
  }

  /// Emission state of one fused run.
  struct FusedEmission {
    const std::map<unsigned, FusedPhase>* phases = nullptr;
    std::map<unsigned, int> phase_entry;  // remaining-loop set -> state
    std::vector<Attach> exits;
    std::map<size_t, std::pair<int, int>> first_sched;  // loop -> (ii, len)
  };

  /// Concurrent-loop phases: execute the run's loops together, sharing
  /// resources; when a loop exits, transition to the phase executing the
  /// remaining subset. Returns false if no joint schedule fits.
  bool emit_fused_run(const std::vector<const Region*>& run,
                      const std::vector<Attach>& in,
                      std::vector<Attach>* out) {
    const auto entry = fragment(
        fused_key(run),
        [&](FragmentCache::Entry& e) { admit_fused_run(run, e); });
    if (entry->phases.empty()) return false;
    stg_.keep_alive(entry);

    // Expected total iterations per loop (geometric mean from the measured
    // closing probability). Phases consume these in a fluid model: the
    // loop whose remaining work rem_i * II_i is smallest finishes first
    // (the node annotations of Figure 2(b)); its exit probability is set
    // so the phase's expected length matches the fluid duration, while
    // non-finishers survive the phase with high probability.
    const size_t k = run.size();
    std::vector<double> initial_rem(k);
    for (size_t i = 0; i < k; ++i) {
      const double close_p = loop_prob(run[i]->ctrl->id);
      initial_rem[i] =
          std::max(0.5, close_p / std::max(1e-6, 1.0 - close_p));
    }

    FusedEmission fe;
    fe.phases = &entry->phases;
    const int entry_state = emit_phase(fe, (1u << k) - 1u, initial_rem);
    connect(in, entry_state);
    rtl_exact_ = false;  // fused phases are metrics-grade (see header)

    for (size_t i = 0; i < k; ++i) {
      LoopInfo info;
      info.stmt_id = run[i]->ctrl->id;
      info.pipelined = true;
      auto fs = fe.first_sched.find(i);
      if (fs != fe.first_sched.end()) {
        info.ii = fs->second.first;
        info.body_csteps = fs->second.second;
      }
      for (size_t j = 0; j < k; ++j)
        if (j != i) info.fused_with.push_back(run[j]->ctrl->id);
      loops_.push_back(info);
    }

    *out = std::move(fe.exits);
    return true;
  }

  /// Creates the phase for the remaining-loop set `mask` (and transitively
  /// its successors); returns its entry state. `rem` is the per-loop
  /// remaining-iteration estimate at phase entry; memoized per mask (the
  /// dominant exit path fixes each phase's calibration).
  int emit_phase(FusedEmission& fe, unsigned mask,
                 const std::vector<double>& rem) {
    auto memo = fe.phase_entry.find(mask);
    if (memo != fe.phase_entry.end()) return memo->second;
    if (mask == 0) {
      const int join = stg_.add_state("join");
      fe.phase_entry[0] = join;
      fe.exits.push_back({join, 1.0, ""});
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

    const int phase_ring_id = next_ring_id_++;
    std::vector<int> ring;
    std::vector<size_t> ops_per_slot(static_cast<size_t>(h), 0);
    for (size_t a = 0; a < ps.active.size(); ++a) {
      const int ii = ps.active[a].second;
      for (const DfgNode& node : ps.dfgs[a].nodes)
        for (int s = node.cstep % ii; s < h; s += ii)
          ops_per_slot[static_cast<size_t>(s)]++;
    }
    for (int s = 0; s < h; ++s) {
      ring.push_back(stg_.add_state(""));
      stg::State& st = stg_.state(ring.back());
      st.ring_id = phase_ring_id;
      st.ops.reserve(ops_per_slot[static_cast<size_t>(s)]);
    }
    fe.phase_entry[mask] = ring[0];

    // Remaining iterations at phase exit (for successor phases).
    std::vector<double> rem_after = rem;
    for (const auto& [i, ii] : ps.active)
      rem_after[i] = std::max(0.5, rem[i] - duration / ii);

    // Ops: loop i's op at cstep c executes in every slot == c mod II_i.
    struct ExitCheck {
      size_t loop;
      double p;
    };
    std::map<int, std::vector<ExitCheck>> checks;  // slot -> exits
    for (size_t a = 0; a < ps.active.size(); ++a) {
      const auto [i, ii] = ps.active[a];
      const Dfg& dfg = ps.dfgs[a];
      fe.first_sched.emplace(i, std::make_pair(ii, dfg.num_csteps()));
      const int wires = assign_wires(dfg);
      for (size_t ni = 0; ni < dfg.nodes.size(); ++ni) {
        const DfgNode& node = dfg.nodes[ni];
        const int base_slot = node.cstep % ii;
        for (int s = base_slot; s < h; s += ii)
          add_op(stg_.state(ring[static_cast<size_t>(s)]), dfg, wires, ni,
                 node.cstep / ii + (s - base_slot) / ii);
      }
      const int cond_cstep =
          dfg.nodes[static_cast<size_t>(dfg.cond_node)].avail_cstep();
      const std::string cond_wire = stg::wire_name(wires + dfg.cond_node);
      for (int s = cond_cstep % ii; s < h; s += ii) {
        stg::State& st = stg_.state(ring[static_cast<size_t>(s)]);
        if (!st.cond_signal.empty()) st.cond_signal += ",";
        st.cond_signal += cond_wire;
      }
      // Closing probability calibrated to the fluid phase: the finisher
      // expects duration/II more iterations; survivors rarely exit here.
      const double expect_iters = duration / ii;
      const double p = i == finisher
                           ? expect_iters / (expect_iters + 1.0)
                           : std::min(0.9999, 1.0 - 1.0 / (16.0 * rem[i]));
      for (int s = cond_cstep % ii; s < h; s += ii)
        checks[s].push_back({i, p});
    }

    for (int s = 0; s < h; ++s) {
      const int next = ring[static_cast<size_t>((s + 1) % h)];
      double remaining = 1.0;
      auto it = checks.find(s);
      if (it != checks.end()) {
        for (const ExitCheck& ec : it->second) {
          const int target = emit_phase(fe, mask & ~(1u << ec.loop), rem_after);
          stg_.add_edge(ring[static_cast<size_t>(s)], target,
                        remaining * (1.0 - ec.p),
                        strfmt("exitL%zu", ec.loop));
          remaining *= ec.p;
        }
      }
      stg_.add_edge(ring[static_cast<size_t>(s)], next, remaining,
                    it != checks.end() ? "loop" : "");
    }
    return ring[0];
  }

  const hlslib::Library& lib_;
  const hlslib::Allocation& alloc_;
  const hlslib::FuSelection& sel_;
  const SchedOptions& opts_;
  const sim::Profile& profile_;
  std::optional<DfgBuilder> builder_;
  stg::Stg stg_;
  std::vector<LoopInfo> loops_;
  std::string fn_name_;
  int wire_counter_ = 0;
  int next_ring_id_ = 0;
  bool rtl_exact_ = true;
  // Scratch for grouping a DFG's nodes at emission (materialize and the
  // pipelined prologue/drain use the cstep buckets, the ring its slots).
  NodeBuckets by_cstep_;
  NodeBuckets by_slot_;
};

}  // namespace

Scheduler::Scheduler(const hlslib::Library& lib, const hlslib::Allocation& alloc,
                     const hlslib::FuSelection& sel, SchedOptions opts)
    : lib_(lib), alloc_(alloc), sel_(sel), opts_(opts) {}

ScheduleResult Scheduler::schedule(const ir::Function& fn,
                                   const sim::Profile& profile) const {
  // Everything but fragment-cache misses is emission; the misses' DFG
  // construction and list scheduling nest inside as their own spans.
  obs::Span sp = obs::span("emit", "sched");
  Emitter emitter(lib_, alloc_, sel_, opts_, profile);
  return emitter.run(fn);
}

}  // namespace fact::sched
