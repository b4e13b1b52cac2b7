#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "hlslib/library.hpp"
#include "ir/stmt.hpp"
#include "stg/stg.hpp"

namespace fact::sched {

/// One operation node of a segment's data-flow graph. Constants and plain
/// variable reads are leaves folded into their consumers; every node here
/// does actual work in some cycle (FU op, memory access, mux, or register
/// copy). Names view the owning Dfg's `names`; the node's dependence edges
/// live in the Dfg too, so a node owns no heap memory.
struct DfgNode {
  ir::Op op = ir::Op::Var;    // Var with empty fu == register copy
  bool is_store = false;      // memory write (op is ArrayRead for reads)
  bool reg_write = false;     // assignment root: writes a register
  /// Whether modulo scheduling may relax this definition's anti/output
  /// edges (Dfg::war_preds). Set for single-definition variables only:
  /// relaxing models modulo variable expansion (each overlapped iteration
  /// reads a shadow copy of the register, standard in software
  /// pipelining), and one shadow level cannot represent multiple
  /// in-flight versions.
  bool relax_war = false;
  std::string_view fu;        // bound library FU type; empty = no datapath FU
  std::string_view array;     // memory ops: which array/memory
  std::string_view def_var;   // variable defined (assignment roots)
  double delay_ns = 0.0;      // at the scheduling supply voltage
  int stmt_id = -1;
  int16_t var_reads = 0;      // register reads issued by this node
  int16_t fu_type = -1;       // fu's index in Library::types(); -1 if none
  /// Operands in op order. A Wire operand holds the producing node's
  /// index; emission adds the wire base of the STG it is emitted into.
  stg::Operands operands;

  // Filled by scheduling:
  int cstep = -1;       // first control step the op occupies
  int span = 1;         // control steps occupied (multi-cycle ops)
  double start_ns = 0.0;
  double end_ns = 0.0;  // completion time within the last occupied cstep

  int avail_cstep() const { return cstep + span - 1; }
  /// Human-readable annotation (stg::op_label), e.g. "x=+".
  std::string label() const {
    return stg::op_label(op, is_store, array, def_var);
  }
};

/// A DFG's dependence edges and what list scheduling derives from them,
/// all fixed by the build and shared by every copy of the DFG. Edge lists
/// are flat (CSR) arrays in creation order, with one entry per edge,
/// duplicates included, so counting down a node's unscheduled
/// predecessors stays exact. The int arrays are spans into one buffer and
/// the priorities into another, both owned here.
struct DfgEdges {
  /// Every node's predecessors, node by node: node i's data edges, then its
  /// scalar anti/output edges, then its memory-order edges, split at
  /// begin[3i], begin[3i+1], begin[3i+2] and begin[3i+3].
  std::span<const int> begin, preds;
  /// Successors along data and memory-order edges of node i:
  /// succs[succ_begin[i] .. succ_begin[i+1]), in node order.
  std::span<const int> succ_begin, succs;
  /// Successors along scalar anti/output edges, likewise.
  std::span<const int> war_begin, war_succs;
  /// Longest downstream delay (ns) from each node over data edges, the
  /// classic list-scheduling priority.
  std::span<const double> prio;
  /// The resource (FU type or array port) each node occupies, as an index
  /// into `resource_nodes`, or -1 for none; `resource_nodes` holds the
  /// first node using each distinct resource. list_schedule resolves one
  /// table column per resource instead of one per node.
  std::span<const int> resource, resource_nodes;
  /// The live-in reads of every carried variable (Dfg::Carried views).
  std::span<const int> livein_reads;

  DfgEdges() = default;
  DfgEdges(const DfgEdges&) = delete;  // the spans view this object
  DfgEdges& operator=(const DfgEdges&) = delete;

 private:
  friend class DfgBuilder;
  std::vector<int> ints_;
  std::vector<double> prio_;
};

/// Data-flow graph of one straight-line segment (plus, for loops, the
/// loop-condition expression evaluated once per iteration).
struct Dfg {
  std::vector<DfgNode> nodes;
  /// The buffer holding the variable, array and FU type names the nodes
  /// view, each distinct name once; shared by copies of the DFG.
  std::shared_ptr<const char[]> names;
  /// The edges between `nodes`; shared by copies of the DFG.
  std::shared_ptr<const DfgEdges> edges;

  /// A variable both defined in the segment and read before any
  /// in-segment definition: its final definition and the reads of its
  /// live-in value. Used for loop-carried recurrence checks.
  struct Carried {
    int def = -1;
    std::span<const int> livein_reads;  // views edges->livein_reads
  };
  std::vector<Carried> carried;
  /// Node computing the appended condition expression, or -1.
  int cond_node = -1;

  /// Data dependencies of node i (chaining applies).
  std::span<const int> preds(size_t i) const { return edge_list(3 * i); }
  /// Scalar anti/output dependencies of node i (cstep >= pred's cstep):
  /// earlier readers of the previous value of the variable it defines,
  /// then that value's definition. Honored in plain scheduling; relaxed
  /// in modulo scheduling when the node's `relax_war` is set.
  std::span<const int> war_preds(size_t i) const {
    return edge_list(3 * i + 1);
  }
  /// Memory ordering of node i (store-after-read / store-after-store on
  /// one array). Always honored: memories are not renamed.
  std::span<const int> mem_war_preds(size_t i) const {
    return edge_list(3 * i + 2);
  }

  int num_csteps() const;

 private:
  std::span<const int> edge_list(size_t k) const {
    const DfgEdges& e = *edges;
    return {e.preds.data() + e.begin[k],
            static_cast<size_t>(e.begin[k + 1] - e.begin[k])};
  }
};

/// The working storage of DfgBuilder::build. It keeps its capacity from
/// one build to the next, so a warm build allocates only the DFG's own
/// arrays. Not thread-safe: the scheduler keeps one per thread.
class DfgScratch {
 public:
  DfgScratch();
  ~DfgScratch();
  DfgScratch(const DfgScratch&) = delete;
  DfgScratch& operator=(const DfgScratch&) = delete;

 private:
  friend class DfgBuilder;
  struct State;
  std::unique_ptr<State> state_;
};

/// Builds segment DFGs, binding each operation to a library FU type using
/// the selection (with the incrementer special case: a self-increment
/// `i = i + 1` binds to an Incrementer when one is allocated). Delays are
/// scaled for the supply voltage per the paper's delay law.
///
/// The builder is the binding table, resolved once on construction and
/// immutable after it: a Scheduler makes one and all its threads share
/// it. A build is one pass over the statements that numbers values
/// locally. A variable or array gets a new version at each definition or
/// store, and an expression binds to an existing node when its op, its
/// literals, its operand nodes and the versions of the variables and the
/// array it reads match; identical subexpressions over unchanged inputs
/// therefore share one node (so e.g. a condition referenced by several
/// selects costs one comparator). Each node's edges are known when the
/// next node is created, and the DFG's edge lists, successor lists,
/// priorities and resource indices are laid out once, at the end.
class DfgBuilder {
 public:
  DfgBuilder(const hlslib::Library& lib, const hlslib::Allocation& alloc,
             const hlslib::FuSelection& sel, double vdd, double vt);

  /// DFG for a list of Assign/Store statements; optionally appends a
  /// condition expression (loop or branch condition) evaluated after them.
  /// Works in `scratch`, so a warm build allocates a fixed number of
  /// arrays, whatever its node count.
  Dfg build(DfgScratch& scratch, const std::vector<const ir::Stmt*>& stmts,
            const ir::ExprPtr& cond = nullptr, int cond_stmt_id = -1) const;

 private:
  class Pass;
  /// An FU binding: the type, its index among the builder's distinct
  /// types and its scaled delay, or the fact::Error message to throw when
  /// an op needs it.
  struct Binding {
    std::string fu;  // empty: no datapath FU (glue logic)
    int fu_id = -1;  // index into fus_; -1 when fu is empty
    int fu_type = -1;  // index into the library's types; -1 when fu is empty
    double delay_ns = 0.0;
    std::string error;
  };
  const Binding& bind_fu(const ir::Expr& e,
                         const std::string* self_var) const;
  const Binding& memory() const;

  std::vector<Binding> by_op_;  // default binding per ir::Op
  Binding glue_;
  Binding memory_;
  Binding incrementer_;  // fu empty when none is allocated
  std::vector<std::string> fus_;  // the distinct FU types bound
};

/// Per-cycle resource bookkeeping. In plain mode (hyperperiod 0) each
/// control step has its own row; in modulo mode rows wrap at `hyperperiod`
/// and an op with initiation interval `period` occupies every matching
/// slot (used when independent loops share resources at different rates).
///
/// A row is a flat array of use counts, one per resource column: an FU
/// type (capacity = its allocation, possibly 0) or an array's memory port.
/// Columns are interned by name on first sight, so list_schedule resolves
/// each distinct resource once and every per-cstep check is an index, not
/// a lookup.
class ResourceTable {
 public:
  explicit ResourceTable(const hlslib::Allocation& alloc, int hyperperiod = 0);

  /// Column of the resource `n` occupies, or kFree when it needs none
  /// (register copies, glue logic, controller-resident compares).
  static constexpr int kFree = -1;
  int column(const DfgNode& n);

  int hyperperiod() const { return hyperperiod_; }
  /// Widens a modulo table to `hyperperiod`, a multiple of the current
  /// one, by tiling its rows. A reservation made at a period dividing the
  /// old hyperperiod holds exactly the slots it would hold had it been
  /// made in the wider table, so can_place answers as before for every
  /// such period.
  void extend(int hyperperiod);
  /// Units of `n`'s resource a modulo table has left, summed over its
  /// rows: capacity x hyperperiod less every reservation.
  int free_units(const DfgNode& n) const;

  bool can_place(int col, int cstep, int period = 0) const;
  void place(int col, int cstep, int period = 0);

  bool can_place(const DfgNode& n, int cstep, int period = 0) {
    return can_place(column(n), cstep, period);
  }
  void place(const DfgNode& n, int cstep, int period = 0) {
    place(column(n), cstep, period);
  }

 private:
  struct Column {
    bool memory = false;  // an array's port rather than an FU type
    std::string name;
    int capacity = 0;
  };

  /// Index of the column named (memory, name), or kFree.
  int find(bool memory, std::string_view name) const;
  int capacity(bool memory, std::string_view name) const;

  const hlslib::Allocation* alloc_;
  int hyperperiod_;
  std::vector<Column> columns_;
  size_t rows_ = 0;
  std::vector<int> used_;  // rows_ x columns_.size(), row-major
};

/// Resource-constrained list scheduling with operator chaining under the
/// clock period. Each step places the ready node (every ordering
/// predecessor placed) of highest priority, lowest index first on ties.
/// In modulo mode (`period` > 0) resources are reserved modulo the period
/// in `table` (which may be shared across loops being fused). Returns
/// false if some op can never be placed (e.g. allocation count 0 for a
/// needed FU, or delay exceeding the clock). Walks the edge lists, the
/// priorities and the resource indices the build laid out, so each II of
/// the pipelining search and each fused-phase admission attempt costs
/// only the placement itself.
bool list_schedule(Dfg& dfg, ResourceTable& table, double clock_ns,
                   int period = 0, int max_csteps = 100000);

/// Checks the loop-carried recurrence constraint for a modulo schedule
/// with the given initiation interval: every variable defined in the body
/// and read (live-in) by the next iteration must have
/// def_cstep <= read_cstep + II - 1. Returns true if satisfiable.
bool recurrences_ok(const Dfg& dfg, int ii);

/// Checks that the kernel ring's pipeline lags are consistent: in the
/// emitted ring, an operation reads each producer wire either from the
/// current traversal (producer slot <= consumer slot) or the previous one
/// (slot wraparound). Every operand of an op must therefore agree on the
/// implied iteration (equal lag along all incoming edges); the ring keeps
/// a single copy of each wire, so mixed-lag operands would combine values
/// from different iterations (rotating-register expansion is not
/// modeled). The scheduler bumps II until this holds. Always true for
/// II = 1, where the single ring state executes in dataflow order.
bool pipeline_lags_consistent(const Dfg& dfg, int ii);

/// Smallest II at which the DFG's ops can fit into what the modulo table
/// `table` (hyperperiod h) has left, by counting alone: scheduled at II
/// `ii` into the table widened to L = lcm(h, ii), each op holds L/ii rows
/// of its resource, which has free_units * L/h units, so every resource
/// needs ii >= ceil(uses * h / free_units). -1 when some resource the DFG
/// needs has no unit left (or none allocated). A lone loop passes an
/// empty table of hyperperiod 1: the classic ceil(uses / available).
int resource_min_ii(const Dfg& dfg, const ResourceTable& table);

}  // namespace fact::sched
