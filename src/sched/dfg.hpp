#pragma once

#include <cstdint>
#include <memory>
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
/// copy). Names view the owning Dfg's `names`.
struct DfgNode {
  ir::Op op = ir::Op::Var;    // Var with empty fu == register copy
  bool is_store = false;      // memory write (op is ArrayRead for reads)
  bool reg_write = false;     // assignment root: writes a register
  std::string_view fu;        // bound library FU type; empty = no datapath FU
  std::string_view array;     // memory ops: which array/memory
  std::string_view def_var;   // variable defined (assignment roots)
  double delay_ns = 0.0;      // at the scheduling supply voltage
  int stmt_id = -1;
  int var_reads = 0;          // register reads issued by this node
  /// Operands in op order. A Wire operand holds the producing node's
  /// index; emission adds the wire base of the STG it is emitted into.
  stg::Operands operands;

  std::vector<int> preds;      // data dependencies (chaining applies)
  /// Scalar anti/output dependencies (cstep >= pred's cstep). Honored in
  /// plain scheduling; relaxed in modulo scheduling when `relax_war` is
  /// set, which models modulo variable expansion (each overlapped
  /// iteration reads a shadow copy of the register, standard in software
  /// pipelining). Only single-definition variables are relaxed: one
  /// shadow level cannot represent multiple in-flight versions.
  std::vector<int> war_preds;
  bool relax_war = false;
  /// Memory ordering (store-after-read / store-after-store on one array).
  /// Always honored: memories are not renamed.
  std::vector<int> mem_war_preds;

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

/// Data-flow graph of one straight-line segment (plus, for loops, the
/// loop-condition expression evaluated once per iteration).
struct Dfg {
  std::vector<DfgNode> nodes;
  /// The buffer holding the variable, array and FU type names the nodes
  /// view, each distinct name once; shared by copies of the DFG.
  std::shared_ptr<const char[]> names;

  /// A variable both defined in the segment and read before any
  /// in-segment definition: its final definition and the reads of its
  /// live-in value. Used for loop-carried recurrence checks.
  struct Carried {
    int def = -1;
    std::vector<int> livein_reads;
  };
  std::vector<Carried> carried;
  /// Node computing the appended condition expression, or -1.
  int cond_node = -1;

  int num_csteps() const;
};

/// Builds segment DFGs, binding each operation to a library FU type using
/// the selection (with the incrementer special case: a self-increment
/// `i = i + 1` binds to an Incrementer when one is allocated). Delays are
/// scaled for the supply voltage per the paper's delay law.
class DfgBuilder {
 public:
  DfgBuilder(const hlslib::Library& lib, const hlslib::Allocation& alloc,
             const hlslib::FuSelection& sel, double vdd, double vt);
  ~DfgBuilder();

  /// DFG for a list of Assign/Store statements; optionally appends a
  /// condition expression (loop or branch condition) evaluated after them.
  /// Reuses the builder's scratch arrays, so a build allocates little
  /// more than the DFG itself: its node array, its name buffer and each
  /// node's dependence lists.
  Dfg build(const std::vector<const ir::Stmt*>& stmts,
            const ir::ExprPtr& cond = nullptr, int cond_stmt_id = -1);

 private:
  struct BuildState;
  /// An FU binding resolved once per builder: the type and its scaled
  /// delay, or the fact::Error message to throw when an op needs it.
  struct Binding {
    std::string fu;  // empty: no datapath FU (glue logic)
    double delay_ns = 0.0;
    std::string error;
  };
  int add_expr(Dfg& dfg, BuildState& bs, const ir::ExprPtr& e, int stmt_id,
               const std::string* self_var = nullptr) const;
  const Binding& bind_fu(const ir::ExprPtr& e,
                         const std::string* self_var) const;
  const Binding& memory() const;

  std::vector<Binding> by_op_;  // default binding per ir::Op
  Binding glue_;
  Binding memory_;
  Binding incrementer_;  // fu empty when none is allocated
  size_t fu_name_bytes_ = 0;  // total length of the distinct FU names
  std::unique_ptr<BuildState> scratch_;
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

/// The dependence lists list_schedule walks, built once per DFG and
/// shared by every schedule of it (each II of the pipelining search, each
/// fused-phase admission attempt). Successor lists are flat (CSR) arrays
/// with one entry per dependence edge, duplicates included, so counting
/// down a node's unscheduled predecessors stays exact.
struct DfgDeps {
  explicit DfgDeps(const Dfg& dfg);

  /// Longest downstream delay (ns) from each node over data edges, the
  /// classic list-scheduling priority.
  std::vector<double> prio;
  /// Successors along data and memory-ordering edges of node i:
  /// succs[succ_begin[i] .. succ_begin[i+1]).
  std::vector<int> succ_begin, succs;
  /// Successors along scalar anti/output edges (DfgNode::war_preds).
  std::vector<int> war_begin, war_succs;
  /// Per node: data + memory-ordering predecessors, and anti/output ones.
  std::vector<int> num_preds, num_war_preds;
  /// The resource (FU type or array port) each node occupies, as an index
  /// into `resource_nodes`, or -1 for none; `resource_nodes` holds the
  /// first node using each distinct resource. list_schedule resolves one
  /// table column per resource instead of one per node.
  std::vector<int> resource, resource_nodes;
};

/// Resource-constrained list scheduling with operator chaining under the
/// clock period. Each step places the ready node (every ordering
/// predecessor placed) of highest priority, lowest index first on ties.
/// In modulo mode (`period` > 0) resources are reserved modulo the period
/// in `table` (which may be shared across loops being fused). Returns
/// false if some op can never be placed (e.g. allocation count 0 for a
/// needed FU, or delay exceeding the clock). `deps` must be built from a
/// DFG with the same nodes and edges as `dfg`.
bool list_schedule(Dfg& dfg, const DfgDeps& deps, ResourceTable& table,
                   double clock_ns, int period = 0, int max_csteps = 100000);
/// As above, building the dependence lists for this one call.
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
