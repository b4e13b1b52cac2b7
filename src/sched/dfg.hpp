#pragma once

#include <map>
#include <string>
#include <vector>

#include "hlslib/library.hpp"
#include "ir/stmt.hpp"

namespace fact::sched {

/// One operation node of a segment's data-flow graph. Constants and plain
/// variable reads are leaves folded into their consumers; every node here
/// does actual work in some cycle (FU op, memory access, mux, or register
/// copy).
struct DfgNode {
  ir::Op op = ir::Op::Var;  // Var with empty fu == register copy
  bool is_store = false;    // memory write (op is ArrayRead for reads)
  std::string fu;           // bound library FU type; empty = no datapath FU
  std::string array;        // memory ops: which array/memory
  double delay_ns = 0.0;    // at the scheduling supply voltage
  int stmt_id = -1;
  std::string label;
  int var_reads = 0;        // register reads issued by this node
  bool reg_write = false;   // assignment root: writes a register
  std::string def_var;      // variable defined (assignment roots)
  /// Operand tokens in op order: a decimal literal, a variable/register
  /// name, or "%<node>" referencing another node's value (resolved to a
  /// wire name when the schedule is materialized into STG states).
  std::vector<std::string> operand_names;

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
};

/// Data-flow graph of one straight-line segment (plus, for loops, the
/// loop-condition expression evaluated once per iteration).
struct Dfg {
  std::vector<DfgNode> nodes;

  /// Reads of each variable's live-in value (no in-segment def yet when
  /// the read was issued). Used for loop-carried recurrence checks.
  std::map<std::string, std::vector<int>> livein_reads;
  /// Final in-segment definition of each variable.
  std::map<std::string, int> final_def;
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

  /// DFG for a list of Assign/Store statements; optionally appends a
  /// condition expression (loop or branch condition) evaluated after them.
  Dfg build(const std::vector<const ir::Stmt*>& stmts,
            const ir::ExprPtr& cond = nullptr, int cond_stmt_id = -1) const;

  /// Delay of a single op kind under the current voltage (exposed so the
  /// scheduler can sanity-check the clock constraint).
  double op_delay(ir::Op op) const;

 private:
  struct BuildState;
  int add_expr(Dfg& dfg, BuildState& bs, const ir::ExprPtr& e, int stmt_id,
               const std::string* self_var = nullptr) const;
  std::string bind_fu(const ir::ExprPtr& e,
                      const std::string* self_var) const;

  const hlslib::Library& lib_;
  const hlslib::Allocation& alloc_;
  const hlslib::FuSelection& sel_;
  double scale_;
};

/// Per-cycle resource bookkeeping. In plain mode (hyperperiod 0) each
/// control step has its own row; in modulo mode rows wrap at `hyperperiod`
/// and an op with initiation interval `period` occupies every matching
/// slot (used when independent loops share resources at different rates).
///
/// A row is a flat array of use counts, one per resource column: an FU
/// type (capacity = its allocation, possibly 0) or an array's memory port.
/// Columns are interned by name on first sight, so list_schedule resolves
/// each node once and every per-cstep check is an index, not a lookup.
class ResourceTable {
 public:
  ResourceTable(const hlslib::Library& lib, const hlslib::Allocation& alloc,
                int hyperperiod = 0);

  /// Column of the resource `n` occupies, or kFree when it needs none
  /// (register copies, glue logic, controller-resident compares).
  static constexpr int kFree = -1;
  int column(const DfgNode& n);

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

  const hlslib::Allocation& alloc_;
  int hyperperiod_;
  int mem_ports_ = 1;  // ports per array memory
  std::vector<Column> columns_;
  size_t rows_ = 0;
  std::vector<int> used_;  // rows_ x columns_.size(), row-major
};

/// Resource-constrained list scheduling with operator chaining under the
/// clock period. In modulo mode (`period` > 0) resources are reserved
/// modulo the period in `table` (which may be shared across loops being
/// fused). Returns false if some op can never be placed (e.g. allocation
/// count 0 for a needed FU, or delay exceeding the clock).
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

/// Minimum II due to resources alone: max over FU types and memories of
/// ceil(uses / available).
int resource_min_ii(const Dfg& dfg, const hlslib::Allocation& alloc,
                    int mem_ports = 1);

}  // namespace fact::sched
