#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "ir/expr.hpp"

namespace fact::stg {

/// The one spelling of result wire number `n`: "w<n>".
std::string wire_name(int n);

/// One operand of an operation: a result wire, a register (IR variable)
/// read, or a wired literal. Trivially copyable (16 bytes); a register
/// name views storage kept alive by whoever owns the operation (see
/// OpInstance).
class Operand {
 public:
  enum class Kind : uint8_t { Wire, Reg, Literal };

  static Operand of_wire(int n) { return Operand(Kind::Wire, n); }
  static Operand of_literal(int64_t v) { return Operand(Kind::Literal, v); }
  static Operand of_reg(std::string_view name) {
    Operand o(Kind::Reg, 0);
    o.name_ = name.data();
    o.name_len_ = static_cast<uint32_t>(name.size());
    return o;
  }

  Kind kind() const { return kind_; }
  /// Kind::Wire: the wire number (a DFG node index inside a DfgNode).
  int wire() const { return static_cast<int>(value_); }
  /// Kind::Literal: the constant.
  int64_t literal() const { return value_; }
  /// Kind::Reg: the variable name.
  std::string_view reg() const { return {name_, name_len_}; }

  /// The operand as a token: "w<n>", the variable name, or the decimal
  /// literal.
  std::string str() const;

  Operand() = default;

 private:
  Operand(Kind kind, int64_t value) : value_(value), kind_(kind) {}

  union {
    int64_t value_ = 0;  // Wire, Literal
    const char* name_;   // Reg
  };
  uint32_t name_len_ = 0;
  Kind kind_ = Kind::Literal;
};

/// An operation's operands in op order, inline: at most three (Select has
/// three arguments, the most of any op).
class Operands {
 public:
  static constexpr size_t kMax = 3;

  void push_back(Operand o) {
    assert(size_ < kMax);
    items_[size_++] = o;
  }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const Operand& operator[](size_t i) const { return items_[i]; }
  Operand& operator[](size_t i) { return items_[i]; }
  const Operand* begin() const { return items_.data(); }
  const Operand* end() const { return items_.data() + size_; }
  Operand* begin() { return items_.data(); }
  Operand* end() { return items_.data() + size_; }

 private:
  std::array<Operand, kMax> items_{};
  uint8_t size_ = 0;
};

/// Wire numbers given as DFG node indices plus the wire base of the
/// emission they came from: element i is base + nodes[i]. Views the
/// node-index list.
class WireList {
 public:
  WireList() = default;
  WireList(std::span<const int> nodes, int base) : nodes_(nodes), base_(base) {}

  class iterator {
   public:
    iterator(const int* p, int base) : p_(p), base_(base) {}
    int operator*() const { return base_ + *p_; }
    iterator& operator++() {
      ++p_;
      return *this;
    }
    bool operator!=(const iterator& o) const { return p_ != o.p_; }

   private:
    const int* p_;
    int base_;
  };

  iterator begin() const { return {nodes_.data(), base_}; }
  iterator end() const { return {nodes_.data() + nodes_.size(), base_}; }

 private:
  std::span<const int> nodes_;
  int base_ = 0;
};

/// The human-readable annotation of an operation, e.g. "+", "x=*",
/// "mem[]", "mem[]=", "x=cp" (register copy) or "chk" (a bare-variable
/// condition check).
std::string op_label(ir::Op op, bool is_store, std::string_view array,
                     std::string_view def_var);

/// One operation executed in an STG state, bound to a library FU type.
/// `iteration` tags which loop iteration the op belongs to when the
/// scheduler overlaps iterations (the paper's "S.0", "++1_1" annotations
/// in Figure 1(c)).
///
/// Trivially destructible: names are views and the pre-reader list a view
/// of node indices. The scheduler points them into the scheduled DFGs it
/// emitted from, and the Stg keeps those alive (Stg::keep_alive), so an
/// op stays valid as long as its Stg or any copy of it. Ops built by hand
/// must view storage that outlives them (string literals do).
struct OpInstance {
  std::string_view fu_type;  // library type name (e.g. "a1", "mem1")
  ir::Op op = ir::Op::Var;   // operation kind
  bool is_store = false;     // memory write
  int stmt_id = -1;          // originating IR statement
  int iteration = 0;         // loop-iteration tag
  /// Pipeline lag inside a kernel ring: how many traversals behind the
  /// newest in-flight iteration this op executes (0 outside rings).
  int lag = 0;

  // Dataflow annotations for binding and RTL emission:
  int wire = -1;             // result wire number (wire_name); -1: none
  std::string_view def_var;  // register written (assignment roots)
  std::string_view array;    // memory ops: target array
  Operands operands;         // operand wires/registers/literals
  /// For definitions: result wires of the operations that must observe
  /// the *previous* value of def_var (the anti-dependences the scheduler
  /// may relax via modulo variable expansion). The RTL backend
  /// materializes shadow registers for readers emitted at or after the
  /// definition.
  WireList pre_readers;

  std::string label() const { return op_label(op, is_store, array, def_var); }
};

/// A state of the state transition graph: the set of operations executed
/// in one clock cycle, plus register traffic for the power model.
struct State {
  std::string name;
  std::vector<OpInstance> ops;
  int reg_reads = 0;
  int reg_writes = 0;
  std::vector<int> out_edges;  // indices into Stg::edges()
  /// Wire whose value steers this state's conditional transitions (set on
  /// branching states; empty when all out-edges are unconditional).
  std::string cond_signal;
  /// Kernel-ring membership: states of one pipelined loop's steady-state
  /// ring share an id (>= 0); -1 for linear states (guard, prologue,
  /// drain, plain segments). Iteration-overlap semantics apply only
  /// within a ring.
  int ring_id = -1;
};

/// A transition between states. `prob` is the probability the edge is
/// taken given the machine is in `from` (the parenthesized numbers of
/// Figure 1(c)). `exec_boundary` marks the transitions whose traversal
/// completes one execution of the behavior; the average schedule length
/// is the expected number of cycles between boundary crossings.
struct Edge {
  int from = -1;
  int to = -1;
  double prob = 1.0;
  std::string cond_label;
  bool exec_boundary = false;
};

/// State transition graph: the scheduler's output and the substrate for
/// both throughput analysis and power estimation.
class Stg {
 public:
  int add_state(const std::string& name);
  int add_edge(int from, int to, double prob, const std::string& cond_label = "",
               bool exec_boundary = false);

  const std::vector<State>& states() const { return states_; }
  const std::vector<Edge>& edges() const { return edges_; }
  State& state(int i) { return states_[static_cast<size_t>(i)]; }
  const State& state(int i) const { return states_[static_cast<size_t>(i)]; }
  Edge& edge(int i) { return edges_[static_cast<size_t>(i)]; }
  const Edge& edge(int i) const { return edges_[static_cast<size_t>(i)]; }
  size_t num_states() const { return states_.size(); }
  size_t num_edges() const { return edges_.size(); }

  int entry() const { return entry_; }
  void set_entry(int s) { entry_ = s; }

  /// Throws fact::Error with the first of structure_issues(*this).
  void validate() const;

  /// Graphviz rendering (state name + ops inside the node, probability and
  /// condition on the edges, like Figure 1(c)).
  std::string dot(const std::string& graph_name = "stg") const;

  /// Keeps `owner` alive as long as this Stg or any copy of it: the
  /// storage its ops' names and pre-reader lists view (the scheduler
  /// passes the fragment-cache entries it emitted from).
  void keep_alive(std::shared_ptr<const void> owner) {
    if (owners_.empty() || owners_.back() != owner)
      owners_.push_back(std::move(owner));
  }
  const std::vector<std::shared_ptr<const void>>& owners() const {
    return owners_;
  }

 private:
  std::vector<State> states_;
  std::vector<Edge> edges_;
  int entry_ = 0;
  std::vector<std::shared_ptr<const void>> owners_;
};

/// Operations bound to one FU type in one state: `fu` indexes Chain::fus.
struct FuCount {
  int fu = 0;
  int count = 0;
};

/// Per-row FU op counts and register traffic, flat: one row per state of
/// a Chain, or per control step or ring slot of a scheduled fragment.
class OpRows {
 public:
  /// Appends a row: its op counts (no FU twice, no zero count) and its
  /// register reads plus writes.
  void push_back(std::span<const FuCount> ops, int reg_traffic) {
    counts_.insert(counts_.end(), ops.begin(), ops.end());
    end_.push_back(static_cast<uint32_t>(counts_.size()));
    reg_.push_back(reg_traffic);
  }
  /// Appends row r of `other`.
  void push_back(const OpRows& other, size_t r) {
    push_back(other.ops(r), other.reg_traffic(r));
  }
  void clear() {
    end_.clear();
    counts_.clear();
    reg_.clear();
  }
  void reserve(size_t rows, size_t counts) {
    end_.reserve(rows);
    counts_.reserve(counts);
    reg_.reserve(rows);
  }

  size_t size() const { return reg_.size(); }
  std::span<const FuCount> ops(size_t r) const {
    const uint32_t b = r == 0 ? 0 : end_[r - 1];
    return {counts_.data() + b, end_[r] - b};
  }
  int reg_traffic(size_t r) const { return reg_[r]; }

 private:
  std::vector<uint32_t> end_;     // row r's counts end at end_[r]
  std::vector<FuCount> counts_;
  std::vector<int> reg_;
};

/// A transition of a Chain: an Edge without its condition label.
struct ChainEdge {
  int from = -1;
  int to = -1;
  double prob = 1.0;
  bool exec_boundary = false;
};

/// What the Markov chain, the schedule length and the power model read of
/// an STG, flat: the state count, the edges in add order, and each state's
/// op counts by FU type and register traffic. No names, labels, ops or
/// per-state containers. The scheduler emits one directly for a candidate
/// whose STG would be discarded (Scheduler::summarize); Chain::of reduces a
/// full Stg to the same chain, and every Stg analysis goes through it.
class Chain {
 public:
  /// FU type names by index (the `fu` of every FuCount). They view
  /// storage that must outlive the chain: the Scheduler's library for a
  /// summary, the Stg's ops for Chain::of.
  std::vector<std::string_view> fus;

  /// Appends a state with the op counts and register traffic of row r of
  /// `rows`; returns its index.
  int add_state(const OpRows& rows, size_t r) {
    states_.push_back(rows, r);
    return static_cast<int>(states_.size()) - 1;
  }
  /// Appends a state without ops; returns its index.
  int add_state() {
    states_.push_back({}, 0);
    return static_cast<int>(states_.size()) - 1;
  }
  /// Throws fact::Error when either endpoint is not a state.
  int add_edge(int from, int to, double prob, bool exec_boundary = false);

  size_t num_states() const { return states_.size(); }
  const OpRows& states() const { return states_; }
  const std::vector<ChainEdge>& edges() const { return edges_; }
  int entry() const { return entry_; }
  void set_entry(int s) { entry_ = s; }
  void clear();

  /// Throws fact::Error with the first of structure_issues(*this).
  void validate() const;

  /// The chain of a full STG: its edges in edge order, and each state's
  /// ops counted per FU type (types numbered in order of first sight).
  static Chain of(const Stg& stg);

 private:
  OpRows states_;
  std::vector<ChainEdge> edges_;
  int entry_ = 0;
};

/// A structural defect of an STG or a chain: the check it fails and a
/// diagnostic.
struct StructureIssue {
  const char* check;
  std::string detail;
};

/// The structural checks of an STG or a chain, one implementation behind
/// Stg::validate, Chain::validate and verify::verify_stg. Every issue, in
/// this order, under its check name:
///  * stg.empty: no states (nothing else is checked);
///  * stg.entry: the entry is not a state;
///  * stg.edges: in an Stg, an out-edge list holding an index that is no
///    edge or an edge leaving another state, or an edge listed other than
///    once; an edge whose endpoint is not a state;
///  * stg.prob: an edge probability outside [0,1];
/// and, only when none of these fired (they would misreport):
///  * stg.edges: a state without outgoing edge;
///  * stg.prob: a state whose outgoing probabilities do not sum to 1;
///  * stg.boundary: no exec-boundary edge;
///  * stg.reachable: a state unreachable from the entry.
/// Diagnostics name an Stg's states by name and a chain's state i "S<i>".
/// A sound structure yields an empty list, and once the thread's check
/// storage is warm the check allocates nothing.
std::vector<StructureIssue> structure_issues(const Chain& chain);
std::vector<StructureIssue> structure_issues(const Stg& stg);

/// Steady-state probability of every state (the method of ref [10] of the
/// paper): solves pi = pi * P with sum(pi) = 1. States outside the chain's
/// closed communicating class are transient and get probability 0. Throws
/// fact::Error when the chain has no unique stationary distribution (more
/// or fewer than one closed class, which includes the empty chain).
///
/// One direct solver: the Grassmann-Taksar-Heyman state reduction over
/// the closed class, members numbered in state-index order and eliminated
/// from the last to the first over sparse rows, then back-substituted and
/// normalized. It never subtracts, so every intermediate is a sum of
/// products of probabilities and each probability is accurate to a small
/// multiple of the rounding error, even on nearly decomposable chains. The
/// result is a function of the chain alone (deterministic). Each call counts
/// in fact_markov_solves_total and opens a `markov` trace span.
std::vector<double> state_probabilities(const Chain& chain);
/// state_probabilities(Chain::of(stg)).
std::vector<double> state_probabilities(const Stg& stg);

/// Average schedule length in cycles: the expected number of cycles to
/// complete one execution of the behavior. Computed as
///   1 / sum over boundary edges e of pi[from(e)] * prob(e),
/// i.e. the mean renewal interval of execution completions.
double average_schedule_length(const Chain& chain,
                               const std::vector<double>& pi);
/// The Stg forms go through Chain::of.
double average_schedule_length(const Stg& stg);
double average_schedule_length(const Stg& stg, const std::vector<double>& pi);

}  // namespace fact::stg
