#pragma once

#include <string>
#include <vector>

#include "ir/expr.hpp"

namespace fact::stg {

/// One operation executed in an STG state, bound to a library FU type.
/// `iteration` tags which loop iteration the op belongs to when the
/// scheduler overlaps iterations (the paper's "S.0", "++1_1" annotations
/// in Figure 1(c)).
struct OpInstance {
  std::string fu_type;   // library type name (e.g. "a1", "mem1")
  ir::Op op;             // operation kind
  int stmt_id = -1;      // originating IR statement
  int iteration = 0;     // loop-iteration tag
  std::string label;     // human-readable annotation, e.g. "+1"

  // Dataflow annotations for binding and RTL emission:
  std::string value_name;             // wire carrying this op's result
  std::string def_var;                // register written (assignment roots)
  std::vector<std::string> operands;  // operand wires/registers/immediates
  bool is_store = false;              // memory write
  std::string array;                  // memory ops: target array
  /// For definitions: value names of the operations that must observe the
  /// *previous* value of def_var (the anti-dependences the scheduler may
  /// relax via modulo variable expansion). The RTL backend materializes
  /// shadow registers for readers emitted at or after the definition.
  std::vector<std::string> pre_readers;
  /// Pipeline lag inside a kernel ring: how many traversals behind the
  /// newest in-flight iteration this op executes (0 outside rings).
  int lag = 0;
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

  /// Throws fact::Error if malformed: dangling edges, a state whose
  /// outgoing probabilities do not sum to 1, unreachable states, or no
  /// exec-boundary edge (the chain would have no renewal point).
  void validate() const;

  /// Graphviz rendering (state name + ops inside the node, probability and
  /// condition on the edges, like Figure 1(c)).
  std::string dot(const std::string& graph_name = "stg") const;

 private:
  std::vector<State> states_;
  std::vector<Edge> edges_;
  int entry_ = 0;
};

/// Stationary-distribution solver selection. The STG's transition matrix
/// is extremely sparse (branch factor <= 2 for almost every state), so the
/// sparse Gauss-Seidel solver wins asymptotically; the dense direct solver
/// stays exact and faster for small chains.
enum class MarkovSolver {
  Auto,    // dense at or below MarkovOptions::dense_cutoff states
  Dense,   // always Gaussian elimination (O(n^3), exact)
  Sparse,  // always Gauss-Seidel over CSR adjacency (dense on divergence)
};

struct MarkovOptions {
  MarkovSolver solver = MarkovSolver::Auto;
  /// Auto: chains with at most this many states use the dense solver
  /// (below this size the O(n^3) direct solve beats sweep overhead and is
  /// exact to machine precision).
  size_t dense_cutoff = 48;
  /// Sparse: converged when the L1 distance between consecutive
  /// normalized sweeps drops below this.
  double tolerance = 1e-12;
  /// Sparse: fall back to the dense solver after this many sweeps.
  int max_sweeps = 512;
};

/// Observability for benches ablating dense vs sparse.
struct MarkovStats {
  bool used_sparse = false;  // the returned pi came from Gauss-Seidel
  int sweeps = 0;            // Gauss-Seidel sweeps performed
  bool fell_back = false;    // sparse did not converge; dense solved it
};

/// Steady-state probability of every state (the method of ref [10] of the
/// paper): solves pi = pi * P with sum(pi) = 1. States that are transient
/// in the stationary distribution get probability 0. Throws fact::Error
/// when the chain has no unique stationary distribution (more or fewer
/// than one closed communicating class), whichever solver runs.
///
/// The default overload uses MarkovSolver::Auto: a dense direct solve for
/// small chains and sparse Gauss-Seidel over the incoming-edge CSR
/// adjacency above MarkovOptions::dense_cutoff. Both paths iterate states
/// in index order, so the result is deterministic for a given Stg.
std::vector<double> state_probabilities(const Stg& stg);
std::vector<double> state_probabilities(const Stg& stg,
                                        const MarkovOptions& opts,
                                        MarkovStats* stats = nullptr);

/// Average schedule length in cycles: the expected number of cycles to
/// complete one execution of the behavior. Computed as
///   1 / sum over boundary edges e of pi[from(e)] * prob(e),
/// i.e. the mean renewal interval of execution completions.
double average_schedule_length(const Stg& stg);
double average_schedule_length(const Stg& stg, const std::vector<double>& pi);

/// Relative frequency of each edge: pi[from(e)] * prob(e) (Section 4.1's
/// ranking key for partitioning).
std::vector<double> edge_frequencies(const Stg& stg);

}  // namespace fact::stg
