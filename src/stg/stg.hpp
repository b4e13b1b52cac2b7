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

/// Steady-state probability of every state (the method of ref [10] of the
/// paper): solves pi = pi * P with sum(pi) = 1. States that are transient
/// in the stationary distribution get probability 0. Throws fact::Error
/// when the chain has no unique stationary distribution (more or fewer
/// than one closed communicating class), whichever solver runs.
///
/// One fixed policy picks the solver. The STG's transition matrix is
/// extremely sparse (branch factor <= 2 for almost every state), so sparse
/// Gauss-Seidel wins asymptotically, while the dense direct solve is exact
/// and cheaper for small chains: chains of at most 48 states are solved
/// densely; larger ones by Gauss-Seidel, falling back to the dense solve
/// when it has not converged after 512 sweeps. Both paths iterate states
/// in index order, so the result is deterministic for a given Stg. Every
/// solve is counted in the fact_markov_* registry counters.
std::vector<double> state_probabilities(const Stg& stg);

/// The two solvers behind state_probabilities, exposed so tests can
/// compare them. Same error contract as state_probabilities.
///
/// Dense: A = P^T - I with the last row replaced by the normalization,
/// Gaussian elimination with partial pivoting. Exact, O(n^3).
std::vector<double> dense_probabilities(const Stg& stg);
/// Sparse: Gauss-Seidel over the incoming-edge CSR adjacency, converged
/// when the L1 distance between consecutive normalized sweeps drops below
/// 1e-12. Empty when it has not converged within 512 sweeps.
std::vector<double> sparse_probabilities(const Stg& stg);

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
