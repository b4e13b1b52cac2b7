#include "stg/stg.hpp"

#include <charconv>
#include <cmath>
#include <queue>

#include "obs/metrics.hpp"
#include "util/dot.hpp"
#include "util/error.hpp"
#include "util/strfmt.hpp"

namespace fact::stg {

std::string wire_name(int n) {
  char buf[16];
  buf[0] = 'w';
  const char* end = std::to_chars(buf + 1, buf + sizeof buf, n).ptr;
  return std::string(buf, static_cast<size_t>(end - buf));
}

std::string Operand::str() const {
  switch (kind_) {
    case Kind::Wire:
      return wire_name(wire());
    case Kind::Reg:
      return std::string(reg());
    case Kind::Literal:
      break;
  }
  return std::to_string(literal());
}

std::string op_label(ir::Op op, bool is_store, std::string_view array,
                     std::string_view def_var) {
  std::string label;
  if (!def_var.empty()) {
    label.assign(def_var);
    label += '=';
  }
  if (is_store) {
    label.append(array);
    label += "[]=";
  } else if (op == ir::Op::ArrayRead) {
    label.append(array);
    label += "[]";
  } else if (op == ir::Op::Var) {
    // A register copy defines its variable; the only other register-read
    // node is the check point of a bare-variable condition.
    label += def_var.empty() ? "chk" : "cp";
  } else {
    label += ir::op_token(op);
  }
  return label;
}

int Stg::add_state(const std::string& name) {
  State& s = states_.emplace_back();
  if (name.empty()) {
    char buf[24];
    buf[0] = 'S';
    const char* end =
        std::to_chars(buf + 1, buf + sizeof buf, states_.size() - 1).ptr;
    s.name.assign(buf, static_cast<size_t>(end - buf));
  } else {
    s.name = name;
  }
  return static_cast<int>(states_.size()) - 1;
}

int Stg::add_edge(int from, int to, double prob, const std::string& cond_label,
                  bool exec_boundary) {
  if (from < 0 || static_cast<size_t>(from) >= states_.size() || to < 0 ||
      static_cast<size_t>(to) >= states_.size())
    throw Error("Stg::add_edge: state index out of range");
  Edge e;
  e.from = from;
  e.to = to;
  e.prob = prob;
  e.cond_label = cond_label;
  e.exec_boundary = exec_boundary;
  edges_.push_back(std::move(e));
  const int idx = static_cast<int>(edges_.size()) - 1;
  states_[static_cast<size_t>(from)].out_edges.push_back(idx);
  return idx;
}

void Stg::validate() const {
  if (states_.empty()) throw Error("STG has no states");
  if (entry_ < 0 || static_cast<size_t>(entry_) >= states_.size())
    throw Error("STG entry state out of range");

  // Out-edge lists must agree exactly with the edge table: every edge is
  // indexed once, by its own from-state. A mismatch means some mutation
  // bypassed add_edge and every downstream analysis would silently skew.
  std::vector<int> indexed(edges_.size(), 0);
  for (size_t i = 0; i < states_.size(); ++i) {
    for (int ei : states_[i].out_edges) {
      if (ei < 0 || static_cast<size_t>(ei) >= edges_.size())
        throw Error("STG state '" + states_[i].name +
                    "' indexes a nonexistent edge");
      if (edges_[static_cast<size_t>(ei)].from != static_cast<int>(i))
        throw Error("STG state '" + states_[i].name +
                    "' lists an edge leaving a different state");
      indexed[static_cast<size_t>(ei)]++;
    }
  }
  for (size_t ei = 0; ei < edges_.size(); ++ei)
    if (indexed[ei] != 1)
      throw Error(strfmt("STG edge %zu appears %d time(s) in out-edge lists",
                         ei, indexed[ei]));

  bool has_boundary = false;
  for (size_t i = 0; i < states_.size(); ++i) {
    const State& s = states_[i];
    if (s.out_edges.empty())
      throw Error("STG state '" + s.name + "' has no outgoing edge");
    double sum = 0.0;
    for (int ei : s.out_edges) {
      const Edge& e = edges_[static_cast<size_t>(ei)];
      if (e.prob < -1e-9 || e.prob > 1.0 + 1e-9)
        throw Error(strfmt("STG edge %s->%s has probability %g out of [0,1]",
                           s.name.c_str(),
                           states_[static_cast<size_t>(e.to)].name.c_str(),
                           e.prob));
      sum += e.prob;
      if (e.exec_boundary) has_boundary = true;
    }
    if (std::fabs(sum - 1.0) > 1e-6)
      throw Error(strfmt("STG state '%s' outgoing probabilities sum to %g",
                         s.name.c_str(), sum));
  }
  if (!has_boundary)
    throw Error("STG has no execution-boundary edge");

  // Reachability from entry.
  std::vector<bool> seen(states_.size(), false);
  std::queue<int> work;
  work.push(entry_);
  seen[static_cast<size_t>(entry_)] = true;
  while (!work.empty()) {
    const int s = work.front();
    work.pop();
    for (int ei : states_[static_cast<size_t>(s)].out_edges) {
      const int t = edges_[static_cast<size_t>(ei)].to;
      if (!seen[static_cast<size_t>(t)]) {
        seen[static_cast<size_t>(t)] = true;
        work.push(t);
      }
    }
  }
  for (size_t i = 0; i < states_.size(); ++i)
    if (!seen[i])
      throw Error("STG state '" + states_[i].name + "' unreachable from entry");
}

std::string Stg::dot(const std::string& graph_name) const {
  DotWriter w(graph_name);
  for (size_t i = 0; i < states_.size(); ++i) {
    const State& s = states_[i];
    std::string label = s.name;
    for (const auto& op : s.ops) {
      label += "\n" + op.label();
      if (op.iteration != 0) label += strfmt("_%d", op.iteration);
    }
    w.node(strfmt("s%zu", i), label,
           i == static_cast<size_t>(entry_) ? "shape=doublecircle" : "shape=circle");
  }
  for (const Edge& e : edges_) {
    std::string label = strfmt("(%.2f)", e.prob);
    if (!e.cond_label.empty()) label = e.cond_label + " " + label;
    w.edge(strfmt("s%d", e.from), strfmt("s%d", e.to), label,
           e.exec_boundary ? "style=bold" : "");
  }
  return w.str();
}

namespace {

// The solver policy of state_probabilities (see stg.hpp).
constexpr size_t kDenseCutoff = 48;   // largest chain solved densely
constexpr double kTolerance = 1e-12;  // Gauss-Seidel L1 convergence bound
constexpr int kMaxSweeps = 512;       // Gauss-Seidel sweeps before dense

constexpr const char* kSingular =
    "state_probabilities: singular chain (STG not ergodic)";

/// Registry-backed solver accounting. Write-only: never read on the solve
/// path.
struct MarkovCounters {
  obs::Counter& solves = obs::Registry::global().counter(
      "fact_markov_solves_total", "Stationary-distribution solves");
  obs::Counter& sparse = obs::Registry::global().counter(
      "fact_markov_sparse_solves_total",
      "Solves served by sparse Gauss-Seidel");
  obs::Counter& sweeps = obs::Registry::global().counter(
      "fact_markov_sweeps_total", "Gauss-Seidel sweeps performed");
  obs::Counter& fallbacks = obs::Registry::global().counter(
      "fact_markov_dense_fallbacks_total",
      "Sparse solves that diverged and fell back to dense");
  static MarkovCounters& get() {
    static MarkovCounters c;
    return c;
  }
};

/// True when the chain has exactly one closed communicating class — the
/// condition under which pi P = pi, sum pi = 1 has a unique solution (the
/// dense solver detects the same condition as a vanishing pivot).
/// Kosaraju's algorithm over the positive-probability edges, iterative so
/// deep chains cannot overflow the stack.
bool has_unique_closed_class(const Stg& stg) {
  const size_t n = stg.num_states();
  if (n == 0) return false;

  // Forward and reverse adjacency (state indices), edges with prob > 0.
  std::vector<std::vector<int>> fwd(n), rev(n);
  for (const Edge& e : stg.edges()) {
    if (e.prob <= 0.0) continue;
    fwd[static_cast<size_t>(e.from)].push_back(e.to);
    rev[static_cast<size_t>(e.to)].push_back(e.from);
  }

  // Pass 1: iterative DFS post-order over the forward graph.
  std::vector<int> order;
  order.reserve(n);
  std::vector<char> seen(n, 0);
  std::vector<std::pair<int, size_t>> stack;  // (state, next child index)
  for (size_t root = 0; root < n; ++root) {
    if (seen[root]) continue;
    seen[root] = 1;
    stack.emplace_back(static_cast<int>(root), 0);
    while (!stack.empty()) {
      auto& [s, next] = stack.back();
      const auto& succ = fwd[static_cast<size_t>(s)];
      if (next < succ.size()) {
        const int t = succ[next++];
        if (!seen[static_cast<size_t>(t)]) {
          seen[static_cast<size_t>(t)] = 1;
          stack.emplace_back(t, 0);
        }
      } else {
        order.push_back(s);
        stack.pop_back();
      }
    }
  }

  // Pass 2: sweep reverse post-order over the reverse graph; each sweep
  // labels one SCC.
  std::vector<int> comp(n, -1);
  int num_comps = 0;
  std::vector<int> dfs;
  for (size_t i = n; i-- > 0;) {
    const int root = order[i];
    if (comp[static_cast<size_t>(root)] != -1) continue;
    const int c = num_comps++;
    comp[static_cast<size_t>(root)] = c;
    dfs.assign(1, root);
    while (!dfs.empty()) {
      const int s = dfs.back();
      dfs.pop_back();
      for (int t : rev[static_cast<size_t>(s)]) {
        if (comp[static_cast<size_t>(t)] == -1) {
          comp[static_cast<size_t>(t)] = c;
          dfs.push_back(t);
        }
      }
    }
  }

  // A class is closed when no edge leaves it for another class.
  std::vector<char> closed(static_cast<size_t>(num_comps), 1);
  for (const Edge& e : stg.edges()) {
    if (e.prob <= 0.0) continue;
    const int cf = comp[static_cast<size_t>(e.from)];
    if (cf != comp[static_cast<size_t>(e.to)])
      closed[static_cast<size_t>(cf)] = 0;
  }
  int num_closed = 0;
  for (char c : closed) num_closed += c;
  return num_closed == 1;
}

}  // namespace

/// Dense direct solve of pi P = pi, sum pi = 1: build A = P^T - I (n x n),
/// replace the last row with all-ones (normalization), Gaussian
/// elimination with partial pivoting. Exact, O(n^3).
std::vector<double> dense_probabilities(const Stg& stg) {
  const size_t n = stg.num_states();
  std::vector<std::vector<double>> a(n, std::vector<double>(n + 1, 0.0));
  for (const Edge& e : stg.edges())
    a[static_cast<size_t>(e.to)][static_cast<size_t>(e.from)] += e.prob;
  for (size_t i = 0; i < n; ++i) a[i][i] -= 1.0;
  for (size_t j = 0; j < n; ++j) a[n - 1][j] = 1.0;
  a[n - 1][n] = 1.0;

  for (size_t col = 0; col < n; ++col) {
    size_t pivot = col;
    for (size_t r = col + 1; r < n; ++r)
      if (std::fabs(a[r][col]) > std::fabs(a[pivot][col])) pivot = r;
    if (std::fabs(a[pivot][col]) < 1e-14) throw Error(kSingular);
    std::swap(a[col], a[pivot]);
    for (size_t r = 0; r < n; ++r) {
      if (r == col) continue;
      const double f = a[r][col] / a[col][col];
      if (f == 0.0) continue;
      for (size_t c = col; c <= n; ++c) a[r][c] -= f * a[col][c];
    }
  }
  std::vector<double> pi(n);
  for (size_t i = 0; i < n; ++i) {
    pi[i] = a[i][n] / a[i][i];
    if (pi[i] < 0.0 && pi[i] > -1e-9) pi[i] = 0.0;
  }
  return pi;
}

/// Sparse Gauss-Seidel solve over the incoming-edge CSR adjacency.
/// Update rule per state j, sweeping in state-index order with immediate
/// reuse of updated values:
///   pi[j] = (sum over incoming edges i->j, i != j, of pi[i] * p_ij)
///           / (1 - p_jj)
/// then normalize to sum 1 after every sweep. States are created by the
/// scheduler in control-flow order, so forward probability mass propagates
/// through an entire chain in a single sweep and each loop back-edge costs
/// roughly one extra sweep — typical STGs converge in a handful of sweeps.
/// Returns an empty vector when the sweep cap is exceeded (the policy
/// falls back to the dense solver).
std::vector<double> sparse_probabilities(const Stg& stg) {
  // Gauss-Seidel cannot observe non-ergodicity as a vanishing pivot, so
  // check the structural condition explicitly and keep the error contract
  // identical to the dense solver's.
  if (!has_unique_closed_class(stg)) throw Error(kSingular);
  const size_t n = stg.num_states();

  // CSR incoming adjacency: for each state j, the (source, prob) pairs of
  // its incoming edges (self-loops held separately for the denominator).
  // Built by counting sort over the edge table, so the within-row order is
  // the deterministic edge-insertion order.
  std::vector<size_t> row(n + 1, 0);
  std::vector<double> self(n, 0.0);
  size_t in_edges = 0;
  for (const Edge& e : stg.edges()) {
    if (e.prob <= 0.0) continue;
    if (e.from == e.to) {
      self[static_cast<size_t>(e.to)] += e.prob;
    } else {
      row[static_cast<size_t>(e.to) + 1]++;
      ++in_edges;
    }
  }
  for (size_t j = 0; j < n; ++j) row[j + 1] += row[j];
  std::vector<int> src(in_edges);
  std::vector<double> prob(in_edges);
  {
    std::vector<size_t> fill(row.begin(), row.end() - 1);
    for (const Edge& e : stg.edges()) {
      if (e.prob <= 0.0 || e.from == e.to) continue;
      const size_t slot = fill[static_cast<size_t>(e.to)]++;
      src[slot] = e.from;
      prob[slot] = e.prob;
    }
  }

  obs::Counter& sweeps = MarkovCounters::get().sweeps;
  std::vector<double> pi(n, 1.0 / static_cast<double>(n));
  std::vector<double> prev(n);
  for (int sweep = 0; sweep < kMaxSweeps; ++sweep) {
    prev = pi;
    sweeps.inc();
    for (size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (size_t k = row[j]; k < row[j + 1]; ++k)
        acc += pi[static_cast<size_t>(src[k])] * prob[k];
      const double denom = 1.0 - self[j];
      // denom ~ 0 means an absorbing state; the closed-class check
      // rejects every such chain before we get here (n > 1), so this
      // guard only protects against pathological float dust.
      pi[j] = denom > 1e-12 ? acc / denom : acc;
    }
    double sum = 0.0;
    for (double v : pi) sum += v;
    if (!(sum > 0.0)) return {};  // mass vanished; let dense decide
    const double inv = 1.0 / sum;
    for (double& v : pi) v *= inv;
    double dist = 0.0;
    for (size_t j = 0; j < n; ++j) dist += std::fabs(pi[j] - prev[j]);
    if (dist < kTolerance) {
      for (double& v : pi)
        if (v < 0.0 && v > -1e-9) v = 0.0;
      return pi;
    }
  }
  return {};
}

std::vector<double> state_probabilities(const Stg& stg) {
  MarkovCounters& mc = MarkovCounters::get();
  mc.solves.inc();
  if (stg.num_states() <= kDenseCutoff) return dense_probabilities(stg);
  std::vector<double> pi = sparse_probabilities(stg);
  if (pi.empty()) {
    mc.fallbacks.inc();
    return dense_probabilities(stg);
  }
  mc.sparse.inc();
  return pi;
}

double average_schedule_length(const Stg& stg) {
  return average_schedule_length(stg, state_probabilities(stg));
}

double average_schedule_length(const Stg& stg, const std::vector<double>& pi) {
  double boundary_rate = 0.0;
  for (const Edge& e : stg.edges())
    if (e.exec_boundary)
      boundary_rate += pi[static_cast<size_t>(e.from)] * e.prob;
  if (boundary_rate <= 0.0)
    throw Error("average_schedule_length: no reachable execution boundary");
  return 1.0 / boundary_rate;
}

std::vector<double> edge_frequencies(const Stg& stg) {
  const std::vector<double> pi = state_probabilities(stg);
  std::vector<double> freq;
  freq.reserve(stg.num_edges());
  for (const Edge& e : stg.edges())
    freq.push_back(pi[static_cast<size_t>(e.from)] * e.prob);
  return freq;
}

}  // namespace fact::stg
