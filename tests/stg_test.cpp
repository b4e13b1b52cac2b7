#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <random>

#include "opt/fact.hpp"
#include "sched/scheduler.hpp"
#include "sim/trace.hpp"
#include "stg/stg.hpp"
#include "test_util.hpp"
#include "util/error.hpp"
#include "workloads/workloads.hpp"

namespace fact::stg {
namespace {

/// Two-state loop: S0 -> S1 (always), S1 -> S1 with prob p (loop), S1 -> S0
/// with prob 1-p (exec boundary).
Stg simple_loop(double p) {
  Stg stg;
  const int s0 = stg.add_state("S0");
  const int s1 = stg.add_state("S1");
  stg.add_edge(s0, s1, 1.0);
  stg.add_edge(s1, s1, p, "loop");
  stg.add_edge(s1, s0, 1.0 - p, "exit", /*exec_boundary=*/true);
  stg.set_entry(s0);
  return stg;
}

TEST(Stg, ValidatePassesOnWellFormed) {
  EXPECT_NO_THROW(simple_loop(0.5).validate());
}

TEST(Stg, ValidateCatchesBadProbabilitySum) {
  Stg stg;
  const int s0 = stg.add_state("");
  stg.add_edge(s0, s0, 0.7, "", true);
  EXPECT_THROW(stg.validate(), Error);
}

TEST(Stg, ValidateCatchesDeadEnd) {
  Stg stg;
  const int s0 = stg.add_state("");
  const int s1 = stg.add_state("");
  stg.add_edge(s0, s1, 1.0, "", true);
  EXPECT_THROW(stg.validate(), Error);  // s1 has no outgoing edge
}

TEST(Stg, ValidateCatchesUnreachable) {
  Stg stg;
  const int s0 = stg.add_state("");
  const int s1 = stg.add_state("");
  stg.add_edge(s0, s0, 1.0, "", true);
  stg.add_edge(s1, s0, 1.0);
  EXPECT_THROW(stg.validate(), Error);  // s1 unreachable
}

TEST(Stg, ValidateRequiresBoundary) {
  Stg stg;
  const int s0 = stg.add_state("");
  stg.add_edge(s0, s0, 1.0);
  EXPECT_THROW(stg.validate(), Error);
}

TEST(Stg, AddEdgeRangeChecked) {
  Stg stg;
  stg.add_state("");
  EXPECT_THROW(stg.add_edge(0, 5, 1.0), Error);
}

TEST(Markov, UniformCycleProbabilities) {
  // Deterministic 3-cycle: pi = 1/3 each; the linear solve must handle
  // this periodic chain (power iteration would not converge).
  Stg stg;
  const int a = stg.add_state("");
  const int b = stg.add_state("");
  const int c = stg.add_state("");
  stg.add_edge(a, b, 1.0);
  stg.add_edge(b, c, 1.0);
  stg.add_edge(c, a, 1.0, "", true);
  stg.validate();
  const auto pi = state_probabilities(stg);
  EXPECT_NEAR(pi[0], 1.0 / 3, 1e-12);
  EXPECT_NEAR(pi[1], 1.0 / 3, 1e-12);
  EXPECT_NEAR(pi[2], 1.0 / 3, 1e-12);
  EXPECT_NEAR(average_schedule_length(stg), 3.0, 1e-9);
}

TEST(Markov, GeometricLoopLength) {
  // Loop closing with p: expected iterations p/(1-p); schedule length =
  // 1 (S0) + expected stays in S1 = 1 + 1/(1-p).
  for (double p : {0.5, 0.9, 0.98}) {
    const Stg stg = simple_loop(p);
    const double len = average_schedule_length(stg);
    EXPECT_NEAR(len, 1.0 + 1.0 / (1.0 - p), 1e-9) << p;
  }
}

TEST(Markov, BranchWeightedLengths) {
  // Entry forks to a 1-state path (prob 0.75) or a 2-state path (0.25):
  // E[len] = 1 + 0.75*1 + 0.25*2 = 2.25.
  Stg stg;
  const int s0 = stg.add_state("");
  const int fast = stg.add_state("");
  const int slow1 = stg.add_state("");
  const int slow2 = stg.add_state("");
  stg.add_edge(s0, fast, 0.75);
  stg.add_edge(s0, slow1, 0.25);
  stg.add_edge(slow1, slow2, 1.0);
  stg.add_edge(fast, s0, 1.0, "", true);
  stg.add_edge(slow2, s0, 1.0, "", true);
  stg.validate();
  EXPECT_NEAR(average_schedule_length(stg), 2.25, 1e-9);
}

TEST(Markov, EdgeFrequenciesSumToOnePerStateVisit) {
  const Stg stg = simple_loop(0.9);
  const auto freq = edge_frequencies(stg);
  // Total edge traversal frequency equals 1 (one edge taken per cycle).
  double total = 0.0;
  for (double f : freq) total += f;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Markov, ProbabilitiesFormDistribution) {
  const Stg stg = simple_loop(0.7);
  const auto pi = state_probabilities(stg);
  double total = 0.0;
  for (double p : pi) {
    EXPECT_GE(p, 0.0);
    total += p;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

/// Random ergodic chain: a Hamiltonian ring (guarantees one closed
/// communicating class covering every state) plus extra random edges,
/// outgoing probabilities normalized per state. The ring-closing edge is
/// the execution boundary.
Stg random_ergodic(size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> weight(0.1, 1.0);
  std::uniform_int_distribution<size_t> pick(0, n - 1);
  std::uniform_int_distribution<int> fanout(0, 3);
  Stg stg;
  for (size_t i = 0; i < n; ++i) stg.add_state("");
  for (size_t i = 0; i < n; ++i) {
    std::map<size_t, double> out;
    out[(i + 1) % n] = weight(rng);
    const int extra = fanout(rng);
    for (int k = 0; k < extra; ++k) out[pick(rng)] += weight(rng);
    double total = 0.0;
    for (const auto& [to, p] : out) total += p;
    for (const auto& [to, p] : out)
      stg.add_edge(static_cast<int>(i), static_cast<int>(to), p / total, "",
                   /*exec_boundary=*/i == n - 1 && to == 0);
  }
  stg.set_entry(0);
  return stg;
}

/// The initial STG of each Table 2 workload: its input behavior scheduled
/// under its allocation and profiled over the trace run_fact generates.
std::vector<std::pair<std::string, Stg>> table2_initial_stgs() {
  const auto lib = hlslib::Library::dac98();
  const auto sel = hlslib::FuSelection::defaults(lib);
  const opt::FactOptions defaults;
  std::vector<std::pair<std::string, Stg>> out;
  for (const auto& w : workloads::table2_benchmarks()) {
    sim::TraceConfig tc = w.trace;
    if (tc.executions == 0) tc.executions = defaults.trace_executions;
    const sim::Trace trace = sim::generate_trace(w.fn, tc, defaults.seed);
    const sched::Scheduler scheduler(lib, w.allocation, sel, defaults.sched);
    out.emplace_back(
        w.name,
        scheduler.schedule(w.fn, sim::profile_function(w.fn, trace)).stg);
  }
  return out;
}

TEST(Markov, SparseMatchesDenseOnRandomErgodicChains) {
  // 64 states is above the dense cutoff — the production sparse path. The
  // Table 2 workloads' initial STGs are real scheduler output.
  std::vector<std::pair<std::string, Stg>> chains;
  for (uint64_t seed : {11u, 42u, 271u, 828u})
    chains.emplace_back("seed " + std::to_string(seed),
                        random_ergodic(64, seed));
  const auto table2 = table2_initial_stgs();
  ASSERT_EQ(table2.size(), 6u);
  chains.insert(chains.end(), table2.begin(), table2.end());
  for (const auto& [name, stg] : chains) {
    stg.validate();
    const CounterDelta sweeps("fact_markov_sweeps_total");
    const auto pd = dense_probabilities(stg);
    const auto ps = sparse_probabilities(stg);
    EXPECT_GT(sweeps(), 0u) << name;
    ASSERT_EQ(pd.size(), ps.size()) << name;  // sparse converged
    for (size_t i = 0; i < pd.size(); ++i)
      EXPECT_NEAR(pd[i], ps[i], 1e-9) << name << " state " << i;
  }
}

TEST(Markov, SingularChainThrowsWhicheverSolver) {
  // Two disjoint closed classes: no unique stationary distribution. The
  // sparse path must report the same error as the dense one.
  Stg stg;
  const int s0 = stg.add_state("");
  const int s1 = stg.add_state("");
  const int s2 = stg.add_state("");
  stg.add_edge(s0, s1, 0.5);
  stg.add_edge(s0, s2, 0.5);
  stg.add_edge(s1, s1, 1.0, "", true);
  stg.add_edge(s2, s2, 1.0, "", true);
  stg.set_entry(s0);
  for (auto solve : {dense_probabilities, sparse_probabilities}) {
    try {
      solve(stg);
      FAIL() << "expected singular-chain error";
    } catch (const Error& e) {
      EXPECT_STREQ(e.what(),
                   "state_probabilities: singular chain (STG not ergodic)");
    }
  }
}

TEST(Markov, AutoRespectsDenseCutoff) {
  // Chains of at most 48 states are solved densely, larger ones sparsely.
  for (size_t n : {8u, 48u, 49u, 64u}) {
    const Stg stg = random_ergodic(n, 7);
    const CounterDelta solves("fact_markov_solves_total");
    const CounterDelta sparse("fact_markov_sparse_solves_total");
    const CounterDelta sweeps("fact_markov_sweeps_total");
    const auto pi = state_probabilities(stg);
    EXPECT_EQ(solves(), 1u) << n;
    EXPECT_EQ(sparse(), n > 48 ? 1u : 0u) << n;
    EXPECT_EQ(sweeps() > 0, n > 48) << n;
    EXPECT_EQ(pi, n > 48 ? sparse_probabilities(stg) : dense_probabilities(stg))
        << n;
  }
}

/// Two rings of 30 and 40 states joined by rare transitions: a nearly
/// decomposable chain whose between-ring mass Gauss-Seidel moves only a
/// little per sweep, so it cannot converge within the sweep cap.
Stg weakly_coupled_rings() {
  constexpr int kA = 30, kB = 40;
  constexpr double kLeak = 1e-3;
  Stg stg;
  for (int i = 0; i < kA + kB; ++i) stg.add_state("");
  for (int i = 0; i < kA; ++i) {
    const int next = (i + 1) % kA;
    if (i == 0) {
      stg.add_edge(i, next, 1.0 - kLeak);
      stg.add_edge(i, kA, kLeak);
    } else {
      stg.add_edge(i, next, 1.0, "", /*exec_boundary=*/next == 0);
    }
  }
  for (int j = 0; j < kB; ++j) {
    const int next = kA + (j + 1) % kB;
    if (j == 0) {
      stg.add_edge(kA, next, 1.0 - 2 * kLeak);
      stg.add_edge(kA, 0, 2 * kLeak);
    } else {
      stg.add_edge(kA + j, next, 1.0);
    }
  }
  stg.set_entry(0);
  return stg;
}

TEST(Markov, SparseFallsBackToDenseWhenSweepsExhausted) {
  const Stg stg = weakly_coupled_rings();
  stg.validate();
  const CounterDelta sweeps("fact_markov_sweeps_total");
  EXPECT_TRUE(sparse_probabilities(stg).empty());
  EXPECT_EQ(sweeps(), 512u);

  const CounterDelta sparse("fact_markov_sparse_solves_total");
  const CounterDelta fallbacks("fact_markov_dense_fallbacks_total");
  const auto pi = state_probabilities(stg);
  EXPECT_EQ(fallbacks(), 1u);
  EXPECT_EQ(sparse(), 0u);
  // The fallback result is the dense solution itself.
  const auto pd = dense_probabilities(stg);
  ASSERT_EQ(pd.size(), pi.size());
  for (size_t i = 0; i < pd.size(); ++i) EXPECT_DOUBLE_EQ(pd[i], pi[i]);
}

TEST(Stg, DotContainsStatesAndProbabilities) {
  Stg stg = simple_loop(0.25);
  {
    fact::stg::OpInstance op_inst;
    op_inst.fu_type = "a1";
    op_inst.op = ir::Op::Add;
    op_inst.stmt_id = 3;
    op_inst.iteration = 1;
    op_inst.def_var = "a";  // rendered "a=+"
    stg.state(1).ops.push_back(std::move(op_inst));
  }
  const std::string dot = stg.dot("g");
  EXPECT_NE(dot.find("S0"), std::string::npos);
  EXPECT_NE(dot.find("a=+_1"), std::string::npos);
  EXPECT_NE(dot.find("(0.25)"), std::string::npos);
  EXPECT_NE(dot.find("style=bold"), std::string::npos);  // boundary edge
}

}  // namespace
}  // namespace fact::stg
