#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <random>

#include "opt/fact.hpp"
#include "program_gen.hpp"
#include "sched/scheduler.hpp"
#include "sim/trace.hpp"
#include "stg/stg.hpp"
#include "util/error.hpp"
#include "verify/verify.hpp"
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

// ---- structure checks ---------------------------------------------------
//
// One table of STGs, sound and malformed. Stg::validate, Chain::validate
// (on Chain::of) and verify_stg run one implementation of the structural
// checks (structure_issues), so every case gets the same verdict from all
// three, except that a chain has no out-edge lists to corrupt. The named
// tests below each run their rows of the table.

/// The two-state loop with its steering signal on S1, so that verify_stg's
/// determinism check passes too.
Stg steered_loop() {
  Stg stg = simple_loop(0.5);
  stg.state(1).cond_signal = "w0";
  return stg;
}

/// S0 branches to S1 (0.7) or back to itself (0.3) on w0; S1 returns to
/// S0 across the exec boundary.
Stg branch() {
  Stg g;
  const int s0 = g.add_state("S0");
  const int s1 = g.add_state("S1");
  g.add_edge(s0, s1, 0.7, "T");
  g.add_edge(s0, s0, 0.3, "F");
  g.state(s0).cond_signal = "w0";
  g.add_edge(s1, s0, 1.0, "", /*exec_boundary=*/true);
  g.set_entry(s0);
  return g;
}

struct StructureCase {
  const char* name;
  const char* check;  // verify_stg's first issue; nullptr: sound
  bool in_chain;      // the defect survives Chain::of
  Stg (*build)();
};

const StructureCase kStructureCases[] = {
    {"sound loop", nullptr, true, steered_loop},
    {"sound branch", nullptr, true, branch},
    {"no states", "stg.empty", true, [] { return Stg(); }},
    {"entry past the end", "stg.entry", true,
     [] {
       Stg g = steered_loop();
       g.set_entry(2);
       return g;
     }},
    {"entry before the start", "stg.entry", true,
     [] {
       Stg g = steered_loop();
       g.set_entry(-1);
       return g;
     }},
    {"dangling edge", "stg.edges", true,
     [] {
       // add_edge refuses a dangling edge; a mutated edge reaches the check.
       Stg g = steered_loop();
       g.edge(0).to = 7;
       return g;
     }},
    {"out-edge list names no edge", "stg.edges", false,
     [] {
       Stg g = branch();
       g.state(1).out_edges.push_back(99);
       return g;
     }},
    {"out-edge list names a foreign edge", "stg.edges", false,
     [] {
       Stg g = branch();
       g.state(1).out_edges.push_back(0);  // edge 0 leaves S0, not S1
       return g;
     }},
    {"dead end", "stg.edges", true,
     [] {
       Stg g;
       g.add_state("");
       g.add_state("");
       g.add_edge(0, 1, 1.0, "", true);  // S1 has no outgoing edge
       return g;
     }},
    {"self-loop probability 0.7", "stg.prob", true,
     [] {
       Stg g;
       g.add_edge(g.add_state(""), 0, 0.7, "", true);
       return g;
     }},
    {"branch probabilities sum to 0.8", "stg.prob", true,
     [] {
       Stg g = branch();
       g.edge(0).prob = 0.5;
       return g;
     }},
    {"probabilities out of [0,1]", "stg.prob", true,
     [] {
       Stg g = branch();
       g.edge(0).prob = 1.4;
       g.edge(1).prob = -0.4;
       return g;
     }},
    {"self-loop without boundary", "stg.boundary", true,
     [] {
       Stg g;
       g.add_edge(g.add_state(""), 0, 1.0);
       return g;
     }},
    {"branch without boundary", "stg.boundary", true,
     [] {
       Stg g = branch();
       for (size_t i = 0; i < g.num_edges(); ++i)
         g.edge(static_cast<int>(i)).exec_boundary = false;
       return g;
     }},
    {"unreachable state", "stg.reachable", true,
     [] {
       Stg g;
       g.add_state("");
       g.add_state("");
       g.add_edge(0, 0, 1.0, "", true);
       g.add_edge(1, 0, 1.0);  // nothing enters S1
       return g;
     }},
    {"orphan self-loop", "stg.reachable", true,
     [] {
       Stg g = branch();
       const int orphan = g.add_state("orphan");
       g.add_edge(orphan, orphan, 1.0);
       return g;
     }},
};

/// Runs the table's case `name` through the three checks.
void expect_case(std::string_view name) {
  const auto it = std::find_if(
      std::begin(kStructureCases), std::end(kStructureCases),
      [name](const StructureCase& c) { return c.name == name; });
  ASSERT_NE(it, std::end(kStructureCases)) << name;
  SCOPED_TRACE(it->name);
  const Stg stg = it->build();
  const verify::Report report = verify::verify_stg(stg);
  if (!it->check) {
    EXPECT_TRUE(report.ok()) << report.str();
    EXPECT_NO_THROW(stg.validate());
    EXPECT_NO_THROW(Chain::of(stg).validate());
    return;
  }
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.first_check(), it->check) << report.str();
  try {
    stg.validate();
    ADD_FAILURE() << "Stg::validate accepted it";
  } catch (const Error& e) {
    EXPECT_EQ(e.what(), report.issues.front().detail);
  }
  if (it->in_chain)
    EXPECT_THROW(Chain::of(stg).validate(), Error);
  else
    EXPECT_NO_THROW(Chain::of(stg).validate());
}

TEST(Stg, ValidatePassesOnWellFormed) {
  EXPECT_NO_THROW(simple_loop(0.5).validate());
  expect_case("sound loop");
}

TEST(Stg, ValidateCatchesBadProbabilitySum) {
  expect_case("self-loop probability 0.7");
}

TEST(Stg, ValidateCatchesDeadEnd) { expect_case("dead end"); }

TEST(Stg, ValidateCatchesUnreachable) { expect_case("unreachable state"); }

TEST(Stg, ValidateRequiresBoundary) { expect_case("self-loop without boundary"); }

TEST(Stg, AddEdgeRangeChecked) {
  Stg stg;
  stg.add_state("");
  EXPECT_THROW(stg.add_edge(0, 5, 1.0), Error);
}

TEST(Chain, ValidatePassesOnWellFormed) {
  Chain c;
  const int s0 = c.add_state();
  const int s1 = c.add_state();
  c.add_edge(s0, s1, 1.0);
  c.add_edge(s1, s1, 0.5);
  c.add_edge(s1, s0, 0.5, /*exec_boundary=*/true);
  EXPECT_NO_THROW(c.validate());
  expect_case("sound loop");
}

TEST(Chain, ValidateCatchesBadProbabilitySum) {
  expect_case("self-loop probability 0.7");
}

TEST(Chain, ValidateCatchesDeadEnd) { expect_case("dead end"); }

TEST(Chain, ValidateCatchesUnreachable) { expect_case("unreachable state"); }

TEST(Chain, ValidateRequiresBoundary) {
  expect_case("self-loop without boundary");
}

TEST(Chain, ValidateCatchesEmptyAndBadEntry) {
  expect_case("no states");
  expect_case("entry past the end");
  expect_case("entry before the start");
}

TEST(Chain, ValidateCatchesDanglingEdge) { expect_case("dangling edge"); }

TEST(Chain, AddEdgeRangeChecked) {
  Chain c;
  c.add_state();
  EXPECT_THROW(c.add_edge(0, 5, 1.0), Error);
  EXPECT_THROW(c.add_edge(-1, 0, 1.0), Error);
}

TEST(Chain, ErrorsNameStgStates) {
  Stg stg;
  stg.add_state("head");
  stg.add_state("tail");
  stg.add_edge(0, 1, 1.0, "", true);
  try {
    stg.validate();
    FAIL() << "dead end accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("'tail'"), std::string::npos)
        << e.what();
  }
}

TEST(VerifyStg, CleanStgPasses) { expect_case("sound branch"); }

TEST(VerifyStg, BadProbabilitySumFlagged) {
  expect_case("branch probabilities sum to 0.8");
}

TEST(VerifyStg, OutOfRangeProbabilityFlagged) {
  expect_case("probabilities out of [0,1]");
}

TEST(VerifyStg, UnreachableStateFlagged) { expect_case("orphan self-loop"); }

TEST(VerifyStg, MissingBoundaryFlagged) {
  expect_case("branch without boundary");
}

TEST(VerifyStg, CorruptOutEdgeListFlagged) {
  expect_case("out-edge list names no edge");
  expect_case("out-edge list names a foreign edge");
}

TEST(VerifyStg, MissingCondSignalFlagged) {
  // The one check beyond the structure's: a sound STG whose branching
  // state has no steering signal.
  Stg g = branch();
  g.state(0).cond_signal.clear();
  EXPECT_NO_THROW(g.validate());
  const verify::Report report = verify::verify_stg(g);
  ASSERT_EQ(report.issues.size(), 1u) << report.str();
  EXPECT_EQ(report.first_check(), "stg.deterministic");
  EXPECT_EQ(verify::verify_steering(g).str(), report.str());
}

TEST(VerifyStg, SteeringLeavesTheStructureToValidate) {
  // verify_steering serves STGs that Stg::validate already passed, so it
  // reports none of the table's structural defects.
  for (const StructureCase& c : kStructureCases) {
    SCOPED_TRACE(c.name);
    for (const verify::Issue& i : verify::verify_steering(c.build()).issues)
      EXPECT_EQ(i.check, "stg.deterministic") << i.detail;
  }
}

TEST(Chain, OfCountsOpsPerFuAndRegisterTraffic) {
  Stg stg = simple_loop(0.5);
  for (const char* fu : {"a1", "mt1", "a1", ""}) {
    OpInstance op;
    op.fu_type = fu;
    stg.state(1).ops.push_back(op);
  }
  stg.state(1).reg_reads = 3;
  stg.state(1).reg_writes = 1;
  const Chain c = Chain::of(stg);
  ASSERT_EQ(c.num_states(), 2u);
  EXPECT_TRUE(c.states().ops(0).empty());
  ASSERT_EQ(c.fus.size(), 2u);
  std::map<std::string_view, int> counts;
  for (const FuCount& fc : c.states().ops(1))
    counts[c.fus[static_cast<size_t>(fc.fu)]] += fc.count;
  EXPECT_EQ(counts, (std::map<std::string_view, int>{{"a1", 2}, {"mt1", 1}}));
  EXPECT_EQ(c.states().reg_traffic(1), 4);
  ASSERT_EQ(c.edges().size(), 3u);
  EXPECT_TRUE(c.edges()[2].exec_boundary);
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

TEST(Markov, ProbabilitiesFormDistribution) {
  const Stg stg = simple_loop(0.7);
  const auto pi = state_probabilities(stg);
  double total = 0.0;
  for (double p : pi) {
    EXPECT_GE(p, 0.0);
    total += p;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
  // Edge traversal frequencies pi[from] * prob sum to 1 as well: one edge
  // is taken per cycle.
  double edge_total = 0.0;
  for (const Edge& e : stg.edges())
    edge_total += pi[static_cast<size_t>(e.from)] * e.prob;
  EXPECT_NEAR(edge_total, 1.0, 1e-9);
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

TEST(Markov, SingularChainThrows) {
  // Two disjoint closed classes: no unique stationary distribution. The
  // empty chain has no closed class at all.
  Stg two_classes;
  const int s0 = two_classes.add_state("");
  const int s1 = two_classes.add_state("");
  const int s2 = two_classes.add_state("");
  two_classes.add_edge(s0, s1, 0.5);
  two_classes.add_edge(s0, s2, 0.5);
  two_classes.add_edge(s1, s1, 1.0, "", true);
  two_classes.add_edge(s2, s2, 1.0, "", true);
  two_classes.set_entry(s0);
  for (const Stg& stg : {two_classes, Stg{}}) {
    try {
      state_probabilities(stg);
      FAIL() << "expected singular-chain error";
    } catch (const Error& e) {
      EXPECT_STREQ(e.what(),
                   "state_probabilities: singular chain (STG not ergodic)");
    }
  }
}

/// Two rings of 30 and 40 states joined by rare transitions: a nearly
/// decomposable chain, on which an iterative solver moves the
/// between-ring mass only a little per sweep (Gauss-Seidel needs more
/// than 512 sweeps to reach 1e-12).
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

/// A transient prologue (states 0-3, with a branch and a self-loop) that
/// leads into a closed loop (states 4-9, with an inner back edge) the
/// chain never leaves.
Stg prologue_into_loop() {
  Stg stg;
  for (int i = 0; i < 10; ++i) stg.add_state("");
  stg.add_edge(0, 1, 0.5);
  stg.add_edge(0, 2, 0.5);
  stg.add_edge(1, 1, 0.3);
  stg.add_edge(1, 2, 0.7);
  stg.add_edge(2, 3, 1.0);
  stg.add_edge(3, 4, 1.0);
  for (int i = 4; i < 9; ++i) {
    if (i == 7) {
      stg.add_edge(7, 5, 0.4);
      stg.add_edge(7, 8, 0.6);
    } else {
      stg.add_edge(i, i + 1, 1.0);
    }
  }
  stg.add_edge(9, 4, 1.0, "", /*exec_boundary=*/true);
  stg.set_entry(0);
  return stg;
}

/// The reference stationary distribution: (P^T - I) pi = 0 with the last
/// equation replaced by sum(pi) = 1, solved by Gaussian elimination with
/// partial pivoting in long double. With one closed class the system is
/// nonsingular and transient states solve to 0.
std::vector<double> reference_probabilities(const Stg& stg) {
  const size_t n = stg.num_states();
  std::vector<std::vector<long double>> a(
      n, std::vector<long double>(n + 1, 0.0L));
  for (const Edge& e : stg.edges())
    a[static_cast<size_t>(e.to)][static_cast<size_t>(e.from)] += e.prob;
  for (size_t i = 0; i < n; ++i) a[i][i] -= 1.0L;
  for (long double& v : a[n - 1]) v = 1.0L;
  for (size_t col = 0; col < n; ++col) {
    size_t pivot = col;
    for (size_t r = col + 1; r < n; ++r)
      if (std::fabs(a[r][col]) > std::fabs(a[pivot][col])) pivot = r;
    std::swap(a[col], a[pivot]);
    for (size_t r = col + 1; r < n; ++r) {
      const long double f = a[r][col] / a[col][col];
      if (f == 0.0L) continue;
      for (size_t c = col; c <= n; ++c) a[r][c] -= f * a[col][c];
    }
  }
  std::vector<long double> x(n);
  for (size_t i = n; i-- > 0;) {
    long double v = a[i][n];
    for (size_t c = i + 1; c < n; ++c) v -= a[i][c] * x[c];
    x[i] = v / a[i][i];
  }
  return {x.begin(), x.end()};
}

/// The initial STG of a generated large program (the shape of fact-bench's
/// large draw): scheduled under two of each FU type and profiled over
/// run_fact's default trace, not optimized.
Stg generated_initial_stg(uint64_t seed) {
  const auto lib = hlslib::Library::dac98();
  const opt::FactOptions defaults;
  const ir::Function fn =
      testgen::random_program(seed, testgen::GenOptions{14, 3, 3, 8});
  sim::TraceConfig tc;
  tc.executions = defaults.trace_executions;
  const sim::Trace trace = sim::generate_trace(fn, tc, defaults.seed);
  const sched::Scheduler scheduler(lib, hlslib::parse_allocation("", lib),
                                   hlslib::FuSelection::defaults(lib),
                                   defaults.sched);
  return scheduler.schedule(fn, sim::profile_function(fn, trace)).stg;
}

TEST(Markov, MatchesLongDoubleReference) {
  std::vector<std::pair<std::string, Stg>> chains;
  for (size_t n : {8u, 48u, 49u, 64u, 200u})
    for (uint64_t seed : {7u, 42u})
      chains.emplace_back(
          std::to_string(n) + " states, seed " + std::to_string(seed),
          random_ergodic(n, seed));
  chains.emplace_back("weakly coupled rings", weakly_coupled_rings());
  chains.emplace_back("prologue into loop", prologue_into_loop());
  const auto table2 = table2_initial_stgs();
  ASSERT_EQ(table2.size(), 6u);
  chains.insert(chains.end(), table2.begin(), table2.end());
  for (uint64_t seed = 1014; seed <= 1020; ++seed)
    chains.emplace_back("generated " + std::to_string(seed),
                        generated_initial_stg(seed));

  for (const auto& [name, stg] : chains) {
    stg.validate();
    const auto pi = state_probabilities(stg);
    const auto ref = reference_probabilities(stg);
    ASSERT_EQ(pi.size(), ref.size()) << name;
    double max_diff = 0.0;
    for (size_t i = 0; i < pi.size(); ++i)
      max_diff = std::max(max_diff, std::fabs(pi[i] - ref[i]));
    EXPECT_LE(max_diff, 1e-12) << name << " (" << pi.size() << " states)";
  }

  // The prologue is transient: exactly 0, not merely small.
  const auto pi = state_probabilities(prologue_into_loop());
  for (size_t s = 0; s < 4; ++s) EXPECT_EQ(pi[s], 0.0) << "state " << s;
  for (size_t s = 4; s < 10; ++s) EXPECT_GT(pi[s], 0.0) << "state " << s;
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
