// End-to-end tests of the factc command-line driver, and of factd's
// argument checks (the binary paths are injected by CMake as FACTC_PATH and
// FACTD_PATH).

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>

#include "serve/json.hpp"

namespace {

struct CliResult {
  int exit_code = -1;
  std::string output;
};

CliResult run_tool(const char* path, const std::string& args) {
  const std::string cmd = std::string(path) + " " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  CliResult r;
  if (!pipe) return r;
  char buf[512];
  while (fgets(buf, sizeof(buf), pipe)) r.output += buf;
  r.exit_code = WEXITSTATUS(pclose(pipe));
  return r;
}

CliResult run_cli(const std::string& args) { return run_tool(FACTC_PATH, args); }

TEST(Cli, BenchmarkAllMethods) {
  const CliResult r = run_cli("--benchmark GCD --method all --quiet");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("M1"), std::string::npos);
  EXPECT_NE(r.output.find("Flamel"), std::string::npos);
  EXPECT_NE(r.output.find("FACT"), std::string::npos);
  EXPECT_NE(r.output.find("avg length"), std::string::npos);
}

TEST(Cli, PowerObjectiveReportsVdd) {
  const CliResult r = run_cli("--benchmark PPS --objective power");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("scaled Vdd"), std::string::npos);
}

// Power is energy per unit time, so the power model must run on the
// scheduler's clock. GCD's M1 schedule takes the same 39.88 cycles at 25
// and 50 ns, so doubling the clock halves its power.
TEST(Cli, ClockFeedsThePowerModel) {
  const CliResult fast = run_cli("--benchmark GCD --method m1 --clock 25");
  const CliResult slow = run_cli("--benchmark GCD --method m1 --clock 50");
  EXPECT_EQ(fast.exit_code, 0) << fast.output;
  EXPECT_EQ(slow.exit_code, 0) << slow.output;
  EXPECT_NE(fast.output.find("avg length      39.88 cycles"), std::string::npos)
      << fast.output;
  EXPECT_NE(slow.output.find("avg length      39.88 cycles"), std::string::npos)
      << slow.output;
  EXPECT_NE(fast.output.find("power    2.548"), std::string::npos)
      << fast.output;
  EXPECT_NE(slow.output.find("power    1.274"), std::string::npos)
      << slow.output;
}

TEST(Cli, SourceFileFlow) {
  const std::string path = ::testing::TempDir() + "cli_test_src.fact";
  {
    std::ofstream f(path);
    f << "MINI(int a, int b) { int x = a * b + a; output x; }\n";
  }
  const CliResult r = run_cli(path + " --alloc a1=1,mt1=1 --quiet");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("FACT"), std::string::npos);
}

TEST(Cli, EmitsArtifacts) {
  const std::string vpath = ::testing::TempDir() + "cli_test_out.v";
  const std::string dpath = ::testing::TempDir() + "cli_test_out.dot";
  const CliResult r = run_cli("--benchmark GCD --quiet --no-fuse --emit-verilog " +
                              vpath + " --emit-stg " + dpath);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  std::ifstream v(vpath);
  ASSERT_TRUE(v.good());
  std::stringstream vs;
  vs << v.rdbuf();
  EXPECT_NE(vs.str().find("module GCD"), std::string::npos);
  EXPECT_NE(vs.str().find("endmodule"), std::string::npos);
  std::ifstream d(dpath);
  ASSERT_TRUE(d.good());
  std::stringstream ds;
  ds << d.rdbuf();
  EXPECT_NE(ds.str().find("digraph"), std::string::npos);
}

TEST(Cli, BadUsageFails) {
  EXPECT_NE(run_cli("").exit_code, 0);
  EXPECT_NE(run_cli("--benchmark NOPE").exit_code, 0);
  EXPECT_NE(run_cli("--benchmark GCD --alloc bogus=1").exit_code, 0);
  EXPECT_NE(run_cli("/nonexistent/file.fact").exit_code, 0);
}

TEST(Cli, FactdRejectsNegativeCounts) {
  // A negative count is a usage error (exit 2) naming its flag, raised while
  // parsing arguments, before any service or thread starts. The trailing
  // valueless --unix is a usage error too, so a flag that let the value
  // through still exits 2 without starting a daemon, with another message.
  for (const char* flag : {"--workers", "--queue-cap", "--batch-max",
                           "--cache-cap", "--stats-interval"}) {
    for (const std::string& value : {std::string(" -1"), std::string("=-3")}) {
      const CliResult r = run_tool(FACTD_PATH, flag + value + " --unix");
      EXPECT_EQ(r.exit_code, 2) << flag << value << ": " << r.output;
      EXPECT_NE(r.output.find(std::string(flag) + " must be >= 0"),
                std::string::npos)
          << flag << value << ": " << r.output;
    }
  }
}

TEST(Cli, InfeasibleAllocationDiagnosed) {
  // GCD needs subtracters; give it none.
  const CliResult r = run_cli("--benchmark GCD --alloc cp1=1,e1=1 --method m1");
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.output.find("error"), std::string::npos);
}

TEST(Cli, NonPositiveAllocCountRejected) {
  const CliResult zero = run_cli("--benchmark GCD --alloc a1=0");
  EXPECT_EQ(zero.exit_code, 1) << zero.output;
  EXPECT_NE(zero.output.find("must be positive"), std::string::npos);
  const CliResult neg = run_cli("--benchmark GCD --alloc sb1=-2");
  EXPECT_EQ(neg.exit_code, 1) << neg.output;
  EXPECT_NE(neg.output.find("must be positive"), std::string::npos);
  const CliResult junk = run_cli("--benchmark GCD --alloc a1=two");
  EXPECT_EQ(junk.exit_code, 1) << junk.output;
}

TEST(Cli, BadNumericValuesExitCleanly) {
  // Malformed numbers must produce exit code 1 with a diagnostic, never
  // an uncaught exception / abort (which would exit 134).
  const CliResult clock = run_cli("--benchmark GCD --clock bogus");
  EXPECT_EQ(clock.exit_code, 1) << clock.output;
  EXPECT_NE(clock.output.find("bad numeric value"), std::string::npos);
  const CliResult seed = run_cli("--benchmark GCD --seed 12x");
  EXPECT_EQ(seed.exit_code, 1) << seed.output;
  const CliResult deadline = run_cli("--benchmark GCD --deadline-ms -5");
  EXPECT_EQ(deadline.exit_code, 1) << deadline.output;
}

TEST(Cli, ValidateFlag) {
  const CliResult full = run_cli("--benchmark GCD --validate full --quiet");
  EXPECT_EQ(full.exit_code, 0) << full.output;
  const CliResult off = run_cli("--benchmark GCD --validate=off --quiet");
  EXPECT_EQ(off.exit_code, 0) << off.output;
  const CliResult bad = run_cli("--benchmark GCD --validate bogus");
  EXPECT_EQ(bad.exit_code, 1) << bad.output;
  EXPECT_NE(bad.output.find("bad validation level"), std::string::npos);
}

std::string slurp(const std::string& path) {
  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

TEST(Cli, TraceOutWritesChromeTraceJson) {
  using fact::serve::Json;
  const std::string tpath = ::testing::TempDir() + "cli_trace.json";
  const CliResult r = run_cli("--benchmark GCD --quiet --trace-out " + tpath);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  const std::string text = slurp(tpath);
  ASSERT_FALSE(text.empty());
  const Json trace = Json::parse(text);
  const Json* events = trace.get("traceEvents");
  ASSERT_TRUE(events != nullptr);
  ASSERT_GT(events->size(), 0u);
  std::set<std::string> names;
  for (size_t i = 0; i < events->size(); ++i) {
    const Json& e = events->at(i);
    EXPECT_EQ(e.get_string("ph"), "X") << e.dump();
    EXPECT_GE(e.get_double("ts"), 0.0);
    EXPECT_GE(e.get_double("dur"), 0.0);
    EXPECT_EQ(e.get_int("pid"), 1);
    names.insert(e.get_string("name"));
  }
  // The flow's phase spans, the engine's per-candidate spans and their
  // gates, the scheduler's phases inside `schedule`, and the stationary
  // solve.
  for (const char* want :
       {"trace_gen", "initial_schedule", "partition", "block",
        "final_schedule", "engine.optimize", "reference", "generation",
        "candidate", "apply", "verify", "hash", "equivalence", "evaluate",
        "schedule", "emit",
        "dfg_build", "list_schedule", "estimate", "markov"})
    EXPECT_TRUE(names.count(want)) << "missing span " << want;
}

TEST(Cli, MetricsOutWritesRegistryAndSearchTelemetry) {
  using fact::serve::Json;
  const std::string mpath = ::testing::TempDir() + "cli_metrics.json";
  const CliResult r =
      run_cli("--benchmark GCD --quiet --metrics-out " + mpath);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  const Json doc = Json::parse(slurp(mpath));

  const Json* reg = doc.get("registry");
  ASSERT_TRUE(reg != nullptr);
  EXPECT_GT(reg->get_int("fact_engine_optimize_total"), 0);
  EXPECT_GT(reg->get_int("fact_eval_requests_total"), 0);
  EXPECT_GT(reg->get_int("fact_search_generations_total"), 0);
  EXPECT_GT(reg->get_int("fact_search_candidates_total"), 0);

  const Json* search = doc.get("search");
  ASSERT_TRUE(search != nullptr && search->is_object()) << doc.dump();
  EXPECT_GT(search->get_int("evaluations"), 0);
  const Json* blocks = search->get("blocks");
  ASSERT_TRUE(blocks != nullptr);
  ASSERT_GT(blocks->size(), 0u);
  const Json* gens = blocks->at(0).get("generations");
  ASSERT_TRUE(gens != nullptr);
  ASSERT_GT(gens->size(), 0u);
  const Json& g0 = gens->at(0);
  EXPECT_GT(g0.get_int("candidates"), 0);
  EXPECT_GE(g0.get_double("acceptance_rate"), 0.0);
  EXPECT_LE(g0.get_double("acceptance_rate"), 1.0);
  EXPECT_TRUE(blocks->at(0).get("selected_ranks") != nullptr);
  EXPECT_TRUE(blocks->at(0).get("accepted_by_transform") != nullptr);
}

TEST(Cli, TraceAndMetricsFlagsDoNotChangeStdout) {
  // Instrumentation is observe-only: the report a user sees must be
  // byte-identical with and without --trace-out/--metrics-out.
  const std::string tpath = ::testing::TempDir() + "cli_trace_det.json";
  const std::string mpath = ::testing::TempDir() + "cli_metrics_det.json";
  const CliResult plain = run_cli("--benchmark GCD");
  const CliResult instrumented = run_cli("--benchmark GCD --trace-out " +
                                         tpath + " --metrics-out " + mpath);
  EXPECT_EQ(plain.exit_code, 0) << plain.output;
  EXPECT_EQ(instrumented.exit_code, 0) << instrumented.output;
  EXPECT_EQ(plain.output, instrumented.output);
}

TEST(Cli, DeadlineReportsBestSoFar) {
  // A sub-millisecond budget truncates the search immediately; the driver
  // still reports a complete result plus the best-so-far note.
  const CliResult r = run_cli("--benchmark GCD --deadline-ms 0.001 --quiet");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("FACT"), std::string::npos);
  EXPECT_NE(r.output.find("best-so-far"), std::string::npos);
}

}  // namespace
