// End-to-end determinism tests of the factd daemon: a real factd process
// on a unix-domain socket, driven by the real factcli binary, diffed
// byte-for-byte against factc batch output (binary paths injected by
// CMake as FACTD_PATH / FACTCLI_PATH / FACTC_PATH).
//
// The contract under test: an optimize response's report is a pure
// function of the request — the same bytes factc prints — no matter how
// many clients are connected, how requests are batched, or how many
// worker threads evaluate candidates.

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "serve/json.hpp"

// GCC spells the sanitizer predefines __SANITIZE_*__; clang exposes them
// through __has_feature.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define FACT_E2E_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define FACT_E2E_SANITIZED 1
#endif
#endif
#ifndef FACT_E2E_SANITIZED
#define FACT_E2E_SANITIZED 0
#endif

namespace {

using fact::serve::Json;

struct CliResult {
  int exit_code = -1;
  std::string output;
};

CliResult run_cmd(const std::string& cmd) {
  FILE* pipe = popen((cmd + " 2>/dev/null").c_str(), "r");
  CliResult r;
  if (!pipe) return r;
  char buf[512];
  while (fgets(buf, sizeof(buf), pipe)) r.output += buf;
  r.exit_code = WEXITSTATUS(pclose(pipe));
  return r;
}

/// One factd process for the lifetime of the fixture; every test drives it
/// through factcli over the unix socket.
class FactdE2E : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    socket_path_ = new std::string("/tmp/fact_e2e_" +
                                   std::to_string(::getpid()) + ".sock");
    // --workers 4 --batch-max 4: force batched dispatch so concurrent
    // requests genuinely share the pool (engines degrade to inline).
    const std::string cmd = std::string(FACTD_PATH) + " --unix " +
                            *socket_path_ +
                            " --workers 4 --batch-max 4 --quiet 2>/dev/null";
    daemon_ = popen(cmd.c_str(), "r");
    ASSERT_NE(daemon_, nullptr);
    // Wait for the socket to appear.
    struct stat st{};
    for (int i = 0; i < 200 && ::stat(socket_path_->c_str(), &st) != 0; ++i)
      ::usleep(50 * 1000);
    ASSERT_EQ(::stat(socket_path_->c_str(), &st), 0)
        << "factd did not create " << *socket_path_;
  }

  static void TearDownTestSuite() {
    if (daemon_) {
      run_cmd(cli() + " --shutdown");
      pclose(daemon_);
      daemon_ = nullptr;
    }
    ::unlink(socket_path_->c_str());
    delete socket_path_;
    socket_path_ = nullptr;
  }

  static std::string cli() {
    return std::string(FACTCLI_PATH) + " --unix " + *socket_path_;
  }

  static std::string* socket_path_;
  static FILE* daemon_;
};

std::string* FactdE2E::socket_path_ = nullptr;
FILE* FactdE2E::daemon_ = nullptr;

const char* kWorkloads[] = {"GCD", "FIR", "TEST2", "SINTRAN", "IGF", "PPS"};

TEST_F(FactdE2E, ReportsMatchFactcForEveryTable2Workload) {
  for (const char* w : kWorkloads) {
    const CliResult batch =
        run_cmd(std::string(FACTC_PATH) + " --benchmark " + w);
    ASSERT_EQ(batch.exit_code, 0) << w << ": " << batch.output;
    const CliResult served = run_cmd(cli() + " --benchmark " + w +
                                     " --report");
    ASSERT_EQ(served.exit_code, 0) << w << ": " << served.output;
    EXPECT_EQ(served.output, batch.output) << w;
  }
}

TEST_F(FactdE2E, ConcurrentClientsGetByteIdenticalReports) {
  // Every workload once per client, three clients at once, pipelined per
  // connection. Each client's concatenated --report output must equal the
  // concatenated factc outputs — concurrency may change scheduling, never
  // bytes. quiet=true keeps the reports history-independent (the shared
  // cache only changes the non-quiet evaluation accounting line).
  std::string expected;
  for (const char* w : kWorkloads) {
    const CliResult batch =
        run_cmd(std::string(FACTC_PATH) + " --benchmark " + w + " --quiet");
    ASSERT_EQ(batch.exit_code, 0) << w;
    expected += batch.output;
  }

  const std::string reqfile = ::testing::TempDir() + "e2e_reqs.jsonl";
  {
    std::ofstream f(reqfile);
    int id = 0;
    for (const char* w : kWorkloads) {
      Json req = Json::object();
      req.set("type", "optimize");
      req.set("id", ++id);
      req.set("benchmark", w);
      req.set("quiet", true);
      f << req.dump() << "\n";
    }
  }

  std::vector<CliResult> results(3);
  std::vector<std::thread> clients;
  for (auto& result : results)
    clients.emplace_back([&result, &reqfile] {
      result = run_cmd(cli() + " --stdin --report < " + reqfile);
    });
  for (auto& t : clients) t.join();
  for (const CliResult& r : results) {
    EXPECT_EQ(r.exit_code, 0);
    EXPECT_EQ(r.output, expected);
  }
}

TEST_F(FactdE2E, ExplicitJobsValueDoesNotChangeBytes) {
  // jobs=2 runs the request on a private two-thread pool instead of the
  // shared service pool; the engine's jobs-invariance makes that
  // unobservable in the response.
  const CliResult batch =
      run_cmd(std::string(FACTC_PATH) + " --benchmark TEST2 --quiet");
  ASSERT_EQ(batch.exit_code, 0);
  for (const char* jobs : {"1", "2", "3"}) {
    const CliResult served = run_cmd(cli() + " --benchmark TEST2 --quiet "
                                     "--report --jobs " + std::string(jobs));
    ASSERT_EQ(served.exit_code, 0) << served.output;
    EXPECT_EQ(served.output, batch.output) << "jobs=" << jobs;
  }
}

TEST_F(FactdE2E, WarmSessionServesFromCacheAndSpeedsUp) {
  const std::string base = cli() + " --benchmark FIR --session warmfir "
                                   "--quiet";
  const CliResult cold = run_cmd(base);
  ASSERT_EQ(cold.exit_code, 0) << cold.output;
  const Json cold_resp = Json::parse(cold.output);
  ASSERT_TRUE(cold_resp.get_bool("ok")) << cold.output;

  // Re-optimize through the session (no behavior fields): every
  // evaluation is served from the shared cache and the pinned trace
  // skips regeneration.
  const CliResult warm =
      run_cmd(cli() + " --session warmfir --quiet --type optimize");
  ASSERT_EQ(warm.exit_code, 0) << warm.output;
  const Json warm_resp = Json::parse(warm.output);
  ASSERT_TRUE(warm_resp.get_bool("ok")) << warm.output;

  EXPECT_GT(warm_resp.get_int("cache_hits"), 0);
  EXPECT_EQ(warm_resp.get_int("cache_misses"), 0);
  EXPECT_EQ(warm_resp.get_double("avg_len"),
            cold_resp.get_double("avg_len"));
  EXPECT_EQ(warm_resp.get_string("report"), cold_resp.get_string("report"));
  // The speedup is the point of the cache; 2x is far below the measured
  // margin, so this stays robust on a loaded CI machine. Sanitizer
  // instrumentation skews the cached/uncached ratio unpredictably, so the
  // sanitized suites (tools/check.sh) keep only the functional assertions
  // above.
#if !FACT_E2E_SANITIZED
  EXPECT_LT(warm_resp.get_double("wall_ms"),
            cold_resp.get_double("wall_ms") / 2.0 + 50.0);
#endif
}

TEST_F(FactdE2E, StatusReportsServiceCounters) {
  // Fresh daemon per test process: generate some traffic first.
  const CliResult opt = run_cmd(cli() + " --benchmark GCD --quiet");
  ASSERT_EQ(opt.exit_code, 0) << opt.output;
  const CliResult r = run_cmd(cli() + " --status");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  const Json resp = Json::parse(r.output);
  ASSERT_TRUE(resp.get_bool("ok")) << r.output;
  const Json* stats = resp.get("stats");
  ASSERT_NE(stats, nullptr);
  EXPECT_GT(stats->get_int("completed"), 0);
  EXPECT_GT(stats->get_int("evaluations"), 0);
  EXPECT_GT(stats->get_int("cache_entries"), 0);
  EXPECT_GE(stats->get_double("p99_ms"), stats->get_double("p50_ms"));
}

}  // namespace
