// Golden pin of the scheduler's output. Every case schedules one behavior
// from scratch (no fragment cache) and renders the whole result: the STG
// as DOT, then every state's register traffic, branch signal and ring
// membership with every op's full dataflow annotation (wires, operands,
// pre-readers, lags), then the per-loop decisions and rtl_exact. A change
// to the scheduler that is meant to be output-neutral must keep every file
// under tests/data/sched_golden/ byte-identical.
//
// On a mismatch the rendering that was produced is written to
// <gtest temp dir>/sched_golden/<case>.txt, so a change that moves the
// schedule on purpose can regenerate the goldens from there.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#include "opt/fact.hpp"
#include "program_gen.hpp"
#include "rtl/plan.hpp"
#include "rtl/sim.hpp"
#include "rtl/verilog.hpp"
#include "sched/fragment_cache.hpp"
#include "sched/scheduler.hpp"
#include "sim/trace.hpp"
#include "summary_oracle.hpp"
#include "util/error.hpp"
#include "util/strfmt.hpp"
#include "verify/verify.hpp"
#include "workloads/workloads.hpp"

namespace fact::sched {
namespace {

std::string join(const std::vector<std::string>& v) {
  std::string out;
  for (size_t i = 0; i < v.size(); ++i) {
    if (i) out += ",";
    out += v[i];
  }
  return out;
}

std::string render(const ScheduleResult& r) {
  std::string out = r.stg.dot();
  out += "-- states\n";
  for (size_t i = 0; i < r.stg.num_states(); ++i) {
    const stg::State& s = r.stg.states()[i];
    out += strfmt("s%zu %s reads=%d writes=%d ring=%d cond=%s\n", i,
                  s.name.c_str(), s.reg_reads, s.reg_writes, s.ring_id,
                  s.cond_signal.c_str());
    for (const stg::OpInstance& op : s.ops) {
      std::vector<std::string> operands, pre;
      for (const stg::Operand& o : op.operands) operands.push_back(o.str());
      for (int w : op.pre_readers) pre.push_back(stg::wire_name(w));
      out += strfmt(
          "  %s op=%s fu=%s stmt=%d it=%d val=%s def=%s operands=[%s] "
          "pre=[%s] lag=%d store=%d array=%s\n",
          op.label().c_str(), ir::op_token(op.op),
          std::string(op.fu_type).c_str(), op.stmt_id, op.iteration,
          stg::wire_name(op.wire).c_str(), std::string(op.def_var).c_str(),
          join(operands).c_str(), join(pre).c_str(), op.lag,
          op.is_store ? 1 : 0, std::string(op.array).c_str());
    }
  }
  out += "-- loops\n";
  for (const LoopInfo& l : r.loops) {
    std::vector<std::string> fused;
    for (int id : l.fused_with) fused.push_back(std::to_string(id));
    out += strfmt("loop stmt=%d pipelined=%d ii=%d body_csteps=%d fused=[%s]\n",
                  l.stmt_id, l.pipelined ? 1 : 0, l.ii, l.body_csteps,
                  join(fused).c_str());
  }
  out += strfmt("rtl_exact %d\n", r.rtl_exact ? 1 : 0);
  return out;
}

/// Schedules `fn` under `profile` and renders the result; a scheduling
/// failure is part of the pinned output too.
std::string render_schedule(const Scheduler& s, const ir::Function& fn,
                            const sim::Profile& profile) {
  try {
    return render(s.schedule(fn, profile));
  } catch (const Error& e) {
    return std::string("error: ") + e.what() + "\n";
  }
}

/// One pinned program: a behavior, its allocation and its trace.
struct GoldenCase {
  std::string name;
  ir::Function fn;
  hlslib::Allocation alloc;
  sim::Trace trace;
};

/// Schedules a case from scratch (no fragment cache) and renders it.
std::string schedule_and_render(const GoldenCase& c) {
  const hlslib::Library lib = hlslib::Library::dac98();
  const Scheduler s(lib, c.alloc, hlslib::FuSelection::defaults(lib));
  return render_schedule(s, c.fn, sim::profile_function(c.fn, c.trace));
}

/// The six Table 2 workloads under the flow's trace seed and length.
std::vector<GoldenCase> table2_cases() {
  const opt::FactOptions fo;
  std::vector<GoldenCase> cases;
  for (const char* name : {"GCD", "FIR", "TEST2", "SINTRAN", "IGF", "PPS"}) {
    workloads::Workload w = workloads::by_name(name);
    sim::TraceConfig tc = w.trace;
    if (tc.executions == 0) tc.executions = fo.trace_executions;
    sim::Trace trace = sim::generate_trace(w.fn, tc, fo.seed);
    cases.push_back({std::string("table2_") + name, std::move(w.fn),
                     std::move(w.allocation), std::move(trace)});
  }
  return cases;
}

/// 24 generated programs, plain and with concurrent loops. Allocations
/// alternate one and two instances of every FU type, so both tight and
/// roomy resource tables are pinned.
std::vector<GoldenCase> generated_cases() {
  const hlslib::Library lib = hlslib::Library::dac98();
  sim::TraceConfig tc;
  tc.executions = 6;
  std::vector<GoldenCase> cases;
  for (const bool concurrent : {false, true}) {
    testgen::GenOptions gen;
    gen.concurrent_loops = concurrent;
    for (uint64_t seed = 1; seed <= 12; ++seed) {
      hlslib::Allocation alloc;
      for (const auto& t : lib.types())
        alloc.counts[t.name] = 1 + static_cast<int>(seed % 2);
      ir::Function fn = testgen::random_program(seed, gen);
      sim::Trace trace = sim::generate_trace(fn, tc, 7);
      cases.push_back({strfmt("gen_%s_s%02d",
                              concurrent ? "concurrent" : "plain",
                              static_cast<int>(seed)),
                       std::move(fn), std::move(alloc), std::move(trace)});
    }
  }
  return cases;
}

void expect_golden(const std::string& name, const std::string& got) {
  const std::string path =
      std::string(FACT_TEST_DATA_DIR) + "/sched_golden/" + name + ".txt";
  std::ifstream in(path);
  std::stringstream want;
  want << in.rdbuf();
  if (in.good() && got == want.str()) return;
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "sched_golden";
  std::filesystem::create_directories(dir);
  std::ofstream(dir / (name + ".txt")) << got;
  ADD_FAILURE() << "schedule of " << name << " differs from " << path
                << (in.good() ? "" : " (missing)") << "; produced output in "
                << (dir / (name + ".txt")).string();
}

TEST(SchedGolden, Table2Workloads) {
  for (const GoldenCase& c : table2_cases())
    expect_golden(c.name, schedule_and_render(c));
}

TEST(SchedGolden, GeneratedPrograms) {
  for (const GoldenCase& c : generated_cases())
    expect_golden(c.name, schedule_and_render(c));
}

/// The SchedGolden programs: each summary is its STG's chain, with the
/// same estimates (Power against a baseline 25% slower than the design).
TEST(SummaryOracle, SchedGoldenPrograms) {
  const hlslib::Library lib = hlslib::Library::dac98();
  std::vector<GoldenCase> cases = table2_cases();
  for (GoldenCase& c : generated_cases()) cases.push_back(std::move(c));
  size_t scheduled = 0;
  for (const GoldenCase& c : cases) {
    const Scheduler s(lib, c.alloc, hlslib::FuSelection::defaults(lib));
    const sim::Profile profile = sim::profile_function(c.fn, c.trace);
    double baseline = 100.0;
    try {
      baseline = 1.25 * opt::measure_design(s.summarize(c.fn, profile), lib,
                                            {}, opt::Objective::Throughput)
                            .avg_schedule_length;
    } catch (const Error&) {
    }
    if (oracle::expect_summary_matches(s, c.fn, profile, lib, baseline, c.name))
      scheduled++;
  }
  EXPECT_GE(scheduled, 28u);
}

/// 4 threads share one Scheduler per allocation of the pinned programs and
/// schedule all of that allocation's programs, each starting at a
/// different one; every rendering must equal a serial one from a Scheduler
/// of its own. With `cached`, the shared Scheduler has a FragmentCache of
/// its own (a cache assumes one allocation), so threads race on first
/// computes; without, every thread builds and schedules every fragment in
/// its own scratch.
void expect_threads_match_serial(bool cached) {
  const hlslib::Library lib = hlslib::Library::dac98();
  const hlslib::FuSelection sel = hlslib::FuSelection::defaults(lib);
  std::vector<GoldenCase> cases = table2_cases();
  for (GoldenCase& c : generated_cases()) cases.push_back(std::move(c));

  std::map<decltype(hlslib::Allocation::counts),
           std::vector<const GoldenCase*>>
      groups;
  for (const GoldenCase& c : cases) groups[c.alloc.counts].push_back(&c);
  for (const auto& [counts, group] : groups) {
    std::vector<sim::Profile> profiles;
    std::vector<std::string> want;
    for (const GoldenCase* c : group) {
      profiles.push_back(sim::profile_function(c->fn, c->trace));
      want.push_back(schedule_and_render(*c));
    }
    FragmentCache cache;
    SchedOptions opts;
    if (cached) opts.fragment_cache = &cache;
    const Scheduler shared(lib, group.front()->alloc, sel, opts);

    constexpr size_t kThreads = 4;
    const size_t n = group.size();
    std::vector<std::vector<std::string>> got(
        kThreads, std::vector<std::string>(n));
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t)
      threads.emplace_back([&, t] {
        for (size_t k = 0; k < n; ++k) {
          const size_t i = (t + k) % n;
          got[t][i] = render_schedule(shared, group[i]->fn, profiles[i]);
        }
      });
    for (std::thread& th : threads) th.join();
    for (size_t t = 0; t < kThreads; ++t)
      for (size_t i = 0; i < n; ++i)
        EXPECT_EQ(got[t][i], want[i])
            << group[i]->name << " on thread " << t;
  }
}

// The contract the optimizer relies on: its worker threads share one
// Scheduler over one FragmentCache, and every schedule must equal a
// serial, cache-free one.
TEST(SharedScheduler, ThreadsMatchSerialOnGoldenPrograms) {
  expect_threads_match_serial(/*cached=*/true);
}

// Threads sharing one Scheduler's binding table, each building every DFG
// in its own scratch: a build must depend on nothing another thread's
// build writes.
TEST(SharedScheduler, ThreadsMatchSerialWithoutACache) {
  expect_threads_match_serial(/*cached=*/false);
}

/// Everything the STG's readers derive from a schedule: the golden
/// rendering (DOT, every op's views and wires), both verifiers at Full,
/// the Verilog, and the RTL simulation of every stimulus.
std::string derive_all(const GoldenCase& c, const ScheduleResult& r) {
  const hlslib::Library lib = hlslib::Library::dac98();
  std::string out = render(r);
  out += verify::verify_stg(r.stg, verify::Level::Full).str();
  out += verify::verify_schedule(c.fn, r.stg, lib, c.alloc,
                                 verify::Level::Full)
             .str();
  out += rtl::emit_verilog(c.fn, r.stg);
  const rtl::RtlPlan plan = rtl::build_rtl_plan(c.fn, r.stg);
  for (const auto& stim : c.trace) {
    const rtl::RtlSimResult sim = rtl::simulate_rtl(c.fn, plan, stim);
    out += strfmt("rtl cycles=%ld completed=%d\n", sim.cycles,
                  sim.completed ? 1 : 0);
    for (const auto& [name, value] : sim.obs.outputs)
      out += strfmt("  %s=%lld\n", name.c_str(),
                    static_cast<long long>(value));
  }
  return out;
}

// An STG's ops view the scheduled DFGs they were emitted from; the STG
// keeps those alive, so it outlives the Scheduler and the FragmentCache
// that produced it (the optimizer renders its final STG after its cache
// is gone).
TEST(SchedLifetime, StgOutlivesSchedulerAndCache) {
  const hlslib::Library lib = hlslib::Library::dac98();
  std::vector<GoldenCase> cases;
  for (GoldenCase& c : table2_cases())
    if (c.name == "table2_TEST2") cases.push_back(std::move(c));
  for (GoldenCase& c : generated_cases())
    if (c.name == "gen_plain_s03") cases.push_back(std::move(c));
  ASSERT_EQ(cases.size(), 2u);
  for (const GoldenCase& c : cases) {
    ScheduleResult r;
    std::string before, dot;
    {
      FragmentCache cache;
      SchedOptions opts;
      opts.fragment_cache = &cache;
      const Scheduler s(lib, c.alloc, hlslib::FuSelection::defaults(lib),
                        opts);
      const sim::Profile profile = sim::profile_function(c.fn, c.trace);
      (void)s.schedule(c.fn, profile);  // the second run hits every fragment
      r = s.schedule(c.fn, profile);
      before = derive_all(c, r);
      dot = r.stg.dot();
    }
    EXPECT_EQ(derive_all(c, r), before) << c.name;
    const stg::Stg copy = r.stg;  // a copy keeps the views alive too
    r = ScheduleResult();
    EXPECT_EQ(copy.dot(), dot) << c.name;
  }
}

}  // namespace
}  // namespace fact::sched
