// SummaryOracle: a candidate scored from Scheduler::summarize's chain gets
// bit for bit the evaluation and the estimates the full STG gives, over
// the two-level neighbourhoods of the Table 2 workloads and over generated
// behaviors of both shapes.

#include <gtest/gtest.h>

#include <unordered_set>

#include "ir/hash.hpp"
#include "opt/engine.hpp"
#include "opt/fact.hpp"
#include "program_gen.hpp"
#include "sched/fragment_cache.hpp"
#include "summary_oracle.hpp"
#include "util/strfmt.hpp"
#include "verify/verify.hpp"
#include "workloads/workloads.hpp"
#include "xform/transform.hpp"

namespace fact::oracle {
namespace {

/// Every distinct candidate one and two moves away from `fn`, tagged with
/// its moves.
std::vector<std::pair<std::string, ir::Function>> two_level_neighbourhood(
    const ir::Function& fn) {
  const xform::TransformLibrary xlib = xform::TransformLibrary::standard();
  std::unordered_set<uint64_t> seen{ir::structural_hash(fn)};
  std::vector<std::pair<std::string, ir::Function>> out;
  const auto expand = [&](const std::string& tag, const ir::Function& from) {
    const std::vector<xform::Candidate> cands = xlib.find_all(from, {});
    for (const xform::Candidate& c : cands) {
      try {
        ir::Function next = xlib.apply(from, c);
        if (!seen.insert(ir::structural_hash(next)).second) continue;
        out.emplace_back(tag + c.describe(), std::move(next));
      } catch (const Error&) {
        continue;  // a move that does not apply
      }
    }
  };
  expand("", fn);
  const size_t first_level = out.size();
  for (size_t i = 0; i < first_level; ++i)
    expand(out[i].first + " / ", out[i].second.clone());
  return out;
}

/// The Table 2 workload `name`: each candidate's chain and estimates
/// against its STG's, and its Evaluation through the engine's chain path
/// (validation Fast) against its full-STG path (validation Full), under
/// both objectives.
void check_workload(const char* name) {
  const hlslib::Library lib = hlslib::Library::dac98();
  const hlslib::FuSelection sel = hlslib::FuSelection::defaults(lib);
  const workloads::Workload w = workloads::by_name(name);
  const opt::FactOptions fo;
  sim::TraceConfig tc = w.trace;
  if (tc.executions == 0) tc.executions = fo.trace_executions;
  const sim::Trace trace = sim::generate_trace(w.fn, tc, fo.seed);

  // One fragment cache for the neighbourhood, as a search shares one.
  sched::FragmentCache cache;
  sched::SchedOptions so = fo.sched;
  so.fragment_cache = &cache;
  const sched::Scheduler scheduler(lib, w.allocation, sel, so);
  const double baseline =
      opt::measure_design(
          scheduler.schedule(w.fn, sim::profile_function(w.fn, trace)).stg,
          lib, fo.power, opt::Objective::Throughput)
          .avg_schedule_length;

  const xform::TransformLibrary xlib = xform::TransformLibrary::standard();
  opt::EngineOptions fast;
  opt::EngineOptions full;
  full.validate = verify::Level::Full;
  const opt::TransformEngine chain_engine(lib, w.allocation, sel, fo.sched,
                                          fo.power, xlib, fast);
  const opt::TransformEngine stg_engine(lib, w.allocation, sel, fo.sched,
                                        fo.power, xlib, full);

  size_t scheduled = 0, evaluated = 0;
  auto cands = two_level_neighbourhood(w.fn);
  cands.emplace_back("original", w.fn.clone());
  for (const auto& [tag, fn] : cands) {
    const std::string what = strfmt("%s %s", name, tag.c_str());
    sim::Profile profile;
    try {
      profile = sim::profile_function(fn, trace);
    } catch (const std::exception&) {
      continue;  // aborts on the trace: never reaches evaluation
    }
    if (expect_summary_matches(scheduler, fn, profile, lib, baseline, what))
      scheduled++;
    if (::testing::Test::HasFailure()) return;

    for (const opt::Objective o :
         {opt::Objective::Throughput, opt::Objective::Power}) {
      opt::Evaluation want;
      try {
        want = stg_engine.evaluate(fn, trace, o, baseline);
      } catch (const std::exception&) {
        continue;  // the full path's verifier rejects the schedule
      }
      const opt::Evaluation got = chain_engine.evaluate(fn, trace, o, baseline);
      EXPECT_EQ(bits(want.avg_len), bits(got.avg_len)) << what;
      EXPECT_EQ(bits(want.power), bits(got.power)) << what;
      EXPECT_EQ(bits(want.vdd), bits(got.vdd)) << what;
      EXPECT_EQ(bits(want.score), bits(got.score)) << what;
      evaluated++;
    }
  }
  std::printf("%s: %zu candidates, %zu scheduled, %zu evaluations compared\n",
              name, cands.size(), scheduled, evaluated);
  EXPECT_GT(scheduled, 0u) << name;
  EXPECT_GE(evaluated, scheduled) << name;
}

TEST(SummaryOracle, GcdNeighbourhood) { check_workload("GCD"); }
TEST(SummaryOracle, FirNeighbourhood) { check_workload("FIR"); }
TEST(SummaryOracle, Test2Neighbourhood) { check_workload("TEST2"); }
TEST(SummaryOracle, SintranNeighbourhood) { check_workload("SINTRAN"); }
TEST(SummaryOracle, IgfNeighbourhood) { check_workload("IGF"); }
TEST(SummaryOracle, PpsNeighbourhood) { check_workload("PPS"); }

/// Generated behaviors of the default and the concurrent-loop shape, and
/// their first-level candidates, under one and two instances of every FU
/// type.
TEST(SummaryOracle, GeneratedPrograms) {
  const hlslib::Library lib = hlslib::Library::dac98();
  const hlslib::FuSelection sel = hlslib::FuSelection::defaults(lib);
  const xform::TransformLibrary xlib = xform::TransformLibrary::standard();
  sim::TraceConfig tc;
  tc.executions = 8;
  size_t scheduled = 0;
  for (const bool concurrent : {false, true}) {
    testgen::GenOptions gen;
    gen.concurrent_loops = concurrent;
    for (uint64_t seed = 1; seed <= 16; ++seed) {
      const ir::Function fn = testgen::random_program(seed, gen);
      const sim::Trace trace = sim::generate_trace(fn, tc, 7);
      hlslib::Allocation alloc;
      for (const auto& t : lib.types())
        alloc.counts[t.name] = 1 + static_cast<int>(seed % 2);
      sched::FragmentCache cache;
      sched::SchedOptions so;
      so.fragment_cache = &cache;
      const sched::Scheduler scheduler(lib, alloc, sel, so);
      std::vector<std::pair<std::string, ir::Function>> fns;
      fns.emplace_back("original", fn.clone());
      for (const xform::Candidate& c : xlib.find_all(fn, {})) {
        try {
          fns.emplace_back(c.describe(), xlib.apply(fn, c));
        } catch (const Error&) {
          continue;
        }
      }
      double baseline = 0.0;
      for (const auto& [tag, f] : fns) {
        const std::string what =
            strfmt("%s seed %d %s", concurrent ? "concurrent" : "default",
                   static_cast<int>(seed), tag.c_str());
        sim::Profile profile;
        try {
          profile = sim::profile_function(f, trace);
          // Power mode scales the supply against a slower baseline.
          if (baseline == 0.0)
            baseline = 1.25 * opt::measure_design(scheduler.summarize(f, profile),
                                                  lib, {},
                                                  opt::Objective::Throughput)
                                  .avg_schedule_length;
        } catch (const std::exception&) {
          continue;
        }
        if (expect_summary_matches(scheduler, f, profile, lib, baseline, what))
          scheduled++;
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
  std::printf("generated: %zu behaviors scheduled\n", scheduled);
  EXPECT_GT(scheduled, 100u);
}

}  // namespace
}  // namespace fact::oracle
