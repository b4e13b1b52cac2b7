// Unit tests of the RTL plan builder: transition mapping, shadow register
// placement, and inventory classification, on both crafted and compiled
// STGs.

#include <gtest/gtest.h>

#include "lang/parser.hpp"
#include "rtl/plan.hpp"
#include "rtl/sim.hpp"
#include "sched/scheduler.hpp"
#include "sim/trace.hpp"

namespace fact::rtl {
namespace {

sched::ScheduleResult compile(const std::string& src,
                              const sim::TraceConfig& tc = {}) {
  const ir::Function fn = lang::parse_function(src);
  const auto lib = hlslib::Library::dac98();
  hlslib::Allocation alloc;
  for (const auto& t : lib.types()) alloc.counts[t.name] = 2;
  const sim::Trace trace = sim::generate_trace(fn, tc, 7);
  const sim::Profile profile = sim::profile_function(fn, trace);
  sched::SchedOptions so;
  so.fuse_loops = false;
  sched::Scheduler s(lib, alloc, hlslib::FuSelection::defaults(lib), so);
  return s.schedule(fn, profile);
}

TEST(RtlPlan, InventorySeparatesVarsWiresParams) {
  const ir::Function fn = lang::parse_function(
      "F(int a, int b) { int x = a + b; a = x * 2; output a; }");
  const auto sr = compile("F(int a, int b) { int x = a + b; a = x * 2; output a; }");
  const RtlPlan plan = build_rtl_plan(fn, sr.stg);
  EXPECT_TRUE(plan.written_params.count("a"));
  EXPECT_FALSE(plan.written_params.count("b"));
  EXPECT_TRUE(plan.vars.count("x"));
  EXPECT_TRUE(plan.vars.count("a"));  // written param becomes a register
  EXPECT_FALSE(plan.vars.count("b"));
  EXPECT_FALSE(plan.wires.empty());
  for (const auto& w : plan.wires) EXPECT_EQ(w[0], 'w');
}

TEST(RtlPlan, BranchTransitionsCarrySignalsAndPolarity) {
  const std::string src = R"(
F(int a, int b) {
  int x = 0;
  if (a > b) { x = a * 2; } else { x = b * 3; }
  output x;
}
)";
  const ir::Function fn = lang::parse_function(src);
  const auto sr = compile(src);
  const RtlPlan plan = build_rtl_plan(fn, sr.stg);
  bool branch_found = false;
  for (const auto& st : plan.states) {
    if (st.transitions.size() < 2) continue;
    branch_found = true;
    // First transition conditional with a signal; last is the else.
    EXPECT_FALSE(st.transitions.front().signal.empty());
    EXPECT_TRUE(st.transitions.back().signal.empty());
  }
  EXPECT_TRUE(branch_found);
}

TEST(RtlPlan, BoundaryTransitionsMarked) {
  const auto sr = compile("F(int a) { int x = a + 1; output x; }");
  const ir::Function fn =
      lang::parse_function("F(int a) { int x = a + 1; output x; }");
  const RtlPlan plan = build_rtl_plan(fn, sr.stg);
  int boundaries = 0;
  for (const auto& st : plan.states)
    for (const auto& t : st.transitions)
      if (t.boundary) boundaries++;
  EXPECT_GE(boundaries, 1);
}

TEST(RtlPlan, EveryStateHasAFallthrough) {
  const std::string src = R"(
F(int a, int b) {
  while (a != b) {
    if (a > b) { a = a - b; } else { b = b - a; }
  }
  output a;
}
)";
  const ir::Function fn = lang::parse_function(src);
  sim::TraceConfig tc;
  tc.params["a"] = {sim::InputSpec::Kind::Uniform, 0, 0, 0, 1, 40, 0};
  tc.params["b"] = {sim::InputSpec::Kind::Uniform, 0, 0, 0, 1, 40, 0};
  const auto sr = compile(src, tc);
  const RtlPlan plan = build_rtl_plan(fn, sr.stg);
  for (const auto& st : plan.states) {
    ASSERT_FALSE(st.transitions.empty());
    EXPECT_TRUE(st.transitions.back().signal.empty())
        << "last transition must be unconditional";
  }
}

TEST(RtlPlan, ShadowCapturePrecedesEveryShadowedUpdate) {
  // i++ floated above the store: i is shadowed, and every state that
  // updates i must capture i__pre at or before the update step.
  const std::string src = R"(
F(int g) {
  input int x[16];
  int y[16];
  int i = 0;
  while (i < 15) {
    y[i] = x[i] + x[i + 1];
    i = i + 1;
  }
  output i;
}
)";
  const ir::Function fn = lang::parse_function(src);
  const auto sr = compile(src);
  const RtlPlan plan = build_rtl_plan(fn, sr.stg);
  ASSERT_TRUE(plan.shadowed.count("i"));
  for (const auto& st : plan.states) {
    bool captured = false;
    for (const auto& step : st.steps) {
      for (const auto& c : step.captures)
        if (c == "i") captured = true;
      if (step.op.def_var == "i") {
        EXPECT_TRUE(captured) << "update without prior capture";
      }
    }
  }
}

TEST(RtlPlan, SimulatorHonorsCycleCap) {
  // A behavior that runs long: with a tiny cap the simulator reports
  // incomplete instead of hanging.
  const std::string src = R"(
F(int n) {
  int i = 0;
  while (i < 1000) { i = i + 1; }
  output i;
}
)";
  const ir::Function fn = lang::parse_function(src);
  const auto sr = compile(src);
  const RtlPlan plan = build_rtl_plan(fn, sr.stg);
  sim::Stimulus stim;
  const RtlSimResult r = simulate_rtl(fn, plan, stim, /*max_cycles=*/10);
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.cycles, 10);
}

TEST(RtlPlan, SimulatorCountsCycles) {
  const std::string src = "F(int a, int b) { int x = a * b; int y = x * 2; output y; }";
  const ir::Function fn = lang::parse_function(src);
  const auto sr = compile(src);
  const RtlPlan plan = build_rtl_plan(fn, sr.stg);
  sim::Stimulus stim;
  stim.params = {{"a", 3}, {"b", 4}};
  const RtlSimResult r = simulate_rtl(fn, plan, stim);
  EXPECT_TRUE(r.completed);
  // Two dependent multiplies on one... two multipliers, still dependent:
  // 2 cycles.
  EXPECT_EQ(r.cycles, 2);
  EXPECT_EQ(r.obs.outputs.at("y"), 24);
}

}  // namespace
}  // namespace fact::rtl
