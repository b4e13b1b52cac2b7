// Domain example: schedule inspection. Compiles a behavior (from a file
// given on the command line, or an embedded FIR demo), schedules it, and
// prints a cycle-by-cycle view of the STG — which operations execute in
// each state, on which functional units, with which iteration overlap —
// plus Graphviz dumps of the CDFG and STG.

#include <cstdio>
#include <fstream>
#include <sstream>

#include "bind/binding.hpp"
#include "cdfg/cdfg.hpp"
#include "hlslib/library.hpp"
#include "lang/parser.hpp"
#include "rtl/verilog.hpp"
#include "sched/scheduler.hpp"
#include "sim/trace.hpp"

namespace {

const char* kDemo = R"(
DEMO(int gain) {
  input int x[16];
  int y[16];
  int i = 0;
  while (i < 16) {
    y[i] = x[i] * gain + x[i];
    i = i + 1;
  }
  output i;
}
)";

}  // namespace

int main(int argc, char** argv) {
  using namespace fact;
  std::string source = kDemo;
  if (argc > 1) {
    std::ifstream in(argv[1]);
    if (!in) {
      fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    source = buf.str();
  }

  const ir::Function fn = lang::parse_function(source);
  printf("behavior:\n%s\n", fn.str().c_str());

  const hlslib::Library lib = hlslib::Library::dac98();
  const hlslib::FuSelection sel = hlslib::FuSelection::defaults(lib);
  hlslib::Allocation alloc;  // generous default datapath
  for (const auto& t : lib.types()) alloc.counts[t.name] = 2;

  const sim::Trace trace = sim::generate_trace(fn, {}, 7);
  const sim::Profile profile = sim::profile_function(fn, trace);
  sched::Scheduler scheduler(lib, alloc, sel, {});
  const sched::ScheduleResult sr = scheduler.schedule(fn, profile);
  const auto pi = stg::state_probabilities(sr.stg);

  printf("schedule: %zu states, average length %.2f cycles\n\n",
         sr.stg.num_states(), stg::average_schedule_length(sr.stg, pi));
  for (const auto& loop : sr.loops) {
    printf("loop at statement %d: ", loop.stmt_id);
    if (loop.pipelined) {
      printf("pipelined, II=%d (body %d csteps -> iterations overlap %dx)\n",
             loop.ii, loop.body_csteps,
             (loop.body_csteps + loop.ii - 1) / loop.ii);
    } else {
      printf("state-machine (body has control flow)\n");
    }
  }
  printf("\ncycle-by-cycle view:\n");
  for (size_t s = 0; s < sr.stg.num_states(); ++s) {
    const stg::State& st = sr.stg.state(static_cast<int>(s));
    printf("  S%-3zu pi=%.3f reg(r/w)=%d/%d\n", s, pi[s], st.reg_reads,
           st.reg_writes);
    for (const auto& op : st.ops)
      printf("        %-12s on %-6s (iteration +%d)\n", op.label().c_str(),
             op.fu_type.empty() ? "<ctrl>" : std::string(op.fu_type).c_str(),
             op.iteration);
  }

  // Datapath binding and the Verilog preview.
  const bind::Binding binding = bind::bind_datapath(sr.stg, lib, alloc);
  printf("\n%s", binding.report(lib).c_str());

  std::ofstream("schedule_viewer_cdfg.dot")
      << cdfg::Cdfg::from_function(fn).dot("cdfg");
  std::ofstream("schedule_viewer_stg.dot") << sr.stg.dot("stg");
  std::ofstream("schedule_viewer.v") << rtl::emit_verilog(fn, sr.stg);
  printf(
      "\nwrote schedule_viewer_cdfg.dot, schedule_viewer_stg.dot and "
      "schedule_viewer.v%s\n",
      sr.rtl_exact ? "" : " (metrics-grade: fused loops present)");
  return 0;
}
