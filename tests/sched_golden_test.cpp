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
#include <sstream>

#include "opt/fact.hpp"
#include "program_gen.hpp"
#include "sched/scheduler.hpp"
#include "sim/trace.hpp"
#include "util/error.hpp"
#include "util/strfmt.hpp"
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
    for (const stg::OpInstance& op : s.ops)
      out += strfmt(
          "  %s op=%s fu=%s stmt=%d it=%d val=%s def=%s operands=[%s] "
          "pre=[%s] lag=%d store=%d array=%s\n",
          op.label.c_str(), ir::op_token(op.op), op.fu_type.c_str(),
          op.stmt_id, op.iteration, op.value_name.c_str(), op.def_var.c_str(),
          join(op.operands).c_str(), join(op.pre_readers).c_str(), op.lag,
          op.is_store ? 1 : 0, op.array.c_str());
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

/// Schedules `fn` under its profile on `trace`; a scheduling failure is
/// part of the pinned output too.
std::string schedule_and_render(const ir::Function& fn,
                                const hlslib::Allocation& alloc,
                                const sim::Trace& trace) {
  const hlslib::Library lib = hlslib::Library::dac98();
  const sim::Profile profile = sim::profile_function(fn, trace);
  try {
    const Scheduler s(lib, alloc, hlslib::FuSelection::defaults(lib));
    return render(s.schedule(fn, profile));
  } catch (const Error& e) {
    return std::string("error: ") + e.what() + "\n";
  }
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
  const opt::FactOptions fo;  // the flow's trace seed and length
  for (const char* name : {"GCD", "FIR", "TEST2", "SINTRAN", "IGF", "PPS"}) {
    const workloads::Workload w = workloads::by_name(name);
    sim::TraceConfig tc = w.trace;
    if (tc.executions == 0) tc.executions = fo.trace_executions;
    const sim::Trace trace = sim::generate_trace(w.fn, tc, fo.seed);
    expect_golden(std::string("table2_") + name,
                  schedule_and_render(w.fn, w.allocation, trace));
  }
}

TEST(SchedGolden, GeneratedPrograms) {
  const hlslib::Library lib = hlslib::Library::dac98();
  sim::TraceConfig tc;
  tc.executions = 6;
  for (const bool concurrent : {false, true}) {
    testgen::GenOptions gen;
    gen.concurrent_loops = concurrent;
    for (uint64_t seed = 1; seed <= 12; ++seed) {
      // Alternate one and two instances of every FU type, so both tight
      // and roomy resource tables are pinned.
      hlslib::Allocation alloc;
      for (const auto& t : lib.types())
        alloc.counts[t.name] = 1 + static_cast<int>(seed % 2);
      const ir::Function fn = testgen::random_program(seed, gen);
      const sim::Trace trace = sim::generate_trace(fn, tc, 7);
      expect_golden(strfmt("gen_%s_s%02d", concurrent ? "concurrent" : "plain",
                           static_cast<int>(seed)),
                    schedule_and_render(fn, alloc, trace));
    }
  }
}

}  // namespace
}  // namespace fact::sched
