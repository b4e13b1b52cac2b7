#pragma once

#include "opt/engine.hpp"

namespace fact::opt {

/// Result of running a baseline method on a behavior.
struct BaselineResult {
  ir::Function fn;                 // the (possibly transformed) behavior
  sched::ScheduleResult schedule;
  double avg_len = 0.0;
  power::PowerEstimate power_nominal;  // at 5V
  std::vector<std::string> applied;    // transforms the method applied
};

/// Method M1 (Section 5): behavioral synthesis with no CDFG
/// transformations — only what the scheduler itself provides (implicit
/// loop unrolling / pipelining and concurrent-loop parallelization).
BaselineResult run_m1(const ir::Function& fn, const hlslib::Library& lib,
                      const hlslib::Allocation& alloc,
                      const hlslib::FuSelection& sel,
                      const sim::TraceConfig& trace_config,
                      const sched::SchedOptions& sched_opts,
                      const power::PowerOptions& power_opts, uint64_t seed);

/// A re-implementation of the Flamel policy (Trickey '87, ref [7]): the
/// same transformation suite as FACT, including across-basic-block moves,
/// but applied greedily by *static* criteria — no scheduling information
/// guides selection, and scheduling happens once at the end:
///  * speculation and full unrolling of small counted loops are applied
///    unconditionally (global compaction);
///  * constant propagation/folding, select fusion, factoring
///    distributivity, loop-invariant code motion, and tree-height-reducing
///    associativity are applied while they reduce (op count, tree height);
///  * no schedule-feedback transforms: partial unrolling and add/sub
///    regrouping (whose benefit exists only relative to a resource
///    environment) are never selected.
BaselineResult run_flamel(const ir::Function& fn, const hlslib::Library& lib,
                          const hlslib::Allocation& alloc,
                          const hlslib::FuSelection& sel,
                          const sim::TraceConfig& trace_config,
                          const sched::SchedOptions& sched_opts,
                          const power::PowerOptions& power_opts,
                          uint64_t seed);

}  // namespace fact::opt
