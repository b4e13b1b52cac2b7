#pragma once

#include "hlslib/library.hpp"
#include "power/power.hpp"
#include "sched/scheduler.hpp"
#include "sim/trace.hpp"

namespace fact::opt {

/// Result of functional-unit selection exploration.
struct FuSelectResult {
  hlslib::FuSelection selection;
  hlslib::Allocation allocation;   // counts transferred to chosen types
  double power = 0.0;              // iso-throughput, Vdd-scaled
  double avg_len = 0.0;            // at 5V
  std::vector<std::string> log;    // accepted swaps
};

/// Greedy exploration of the FU selection (one of Figure 5's inputs):
/// for every operation class with library alternatives (e.g. a fast
/// carry-lookahead adder vs. a low-power ripple-carry one), try moving the
/// class onto each alternative, reschedule, and keep the swap if the
/// iso-throughput power improves while the average schedule length stays
/// within `baseline_len` (the paper's performance constraint). Slower
/// units multi-cycle automatically, so a swap is only accepted when the
/// schedule absorbs the extra latency.
FuSelectResult explore_fu_selection(const ir::Function& fn,
                                    const hlslib::Library& lib,
                                    const hlslib::Allocation& alloc,
                                    const hlslib::FuSelection& initial,
                                    const sim::Trace& trace,
                                    const sched::SchedOptions& sched_opts,
                                    const power::PowerOptions& power_opts,
                                    double baseline_len);

}  // namespace fact::opt
