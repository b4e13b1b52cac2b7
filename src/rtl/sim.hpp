#pragma once

#include "rtl/plan.hpp"
#include "sim/interp.hpp"

namespace fact::rtl {

struct RtlSimResult {
  sim::Observation obs;   // outputs + final memory contents
  long cycles = 0;        // clock cycles to the done pulse
  bool completed = false; // done observed before the cycle cap
};

/// Cycle-level execution of an RtlPlan: exactly the semantics the Verilog
/// backend prints (blocking assignments in step order, shadow captures,
/// ordered transitions, parameter latching at boundaries). One execution
/// of the behavior is run per call, starting from reset, with the
/// stimulus' parameter values and preloaded input memories. Operator
/// values come from ir::eval_op and memory indices from ir::wrap_index,
/// the definitions the behavioral interpreter uses too.
///
/// Used by the test suite to prove the emitted hardware is functionally
/// equivalent to the behavioral interpreter.
RtlSimResult simulate_rtl(const ir::Function& fn, const RtlPlan& plan,
                          const sim::Stimulus& stimulus,
                          long max_cycles = 1'000'000);

}  // namespace fact::rtl
