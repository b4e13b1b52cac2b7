#pragma once

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "ir/function.hpp"
#include "stg/stg.hpp"

namespace fact::rtl {

/// One datapath action inside a state, in emission order. `srcs` are the
/// operand tokens after shadow-register rewriting: a decimal literal, a
/// register (IR variable) name, a wire name, or "<var>__pre".
struct RtlStep {
  stg::OpInstance op;  // views storage RtlPlan::owners keeps alive
  std::vector<std::string> srcs;
  /// Shadow captures to perform before this step: each named variable v
  /// is copied into v__pre (the step is about to overwrite v while later
  /// steps still need the old value).
  std::vector<std::string> captures;
};

/// One FSM transition. Evaluated in order; the first match fires. An empty
/// signal always fires (the else branch). `on_true` selects firing on
/// signal != 0 (loop taken / branch true) vs signal == 0 (exit / else).
struct RtlTransition {
  std::string signal;
  bool on_true = true;
  int target = -1;
  bool boundary = false;  // completes one execution of the behavior
};

struct RtlState {
  std::vector<RtlStep> steps;
  std::vector<RtlTransition> transitions;
};

/// The complete FSM + datapath plan derived from a scheduled STG — the
/// single source of truth for both the Verilog printer and the cycle-level
/// RTL simulator (which is tested for equivalence against the behavioral
/// interpreter).
struct RtlPlan {
  int entry = 0;
  std::vector<RtlState> states;
  std::set<std::string> vars;            // IR variables (registers)
  std::set<std::string> wires;           // scheduler-generated result wires
  std::set<std::string> shadowed;        // variables with a __pre shadow
  std::set<std::string> written_params;  // params latched from in_* ports
  /// The STG's owners (Stg::owners): what the steps' ops view.
  std::vector<std::shared_ptr<const void>> owners;
};

/// Derives the plan: wire/variable inventory, shadow-register insertion
/// for anti-dependences the scheduler relaxed (pre_readers at or after
/// their definition in emission order), and ordered transitions mapping
/// STG edge labels (T/F/loop/exit*) onto condition signals.
RtlPlan build_rtl_plan(const ir::Function& fn, const stg::Stg& stg);

}  // namespace fact::rtl
