#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ir/function.hpp"

namespace fact::sim {

/// One set of inputs for one execution of a behavior: values for every
/// scalar parameter and initial contents for every `input` array.
struct Stimulus {
  std::map<std::string, int64_t> params;
  std::map<std::string, std::vector<int64_t>> arrays;
};

/// Observable results of one execution: declared output scalars plus the
/// final contents of every array. Used to check functional equivalence
/// between original and transformed behaviors.
struct Observation {
  std::map<std::string, int64_t> outputs;
  std::map<std::string, std::vector<int64_t>> arrays;

  bool operator==(const Observation& other) const = default;
};

/// Per-branch execution counts keyed by statement id. For an If, `taken`
/// counts executions where the condition was true. For a While, `taken`
/// counts evaluations where the loop closed (condition true).
struct BranchStats {
  uint64_t taken = 0;
  uint64_t total = 0;

  double probability() const {
    return total == 0 ? 0.0 : static_cast<double>(taken) / static_cast<double>(total);
  }
};

/// Result of interpreting a behavior over one or more stimuli.
struct RunStats {
  std::map<int, BranchStats> branches;  // stmt id -> stats
  uint64_t steps = 0;                   // statements executed

  /// Branch probability for a statement id; `fallback` if never executed.
  double branch_prob(int stmt_id, double fallback = 0.5) const;
  /// Expected iterations of a While = p/(1-p) where p is its closing prob.
  double expected_iterations(int stmt_id, double fallback = 1.0) const;
};

/// A "typical input trace": one Stimulus per execution of the behavior.
using Trace = std::vector<Stimulus>;

/// Reference interpreter for the behavior IR.
///
/// Semantics notes:
///  * all values are int64 and every operator's value is ir::eval_op():
///    Add, Sub and Mul wrap in two's complement on overflow, as a hardware
///    adder or multiplier does; shift amounts use their low 6 bits;
///    comparisons and boolean connectives yield 0/1;
///  * array indices wrap modulo the array size (ir::wrap_index: memories
///    alias like real address decoders), so every store/read is defined
///    for any index;
///  * `&&`/`||` evaluate both operands (hardware evaluates both cones);
///    Select evaluates only the chosen arm;
///  * every execution starts from reset: scalars that are not parameters
///    read 0 until written, and non-input arrays start zeroed;
///  * execution aborts with fact::Error after `max_steps` statements,
///    which catches accidentally non-terminating behaviors.
///
/// Construction compiles the function once into a slot-indexed program:
/// every scalar and array name is resolved to a dense register/memory
/// index, so per-stimulus execution never touches a string. The optimizer
/// interprets each candidate over a whole trace (one pass that both checks
/// equivalence and profiles, see sim::profile_if_equivalent); run_trace()
/// runs such a pass on one machine, reset between stimuli. The compiled
/// program snapshots the function: the Function need not outlive the
/// Interpreter.
class Interpreter {
 public:
  explicit Interpreter(const ir::Function& fn);

  /// Step limit of one execution (not of a whole trace).
  void set_max_steps(uint64_t n) { max_steps_ = n; }

  /// Runs one execution; accumulates branch statistics into `stats` if
  /// non-null. (On an aborted run — step limit, unknown array — `stats`
  /// is left untouched rather than partially updated.)
  Observation run(const Stimulus& in, RunStats* stats = nullptr) const;

  /// Runs every stimulus of `trace`, in order, on one machine and hands
  /// each execution's observation to `visit(index, observation)`; stops
  /// early, returning false, as soon as `visit` does. Each execution has
  /// the same result as run() on that stimulus. Only a pass that runs the
  /// whole trace adds its branch statistics and steps to `stats` (if
  /// non-null); an early stop or an abort leaves `stats` untouched.
  bool run_trace(const Trace& trace, RunStats* stats,
                 const std::function<bool(size_t, Observation&&)>& visit)
      const;

  struct Program;  // compiled form; defined in interp.cpp

 private:
  std::shared_ptr<const Program> prog_;
  uint64_t max_steps_ = 10'000'000;
};

}  // namespace fact::sim
