#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "ir/function.hpp"
#include "ir/statement_index.hpp"

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

/// Where each value of a flat observation comes from: the declared outputs
/// and then every array's cells, each in name order (the order in which the
/// Observation maps compare). Two behaviors observe alike only if their
/// layouts are equal: the same output names and the same array names and
/// sizes.
struct ObservationLayout {
  std::vector<std::string> outputs;                    // sorted, unique
  std::vector<std::pair<std::string, size_t>> arrays;  // (name, size), sorted
  size_t size = 0;  // values per execution

  /// The map-keyed Observation of one flat observation in this layout.
  Observation observation(std::span<const int64_t> values) const;

  bool operator==(const ObservationLayout& other) const = default;
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

/// Steps one execution may take unless set otherwise.
inline constexpr uint64_t kDefaultMaxSteps = 10'000'000;

/// A behavior's state at each boundary between two of its top-level
/// statements (and before the first and after the last), for every
/// execution of one trace, plus what each top-level statement added to the
/// pass's branch counts and each execution's steps. The state holds the
/// scalars by name, the memory, and the steps taken. A pass records them
/// (Interpreter::run_trace, resume_trace); resume_trace resumes a variant
/// of the behavior from them. Immutable once recorded, so any number of
/// threads may read them; a variant's share the states and arrays its
/// own pass did not change with the behavior's (defined in interp.cpp).
struct Checkpoints;
using CheckpointsPtr = std::shared_ptr<const Checkpoints>;

/// What resume_trace skipped (the write-only gate counters read it).
struct ResumeStats {
  uint64_t steps_skipped = 0;  // the parent's steps taken from checkpoints
  bool resumed = false;        // it ran only the variant's own statements
  bool diverged = false;       // ... and then the rest, as the state after
                               // them differed from the parent's
};

struct FragmentUnit;  // the fragments of passes; defined in interp.cpp

/// A search's store of compiled fragments, found by statement pointer:
/// what compiling a candidate reuses (see Interpreter and
/// ir::StatementIndex). StatementCode::add(fn) compiles the statements of
/// `fn` the store does not hold, as Interpreter(fn, &store) compiles them,
/// and keeps them; it throws fact::Error where the Interpreter would. An
/// Interpreter keeps no fragments (it compiles them into storage its
/// thread reuses), so a behavior whose variants are compiled is added
/// once.
using StatementCode = ir::StatementIndex<FragmentUnit>;

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
///  * operands evaluate left to right, a Store's index before its value;
///    `&&`/`||` evaluate both operands (hardware evaluates both cones);
///    Select evaluates only the chosen arm;
///  * every execution starts from reset: scalars that are not parameters
///    read 0 until written, and non-input arrays start zeroed;
///  * a statement counts one step when it starts, and a While one more per
///    iteration; execution aborts with fact::Error after `max_steps` steps,
///    which catches accidentally non-terminating behaviors. A read of an
///    undeclared array aborts when it is evaluated, before its index; a
///    store to one aborts before its index and value.
///
/// Construction compiles the function once into a linear instruction
/// stream of three-address instructions, `dst = op(a, b[, c])`, over one
/// int64 register file: the scalars first, then the expression temporaries,
/// then the constants (loaded once, read-only). Every operand is a register
/// index. If and While become counted conditional jumps, Select a jump over
/// the arm it does not choose, and a step instruction opens each run of
/// statements that no jump enters or leaves, counting them all at once
/// (none of them but the last can abort, so the step count and the order
/// of errors are those of one check per statement). A mark between two
/// top-level statements ends such a run, so the step count there is
/// exact; in a pass that records checkpoints the machine stops at it for
/// the pass to read the state.
/// Arrays live in one flat memory, one segment per array. Per-stimulus
/// execution never touches a string.
///
/// Compiling is two steps. Each statement, at every nesting level, first
/// compiles on its own into a relocatable fragment: its code, with the
/// names and constants it reads numbered in the order it first sees them,
/// its temporaries, its jumps relative to itself, its branch counters'
/// statement ids and its error messages; a compound statement's fragment
/// refers to its children's. A link then replays the fragments in program
/// order: it gives scalars and constants their registers in the order the
/// whole program first sees them, numbers the branch counters and errors,
/// and merges each statement's step into the open run, so the program is
/// the one a compile of the whole function in one walk would give. A
/// fragment depends only on its statement and the array declarations.
/// Compiling a variant against a StatementCode therefore reuses the
/// fragment of every statement the variant shares by pointer with the
/// functions added to it, and compiles only the rest.
///
/// The optimizer interprets each candidate over a whole trace (one pass
/// that both checks equivalence and profiles, see
/// sim::profile_if_equivalent). run_trace() runs such a pass in groups of
/// executions in lockstep, one instruction dispatch serving every
/// execution of a group while they all take the same branches; where they
/// part, each finishes alone, in execution order. Either way it hands out
/// each execution's observation as flat values in layout() order, in
/// execution order, from per-thread buffers reused across passes, and the
/// pass has the results of running the stimuli one at a time. The
/// compiled program snapshots the function: the Function need not outlive
/// the Interpreter. Construction throws fact::Error if the arrays hold
/// more than 2^31 - 1 cells in all.
class Interpreter {
 public:
  /// Compiles `fn`. With a `store`, each statement of `fn` that the store
  /// holds reuses the store's fragment, provided `fn` declares the same
  /// parameters, arrays and outputs as the functions added to it;
  /// otherwise every statement compiles. The program is the same either
  /// way.
  explicit Interpreter(const ir::Function& fn,
                       const StatementCode* store = nullptr);
  /// The same compile, also keeping what recording checkpoints reads (the
  /// scalars' names, the top-level statements' counters and arrays), which
  /// a plain compile leaves out as most passes never record.
  static Interpreter recording(const ir::Function& fn,
                               const StatementCode* store = nullptr);

  /// Step limit of one execution (not of a whole trace).
  void set_max_steps(uint64_t n) { max_steps_ = n; }

  /// The order of the values run_trace() hands out per execution.
  const ObservationLayout& layout() const;

  /// Runs one execution; accumulates branch statistics into `stats` if
  /// non-null. (On an aborted run — step limit, unknown array — `stats`
  /// is left untouched rather than partially updated.)
  Observation run(const Stimulus& in, RunStats* stats = nullptr) const;

  /// Runs every stimulus of `trace` and hands each execution's flat
  /// observation (layout() order; valid until `visit` returns) to
  /// `visit(index, values)`, in execution order; stops early, returning
  /// false, as soon as `visit` does. Each execution has the same result as
  /// run() on that stimulus, and the pass aborts just where running the
  /// stimuli one by one would: with the error of its first aborting
  /// execution, once `visit` has accepted every earlier one. Only a pass
  /// that runs the whole trace adds its branch statistics and steps to
  /// `stats` (if non-null); an early stop or an abort leaves `stats`
  /// untouched.
  bool run_trace(
      std::span<const Stimulus> trace, RunStats* stats,
      const std::function<bool(size_t, std::span<const int64_t>)>& visit)
      const;
  /// The same, also recording the checkpoints of `fn`, the function this
  /// Interpreter compiled (made by recording(); otherwise, and for a `fn`
  /// with one top-level statement, it records none), into `*record` when
  /// the pass runs the whole trace.
  bool run_trace(
      std::span<const Stimulus> trace, RunStats* stats,
      const std::function<bool(size_t, std::span<const int64_t>)>& visit,
      const ir::Function& fn, CheckpointsPtr* record) const;

  /// The compiled program as text, one line per instruction, then its
  /// register file, observation layout, branch counters' statement ids
  /// and error messages. Two compiles are the same program exactly when
  /// their listings are equal (the tests compare them).
  std::string listing() const;

  /// Statements this compile compiled; it reused the store's fragments of
  /// the others.
  size_t compiled_statements() const { return compiled_; }

  struct Program;  // compiled form; defined in interp.cpp

 private:
  Interpreter(const ir::Function& fn, const StatementCode* store,
              bool tables);

  std::shared_ptr<const Program> prog_;
  size_t compiled_ = 0;
  uint64_t max_steps_ = kDefaultMaxSteps;
};

/// Runs `fn`, compiled against `store`, over `trace` as
/// Interpreter(fn, store) with `max_steps` runs run_trace(trace, stats,
/// visit), but resumed from the checkpoints of `parent`, which were
/// recorded over the same stimuli (by address). Let `fn` share its first p
/// and last s top-level statements with `parent`'s behavior, by pointer.
/// Each execution then starts from its state at the parent's boundary p
/// and runs only the statements in between, on a program linked from just
/// those. Where every execution's state after them equals the parent's at
/// its boundary s statements before its end (every scalar the parent's
/// state holds, and all memory), the rest runs as it did for the parent:
/// no execution is visited, as each observes what the parent observed, and
/// the parent's counts of the last s statements complete the statistics.
/// Otherwise the last s statements run from the variant's own states and
/// every execution is visited. So the result is run_trace's whenever
/// `visit` accepts each of the parent's observations. Should an execution
/// abort, or a total cross `max_steps`, the whole trace runs from reset
/// instead. A pass that resumed records fn's checkpoints into `*record`
/// (if non-null) when it runs the whole trace; they share the parent's
/// outside the statements it ran. Returns nullopt, having run nothing,
/// where it would not resume: other stimuli, other declarations, or fewer
/// than 64 of the parent's steps per execution in its first p and last s
/// statements (so also p = s = 0). `how` (if non-null) receives what it
/// skipped, once it resumed. `visit` must not call resume_trace: the
/// observations it gets live in storage its thread reuses.
std::optional<bool> resume_trace(
    const ir::Function& fn, const StatementCode* store,
    const Checkpoints& parent, std::span<const Stimulus> trace,
    RunStats* stats,
    const std::function<bool(size_t, std::span<const int64_t>)>& visit,
    CheckpointsPtr* record, ResumeStats* how = nullptr,
    uint64_t max_steps = kDefaultMaxSteps);

}  // namespace fact::sim

extern template class fact::ir::StatementIndex<fact::sim::FragmentUnit>;
