#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "sim/interp.hpp"
#include "util/rng.hpp"

namespace fact::sim {

/// How to generate values for one input (scalar parameter or input array).
/// The paper derives its power-estimation inputs from a zero-mean Gaussian
/// sequence passed through an autoregressive filter (Section 5); Gaussian
/// is therefore the default. Values are clamped into [lo, hi] so behaviors
/// with data-dependent loop bounds stay in their intended operating range.
struct InputSpec {
  enum class Kind { Gaussian, Uniform, Constant } kind = Kind::Gaussian;
  double mean = 0.0;
  double stddev = 1.0;
  double rho = 0.9;  // AR(1) temporal correlation (Gaussian only)
  int64_t lo = -1'000'000;
  int64_t hi = 1'000'000;
  int64_t constant = 0;
};

/// Trace configuration: a spec per scalar parameter and per input array.
/// Unspecified inputs default to a mild Gaussian.
struct TraceConfig {
  std::map<std::string, InputSpec> params;
  std::map<std::string, InputSpec> arrays;
  size_t executions = 32;  // number of stimuli in the trace
};

/// Generates a deterministic trace for `fn` from `config` and `seed`.
Trace generate_trace(const ir::Function& fn, const TraceConfig& config,
                     uint64_t seed);

/// Profiling result: aggregated branch statistics over a full trace.
struct Profile {
  RunStats stats;
  size_t executions = 0;

  double branch_prob(int stmt_id, double fallback = 0.5) const {
    return stats.branch_prob(stmt_id, fallback);
  }
  double expected_iterations(int stmt_id, double fallback = 1.0) const {
    return stats.expected_iterations(stmt_id, fallback);
  }
  /// Average statements executed per execution (a coarse software cost).
  double avg_steps() const {
    return executions == 0
               ? 0.0
               : static_cast<double>(stats.steps) / static_cast<double>(executions);
  }
};

/// Simulates the behavior over the whole trace and aggregates branch
/// statistics. This is the paper's "simulation is done only once during an
/// execution of the algorithm" step: the resulting probabilities are reused
/// by the scheduler, the STG analysis and the power model.
Profile profile_function(const ir::Function& fn, const Trace& trace);

/// Runs both functions over the trace and returns true iff every execution
/// produces identical observations. Used to check that transformations
/// preserve functionality. The two run side by side: `b` runs each
/// stimulus once `a` has run it, and the two observations are compared;
/// the first abort or mismatch, in execution order, ends the check.
bool equivalent_on_trace(const ir::Function& a, const ir::Function& b,
                         const Trace& trace);

/// The observations of every execution of a trace, in one flat buffer:
/// execution i observes values[i * layout.size, (i + 1) * layout.size).
struct Observations {
  ObservationLayout layout;
  size_t executions = 0;
  std::vector<int64_t> values;

  /// Execution `i`'s observation as an Observation.
  Observation at(size_t i) const;
};

/// Simulates the behavior over the whole trace and records what each
/// execution observes: the reference profile_if_equivalent() checks
/// transformed behaviors against. The same pass profiles the behavior into
/// `profile` when non-null (equal to profile_function(fn, trace)).
Observations reference_observations(const ir::Function& fn, const Trace& trace,
                                    Profile* profile = nullptr);
/// The same, with the behavior already compiled.
Observations reference_observations(const Interpreter& interp,
                                    const Trace& trace,
                                    Profile* profile = nullptr);
/// The same, with `fn` compiled against `store` (when non-null), also
/// recording fn's checkpoints into `*checkpoints` when the pass runs the
/// whole trace: what profile_if_equivalent resumes fn's variants from.
Observations reference_observations(const ir::Function& fn,
                                    const StatementCode* store,
                                    const Trace& trace, Profile* profile,
                                    CheckpointsPtr* checkpoints);

/// One interpreter pass that both checks and profiles a transformed
/// behavior: runs `fn` over the trace, comparing each execution's
/// observation with `reference` (from reference_observations() of the
/// original) value by value. Stops at the first mismatch and returns
/// nullopt; otherwise returns the profile, equal to
/// profile_function(fn, trace). A behavior whose layout differs from the
/// reference's (another output, a missing or resized array) mismatches on
/// execution 0, once it has run. Agrees with equivalent_on_trace(original,
/// fn, trace) whenever the original runs the whole trace without aborting;
/// an aborting `fn` throws just the same.
std::optional<Profile> profile_if_equivalent(const ir::Function& fn,
                                             const Trace& trace,
                                             const Observations& reference);
/// The same, with the behavior already compiled.
std::optional<Profile> profile_if_equivalent(const Interpreter& interp,
                                             const Trace& trace,
                                             const Observations& reference);
/// The same pass for `fn` compiled against `store` (when non-null), resumed
/// from the checkpoints of `parent` (when non-null) where sim::resume_trace
/// does: `parent` must be a behavior whose own pass over `trace` matched
/// `reference` (the original's, recorded by reference_observations, or a
/// variant's, recorded here). When the pass resumed and returns a profile,
/// and `checkpoints` is non-null, fn's checkpoints go to `*checkpoints`; a
/// pass from reset records none. The result is always the one
/// profile_if_equivalent(fn, trace, reference) gives: the same profile,
/// nullopt, or the same error. Each call is one trace pass.
std::optional<Profile> profile_if_equivalent(const ir::Function& fn,
                                             const StatementCode* store,
                                             const Trace& trace,
                                             const Observations& reference,
                                             const Checkpoints* parent,
                                             CheckpointsPtr* checkpoints);

}  // namespace fact::sim
