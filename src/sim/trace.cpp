#include "sim/trace.hpp"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hpp"

namespace fact::sim {

namespace {

int64_t clamp(int64_t v, int64_t lo, int64_t hi) {
  return std::min(std::max(v, lo), hi);
}

class SpecSampler {
 public:
  SpecSampler(const InputSpec& spec, Rng& rng)
      : spec_(spec), rng_(rng), filter_(spec.rho) {}

  int64_t next() {
    switch (spec_.kind) {
      case InputSpec::Kind::Constant:
        return spec_.constant;
      case InputSpec::Kind::Uniform:
        return rng_.uniform_int(spec_.lo, spec_.hi);
      case InputSpec::Kind::Gaussian: {
        const double v =
            spec_.mean + spec_.stddev * filter_.step(rng_.gaussian());
        return clamp(static_cast<int64_t>(std::llround(v)), spec_.lo, spec_.hi);
      }
    }
    return 0;
  }

 private:
  const InputSpec& spec_;
  Rng& rng_;
  Ar1Filter filter_;
};

const InputSpec& spec_or_default(const std::map<std::string, InputSpec>& m,
                                 const std::string& name) {
  static const InputSpec kDefault{InputSpec::Kind::Gaussian, 8.0, 4.0, 0.8,
                                  0, 16, 0};
  auto it = m.find(name);
  return it == m.end() ? kDefault : it->second;
}

}  // namespace

Trace generate_trace(const ir::Function& fn, const TraceConfig& config,
                     uint64_t seed) {
  static obs::Counter& traces = obs::Registry::global().counter(
      "fact_sim_traces_generated_total", "Stimulus traces generated");
  traces.inc();
  Rng rng(seed);
  Trace trace;
  trace.reserve(config.executions);

  // One persistent sampler per input so temporal correlation spans the
  // whole trace, as in the paper's AR-filtered stimuli.
  std::map<std::string, SpecSampler> param_samplers;
  for (const auto& p : fn.params())
    param_samplers.emplace(p,
                           SpecSampler(spec_or_default(config.params, p), rng));
  std::map<std::string, SpecSampler> array_samplers;
  for (const auto& a : fn.arrays())
    if (a.is_input)
      array_samplers.emplace(
          a.name, SpecSampler(spec_or_default(config.arrays, a.name), rng));

  for (size_t e = 0; e < config.executions; ++e) {
    Stimulus s;
    for (const auto& p : fn.params()) s.params[p] = param_samplers.at(p).next();
    for (const auto& a : fn.arrays()) {
      if (!a.is_input) continue;
      auto& mem = s.arrays[a.name];
      mem.reserve(a.size);
      auto& sampler = array_samplers.at(a.name);
      for (size_t i = 0; i < a.size; ++i) mem.push_back(sampler.next());
    }
    trace.push_back(std::move(s));
  }
  return trace;
}

namespace {

// Every whole-trace interpreter pass, whatever its purpose, and every
// complete profile it produced.
obs::Counter& trace_passes() {
  static obs::Counter& c = obs::Registry::global().counter(
      "fact_sim_trace_passes_total",
      "Whole-trace interpreter passes (profiling, reference and equivalence)");
  return c;
}
obs::Counter& profiles() {
  static obs::Counter& c = obs::Registry::global().counter(
      "fact_sim_profiles_total",
      "Whole-trace profiles produced (incl. every gauntlet survivor's)");
  return c;
}

using Visit = std::function<bool(size_t, std::span<const int64_t>)>;

/// One interpreter pass of `fn` over the trace (Interpreter::run_trace):
/// hands each execution's observation to `visit(index, values)` and, when
/// `profile` is non-null, aggregates branch statistics into it; records
/// the checkpoints of `fn`, the function `interp` compiled, into `*record`
/// when non-null. Stops early, returning false, as soon as `visit` does.
bool simulate_trace(const Interpreter& interp, const Trace& trace,
                    Profile* profile, const Visit& visit,
                    const ir::Function* fn = nullptr,
                    CheckpointsPtr* record = nullptr) {
  trace_passes().inc();
  RunStats* stats = profile ? &profile->stats : nullptr;
  if (!(record ? interp.run_trace(trace, stats, visit, *fn, record)
               : interp.run_trace(trace, stats, visit)))
    return false;
  if (profile) {
    profile->executions += trace.size();
    profiles().inc();
  }
  return true;
}

/// Appends each execution's observation to `out`, laid out as `interp`'s.
Visit recorder(const Interpreter& interp, size_t executions,
               Observations& out) {
  out.layout = interp.layout();
  out.values.reserve(executions * out.layout.size);
  return [&out](size_t, std::span<const int64_t> ob) {
    out.values.insert(out.values.end(), ob.begin(), ob.end());
    out.executions++;
    return true;
  };
}

/// The gate passes' skipped and executed steps, and the resumed ones whose
/// state did not rejoin the parent's (write-only).
struct GateCounters {
  obs::Counter& run = obs::Registry::global().counter(
      "fact_sim_gate_steps_run_total",
      "Steps the gate passes that returned a profile executed");
  obs::Counter& skipped = obs::Registry::global().counter(
      "fact_sim_gate_steps_skipped_total",
      "Steps of those passes taken from the parent's checkpoints instead");
  obs::Counter& diverged = obs::Registry::global().counter(
      "fact_sim_gate_diverged_total",
      "Resumed gate passes whose state did not rejoin the parent's");
};
GateCounters& gate_counters() {
  static GateCounters c;
  return c;
}

/// Compares each execution's observation with the same execution's in
/// `reference`; false at the first mismatch. A behavior observing another
/// layout (`same_layout` false) mismatches on the first execution it
/// finishes.
Visit comparer(bool same_layout, const Observations& reference) {
  return [&reference, same_layout](size_t i, std::span<const int64_t> ob) {
    if (!same_layout || i >= reference.executions) return false;
    return std::equal(ob.begin(), ob.end(),
                      reference.values.begin() +
                          static_cast<ptrdiff_t>(i * ob.size()));
  };
}

}  // namespace

Observation Observations::at(size_t i) const {
  return layout.observation(
      std::span(values).subspan(i * layout.size, layout.size));
}

Profile profile_function(const ir::Function& fn, const Trace& trace) {
  Profile profile;
  simulate_trace(Interpreter(fn), trace, &profile,
                 [](size_t, std::span<const int64_t>) { return true; });
  return profile;
}

bool equivalent_on_trace(const ir::Function& a, const ir::Function& b,
                         const Trace& trace) {
  // Side by side, one execution at a time, so that a mismatch or an abort
  // stops both runs early: `a`'s pass runs `b` on each stimulus it has
  // just run and compares with `a`'s observation as it stands. Still two
  // passes.
  trace_passes().inc(2);
  const Interpreter ia(a);
  const Interpreter ib(b);
  const bool same_layout = ia.layout() == ib.layout();
  std::span<const int64_t> expected;
  const Visit compare = [&](size_t, std::span<const int64_t> ob) {
    return same_layout && std::equal(ob.begin(), ob.end(), expected.begin());
  };
  return ia.run_trace(trace, nullptr,
                      [&](size_t i, std::span<const int64_t> ob) {
                        expected = ob;
                        return ib.run_trace(std::span(&trace[i], 1), nullptr,
                                            compare);
                      });
}

Observations reference_observations(const ir::Function& fn, const Trace& trace,
                                    Profile* profile) {
  return reference_observations(Interpreter(fn), trace, profile);
}

Observations reference_observations(const Interpreter& interp,
                                    const Trace& trace, Profile* profile) {
  Observations out;
  simulate_trace(interp, trace, profile, recorder(interp, trace.size(), out));
  return out;
}

Observations reference_observations(const ir::Function& fn,
                                    const StatementCode* store,
                                    const Trace& trace, Profile* profile,
                                    CheckpointsPtr* checkpoints) {
  const Interpreter interp = Interpreter::recording(fn, store);
  Observations out;
  simulate_trace(interp, trace, profile, recorder(interp, trace.size(), out),
                 &fn, checkpoints);
  return out;
}

std::optional<Profile> profile_if_equivalent(const ir::Function& fn,
                                             const Trace& trace,
                                             const Observations& reference) {
  return profile_if_equivalent(Interpreter(fn), trace, reference);
}

std::optional<Profile> profile_if_equivalent(const Interpreter& interp,
                                             const Trace& trace,
                                             const Observations& reference) {
  Profile profile;
  if (!simulate_trace(interp, trace, &profile,
                      comparer(interp.layout() == reference.layout,
                               reference)))
    return std::nullopt;
  return profile;
}

std::optional<Profile> profile_if_equivalent(const ir::Function& fn,
                                             const StatementCode* store,
                                             const Trace& trace,
                                             const Observations& reference,
                                             const Checkpoints* parent,
                                             CheckpointsPtr* checkpoints) {
  trace_passes().inc();
  Profile profile;
  ResumeStats how;
  // A parent has the reference's layout, and a variant it resumes has the
  // parent's declarations.
  std::optional<bool> passed =
      parent ? resume_trace(fn, store, *parent, trace, &profile.stats,
                            comparer(true, reference), checkpoints, &how)
             : std::nullopt;
  if (!passed) {
    const Interpreter interp(fn, store);
    passed = interp.run_trace(
        trace, &profile.stats,
        comparer(interp.layout() == reference.layout, reference));
  }
  if (!*passed) return std::nullopt;
  profile.executions = trace.size();
  profiles().inc();
  GateCounters& c = gate_counters();
  c.run.inc(profile.stats.steps - how.steps_skipped);
  if (how.steps_skipped) c.skipped.inc(how.steps_skipped);
  if (how.diverged) c.diverged.inc();
  return profile;
}

}  // namespace fact::sim
