#pragma once

// Shared setup for the reproduction benches: every table/figure binary
// uses the Section 5 library, the Table 3 allocations carried by each
// workload, and deterministic seeds, so two runs print identical tables.

#include <cstdio>

#include "opt/baselines.hpp"
#include "opt/fact.hpp"
#include "workloads/workloads.hpp"

namespace fact::bench {

struct Env {
  hlslib::Library lib = hlslib::Library::dac98();
  hlslib::FuSelection sel = hlslib::FuSelection::defaults(lib);
  sched::SchedOptions sched_opts;
  power::PowerOptions power_opts;
  uint64_t seed = 7;
  int jobs = 1;  // worker threads for the FACT engine (0 = hardware)
};

struct MethodRun {
  double avg_len = 0.0;
  double power_nominal = 0.0;     // at 5V
  double power_scaled = 0.0;      // P-opt mode (Vdd-scaled, iso-throughput)
  double vdd = 5.0;
  size_t transforms = 0;
};

inline MethodRun run_m1(const Env& env, const workloads::Workload& w) {
  const auto r = opt::run_m1(w.fn, env.lib, w.allocation, env.sel, w.trace,
                             env.sched_opts, env.power_opts, env.seed);
  MethodRun out;
  out.avg_len = r.avg_len;
  out.power_nominal = r.power_nominal.power;
  out.power_scaled = r.power_nominal.power;  // M1 is its own base case
  return out;
}

inline MethodRun run_flamel(const Env& env, const workloads::Workload& w) {
  const auto r = opt::run_flamel(w.fn, env.lib, w.allocation, env.sel,
                                 w.trace, env.sched_opts, env.power_opts,
                                 env.seed);
  MethodRun out;
  out.avg_len = r.avg_len;
  out.power_nominal = r.power_nominal.power;
  out.transforms = r.applied.size();
  return out;
}

inline MethodRun run_fact(const Env& env, const workloads::Workload& w,
                          opt::Objective objective) {
  opt::FactOptions fo;
  fo.objective = objective;
  fo.sched = env.sched_opts;
  fo.power = env.power_opts;
  fo.seed = env.seed;
  fo.engine.jobs = env.jobs;
  const auto xf = xform::TransformLibrary::standard();
  const auto r =
      opt::run_fact(w.fn, env.lib, w.allocation, env.sel, w.trace, xf, fo);
  MethodRun out;
  out.avg_len = r.final_avg_len;
  out.power_nominal = r.final_power.power;
  out.power_scaled = r.final_power.power;
  out.vdd = r.final_power.vdd;
  out.transforms = r.applied.size();
  return out;
}

/// Throughput in the paper's Table 2 unit: cycles^-1 x 1000.
inline double throughput_k(double avg_len) { return 1000.0 / avg_len; }

inline void rule(char c = '-', int n = 78) {
  for (int i = 0; i < n; ++i) std::putchar(c);
  std::putchar('\n');
}

}  // namespace fact::bench
