// Robustness bench: what the guarded pipeline costs and what it buys.
//
// Part 1 — verification overhead: the same optimization run at
// --validate off / fast / full, reporting wall-clock per level and
// confirming the winner is identical (validation must never change the
// outcome on healthy inputs, only its cost).
//
// Part 2 — graceful degradation under fault injection: corrupt an
// increasing fraction of transform rewrites and report how many
// candidates the engine quarantines, whether the result stays
// equivalent, and when the search degrades to the baseline design.

#include <chrono>
#include <cinttypes>
#include <cstdio>

#include "bench_util.hpp"
#include "verify/fault_injector.hpp"
#include "verify/verify.hpp"

namespace {

using namespace fact;

double run_timed(const bench::Env& env, const workloads::Workload& w,
                 const sim::Trace& trace, const xform::TransformLibrary& xf,
                 verify::Level level, opt::EngineResult* out) {
  opt::EngineOptions eo;
  eo.validate = level;
  opt::TransformEngine engine(env.lib, w.allocation, env.sel, env.sched_opts,
                              env.power_opts, xf, eo);
  const opt::Evaluation base =
      engine.evaluate(w.fn, trace, opt::Objective::Throughput, 0);
  const auto t0 = std::chrono::steady_clock::now();
  *out = engine.optimize(w.fn, trace, opt::Objective::Throughput, {},
                         base.avg_len);
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main() {
  bench::Env env;
  const auto xf = xform::TransformLibrary::standard();

  printf("Verification overhead (one optimize() run per level; ms)\n");
  bench::rule('=');
  printf("%-8s %9s %9s %9s | %9s %9s  %s\n", "Circuit", "off", "fast", "full",
         "fast-ovh", "full-ovh", "same winner");
  bench::rule('=');
  for (const char* name : {"GCD", "TEST2", "SINTRAN", "PPS"}) {
    const workloads::Workload w = workloads::by_name(name);
    const sim::Trace trace = sim::generate_trace(w.fn, w.trace, env.seed);
    opt::EngineResult r_off, r_fast, r_full;
    const double t_off =
        run_timed(env, w, trace, xf, verify::Level::Off, &r_off);
    const double t_fast =
        run_timed(env, w, trace, xf, verify::Level::Fast, &r_fast);
    const double t_full =
        run_timed(env, w, trace, xf, verify::Level::Full, &r_full);
    const bool same = r_off.best.str() == r_fast.best.str() &&
                      r_fast.best.str() == r_full.best.str();
    printf("%-8s %9.1f %9.1f %9.1f | %8.1f%% %8.1f%%  %s\n", name, t_off,
           t_fast, t_full, 100.0 * (t_fast - t_off) / t_off,
           100.0 * (t_full - t_off) / t_off, same ? "yes" : "NO");
  }
  bench::rule('=');

  printf("\nGraceful degradation under fault injection (GCD)\n");
  bench::rule('=');
  printf("%-6s %9s %11s %9s %9s  %s\n", "rate", "injected", "quarantined",
         "avg len", "equiv", "degraded");
  bench::rule('=');
  const workloads::Workload w = workloads::by_name("GCD");
  const sim::Trace trace = sim::generate_trace(w.fn, w.trace, env.seed);
  for (const double rate : {0.0, 0.2, 0.5, 1.0}) {
    verify::FaultInjectorOptions fo;
    fo.rate = rate;
    fo.seed = 17;
    verify::FaultInjector injector(xf, fo);
    opt::EngineResult r;
    run_timed(env, w, trace, injector, verify::Level::Full, &r);
    const bool equiv = sim::equivalent_on_trace(w.fn, r.best, trace);
    printf("%-6.2f %9d %11" PRIu64 " %9.2f %9s  %s\n", rate,
           injector.injected_total(), r.counts.quarantined, r.best_eval.avg_len, equiv ? "yes" : "NO",
           r.degraded_to_baseline ? "baseline" : "-");
  }
  bench::rule('=');
  printf(
      "off/fast/full = EngineOptions::validate level. fast adds the deep IR\n"
      "checks on every applied rewrite; full additionally verifies every\n"
      "candidate schedule (STG structure + allocation legality). The winner\n"
      "must be identical across levels: checking is observability, not\n"
      "policy. Under injection the engine quarantines corrupted candidates\n"
      "and, at rate 1.0, returns the untransformed baseline design.\n");
  return 0;
}
