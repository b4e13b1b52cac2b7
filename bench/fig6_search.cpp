// Reproduces the Figure 5/6 algorithm behavior: the Apply_transforms
// population search. Prints the per-generation best score (the convergence
// trace), the winning transform sequence, and the search statistics for
// a CFI benchmark.

#include <cinttypes>
#include <cstdio>

#include "bench_util.hpp"

int main() {
  using namespace fact;
  bench::Env env;
  const workloads::Workload w = workloads::make_sintran();

  const sim::Trace trace = sim::generate_trace(w.fn, w.trace, env.seed);
  const auto xforms = xform::TransformLibrary::standard();
  opt::EngineOptions eo;
  eo.max_outer_iters = 6;
  opt::TransformEngine engine(env.lib, w.allocation, env.sel, env.sched_opts,
                              env.power_opts, xforms, eo);
  const opt::Evaluation base =
      engine.evaluate(w.fn, trace, opt::Objective::Throughput, 0);

  printf("Figure 6: Apply_transforms on SINTRAN (throughput objective)\n");
  bench::rule();
  printf("initial schedule length: %.2f cycles\n\n", base.avg_len);

  const opt::EngineResult r = engine.optimize(
      w.fn, trace, opt::Objective::Throughput, {}, base.avg_len);

  printf("convergence (best schedule length after each generation):\n");
  for (const opt::GenerationTelemetry& g : r.telemetry.generations)
    printf("  generation %d: %.2f cycles (%.2fx)\n", g.outer, g.best_score,
           base.avg_len / g.best_score);
  printf("\nwinning transform sequence:\n");
  for (const auto& a : r.applied) printf("  %s\n", a.c_str());
  printf("\nsearch statistics:\n");
  printf("  candidate evaluations (reschedule+estimate): %" PRIu64 "\n",
         r.counts.evaluations);
  printf("  candidates rejected by equivalence checking: %" PRIu64 "\n",
         r.counts.nonequivalent);
  printf("  final: %.2f cycles, %.2fx over the untransformed schedule\n",
         r.best_eval.avg_len, base.avg_len / r.best_eval.avg_len);
  return 0;
}
