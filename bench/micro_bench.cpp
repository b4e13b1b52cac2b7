// Google-benchmark micro measurements of the framework's inner-loop costs:
// the paper's algorithm reschedules and re-estimates power inside the
// transformation search, so these latencies bound how many candidates the
// search can afford.

#include <benchmark/benchmark.h>

#include "bench_util.hpp"
#include "program_gen.hpp"
#include "sched/dfg.hpp"
#include "sim/interp.hpp"
#include "verify/verify.hpp"

namespace {

using namespace fact;

const workloads::Workload& gcd() {
  static const workloads::Workload w = workloads::make_gcd();
  return w;
}

const workloads::Workload& sintran() {
  static const workloads::Workload w = workloads::make_sintran();
  return w;
}

void BM_ProfileFunction(benchmark::State& state) {
  const auto& w = sintran();
  const sim::Trace trace = sim::generate_trace(w.fn, w.trace, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::profile_function(w.fn, trace));
  }
}
BENCHMARK(BM_ProfileFunction);

void BM_Schedule(benchmark::State& state) {
  bench::Env env;
  const auto& w = sintran();
  const sim::Trace trace = sim::generate_trace(w.fn, w.trace, 7);
  const sim::Profile profile = sim::profile_function(w.fn, trace);
  sched::Scheduler scheduler(env.lib, w.allocation, env.sel, env.sched_opts);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduler.schedule(w.fn, profile));
  }
}
BENCHMARK(BM_Schedule);

/// Every assignment and store of `s`, in program order.
void collect_assignments(const ir::Stmt& s, std::vector<const ir::Stmt*>& out) {
  if (s.kind == ir::StmtKind::Assign || s.kind == ir::StmtKind::Store)
    out.push_back(&s);
  for (const std::vector<ir::StmtPtr>* list : s.child_lists())
    for (const ir::StmtPtr& c : *list) collect_assignments(*c, out);
}

// One DFG build, the cost of a fragment-cache miss, in warm scratch: the
// segment made of all the assignments and stores of the generated program
// GEN1017 (fact-bench's `generated` draw), in program order, under 2 of
// every FU type. `per_node` is the build time per DFG node.
void BM_DfgBuild(benchmark::State& state) {
  bench::Env env;
  const ir::Function fn = testgen::random_program(1017);
  std::vector<const ir::Stmt*> stmts;
  collect_assignments(*fn.body(), stmts);
  hlslib::Allocation alloc;
  for (const hlslib::FuType& t : env.lib.types()) alloc.counts[t.name] = 2;
  const sched::DfgBuilder builder(env.lib, alloc, env.sel, 5.0, 1.0);
  sched::DfgScratch scratch;
  size_t nodes = 0;
  for (auto _ : state) {
    const sched::Dfg dfg = builder.build(scratch, stmts);
    nodes = dfg.nodes.size();
    benchmark::DoNotOptimize(dfg.nodes.data());
  }
  state.counters["stmts"] = static_cast<double>(stmts.size());
  state.counters["nodes"] = static_cast<double>(nodes);
  state.counters["per_node"] = benchmark::Counter(
      static_cast<double>(nodes),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_DfgBuild);

void BM_MarkovSolve(benchmark::State& state) {
  bench::Env env;
  const auto& w = sintran();
  const sim::Trace trace = sim::generate_trace(w.fn, w.trace, 7);
  const sim::Profile profile = sim::profile_function(w.fn, trace);
  sched::Scheduler scheduler(env.lib, w.allocation, env.sel, env.sched_opts);
  const sched::ScheduleResult sr = scheduler.schedule(w.fn, profile);
  for (auto _ : state) {
    benchmark::DoNotOptimize(stg::state_probabilities(sr.stg));
  }
}
BENCHMARK(BM_MarkovSolve);

void BM_PowerEstimate(benchmark::State& state) {
  bench::Env env;
  const auto& w = sintran();
  const sim::Trace trace = sim::generate_trace(w.fn, w.trace, 7);
  const sim::Profile profile = sim::profile_function(w.fn, trace);
  sched::Scheduler scheduler(env.lib, w.allocation, env.sel, env.sched_opts);
  const sched::ScheduleResult sr = scheduler.schedule(w.fn, profile);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        power::estimate_power(sr.stg, env.lib, env.power_opts));
  }
}
BENCHMARK(BM_PowerEstimate);

void BM_FindCandidates(benchmark::State& state) {
  const auto lib = xform::TransformLibrary::standard();
  const auto& w = sintran();
  for (auto _ : state) {
    benchmark::DoNotOptimize(lib.find_all(w.fn, {}));
  }
}
BENCHMARK(BM_FindCandidates);

void BM_ApplyTransform(benchmark::State& state) {
  const auto lib = xform::TransformLibrary::standard();
  const auto& w = sintran();
  const auto cands = lib.find_all(w.fn, {});
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lib.apply(w.fn, cands[i++ % cands.size()]));
  }
}
BENCHMARK(BM_ApplyTransform);

void BM_FunctionClone(benchmark::State& state) {
  const auto& w = sintran();
  for (auto _ : state) {
    benchmark::DoNotOptimize(w.fn.clone());
  }
}
BENCHMARK(BM_FunctionClone);

void BM_EquivalenceCheck(benchmark::State& state) {
  const auto& w = gcd();
  const sim::Trace trace = sim::generate_trace(w.fn, w.trace, 7);
  const ir::Function copy = w.fn.clone();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::equivalent_on_trace(w.fn, copy, trace));
  }
}
BENCHMARK(BM_EquivalenceCheck);

// The IR half of the candidate gate: the verifier's checks and the
// interpreter's compile of every first-level standard-library candidate of
// a generated program (fact-bench's `generated` draw, GEN<seed>; GEN1019
// has no candidate), against a store to which the parent was added
// (parent:1, as the search gates its first move) or whole (parent:0).
// `per_candidate` is the time per candidate; `compiled` and `checked` are
// the shares of the candidates' statements the compile and the checks
// redid.
void BM_CandidateGate(benchmark::State& state) {
  const ir::Function fn =
      testgen::random_program(static_cast<uint64_t>(state.range(0)));
  const bool reuse = state.range(1) != 0;
  const auto lib = xform::TransformLibrary::standard();
  std::vector<ir::Function> cands;
  for (const xform::Candidate& c : lib.find_all(fn, {})) {
    try {
      cands.push_back(lib.apply(fn, c));
    } catch (const std::exception&) {
      // declined at apply time
    }
  }
  sim::StatementCode code;
  code.add(fn);
  verify::StatementChecks checks;
  checks.add(fn);
  const std::set<std::string> allowed =
      verify::FunctionChecks(fn, &checks).undefined_reads();
  size_t stmts = 0, compiled = 0, checked = 0;
  for (auto _ : state) {
    stmts = compiled = checked = 0;
    for (const ir::Function& g : cands) {
      const verify::FunctionChecks c(g, reuse ? &checks : nullptr);
      benchmark::DoNotOptimize(c.report(&allowed));
      const sim::Interpreter interp(g, reuse ? &code : nullptr);
      benchmark::DoNotOptimize(interp.layout());
      stmts += g.stmt_count();
      compiled += interp.compiled_statements();
      checked += c.checked_statements();
    }
  }
  const auto share = [&](size_t n) {
    return stmts == 0 ? 0.0
                      : static_cast<double>(n) / static_cast<double>(stmts);
  };
  state.counters["candidates"] = static_cast<double>(cands.size());
  state.counters["compiled"] = share(compiled);
  state.counters["checked"] = share(checked);
  state.counters["per_candidate"] = benchmark::Counter(
      static_cast<double>(cands.size()),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_CandidateGate)
    ->ArgNames({"gen", "parent"})
    ->ArgsProduct({{1014, 1015, 1016, 1017, 1018, 1020}, {0, 1}});

void BM_FullFactGcd(benchmark::State& state) {
  bench::Env env;
  const auto& w = gcd();
  const auto xf = xform::TransformLibrary::standard();
  for (auto _ : state) {
    opt::FactOptions fo;
    benchmark::DoNotOptimize(
        opt::run_fact(w.fn, env.lib, w.allocation, env.sel, w.trace, xf, fo));
  }
}
BENCHMARK(BM_FullFactGcd)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
