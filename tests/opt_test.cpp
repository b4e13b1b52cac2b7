#include <gtest/gtest.h>

#include <bit>
#include <optional>
#include <thread>

#include "lang/parser.hpp"
#include "obs/metrics.hpp"
#include "opt/baselines.hpp"
#include "opt/fact.hpp"
#include "opt/partition.hpp"
#include "program_gen.hpp"
#include "test_util.hpp"
#include "util/parallel.hpp"
#include "workloads/workloads.hpp"

namespace fact::opt {
namespace {

ir::Function parse(const std::string& src) { return lang::parse_function(src); }

struct Harness {
  hlslib::Library lib = hlslib::Library::dac98();
  hlslib::FuSelection sel = hlslib::FuSelection::defaults(lib);
  hlslib::Allocation alloc;
  sched::SchedOptions sched_opts;
  power::PowerOptions power_opts;

  Harness() {
    alloc.counts = {{"a1", 2}, {"sb1", 2}, {"mt1", 1}, {"cp1", 1},
                    {"e1", 1}, {"i1", 1},  {"n1", 1},  {"s1", 1}};
  }
};

// ---- partitioning ------------------------------------------------------

TEST(Partition, HotLoopFormsOneBlock) {
  // S0 -> S1(loop, p=0.95) -> S0: the hot self-loop at S1 dominates.
  stg::Stg stg;
  const int s0 = stg.add_state("S0");
  const int s1 = stg.add_state("S1");
  {
    fact::stg::OpInstance op_inst;
    op_inst.fu_type = "a1";
    op_inst.op = ir::Op::Add;
    op_inst.stmt_id = 42;
    op_inst.iteration = 0;
    stg.state(s1).ops.push_back(std::move(op_inst));
  }
  stg.add_edge(s0, s1, 1.0);
  stg.add_edge(s1, s1, 0.95, "loop");
  stg.add_edge(s1, s0, 0.05, "", true);
  stg.set_entry(s0);
  stg.validate();

  const auto blocks = partition_stg(stg, 0.5);
  ASSERT_GE(blocks.size(), 1u);
  // The hottest block contains S1 and carries statement 42.
  EXPECT_TRUE(blocks[0].stmt_ids.count(42));
  EXPECT_GT(blocks[0].weight, 0.5);
}

TEST(Partition, ThresholdControlsBlockGrowth) {
  // A chain with one rare side path: at high threshold only hot edges
  // group; at threshold 0 everything merges into one block.
  stg::Stg stg;
  const int s0 = stg.add_state("");
  const int s1 = stg.add_state("");
  const int rare = stg.add_state("");
  stg.add_edge(s0, s1, 0.99);
  stg.add_edge(s0, rare, 0.01);
  stg.add_edge(rare, s1, 1.0);
  stg.add_edge(s1, s0, 1.0, "", true);
  stg.set_entry(s0);
  stg.validate();

  const auto tight = partition_stg(stg, 0.5);
  for (const auto& b : tight)
    for (int s : b.states) EXPECT_NE(s, rare);
  const auto loose = partition_stg(stg, 0.0);
  ASSERT_EQ(loose.size(), 1u);
  EXPECT_EQ(loose[0].states.size(), 3u);
}

TEST(Partition, BlocksAreDisjointAndSorted) {
  // Two independent hot loops joined by rare transitions.
  stg::Stg stg;
  const int a = stg.add_state("");
  const int b = stg.add_state("");
  stg.add_edge(a, a, 0.9, "loop");
  stg.add_edge(a, b, 0.1);
  stg.add_edge(b, b, 0.8, "loop");
  stg.add_edge(b, a, 0.2, "", true);
  stg.set_entry(a);
  stg.validate();
  // pi(a) = 2/3: self-loop frequencies are 0.6 and 0.267, the cross edges
  // 0.067; a 0.3 threshold keeps both self-loops but not the cross edges.
  const auto blocks = partition_stg(stg, 0.3);
  ASSERT_EQ(blocks.size(), 2u);
  EXPECT_GE(blocks[0].weight, blocks[1].weight);
  std::set<int> seen;
  for (const auto& blk : blocks)
    for (int s : blk.states) EXPECT_TRUE(seen.insert(s).second);
}

// ---- engine ------------------------------------------------------------

TEST(Engine, ImprovesThroughputOnGcd) {
  Harness h;
  const auto fn = parse(R"(
GCD(int a, int b) {
  while (a != b) {
    if (a > b) { a = a - b; } else { b = b - a; }
  }
  output a;
}
)");
  sim::TraceConfig tc;
  tc.params["a"] = {sim::InputSpec::Kind::Uniform, 0, 0, 0, 1, 60, 0};
  tc.params["b"] = {sim::InputSpec::Kind::Uniform, 0, 0, 0, 1, 60, 0};
  const sim::Trace trace = sim::generate_trace(fn, tc, 5);

  const auto xforms = xform::TransformLibrary::standard();
  TransformEngine engine(h.lib, h.alloc, h.sel, h.sched_opts, h.power_opts,
                         xforms, {});
  const Evaluation base = engine.evaluate(fn, trace, Objective::Throughput, 0);
  const EngineResult r =
      engine.optimize(fn, trace, Objective::Throughput, {}, base.avg_len);
  EXPECT_LT(r.best_eval.avg_len, base.avg_len * 0.6);
  EXPECT_FALSE(r.applied.empty());
  EXPECT_EQ(r.counts.nonequivalent, 0);
  EXPECT_GT(r.counts.evaluations, 1);
  // The winner is functionally equivalent to the input.
  EXPECT_TRUE(sim::equivalent_on_trace(fn, r.best, trace));
}

TEST(Engine, DeterministicForSeed) {
  Harness h;
  const auto fn = parse(
      "F(int a, int b, int c) { int x = a * b + a * c; int y = x + b + c + a; output y; }");
  const sim::Trace trace = sim::generate_trace(fn, {}, 5);
  const auto xforms = xform::TransformLibrary::standard();
  EngineOptions opts;
  opts.seed = 33;
  TransformEngine engine(h.lib, h.alloc, h.sel, h.sched_opts, h.power_opts,
                         xforms, opts);
  const EngineResult r1 =
      engine.optimize(fn, trace, Objective::Throughput, {}, 100.0);
  const EngineResult r2 =
      engine.optimize(fn, trace, Objective::Throughput, {}, 100.0);
  EXPECT_EQ(r1.best.str(), r2.best.str());
  EXPECT_EQ(r1.applied, r2.applied);
  EXPECT_EQ(r1.counts.evaluations, r2.counts.evaluations);
}

TEST(Engine, RegionRestrictsRewrites) {
  Harness h;
  // Two identical statements; restrict the region to the first one.
  const auto fn = parse(
      "F(int a, int b) { int x = (a + b) + (a + b) + a; int y = (a + b) + (a + b) + b; output x; output y; }");
  const sim::Trace trace = sim::generate_trace(fn, {}, 5);
  const auto xforms = xform::TransformLibrary::standard();
  TransformEngine engine(h.lib, h.alloc, h.sel, h.sched_opts, h.power_opts,
                         xforms, {});
  int x_id = -1;
  fn.for_each([&](const ir::Stmt& s) {
    if (s.kind == ir::StmtKind::Assign && s.target == "x") x_id = s.id;
  });
  const EngineResult r = engine.optimize(fn, trace, Objective::Throughput,
                                         {x_id}, 100.0);
  // y's statement is untouched in the winner.
  const ir::Stmt* y = nullptr;
  r.best.for_each([&](const ir::Stmt& s) {
    if (s.kind == ir::StmtKind::Assign && s.target == "y") y = &s;
  });
  ASSERT_NE(y, nullptr);
  EXPECT_EQ(y->value->str(), "(((a + b) + (a + b)) + b)");
}

TEST(Engine, PowerObjectiveRespectsIsoThroughput) {
  Harness h;
  const auto fn = parse(R"(
F(int n) {
  int i = 0;
  int s = 0;
  while (i < n) { s = s + i * 3; i = i + 1; }
  output s;
}
)");
  sim::TraceConfig tc;
  tc.params["n"] = {sim::InputSpec::Kind::Uniform, 0, 0, 0, 8, 24, 0};
  const sim::Trace trace = sim::generate_trace(fn, tc, 5);
  const auto xforms = xform::TransformLibrary::standard();
  TransformEngine engine(h.lib, h.alloc, h.sel, h.sched_opts, h.power_opts,
                         xforms, {});
  const Evaluation base = engine.evaluate(fn, trace, Objective::Throughput, 0);
  const EngineResult r =
      engine.optimize(fn, trace, Objective::Power, {}, base.avg_len);
  // Whatever wins must not be slower than the baseline.
  EXPECT_LE(r.best_eval.avg_len, base.avg_len * 1.01);
  EXPECT_LE(r.best_eval.vdd, 5.0);
}

// ---- parallel evaluation + memoization ---------------------------------

TEST(Engine, JobsInvariantIncludingScoreTrace) {
  Harness h;
  const auto fn = parse(
      "F(int a, int b, int c) { int x = a * b + a * c; int y = x + b + c + a; output y; }");
  const sim::Trace trace = sim::generate_trace(fn, {}, 5);
  const auto xforms = xform::TransformLibrary::standard();
  EngineOptions opts;
  opts.seed = 33;
  auto run = [&](int jobs) {
    EngineOptions o = opts;
    o.jobs = jobs;
    TransformEngine engine(h.lib, h.alloc, h.sel, h.sched_opts, h.power_opts,
                           xforms, o);
    return engine.optimize(fn, trace, Objective::Throughput, {}, 100.0);
  };
  const EngineResult r1 = run(1);
  const EngineResult r4 = run(4);
  EXPECT_EQ(r1.best.str(), r4.best.str());
  EXPECT_EQ(r1.applied, r4.applied);
  auto best_scores = [](const EngineResult& r) {
    std::vector<double> scores;
    for (const GenerationTelemetry& g : r.telemetry.generations)
      scores.push_back(g.best_score);
    return scores;
  };
  EXPECT_EQ(best_scores(r1), best_scores(r4));
  EXPECT_EQ(r1.counts.evaluations, r4.counts.evaluations);
  EXPECT_EQ(r1.counts.cache_hits, r4.counts.cache_hits);
  EXPECT_EQ(r1.counts.cache_misses(), r4.counts.cache_misses());
  EXPECT_EQ(r1.counts.quarantined, r4.counts.quarantined);
  EXPECT_EQ(r1.quarantine_by_class, r4.quarantine_by_class);
  EXPECT_EQ(r1.counts.nonequivalent, r4.counts.nonequivalent);
  EXPECT_EQ(r1.counts.evaluations,
            r1.counts.cache_hits + r1.counts.cache_misses());
  EXPECT_EQ(r1.counts, r4.counts);
}

/// Rewrites the first statement's value into `x * 8`: equivalent to the
/// chain of additions below, but it needs a multiplier.
class MultiplyLibrary : public xform::TransformLibrary {
 public:
  std::vector<xform::Candidate> find_all(
      const ir::Function&, const std::set<int>&) const override {
    xform::Candidate c;
    c.transform = "multiply";
    return {c};
  }
  ir::Function apply(const ir::Function& fn,
                     const xform::Candidate&) const override {
    ir::Function g = fn.clone();
    g.edit(fn.body()->stmts[0]->id)->value = ir::Expr::binary(
        ir::Op::Mul, ir::Expr::var("x"), ir::Expr::constant(8));
    return g;
  }
};

TEST(Engine, AblationWinnerFailingItsFinalEvaluationDegrades) {
  // The schedule-blind ablation scores candidates by op count, so the
  // multiply wins; with no multiplier allocated, its final evaluation
  // fails. The winner is dropped for the baseline, and the run reports
  // both the acceptance it counted and the degradation.
  Harness h;
  h.alloc.counts = {{"a1", 1}};
  const auto fn =
      parse("F(int x) { int y = x + x + x + x + x + x + x + x; output y; }");
  const sim::Trace trace = sim::generate_trace(fn, {}, 5);
  const MultiplyLibrary xforms;
  EngineOptions opts;
  opts.reschedule_in_loop = false;
  TransformEngine engine(h.lib, h.alloc, h.sel, h.sched_opts, h.power_opts,
                         xforms, opts);
  const EngineResult r =
      engine.optimize(fn, trace, Objective::Throughput, {}, 100.0);
  EXPECT_GT(r.counts.accepted, 0u);
  EXPECT_GT(r.counts.improvements, 0u);
  EXPECT_EQ(r.quarantine_by_class.at("final-evaluation"), 1);
  EXPECT_EQ(r.counts.quarantined, 1u);
  EXPECT_TRUE(r.degraded_to_baseline);
  EXPECT_TRUE(r.applied.empty());
  EXPECT_EQ(r.best.str(), fn.str());
}

/// The standard library, except that every candidate it applies shares no
/// node with its parent, so the gate compiles and verifies it whole.
class UnsharedLibrary : public xform::TransformLibrary {
 public:
  explicit UnsharedLibrary(const xform::TransformLibrary& inner)
      : inner_(inner) {}
  std::vector<xform::Candidate> find_all(
      const ir::Function& fn, const std::set<int>& region) const override {
    return inner_.find_all(fn, region);
  }
  ir::Function apply(const ir::Function& fn,
                     const xform::Candidate& c) const override {
    return unshared_copy(inner_.apply(fn, c));
  }

 private:
  const xform::TransformLibrary& inner_;
};

TEST(Engine, GateReusingTheParentMatchesAWholeGate) {
  // The gate compiles and verifies each candidate against its parent's
  // statements. Over several moves and generations, in both the scheduled
  // and the schedule-blind search, the run must be the one in which no
  // candidate shares a statement with its parent.
  Harness h;
  const auto xforms = xform::TransformLibrary::standard();
  const UnsharedLibrary unshared(xforms);
  std::vector<workloads::Workload> programs;
  for (const char* name : {"GCD", "SINTRAN", "TEST2"})
    programs.push_back(workloads::by_name(name));
  programs.push_back({"GEN1017", "", testgen::random_program(1017), {}, {}});
  programs.back().trace.executions = 6;
  for (const workloads::Workload& w : programs) {
    const ir::Function& fn = w.fn;
    const std::string& name = w.name;
    const sim::Trace trace = sim::generate_trace(fn, w.trace, 5);
    for (const bool scheduled : {true, false}) {
      EngineOptions opts;
      opts.max_moves = 3;
      opts.max_neighbors_eval = 24;
      opts.reschedule_in_loop = scheduled;
      opts.validate = verify::Level::Full;
      opts.jobs = 2;
      const auto run = [&](const xform::TransformLibrary& lib) {
        const TransformEngine engine(h.lib, h.alloc, h.sel, h.sched_opts,
                                     h.power_opts, lib, opts);
        return engine.optimize(fn, trace, Objective::Throughput, {}, 100.0);
      };
      const EngineResult reused = run(xforms);
      const EngineResult whole = run(unshared);
      const std::string what =
          name + (scheduled ? " scheduled" : " schedule-blind");
      EXPECT_GT(reused.counts.candidates, 20u) << what;
      EXPECT_EQ(reused.counts, whole.counts) << what;
      EXPECT_EQ(reused.quarantine_by_class, whole.quarantine_by_class) << what;
      EXPECT_EQ(reused.applied, whole.applied) << what;
      EXPECT_EQ(reused.best.str(), whole.best.str()) << what;
      EXPECT_EQ(reused.telemetry.generations.size(),
                whole.telemetry.generations.size())
          << what;
    }
  }
}

// The full determinism contract over every bundled Table 2 workload:
// jobs=4 must reproduce jobs=1 byte-for-byte through the whole flow.
class JobsDeterminism : public ::testing::TestWithParam<const char*> {};

TEST_P(JobsDeterminism, RunFactIdenticalAcrossJobs) {
  const workloads::Workload w = workloads::by_name(GetParam());
  const auto lib = hlslib::Library::dac98();
  const auto sel = hlslib::FuSelection::defaults(lib);
  const auto xforms = xform::TransformLibrary::standard();
  auto run = [&](int jobs) {
    FactOptions opts;
    opts.engine.jobs = jobs;
    return run_fact(w.fn, lib, w.allocation, sel, w.trace, xforms, opts);
  };
  const FactResult r1 = run(1);
  const FactResult r4 = run(4);
  EXPECT_EQ(r1.optimized.str(), r4.optimized.str());
  EXPECT_EQ(r1.applied, r4.applied);
  EXPECT_EQ(r1.log, r4.log);
  EXPECT_EQ(r1.counts.evaluations, r4.counts.evaluations);
  EXPECT_EQ(r1.counts.cache_hits, r4.counts.cache_hits);
  EXPECT_EQ(r1.counts.cache_misses(), r4.counts.cache_misses());
  EXPECT_EQ(r1.counts.quarantined, r4.counts.quarantined);
  EXPECT_EQ(r1.quarantine_by_class, r4.quarantine_by_class);
  EXPECT_EQ(r1.blocks_degraded, r4.blocks_degraded);
  EXPECT_EQ(r1.truncated, r4.truncated);
  EXPECT_DOUBLE_EQ(r1.final_avg_len, r4.final_avg_len);
  EXPECT_DOUBLE_EQ(r1.final_power.power, r4.final_power.power);
  // Everything factc prints and --metrics-out's "search" key.
  EXPECT_EQ(telemetry_json(r1).dump(), telemetry_json(r4).dump());
  EXPECT_EQ(render_fact_report(r1, Objective::Throughput, false),
            render_fact_report(r4, Objective::Throughput, false));
}

INSTANTIATE_TEST_SUITE_P(Table2, JobsDeterminism,
                         ::testing::Values("GCD", "FIR", "TEST2", "SINTRAN",
                                           "IGF", "PPS"));

TEST(EvalCache, FirstInsertWinsAndKeysDiscriminate) {
  EvalCache cache;
  EvalCache::Entry ok;
  ok.ok = true;
  ok.eval.score = 1.5;
  cache.insert(42, Objective::Throughput, 10.0, 0, ok);
  EXPECT_EQ(cache.size(), 1u);

  // Re-inserting the same key is a no-op: the first entry sticks.
  EvalCache::Entry other = ok;
  other.eval.score = 9.9;
  cache.insert(42, Objective::Throughput, 10.0, 0, other);
  EXPECT_EQ(cache.size(), 1u);
  auto hit = cache.lookup(42, Objective::Throughput, 10.0, 0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->ok);
  EXPECT_DOUBLE_EQ(hit->eval.score, 1.5);

  // Same hash under a different objective, baseline or evaluation
  // context is a different key.
  EXPECT_FALSE(cache.lookup(42, Objective::Throughput, 10.0, 1).has_value());
  EXPECT_FALSE(cache.lookup(42, Objective::Power, 10.0, 0).has_value());
  EXPECT_FALSE(cache.lookup(42, Objective::Throughput, 11.0, 0).has_value());
  EXPECT_FALSE(cache.lookup(43, Objective::Throughput, 10.0, 0).has_value());

  // Failures are memoized too.
  EvalCache::Entry bad;
  bad.ok = false;
  bad.failure_class = "sched";
  cache.insert(7, Objective::Power, 10.0, 0, bad);
  auto miss = cache.lookup(7, Objective::Power, 10.0, 0);
  ASSERT_TRUE(miss.has_value());
  EXPECT_FALSE(miss->ok);
  EXPECT_EQ(miss->failure_class, "sched");
}

TEST(EvalCache, LargeCacheServesEveryKeyAndHonorsCap) {
  // Every inserted key must be served, and an overfilled cache must hold
  // exactly its capacity: the most recent keys.
  const size_t cap = 1 << 12;
  EvalCache cache(cap);
  EXPECT_EQ(cache.capacity(), cap);
  for (uint64_t h = 0; h < 1000; ++h) {
    EvalCache::Entry e;
    e.ok = true;
    e.eval.score = double(h);
    cache.insert(h, Objective::Throughput, 10.0, 0, e);
  }
  EXPECT_EQ(cache.size(), 1000u);
  for (uint64_t h = 0; h < 1000; ++h) {
    auto hit = cache.lookup(h, Objective::Throughput, 10.0, 0);
    ASSERT_TRUE(hit.has_value()) << h;
    EXPECT_DOUBLE_EQ(hit->eval.score, double(h));
  }
  EXPECT_FALSE(cache.lookup(1000, Objective::Throughput, 10.0, 0).has_value());

  // Overfill by 3x: LRU eviction keeps exactly the last `cap` keys.
  for (uint64_t h = 1000; h < 3 * cap; ++h) {
    EvalCache::Entry e;
    e.ok = true;
    cache.insert(h, Objective::Throughput, 10.0, 0, e);
  }
  EXPECT_EQ(cache.size(), cap);
  EXPECT_FALSE(cache.lookup(2 * cap - 1, Objective::Throughput, 10.0, 0).has_value());
  EXPECT_TRUE(cache.lookup(2 * cap, Objective::Throughput, 10.0, 0).has_value());
  EXPECT_TRUE(cache.lookup(3 * cap - 1, Objective::Throughput, 10.0, 0).has_value());
}

TEST(EvalCache, SharedCacheServesRepeatFlows) {
  const auto lib = hlslib::Library::dac98();
  const auto sel = hlslib::FuSelection::defaults(lib);
  const auto xforms = xform::TransformLibrary::standard();
  FactOptions opts;

  for (const auto& w : workloads::table2_benchmarks()) {
    EvalCache cache;
    const FactResult cold =
        run_fact(w.fn, lib, w.allocation, sel, w.trace, xforms, opts, &cache);
    EXPECT_GT(cache.size(), 0u) << w.name;
    const FactResult warm =
        run_fact(w.fn, lib, w.allocation, sel, w.trace, xforms, opts, &cache);

    // The repeat flow is served entirely from the memo cache and still
    // reproduces the cold result exactly.
    EXPECT_EQ(warm.counts.cache_hits, warm.counts.evaluations) << w.name;
    EXPECT_EQ(warm.counts.cache_misses(), 0) << w.name;
    EXPECT_EQ(warm.optimized.str(), cold.optimized.str()) << w.name;
    EXPECT_EQ(warm.applied, cold.applied) << w.name;
    EXPECT_EQ(warm.counts.quarantined, cold.counts.quarantined) << w.name;
  }
}

TEST(EvalCache, LruEvictionHonorsCapAndRecency) {
  EvalCache cache(3);
  EXPECT_EQ(cache.capacity(), 3u);
  auto entry = [](double score) {
    EvalCache::Entry e;
    e.ok = true;
    e.eval.score = score;
    return e;
  };
  auto hit = [&](uint64_t h) {
    return cache.lookup(h, Objective::Throughput, 1.0, 0).has_value();
  };
  cache.insert(1, Objective::Throughput, 1.0, 0, entry(1.0));
  cache.insert(2, Objective::Throughput, 1.0, 0, entry(2.0));
  cache.insert(3, Objective::Throughput, 1.0, 0, entry(3.0));
  EXPECT_EQ(cache.size(), 3u);

  // touch() saves key 1 from eviction; key 2 is now least recent, so the
  // fourth insert evicts it. lookup() itself never advances recency (the
  // frozen-wave contract), so the probes below don't perturb the order.
  cache.touch(1, Objective::Throughput, 1.0, 0);
  cache.insert(4, Objective::Throughput, 1.0, 0, entry(4.0));
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_FALSE(hit(2));
  EXPECT_TRUE(hit(1) && hit(3) && hit(4));

  // Re-inserting an existing key keeps the original entry but refreshes
  // recency: 3 jumps ahead of 1, so the next insert evicts 1.
  cache.insert(3, Objective::Throughput, 1.0, 0, entry(99.0));
  cache.insert(5, Objective::Throughput, 1.0, 0, entry(5.0));
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_FALSE(hit(1));
  ASSERT_TRUE(hit(3));
  EXPECT_DOUBLE_EQ(cache.lookup(3, Objective::Throughput, 1.0, 0)->eval.score,
                   3.0);
  EXPECT_TRUE(hit(4) && hit(5));

  // touch() of an absent key is a no-op.
  cache.touch(777, Objective::Throughput, 1.0, 0);
  EXPECT_EQ(cache.size(), 3u);
}

TEST(EvalCache, CapOneStillServesTheCurrentKey) {
  EvalCache cache(1);
  EvalCache::Entry e;
  e.ok = true;
  e.eval.score = 1.0;
  for (uint64_t h = 1; h <= 5; ++h)
    cache.insert(h, Objective::Power, 2.0, 0, e);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_TRUE(cache.lookup(5, Objective::Power, 2.0, 0).has_value());
  EXPECT_FALSE(cache.lookup(4, Objective::Power, 2.0, 0).has_value());
}

TEST(Engine, EnginesSharingOneWorkerPoolMatchPrivatePools) {
  // The factd service points every engine at one process-wide pool via
  // EngineOptions::pool. Two concurrent optimizations sharing that pool
  // must produce exactly what each would with its own private pool.
  const auto lib = hlslib::Library::dac98();
  const auto sel = hlslib::FuSelection::defaults(lib);
  const auto xforms = xform::TransformLibrary::standard();
  const workloads::Workload wa = workloads::by_name("GCD");
  const workloads::Workload wb = workloads::by_name("TEST2");

  FactOptions priv;
  priv.engine.jobs = 2;
  const FactResult ra =
      run_fact(wa.fn, lib, wa.allocation, sel, wa.trace, xforms, priv);
  const FactResult rb =
      run_fact(wb.fn, lib, wb.allocation, sel, wb.trace, xforms, priv);

  WorkerPool pool(2);
  FactOptions shared;
  shared.engine.pool = &pool;
  std::optional<FactResult> sa, sb;
  std::thread ta([&] {
    sa = run_fact(wa.fn, lib, wa.allocation, sel, wa.trace, xforms, shared);
  });
  std::thread tb([&] {
    sb = run_fact(wb.fn, lib, wb.allocation, sel, wb.trace, xforms, shared);
  });
  ta.join();
  tb.join();

  ASSERT_TRUE(sa.has_value());
  ASSERT_TRUE(sb.has_value());
  EXPECT_EQ(sa->optimized.str(), ra.optimized.str());
  EXPECT_EQ(sa->applied, ra.applied);
  EXPECT_EQ(sa->counts.evaluations, ra.counts.evaluations);
  EXPECT_DOUBLE_EQ(sa->final_avg_len, ra.final_avg_len);
  EXPECT_EQ(sb->optimized.str(), rb.optimized.str());
  EXPECT_EQ(sb->applied, rb.applied);
  EXPECT_EQ(sb->counts.evaluations, rb.counts.evaluations);
  EXPECT_DOUBLE_EQ(sb->final_avg_len, rb.final_avg_len);

  // The borrowed pool is untouched by engine teardown and stays usable.
  std::atomic<int> n{0};
  pool.parallel_for(16, [&](size_t) { n.fetch_add(1); });
  EXPECT_EQ(n.load(), 16);
}

// ---- baselines ---------------------------------------------------------

TEST(Baselines, M1AppliesNoTransforms) {
  Harness h;
  const auto fn = parse("F(int a, int b) { int x = a * b + a; output x; }");
  const BaselineResult r =
      run_m1(fn, h.lib, h.alloc, h.sel, {}, h.sched_opts, h.power_opts, 7);
  EXPECT_TRUE(r.applied.empty());
  EXPECT_EQ(r.fn.str(), fn.str());
  EXPECT_GT(r.avg_len, 0.0);
}

TEST(Baselines, FlamelPreservesSemanticsAndCompacts) {
  Harness h;
  const auto fn = parse(R"(
F(int a, int b) {
  int x = 0;
  if (a > b) { x = a * 2 + 3; } else { x = b * 2 + 3; }
  int y = 2 + 3;
  output x; output y;
}
)");
  const BaselineResult r = run_flamel(fn, h.lib, h.alloc, h.sel, {},
                                      h.sched_opts, h.power_opts, 7);
  // Speculation removed the if, constant folding removed 2+3.
  bool has_if = false;
  r.fn.for_each([&](const ir::Stmt& s) {
    if (s.kind == ir::StmtKind::If) has_if = true;
  });
  EXPECT_FALSE(has_if);
  EXPECT_FALSE(r.applied.empty());
  const sim::Trace trace = sim::generate_trace(fn, {}, 11);
  EXPECT_TRUE(sim::equivalent_on_trace(fn, r.fn, trace));
}

TEST(Baselines, FlamelIsScheduleBlindOnExample2) {
  Harness h;
  // The Example 2 regrouping has identical static cost, so Flamel must
  // not apply it: the expression keeps its authored adder-heavy form.
  const auto fn = parse(
      "F(int y1, int y2, int y3, int y4) { int x = (y1 + y2) - (y3 + y4); output x; }");
  const BaselineResult r = run_flamel(fn, h.lib, h.alloc, h.sel, {},
                                      h.sched_opts, h.power_opts, 7);
  const ir::Stmt* x = nullptr;
  r.fn.for_each([&](const ir::Stmt& s) {
    if (s.kind == ir::StmtKind::Assign && s.target == "x") x = &s;
  });
  ASSERT_NE(x, nullptr);
  EXPECT_EQ(x->value->str(), "((y1 + y2) - (y3 + y4))");
}

// ---- end-to-end driver --------------------------------------------------

TEST(RunFact, ImprovesAndLogsGcd) {
  Harness h;
  const auto fn = parse(R"(
GCD(int a, int b) {
  while (a != b) {
    if (a > b) { a = a - b; } else { b = b - a; }
  }
  output a;
}
)");
  sim::TraceConfig tc;
  tc.params["a"] = {sim::InputSpec::Kind::Uniform, 0, 0, 0, 1, 60, 0};
  tc.params["b"] = {sim::InputSpec::Kind::Uniform, 0, 0, 0, 1, 60, 0};
  FactOptions opts;
  const auto xforms = xform::TransformLibrary::standard();
  const FactResult r =
      run_fact(fn, h.lib, h.alloc, h.sel, tc, xforms, opts);
  EXPECT_LT(r.final_avg_len, r.initial_avg_len);
  EXPECT_FALSE(r.applied.empty());
  EXPECT_FALSE(r.log.empty());
  EXPECT_GT(r.counts.evaluations, 0);
  r.schedule.stg.validate();
}

TEST(RunFact, PowerModeScalesVdd) {
  Harness h;
  const auto fn = parse(R"(
F(int n) {
  int i = 0;
  int s = 0;
  while (i < n) { s = s + i * 3 + i * 5; i = i + 1; }
  output s;
}
)");
  sim::TraceConfig tc;
  tc.params["n"] = {sim::InputSpec::Kind::Uniform, 0, 0, 0, 8, 24, 0};
  FactOptions opts;
  opts.objective = Objective::Power;
  const auto xforms = xform::TransformLibrary::standard();
  const FactResult r =
      run_fact(fn, h.lib, h.alloc, h.sel, tc, xforms, opts);
  EXPECT_LE(r.final_power.vdd, 5.0);
  EXPECT_LE(r.final_power.power, r.initial_power.power * 1.0001);
}

TEST(RunFact, TelemetryNumbersAreExact) {
  // telemetry_json's doubles parse back to the run's own bits: the export
  // loses no digit of a generation's k or best score (GCD's best score, a
  // mean schedule length of 13.958..., has more than six).
  const workloads::Workload w = workloads::by_name("GCD");
  const auto lib = hlslib::Library::dac98();
  const auto sel = hlslib::FuSelection::defaults(lib);
  const auto xforms = xform::TransformLibrary::standard();
  const FactResult r =
      run_fact(w.fn, lib, w.allocation, sel, w.trace, xforms, FactOptions{});
  auto bits = [](double v) { return std::bit_cast<uint64_t>(v); };
  const Json doc = Json::parse(telemetry_json(r).dump());
  const Json* blocks = doc.get("blocks");
  ASSERT_TRUE(blocks != nullptr);
  ASSERT_EQ(blocks->size(), r.block_telemetry.size());
  size_t checked = 0;
  for (size_t b = 0; b < r.block_telemetry.size(); ++b) {
    const std::vector<GenerationTelemetry>& gens =
        r.block_telemetry[b].generations;
    const Json* parsed = blocks->at(b).get("generations");
    ASSERT_TRUE(parsed != nullptr);
    ASSERT_EQ(parsed->size(), gens.size());
    for (size_t g = 0; g < gens.size(); ++g, ++checked) {
      SCOPED_TRACE(testing::Message() << "block " << b << " generation " << g);
      EXPECT_EQ(bits(parsed->at(g).get_double("k")), bits(gens[g].k));
      EXPECT_EQ(bits(parsed->at(g).get_double("best_score")),
                bits(gens[g].best_score));
    }
  }
  EXPECT_GT(checked, 0u);
}

// Every search total has one accounting path: the engine counts each event
// once in EngineResult::counts and publishes the record to the registry
// after the search, so the registry's deltas, the flow's summed counts and
// the per-generation rows all tell the same story, at any jobs count.
TEST(RunFact, RegistryAndTelemetryDeriveFromTheCounts) {
  const auto lib = hlslib::Library::dac98();
  const auto sel = hlslib::FuSelection::defaults(lib);
  const auto xforms = xform::TransformLibrary::standard();
  const std::pair<const char*, Objective> cases[] = {
      {"GCD", Objective::Throughput}, {"SINTRAN", Objective::Power}};
  for (const auto& [name, objective] : cases) {
    for (int jobs : {1, 4}) {
      SCOPED_TRACE(testing::Message() << name << " jobs=" << jobs);
      const workloads::Workload w = workloads::by_name(name);
      FactOptions opts;
      opts.objective = objective;
      opts.engine.jobs = jobs;
      obs::Histogram& rank_hist = obs::Registry::global().histogram(
          "fact_search_selected_rank", {0.5});
      const uint64_t ranks_before = rank_hist.count();
      const CounterDelta optimize_calls{"fact_engine_optimize_total"};
      const CounterDelta generations{"fact_search_generations_total"};
      const CounterDelta candidates{"fact_search_candidates_total"};
      const CounterDelta duplicates{"fact_search_duplicates_total"};
      const CounterDelta quarantined{"fact_search_quarantined_total"};
      const CounterDelta nonequivalent{"fact_search_nonequivalent_total"};
      const CounterDelta accepted{"fact_search_accepted_total"};
      const CounterDelta improvements{"fact_search_improvements_total"};
      const CounterDelta requests{"fact_eval_requests_total"};
      const CounterDelta hits{"fact_eval_cache_hits_total"};
      const CounterDelta misses{"fact_eval_cache_misses_total"};
      const FactResult r =
          run_fact(w.fn, lib, w.allocation, sel, w.trace, xforms, opts);
      const SearchCounts& c = r.counts;

      EXPECT_EQ(candidates(), c.candidates);
      EXPECT_EQ(duplicates(), c.duplicates);
      EXPECT_EQ(quarantined(), c.quarantined);
      EXPECT_EQ(nonequivalent(), c.nonequivalent);
      EXPECT_EQ(accepted(), c.accepted);
      EXPECT_EQ(improvements(), c.improvements);
      EXPECT_EQ(requests(), c.evaluations);
      EXPECT_EQ(hits(), c.cache_hits);
      EXPECT_EQ(misses(), c.cache_misses());
      EXPECT_EQ(optimize_calls(), r.block_telemetry.size());

      // Each block's root is one evaluation request outside any
      // generation; every other event happens inside one.
      uint64_t gens = 0, ranks = 0;
      SearchCounts in_gens;
      for (const SearchTelemetry& block : r.block_telemetry) {
        SearchCounts block_gens;
        for (const GenerationTelemetry& g : block.generations)
          block_gens += g.counts;
        EXPECT_GT(block_gens.evaluations, 0u);
        in_gens += block_gens;
        gens += block.generations.size();
        for (const auto& [rank, n] : block.selected_ranks)
          ranks += static_cast<uint64_t>(n);
      }
      EXPECT_EQ(generations(), gens);
      EXPECT_EQ(rank_hist.count() - ranks_before, ranks);
      EXPECT_EQ(in_gens.evaluations + r.block_telemetry.size(), c.evaluations);
      EXPECT_LE(c.cache_hits - in_gens.cache_hits, r.block_telemetry.size());
      EXPECT_EQ(in_gens.candidates, c.candidates);
      EXPECT_EQ(in_gens.duplicates, c.duplicates);
      EXPECT_EQ(in_gens.quarantined, c.quarantined);
      EXPECT_EQ(in_gens.nonequivalent, c.nonequivalent);
      EXPECT_EQ(in_gens.accepted, c.accepted);
      EXPECT_EQ(in_gens.improvements, c.improvements);
      EXPECT_GT(c.candidates, 0u);
    }
  }
}

TEST(Engine, GenerationsAndTheRootAccountForEveryEvaluation) {
  // One optimize() call: its generations' evaluation requests plus the
  // root's are the call's total.
  const workloads::Workload w = workloads::by_name("GCD");
  const auto lib = hlslib::Library::dac98();
  const auto sel = hlslib::FuSelection::defaults(lib);
  const auto xforms = xform::TransformLibrary::standard();
  const sim::Trace trace = sim::generate_trace(w.fn, w.trace, 7);
  const TransformEngine engine(lib, w.allocation, sel, {}, {}, xforms, {});
  const EngineResult r =
      engine.optimize(w.fn, trace, Objective::Throughput, {}, 0.0);
  ASSERT_FALSE(r.telemetry.generations.empty());
  SearchCounts in_gens;
  for (const GenerationTelemetry& g : r.telemetry.generations)
    in_gens += g.counts;
  EXPECT_EQ(in_gens.evaluations + 1, r.counts.evaluations);
  EXPECT_EQ(r.counts - in_gens,
            (SearchCounts{.evaluations = 1}));
}

// ---- gate 3: one interpreter pass per candidate --------------------------

uint64_t trace_passes() {
  return obs::Registry::global()
      .counter("fact_sim_trace_passes_total")
      .value();
}

// Gate 3 checks a candidate against the original's observations, recorded
// once per optimize(), and profiles it in the same pass; evaluation reuses
// that profile. So a run simulates each candidate that reaches gate 3 once,
// plus one reference pass per block and run_fact's own two profiles (input
// and winner). Worker-side speculation is jobs-invariant, so is the count.
TEST(Gate3, OnePassPerCandidateAcrossJobs) {
  const workloads::Workload w = workloads::by_name("SINTRAN");
  const auto lib = hlslib::Library::dac98();
  const auto sel = hlslib::FuSelection::defaults(lib);
  const auto xforms = xform::TransformLibrary::standard();
  auto run = [&](int jobs, uint64_t* passes) {
    FactOptions opts;
    opts.engine.jobs = jobs;
    const uint64_t before = trace_passes();
    FactResult r = run_fact(w.fn, lib, w.allocation, sel, w.trace, xforms, opts);
    *passes = trace_passes() - before;
    return r;
  };
  uint64_t p1 = 0, p4 = 0;
  const FactResult r = run(1, &p1);
  run(4, &p4);
  EXPECT_EQ(p1, p4);

  // Every evaluated candidate passed gate 3 once. Candidates that reached
  // it and failed are rejected or quarantined; a duplicate may have reached
  // it too (dedup within a wave runs after the workers).
  uint64_t evaluated = 0, reached_at_most = 0;
  for (const SearchTelemetry& block : r.block_telemetry)
    for (const GenerationTelemetry& g : block.generations) {
      evaluated += g.counts.evaluations;
      reached_at_most += g.counts.evaluations + g.counts.nonequivalent +
                         g.counts.quarantined + g.counts.duplicates;
    }
  const uint64_t fixed = 2 + r.block_telemetry.size();
  ASSERT_GT(evaluated, 100u);
  EXPECT_GE(p1, evaluated + fixed);
  EXPECT_LE(p1, reached_at_most + fixed);
}

/// Offers one candidate whose rewrite appends a loop that never exits.
class SpinningLibrary : public xform::TransformLibrary {
 public:
  std::vector<xform::Candidate> find_all(
      const ir::Function&, const std::set<int>&) const override {
    xform::Candidate c;
    c.transform = "spin";
    return {c};
  }
  ir::Function apply(const ir::Function& fn,
                     const xform::Candidate&) const override {
    ir::Function g = fn.clone();
    g.edit(g.body()->id)->stmts.push_back(ir::Stmt::while_stmt(
        ir::Expr::constant(1), {ir::Stmt::assign("y", ir::Expr::var("y"))}));
    g.renumber();
    return g;
  }
};

TEST(Gate3, AbortingCandidateIsQuarantinedAsSimulationError) {
  Harness h;
  const auto fn = parse("F(int x) { int y = x * 2; output y; }");
  sim::TraceConfig tc;
  tc.executions = 2;
  const sim::Trace trace = sim::generate_trace(fn, tc, 5);
  const SpinningLibrary xforms;
  EngineOptions opts;
  opts.jobs = 2;
  TransformEngine engine(h.lib, h.alloc, h.sel, h.sched_opts, h.power_opts,
                         xforms, opts);
  const EngineResult r =
      engine.optimize(fn, trace, Objective::Throughput, {}, 100.0);
  EXPECT_EQ(r.counts.quarantined, 1);
  EXPECT_EQ(r.quarantine_by_class.at("simulation-error"), 1);
  ASSERT_EQ(r.quarantine.size(), 1u);
  EXPECT_EQ(r.quarantine[0].pass, "equivalence");
  EXPECT_NE(r.quarantine[0].message.find("step limit"), std::string::npos)
      << r.quarantine[0].message;
  EXPECT_TRUE(r.degraded_to_baseline);
  EXPECT_EQ(r.best.str(), fn.str());
}

}  // namespace
}  // namespace fact::opt
