// Acceptance tests of the guarded optimization pipeline: a seeded
// fault injector corrupts transform rewrites at a configurable rate, and
// the engine must (a) never crash, (b) never return a design that fails
// verification or trace equivalence, (c) account for every injected fault
// in its quarantine counters, and (d) degrade gracefully to the baseline
// when nothing survives.

#include <gtest/gtest.h>

#include <atomic>

#include "lang/parser.hpp"
#include "opt/engine.hpp"
#include "sim/trace.hpp"
#include "verify/fault_injector.hpp"
#include "verify/verify.hpp"

namespace fact::opt {
namespace {

ir::Function parse(const std::string& src) { return lang::parse_function(src); }

struct Harness {
  hlslib::Library lib = hlslib::Library::dac98();
  hlslib::FuSelection sel = hlslib::FuSelection::defaults(lib);
  hlslib::Allocation alloc;
  sched::SchedOptions sched_opts;
  power::PowerOptions power_opts;
  ir::Function fn = parse(R"(
GCD(int a, int b) {
  while (a != b) {
    if (a > b) { a = a - b; } else { b = b - a; }
  }
  output a;
}
)");
  sim::Trace trace;

  Harness() {
    alloc.counts = {{"a1", 2}, {"sb1", 2}, {"mt1", 1}, {"cp1", 1},
                    {"e1", 1}, {"i1", 1},  {"n1", 1},  {"s1", 1}};
    sim::TraceConfig tc;
    tc.params["a"] = {sim::InputSpec::Kind::Uniform, 0, 0, 0, 1, 60, 0};
    tc.params["b"] = {sim::InputSpec::Kind::Uniform, 0, 0, 0, 1, 60, 0};
    trace = sim::generate_trace(fn, tc, 5);
  }

  EngineResult run(const xform::TransformLibrary& xf, EngineOptions opts) {
    opts.validate = verify::Level::Full;
    TransformEngine engine(lib, alloc, sel, sched_opts, power_opts, xf, opts);
    return engine.optimize(fn, trace, Objective::Throughput, {}, 100.0);
  }
};

int by_class(const EngineResult& r, const std::string& cls) {
  auto it = r.quarantine_by_class.find(cls);
  return it == r.quarantine_by_class.end() ? 0 : it->second;
}

int exception_classes(const EngineResult& r) {
  int n = 0;
  for (const auto& [cls, count] : r.quarantine_by_class)
    if (cls.rfind("exception:", 0) == 0) n += count;
  return n;
}

/// Quarantine class each injected corruption must land in: the layer of
/// the pipeline that is responsible for catching it.
std::string expected_class(verify::FaultClass c) {
  switch (c) {
    case verify::FaultClass::WrongSemantics: return "nonequivalent";
    case verify::FaultClass::ThrowException: return "";  // exception:* prefix
    case verify::FaultClass::DuplicateStmtId: return "ir.stmt-id-unique";
    case verify::FaultClass::EmptyLoopBody: return "ir.empty-loop";
    case verify::FaultClass::UndeclaredArray: return "ir.arrays";
    case verify::FaultClass::UndefinedRead: return "ir.def-before-use";
  }
  return "?";
}

int sum_by_class(const EngineResult& r) {
  int n = 0;
  for (const auto& [cls, count] : r.quarantine_by_class) n += count;
  return n;
}

TEST(FaultInjection, AllInjectedFaultsCaughtAndAccounted) {
  Harness h;
  const auto inner = xform::TransformLibrary::standard();
  verify::FaultInjectorOptions fo;
  fo.rate = 0.5;
  fo.seed = 11;
  verify::FaultInjector injector(inner, fo);

  EngineOptions opts;
  opts.seed = 3;
  const EngineResult r = h.run(injector, opts);

  // Enough corruption happened to make the test meaningful, across
  // several classes.
  EXPECT_GE(injector.injected_total(), 10);
  int classes_hit = 0;
  for (verify::FaultClass c : verify::all_fault_classes())
    if (injector.injected(c) > 0) classes_hit++;
  EXPECT_GE(classes_hit, 4);

  // Exact accounting: every injected fault was quarantined by the layer
  // responsible for it — verification catches 100% of structural
  // corruption, equivalence catches 100% of semantic corruption, the
  // transactional wrapper catches 100% of exceptions.
  for (verify::FaultClass c : verify::all_fault_classes()) {
    if (c == verify::FaultClass::ThrowException) continue;
    EXPECT_EQ(by_class(r, expected_class(c)), injector.injected(c))
        << "class " << verify::to_string(c);
  }
  EXPECT_EQ(exception_classes(r),
            injector.injected(verify::FaultClass::ThrowException));
  EXPECT_EQ(r.counts.nonequivalent,
            injector.injected(verify::FaultClass::WrongSemantics));

  // Counter consistency, and structured records stay within their cap.
  EXPECT_EQ(sum_by_class(r), r.counts.quarantined);
  EXPECT_LE(r.quarantine.size(), kQuarantineLogCap);
  for (const auto& rec : r.quarantine) {
    EXPECT_FALSE(rec.pass.empty());
    EXPECT_FALSE(rec.failure_class.empty());
    EXPECT_FALSE(rec.transforms.empty());
  }

  // Despite heavy corruption the result is trustworthy: functionally
  // equivalent to the input and verify-clean.
  EXPECT_TRUE(sim::equivalent_on_trace(h.fn, r.best, h.trace));
  const std::set<std::string> allowed = verify::undefined_reads(h.fn);
  const verify::Report rep =
      verify::verify_function(r.best, verify::Level::Full, &allowed);
  EXPECT_TRUE(rep.ok()) << rep.str();
}

TEST(FaultInjection, EveryClassCaughtInIsolation) {
  for (verify::FaultClass c : verify::all_fault_classes()) {
    Harness h;
    const auto inner = xform::TransformLibrary::standard();
    verify::FaultInjectorOptions fo;
    fo.rate = 1.0;  // corrupt every rewrite
    fo.seed = 7;
    fo.classes = {c};
    verify::FaultInjector injector(inner, fo);

    EngineOptions opts;
    opts.seed = 5;
    opts.max_outer_iters = 2;
    const EngineResult r = h.run(injector, opts);

    ASSERT_GT(injector.injected(c), 0) << verify::to_string(c);
    const int caught = c == verify::FaultClass::ThrowException
                           ? exception_classes(r)
                           : by_class(r, expected_class(c));
    // 100% of this class's injections were caught and classified.
    EXPECT_EQ(caught, injector.injected(c)) << verify::to_string(c);
    EXPECT_EQ(r.counts.quarantined, injector.injected_total())
        << verify::to_string(c);

    // With every rewrite corrupted, nothing may be accepted.
    EXPECT_TRUE(r.degraded_to_baseline) << verify::to_string(c);
    EXPECT_TRUE(r.applied.empty());
    EXPECT_EQ(r.best.str(), h.fn.str());
  }
}

TEST(FaultInjection, FullCorruptionDegradesToBaseline) {
  Harness h;
  const auto inner = xform::TransformLibrary::standard();
  verify::FaultInjectorOptions fo;
  fo.rate = 1.0;
  fo.seed = 23;
  verify::FaultInjector injector(inner, fo);

  const EngineResult r = h.run(injector, {});
  EXPECT_TRUE(r.degraded_to_baseline);
  EXPECT_TRUE(r.applied.empty());
  EXPECT_EQ(r.best.str(), h.fn.str());
  EXPECT_EQ(r.counts.quarantined, injector.injected_total());
  EXPECT_GT(r.counts.quarantined, 0);
  // The baseline itself was still evaluated: the caller gets real metrics.
  EXPECT_GT(r.best_eval.avg_len, 0.0);
  EXPECT_FALSE(r.truncated);
}

/// A transform bug that builds an expression with a null operand after
/// the real rewrite. Expr's constructor rejects it with fact::Error.
class NullOperandLibrary : public xform::TransformLibrary {
 public:
  explicit NullOperandLibrary(const xform::TransformLibrary& inner)
      : inner_(inner) {}
  std::vector<xform::Candidate> find_all(
      const ir::Function& fn, const std::set<int>& region) const override {
    return inner_.find_all(fn, region);
  }
  ir::Function apply(const ir::Function& fn,
                     const xform::Candidate& c) const override {
    applies_.fetch_add(1, std::memory_order_relaxed);
    ir::Function g = inner_.apply(fn, c);
    (void)ir::Expr::binary(ir::Op::Add, ir::Expr::var("a"), nullptr);
    return g;
  }
  int applies() const { return applies_.load(std::memory_order_relaxed); }

 private:
  const xform::TransformLibrary& inner_;
  mutable std::atomic<int> applies_{0};
};

TEST(FaultInjection, NullOperandIsAnApplyError) {
  Harness h;
  const auto inner = xform::TransformLibrary::standard();
  const NullOperandLibrary buggy(inner);
  const EngineResult r = h.run(buggy, {});
  EXPECT_GT(buggy.applies(), 0);
  EXPECT_EQ(by_class(r, "apply-error"), buggy.applies());
  EXPECT_EQ(r.counts.quarantined, buggy.applies());
  EXPECT_TRUE(r.degraded_to_baseline);
  EXPECT_EQ(r.best.str(), h.fn.str());
}

TEST(FaultInjection, DeterministicForSeeds) {
  auto once = []() {
    Harness h;
    const auto inner = xform::TransformLibrary::standard();
    verify::FaultInjectorOptions fo;
    fo.rate = 0.5;
    fo.seed = 11;
    verify::FaultInjector injector(inner, fo);
    EngineOptions opts;
    opts.seed = 3;
    EngineResult r = h.run(injector, opts);
    return std::make_tuple(r.best.str(), r.quarantine_by_class,
                           r.counts.evaluations, injector.injected_by_class());
  };
  EXPECT_EQ(once(), once());
}

TEST(Deadline, TinyDeadlineReturnsBestSoFarTruncated) {
  Harness h;
  const auto xf = xform::TransformLibrary::standard();
  EngineOptions opts;
  opts.deadline_ms = 1e-3;  // expires right after the baseline evaluation
  const EngineResult r = h.run(xf, opts);
  EXPECT_TRUE(r.truncated);
  EXPECT_EQ(r.best.str(), h.fn.str());
  EXPECT_GT(r.best_eval.avg_len, 0.0);
  // Truncation is not degradation: nothing failed, we just ran out of
  // budget before exploring.
  EXPECT_FALSE(r.degraded_to_baseline);
  EXPECT_EQ(r.counts.quarantined, 0);
}

TEST(Deadline, EvaluationBudgetTruncates) {
  Harness h;
  const auto xf = xform::TransformLibrary::standard();
  EngineOptions opts;
  opts.max_evaluations = 1;
  const EngineResult r = h.run(xf, opts);
  EXPECT_TRUE(r.truncated);
  EXPECT_EQ(r.counts.evaluations, 1);
  EXPECT_EQ(r.best.str(), h.fn.str());
  EXPECT_GT(r.best_eval.avg_len, 0.0);
}

TEST(Deadline, GenerousBudgetDoesNotTruncate) {
  Harness h;
  const auto xf = xform::TransformLibrary::standard();
  EngineOptions opts;
  opts.deadline_ms = 120000.0;
  opts.max_evaluations = 1000000;
  const EngineResult r = h.run(xf, opts);
  EXPECT_FALSE(r.truncated);
  EXPECT_FALSE(r.applied.empty());
  EXPECT_LT(r.best_eval.avg_len, 100.0);
}

}  // namespace
}  // namespace fact::opt
