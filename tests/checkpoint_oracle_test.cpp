// The checkpointed gate against the whole pass: a candidate resumed from
// its parent's checkpoints (sim::resume_trace, through the checkpointed
// profile_if_equivalent) must give what profile_if_equivalent gives from
// reset: the same profile, field for field, nullopt, or the same error.

#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <string>
#include <thread>

#include "lang/parser.hpp"
#include "program_gen.hpp"
#include "sim/trace.hpp"
#include "test_util.hpp"
#include "workloads/workloads.hpp"
#include "xform/transform.hpp"

namespace fact::sim {
namespace {

/// What a gate gave: a profile, nullopt (no error), or an error.
struct Verdict {
  std::optional<Profile> profile;
  std::string error;
};

template <typename Gate>
Verdict verdict_of(Gate&& gate) {
  try {
    return {gate(), ""};
  } catch (const std::exception& e) {
    return {std::nullopt, e.what()};
  }
}

void expect_same(const Verdict& got, const Verdict& want,
                 const std::string& what) {
  EXPECT_EQ(got.error, want.error) << what;
  ASSERT_EQ(got.profile.has_value(), want.profile.has_value()) << what;
  if (!want.profile) return;
  EXPECT_EQ(got.profile->executions, want.profile->executions) << what;
  EXPECT_EQ(got.profile->stats.steps, want.profile->stats.steps) << what;
  ASSERT_EQ(got.profile->stats.branches.size(),
            want.profile->stats.branches.size())
      << what;
  auto g = got.profile->stats.branches.begin();
  for (const auto& [id, w] : want.profile->stats.branches) {
    EXPECT_EQ(g->first, id) << what;
    EXPECT_EQ(g->second.taken, w.taken) << what << " stmt " << id;
    EXPECT_EQ(g->second.total, w.total) << what << " stmt " << id;
    ++g;
  }
}

/// Whether the reference pass records checkpoints of `fn`: it has two or
/// more top-level statements, so a variant may share one of them.
bool recordable(const ir::Function& fn) { return fn.body()->stmts.size() > 1; }

/// One behavior's search setting: its trace, reference, gate store and
/// root checkpoints, as optimize() makes them.
struct Setting {
  Setting(const ir::Function& f, Trace t) : fn(f.clone()), trace(std::move(t)) {
    code.add(fn);
    reference = reference_observations(fn, &code, trace, nullptr, &root);
  }
  ir::Function fn;
  Trace trace;
  StatementCode code;
  Observations reference;
  CheckpointsPtr root;
};

/// Gates every `stride`-th candidate of `parent` (whose checkpoints are
/// `cp`) both ways and compares; recurses into the first `fanout` of them
/// that pass while `depth` > 1. Returns the gates compared.
size_t check_candidates(const Setting& s, const ir::Function& parent,
                        const CheckpointsPtr& cp, int depth, size_t stride,
                        size_t fanout) {
  const auto xlib = xform::TransformLibrary::standard();
  const std::vector<xform::Candidate> cands = xlib.find_all(parent, {});
  size_t gates = 0, opened = 0;
  for (size_t i = 0; i < cands.size(); i += stride) {
    const xform::Candidate& c = cands[i];
    ir::Function next;
    try {
      next = xlib.apply(parent, c);
    } catch (const std::exception&) {
      continue;  // gate 1 quarantines it before any pass
    }
    CheckpointsPtr mine;
    const Verdict got = verdict_of([&] {
      return profile_if_equivalent(next, &s.code, s.trace, s.reference,
                                   cp.get(), &mine);
    });
    const Verdict want = verdict_of(
        [&] { return profile_if_equivalent(next, s.trace, s.reference); });
    expect_same(got, want, parent.name() + ": " + c.describe());
    ++gates;
    EXPECT_TRUE(got.profile || !mine) << c.describe();
    if (mine && depth > 1 && opened < fanout) {
      ++opened;
      gates += check_candidates(s, next, mine, depth - 1, stride, fanout);
    }
  }
  return gates;
}

/// The candidates check_candidates gates of `fn`, from its root's
/// checkpoints, two levels deep.
size_t check_behavior(const ir::Function& fn, const Trace& trace,
                      size_t stride, size_t fanout) {
  const Setting s(fn, trace);
  EXPECT_EQ(s.root != nullptr, recordable(fn)) << fn.name();
  return check_candidates(s, s.fn, s.root, 2, stride, fanout);
}

TEST(CheckpointOracle, Table2FirstAndSecondLevel) {
  const CounterDelta skipped("fact_sim_gate_steps_skipped_total");
  for (const char* name : {"TEST2", "FIR", "SINTRAN", "IGF", "GCD", "PPS"}) {
    const workloads::Workload w = workloads::by_name(name);
    EXPECT_GT(check_behavior(w.fn, generate_trace(w.fn, w.trace, 7), 1,
                             SIZE_MAX),
              0u)
        << name;
  }
  EXPECT_GT(skipped(), 0u);
}

// The default shape's executions are short: few of its candidates could
// skip enough to resume, and the verdicts must match all the same.
TEST(CheckpointOracle, GeneratedFirstAndSecondLevel) {
  size_t gates = 0;
  for (uint64_t seed = 1014; seed <= 1020; ++seed) {  // 1019 has none
    const ir::Function fn = testgen::random_program(seed);
    gates += check_behavior(fn, generate_trace(fn, TraceConfig{}, 7), 1,
                            SIZE_MAX);
  }
  EXPECT_GT(gates, 300u);
}

// The large shape has a thousand or more first-level candidates per
// program, each a few milliseconds to simulate, so this gates every
// fourth, and the candidates of two of those.
TEST(CheckpointOracle, LargeFirstAndSecondLevel) {
  const CounterDelta skipped("fact_sim_gate_steps_skipped_total");
  for (const uint64_t seed : {1016, 1019, 1020}) {
    const ir::Function fn =
        testgen::random_program(seed, testgen::GenOptions{14, 3, 3, 8});
    EXPECT_GT(check_behavior(fn, generate_trace(fn, TraceConfig{}, 7), 4, 2),
              0u)
        << seed;
  }
  EXPECT_GT(skipped(), 0u);
}

// Workers gate candidates against one parent's checkpoints at once, as
// optimize()'s do; each verdict must still be the serial whole pass's.
TEST(CheckpointOracle, SharedCheckpointsFromFourThreads) {
  for (const char* name : {"TEST2", "IGF"}) {
    const workloads::Workload w = workloads::by_name(name);
    const Setting s(w.fn, generate_trace(w.fn, w.trace, 7));
    const auto xlib = xform::TransformLibrary::standard();
    std::vector<ir::Function> cands;
    for (const xform::Candidate& c : xlib.find_all(s.fn, {}))
      cands.push_back(xlib.apply(s.fn, c));
    std::vector<Verdict> want;
    for (const ir::Function& g : cands)
      want.push_back(verdict_of(
          [&] { return profile_if_equivalent(g, s.trace, s.reference); }));
    std::vector<std::vector<Verdict>> got(4, std::vector<Verdict>(cands.size()));
    std::vector<std::thread> threads;
    for (size_t t = 0; t < got.size(); ++t)
      threads.emplace_back([&, t] {
        for (size_t i = 0; i < cands.size(); ++i) {
          CheckpointsPtr mine;
          got[t][i] = verdict_of([&] {
            return profile_if_equivalent(cands[i], &s.code, s.trace,
                                         s.reference, s.root.get(), &mine);
          });
        }
      });
    for (std::thread& t : threads) t.join();
    for (const auto& verdicts : got)
      for (size_t i = 0; i < cands.size(); ++i)
        expect_same(verdicts[i], want[i], std::string(name) + " " +
                                              std::to_string(i));
  }
}

// ---- one hand-built case per path ----------------------------------------

/// A deep copy of `s` whose statements have no ids yet.
ir::StmtPtr without_ids(const ir::Stmt& s) {
  ir::StmtPtr c = s.clone();
  const std::function<void(ir::Stmt&)> clear = [&](ir::Stmt& t) {
    t.id = -1;
    for (auto* list : t.child_lists())
      for (auto& k : *list) clear(*k);
  };
  clear(*c);
  return c;
}

/// `parent` with its top-level statement `k` replaced by (or, with
/// `insert`, preceded by) the top-level statements of `src`; every other
/// top-level statement stays shared with `parent`.
ir::Function variant(const ir::Function& parent, size_t k,
                     const std::string& src, bool insert = false) {
  const ir::Function q = lang::parse_function(src);
  std::vector<ir::StmtPtr> stmts;
  for (const auto& s : q.body()->stmts) stmts.push_back(without_ids(*s));
  ir::Function g = parent.clone();
  g.splice(parent.body()->stmts[k]->id, std::move(stmts), insert);
  g.assign_fresh_ids();
  return g;
}

/// A trace giving parameter `name` each of `values`, one per execution.
Trace trace_of(const std::string& name, std::vector<int64_t> values) {
  Trace t;
  for (const int64_t v : values) {
    Stimulus s;
    s.params[name] = v;
    t.push_back(std::move(s));
  }
  return t;
}

/// One hand-built gate: `child` against `parent`'s checkpoints at a step
/// limit, both ways. Returns how the checkpointed gate ran.
ResumeStats gate_both(const ir::Function& parent, const ir::Function& child,
                      const Trace& trace, uint64_t max_steps,
                      CheckpointsPtr* mine = nullptr,
                      const CheckpointsPtr& from = nullptr) {
  Interpreter whole = Interpreter::recording(parent);
  whole.set_max_steps(max_steps);
  Observations reference;
  reference.layout = whole.layout();
  CheckpointsPtr cp = from;
  const bool recorded = whole.run_trace(
      trace, nullptr,
      [&](size_t, std::span<const int64_t> ob) {
        reference.values.insert(reference.values.end(), ob.begin(), ob.end());
        reference.executions++;
        return true;
      },
      parent, from ? nullptr : &cp);
  EXPECT_TRUE(recorded);
  const auto compare = [&](size_t i, std::span<const int64_t> ob) {
    return ob.size() == reference.layout.size && i < reference.executions &&
           std::equal(ob.begin(), ob.end(),
                      reference.values.begin() +
                          static_cast<ptrdiff_t>(i * ob.size()));
  };
  ResumeStats how;
  const Verdict got = verdict_of([&]() -> std::optional<Profile> {
    Profile p;
    std::optional<bool> passed =
        resume_trace(child, nullptr, *cp, trace, &p.stats, compare, mine,
                     &how, max_steps);
    if (!passed) {
      Interpreter full(child);
      full.set_max_steps(max_steps);
      passed = full.run_trace(trace, &p.stats, compare);
    }
    if (!*passed) return std::nullopt;
    p.executions = trace.size();
    return p;
  });
  const Verdict want = verdict_of([&]() -> std::optional<Profile> {
    Interpreter full(child);
    full.set_max_steps(max_steps);
    Profile p;
    if (!full.run_trace(trace, &p.stats, compare)) return std::nullopt;
    p.executions = trace.size();
    return p;
  });
  expect_same(got, want, child.str());
  return how;
}

// The hand-built behaviors open with a loop of 81 steps, so that a
// variant's pass skips enough of them to resume.
const char* const kStraight = R"(
F(int a) {
  int j = 0;
  while (j < 40) { j = j + 1; }
  int x = a * 2;
  int t = a + 1;
  int y = x + 3;
  int z = y - t + j;
  output z;
}
)";

TEST(CheckpointOracle, DeadScalarLeftDifferentRunsTheRest) {
  // `u` is never read, and the variant leaves it different.
  const ir::Function p = lang::parse_function(R"(
F(int a) {
  int j = 0;
  while (j < 40) { j = j + 1; }
  int x = a * 2;
  int u = a;
  int y = x + 3 + j;
  output y;
}
)");
  const Trace trace = trace_of("a", {1, 2, 3, 4, 5});
  const ResumeStats how = gate_both(
      p, variant(p, 3, "F(int a) { int u = a + 7; }"), trace,
      kDefaultMaxSteps);
  EXPECT_TRUE(how.resumed);
  EXPECT_TRUE(how.diverged);  // u differs, so the rest ran
  EXPECT_GT(how.steps_skipped, 0u);
}

TEST(CheckpointOracle, RejoinedStateSkipsTheRest) {
  const ir::Function p = lang::parse_function(kStraight);
  const Trace trace = trace_of("a", {1, 2, 3, 4, 5});
  const ResumeStats how = gate_both(
      p, variant(p, 3, "F(int a) { int t = 1 + a; }"), trace,
      kDefaultMaxSteps);
  EXPECT_TRUE(how.resumed);
  EXPECT_FALSE(how.diverged);
  EXPECT_EQ(how.steps_skipped, 85u * trace.size());  // all but statement 3
}

const char* const kCounting = R"(
F(int a) {
  int j = 0;
  while (j < 40) { j = j + 1; }
  int n = a;
  int i = 0;
  while (i < n) {
    i = i + 1;
  }
  int y = i * 2;
  output y;
}
)";

TEST(CheckpointOracle, StepLimitInTheEditedStatements) {
  const ir::Function p = lang::parse_function(kCounting);
  const Trace trace = trace_of("a", {3, 4, 5, 6});
  // The parent takes at most 82 + 4 + 2 * 6 steps; the variant's loop runs
  // past the limit.
  const ir::Function c = variant(
      p, 4, "F(int a) { while (i < n * 10) { i = i + 1; } }");
  const ResumeStats how = gate_both(p, c, trace, 110);
  EXPECT_FALSE(how.resumed);  // aborted: the pass from reset decided
}

TEST(CheckpointOracle, StepLimitInTheRest) {
  const ir::Function p = lang::parse_function(kCounting);
  const Trace trace = trace_of("a", {3, 4, 5, 6});
  // The edit changes n, so the state does not rejoin and the shared loop
  // runs past the limit.
  const ir::Function c = variant(p, 2, "F(int a) { int n = a * 10; }");
  const ResumeStats how = gate_both(p, c, trace, 110);
  EXPECT_FALSE(how.resumed);
}

TEST(CheckpointOracle, StepLimitAcrossTheSkippedRest) {
  const ir::Function p = lang::parse_function(kCounting);
  const Trace trace = trace_of("a", {3, 4, 5, 6});
  // One more statement before the loop: the state rejoins, but the last
  // execution's total is one past the parent's, which is at the limit.
  const ir::Function c = variant(p, 3, "F(int a) { int w = 0; }", true);
  const uint64_t limit = 82 + 4 + 2 * 6;
  const ResumeStats fits = gate_both(p, c, trace, limit + 1);
  EXPECT_TRUE(fits.resumed);
  EXPECT_FALSE(fits.diverged);
  const ResumeStats over = gate_both(p, c, trace, limit);
  EXPECT_FALSE(over.resumed);
}

TEST(CheckpointOracle, MismatchOnlyInExecutionTwo) {
  const ir::Function p = lang::parse_function(kStraight);
  // Differs from `x = a * 2` only where a == 5, execution 2's stimulus.
  const ir::Function c = variant(
      p, 2, "F(int a) { int x = a * 2 + (a == 5 ? 1 : 0); }");
  const ResumeStats how =
      gate_both(p, c, trace_of("a", {1, 2, 5, 4, 7}), kDefaultMaxSteps);
  EXPECT_TRUE(how.resumed);
  EXPECT_TRUE(how.diverged);
}

TEST(CheckpointOracle, InsertedAndDeletedStatements) {
  const ir::Function p = lang::parse_function(kStraight);
  const Trace trace = trace_of("a", {1, 2, 3, 4, 5});
  // A new scalar w rejoins: the parent's names are all equal.
  CheckpointsPtr inserted;
  const ir::Function c = variant(p, 4, "F(int a) { int w = 3; }", true);
  const ResumeStats how = gate_both(p, c, trace, kDefaultMaxSteps, &inserted);
  EXPECT_TRUE(how.resumed);
  EXPECT_FALSE(how.diverged);
  ASSERT_TRUE(inserted);
  // Its grandchild reads w where the variant shares the parent's rest,
  // from the state the variant's checkpoints kept for it (w = 0 would
  // make y differ).
  const ir::Function g = variant(c, 5, "F(int a) { int y = x + w; }");
  const ResumeStats reads = gate_both(c, g, trace, kDefaultMaxSteps, nullptr,
                                      inserted);
  EXPECT_TRUE(reads.resumed);
  EXPECT_FALSE(reads.diverged);

  // Deleting `t = a + 1` leaves t at 0: the state does not rejoin.
  ir::Function d = p.clone();
  d.splice(p.body()->stmts[3]->id, {}, false);
  const ResumeStats deleted = gate_both(p, d, trace, kDefaultMaxSteps);
  EXPECT_TRUE(deleted.resumed);
  EXPECT_TRUE(deleted.diverged);
}

TEST(CheckpointOracle, ChangedDeclarationsRunFromReset) {
  const ir::Function p = lang::parse_function(kStraight);
  ir::Function c = p.clone();
  c.add_output("x");
  const ResumeStats how =
      gate_both(p, c, trace_of("a", {1, 2, 3}), kDefaultMaxSteps);
  EXPECT_FALSE(how.resumed);
}

TEST(CheckpointOracle, LanesWithDifferentPrefixSteps) {
  const ir::Function p = lang::parse_function(kCounting);
  // The second loop runs 0 to 9 times before the edit: each lane of a
  // lockstep group resumes with its own step count.
  const Trace trace = trace_of("a", {0, 9, 3, 7, 1, 5});
  const ir::Function c = variant(p, 5, "F(int a) { int y = i + i; }");
  const ResumeStats how = gate_both(p, c, trace, kDefaultMaxSteps);
  EXPECT_TRUE(how.resumed);
  EXPECT_FALSE(how.diverged);
  // At the parent's own limit the resumed lanes still fit exactly.
  const ResumeStats tight = gate_both(p, c, trace, 82 + 4 + 2 * 9);
  EXPECT_TRUE(tight.resumed);
}

}  // namespace
}  // namespace fact::sim
