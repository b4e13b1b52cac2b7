// Allocation budget of the per-candidate work of the interpreter and the
// scheduler. This binary replaces the global operator new with a counting
// one, so it runs alone (not inside fact_tests). It pins these properties:
//   * an equivalence pass (sim::profile_if_equivalent) allocates per pass,
//     not per execution: memories reset in place and observations go into
//     a reused buffer;
//   * stg::OpInstance is trivially destructible: an op owns no heap
//     memory, so emitting or destroying an STG costs nothing per op;
//   * rescheduling against a warm FragmentCache (every fragment hits, as
//     for most of a candidate's regions) allocates per state and per
//     region, not per op;
//   * DfgBuilder::build, the cost of a fragment miss, allocates a fixed
//     number of arrays per DFG in warm scratch, whatever its node count;
//   * a warm chain-only schedule (Scheduler::summarize) of SINTRAN and its
//     unrolled candidates makes a fixed number of allocations, whatever
//     its state and region counts: emission reuses per-thread storage and
//     the chain is one exact-size copy of it;
//   * a warm stg::state_probabilities call allocates per solve, not per
//     state: its working storage is flat and reused;
//   * verify::verify_function on a clean candidate allocates per scalar
//     name and per If/While statement, not per statement or expression
//     node.
// The scheduler programs are the generated SchedGolden ones.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <optional>
#include <set>
#include <string>
#include <type_traits>

#include "program_gen.hpp"
#include "sched/dfg.hpp"
#include "sched/fragment_cache.hpp"
#include "sched/region.hpp"
#include "sched/scheduler.hpp"
#include "sim/trace.hpp"
#include "stg/stg.hpp"
#include "util/error.hpp"
#include "verify/verify.hpp"
#include "workloads/workloads.hpp"
#include "xform/transform.hpp"

namespace {
std::atomic<size_t> g_allocations{0};
}  // namespace

// Not inlined: GCC would otherwise see the malloc() or free() inside and
// warn that the caller pairs them with operator delete or operator new
// (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t n) {
  return ::operator new(n);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace fact::sched {
namespace {

static_assert(std::is_trivially_destructible_v<stg::OpInstance>,
              "an STG op must own no heap memory");

size_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

/// One generated SchedGolden program: the behavior, its allocation (one
/// or two instances of every FU type) and its profile.
struct Program {
  ir::Function fn;
  hlslib::Allocation alloc;
  sim::Profile profile;
};

std::vector<Program> golden_programs() {
  const hlslib::Library lib = hlslib::Library::dac98();
  sim::TraceConfig tc;
  tc.executions = 6;
  std::vector<Program> out;
  for (const bool concurrent : {false, true}) {
    testgen::GenOptions gen;
    gen.concurrent_loops = concurrent;
    for (uint64_t seed = 1; seed <= 12; ++seed) {
      Program p{testgen::random_program(seed, gen), {}, {}};
      for (const auto& t : lib.types())
        p.alloc.counts[t.name] = 1 + static_cast<int>(seed % 2);
      p.profile =
          sim::profile_function(p.fn, sim::generate_trace(p.fn, tc, 7));
      out.push_back(std::move(p));
    }
  }
  return out;
}

size_t count_regions(const Region& r) {
  size_t n = 1;
  for (const auto& c : r.children) n += count_regions(*c);
  return n;
}

TEST(SchedAlloc, WarmRescheduleAllocatesPerStateNotPerOp) {
  const hlslib::Library lib = hlslib::Library::dac98();
  const hlslib::FuSelection sel = hlslib::FuSelection::defaults(lib);
  size_t total_allocs = 0, total_states = 0, total_regions = 0, total_ops = 0;
  for (const Program& p : golden_programs()) {
    FragmentCache cache;
    SchedOptions opts;
    opts.fragment_cache = &cache;
    const Scheduler s(lib, p.alloc, sel, opts);
    try {
      (void)s.schedule(p.fn, p.profile);  // warm every fragment
    } catch (const Error&) {
      continue;  // unschedulable under this allocation
    }
    const size_t before = allocations();
    const ScheduleResult r = s.schedule(p.fn, p.profile);
    total_allocs += allocations() - before;
    total_states += r.stg.num_states();
    total_regions += count_regions(*RegionTree(p.fn));
    for (const stg::State& st : r.stg.states()) total_ops += st.ops.size();
  }
  std::printf("warm reschedule: %zu allocations, %zu states, %zu regions, "
              "%zu ops\n",
              total_allocs, total_states, total_regions, total_ops);
  ASSERT_GT(total_states, 0u);
  // Per state: its ops array, its out-edge list (two allocations for a
  // branching state), the Stg's state and edge tables as they grow. Per
  // region: its tree node and statement list, the emitter's transition
  // lists and the owner the STG keeps alive.
  EXPECT_LE(total_allocs, 4 * total_states + 6 * total_regions);
}

TEST(SchedAlloc, WarmSummaryAllocatesPerScheduleNotPerState) {
  // SINTRAN and its unrolled candidates: unrolling multiplies a loop's
  // states, not its regions.
  const hlslib::Library lib = hlslib::Library::dac98();
  const workloads::Workload w = workloads::by_name("SINTRAN");
  sim::TraceConfig tc = w.trace;
  tc.executions = 24;
  const sim::Trace trace = sim::generate_trace(w.fn, tc, 7);
  const xform::TransformLibrary xlib = xform::TransformLibrary::standard();
  std::vector<ir::Function> fns;
  fns.push_back(w.fn.clone());
  for (const xform::Candidate& c : xlib.find_all(w.fn, {}))
    if (c.transform == "unroll") fns.push_back(xlib.apply(w.fn, c));
  FragmentCache cache;
  SchedOptions opts;
  opts.fragment_cache = &cache;
  const Scheduler s(lib, w.allocation, hlslib::FuSelection::defaults(lib),
                    opts);
  size_t min_states = SIZE_MAX, max_states = 0;
  for (const ir::Function& fn : fns) {
    const sim::Profile profile = sim::profile_function(fn, trace);
    // Warm every fragment and this thread: the first call fills the cache,
    // the second takes the hit path once.
    (void)s.summarize(fn, profile);
    (void)s.summarize(fn, profile);
    const size_t before = allocations();
    const stg::Chain chain = s.summarize(fn, profile);
    const size_t allocs = allocations() - before;
    std::printf("summarize: %zu allocations, %zu states, %zu regions\n",
                allocs, chain.num_states(),
                count_regions(*RegionTree(fn)));
    min_states = std::min(min_states, chain.num_states());
    max_states = std::max(max_states, chain.num_states());
    // The chain's exact-size copy of the thread's emission storage: its
    // FU names, its edges and its three state-row arrays.
    EXPECT_LE(allocs, 5u) << chain.num_states() << " states";
  }
  ASSERT_GE(fns.size(), 3u);
  ASSERT_GE(max_states, 8 * min_states);
}

/// DFG builds of every straight segment and every condition of a region
/// tree, as the scheduler performs them on fragment misses: `build` is
/// called with each segment's statements, condition and condition id.
template <typename Build>
void build_all(const Region& r, Build&& build) {
  switch (r.kind) {
    case Region::Kind::Straight:
      build(r.stmts, nullptr, -1);
      return;
    case Region::Kind::If:
      build({}, r.ctrl->cond, r.ctrl->id);
      break;
    case Region::Kind::Loop:
      build({}, r.ctrl->cond, r.ctrl->id);
      if (r.loop_body_is_straight()) {
        const Region& body = *r.children[0];
        if (!body.children.empty())
          build(body.children[0]->stmts, r.ctrl->cond, r.ctrl->id);
      }
      break;
    case Region::Kind::Seq:
      break;
  }
  for (const auto& c : r.children) build_all(*c, build);
}

TEST(SchedAlloc, DfgBuildAllocatesPerDfgNotPerName) {
  // A warm build allocates the DFG's own arrays, each once: the nodes,
  // the name buffer, the carried-variable list, and the shared edge block
  // with its int buffer (edge and successor lists, resources, live-in
  // reads) and its priorities.
  constexpr size_t kPerBuild = 6;
  const hlslib::Library lib = hlslib::Library::dac98();
  const hlslib::FuSelection sel = hlslib::FuSelection::defaults(lib);
  size_t builds = 0, nodes = 0, most_nodes = 0, most_allocs = 0;
  for (const Program& p : golden_programs()) {
    const DfgBuilder b(lib, p.alloc, sel, 5.0, 1.0);
    DfgScratch scratch;
    const RegionTree tree(p.fn);
    // The first round warms the scratch, the second measures.
    for (const bool measure : {false, true}) {
      build_all(*tree, [&](const std::vector<const ir::Stmt*>& stmts,
                           const ir::ExprPtr& cond, int id) {
        const size_t before = allocations();
        const Dfg dfg = b.build(scratch, stmts, cond, id);
        const size_t allocs = allocations() - before;
        if (!measure) return;
        builds++;
        nodes += dfg.nodes.size();
        most_nodes = std::max(most_nodes, dfg.nodes.size());
        most_allocs = std::max(most_allocs, allocs);
        EXPECT_LE(allocs, kPerBuild) << dfg.nodes.size() << " nodes";
      });
    }
  }
  std::printf("DfgBuilder::build: %zu builds, %zu nodes (at most %zu in "
              "one), at most %zu allocations per build\n",
              builds, nodes, most_nodes, most_allocs);
  // One allocation per node or more would break the bound on the largest
  // DFGs.
  ASSERT_GT(most_nodes, 2 * kPerBuild);
}

TEST(SimAlloc, CheckedPassAllocatesPerPassNotPerExecution) {
  for (const char* name : {"TEST2", "SINTRAN"}) {
    const workloads::Workload w = workloads::by_name(name);
    size_t allocs[2];
    for (const size_t executions : {size_t{8}, size_t{32}}) {
      sim::TraceConfig tc = w.trace;
      tc.executions = executions;
      const sim::Trace trace = sim::generate_trace(w.fn, tc, 7);
      const sim::Observations reference =
          sim::reference_observations(w.fn, trace);
      ASSERT_TRUE(sim::profile_if_equivalent(w.fn, trace, reference));
      const size_t before = allocations();
      const std::optional<sim::Profile> p =
          sim::profile_if_equivalent(w.fn, trace, reference);
      allocs[executions == 8 ? 0 : 1] = allocations() - before;
      ASSERT_TRUE(p);
      EXPECT_EQ(p->executions, executions);
    }
    std::printf("%s profile_if_equivalent: %zu allocations at 8 executions, "
                "%zu at 32\n",
                name, allocs[0], allocs[1]);
    EXPECT_EQ(allocs[0], allocs[1]) << name;
  }
}

/// An ergodic chain of n states: state i steps to i + 1, and every state
/// past the first also jumps back to i / 2, so eliminating states fills
/// in entries; the last state closes the ring.
stg::Stg back_edge_chain(int n) {
  stg::Stg g;
  for (int i = 0; i < n; ++i) g.add_state("");
  for (int i = 0; i + 1 < n; ++i) {
    if (i == 0) {
      g.add_edge(0, 1, 1.0);
    } else {
      g.add_edge(i, i + 1, 0.7);
      g.add_edge(i, i / 2, 0.3);
    }
  }
  g.add_edge(n - 1, 0, 1.0, "", /*exec_boundary=*/true);
  return g;
}

TEST(MarkovAlloc, SolveAllocatesPerSolveNotPerState) {
  const hlslib::Library lib = hlslib::Library::dac98();
  const workloads::Workload w = workloads::by_name("SINTRAN");
  const Scheduler s(lib, w.allocation, hlslib::FuSelection::defaults(lib),
                    SchedOptions{});
  sim::TraceConfig tc = w.trace;
  tc.executions = 24;
  std::vector<stg::Stg> chains;
  chains.push_back(
      s.schedule(w.fn,
                 sim::profile_function(w.fn, sim::generate_trace(w.fn, tc, 7)))
          .stg);
  chains.push_back(back_edge_chain(16));
  chains.push_back(back_edge_chain(465));
  for (const stg::Stg& g : chains) {
    (void)stg::state_probabilities(g);  // warm this thread's storage
    const size_t before = allocations();
    const std::vector<double> pi = stg::state_probabilities(g);
    const size_t allocs = allocations() - before;
    std::printf("state_probabilities: %zu allocations for %zu states\n",
                allocs, g.num_states());
    EXPECT_EQ(pi.size(), g.num_states());
    EXPECT_LE(allocs, 32u) << g.num_states() << " states";
  }
}

/// Distinct scalar names of `fn` (parameters, assignment targets and
/// scalar reads) plus its If and While statements.
size_t names_and_control(const ir::Function& fn) {
  std::set<std::string> names(fn.params().begin(), fn.params().end());
  size_t control = 0;
  fn.for_each([&](const ir::Stmt& s) {
    if (s.kind == ir::StmtKind::Assign) names.insert(s.target);
    if (s.kind == ir::StmtKind::If || s.kind == ir::StmtKind::While) ++control;
    s.for_each_expr_slot([&](const ir::ExprPtr& e) {
      ir::for_each_node(e, [&](const ir::ExprPtr& n) {
        if (n->op() == ir::Op::Var) names.insert(n->name());
      });
    });
  });
  return names.size() + control;
}

TEST(VerifyAlloc, IrChecksAllocatePerNameAndControlStatement) {
  const xform::TransformLibrary lib = xform::TransformLibrary::standard();
  std::vector<std::pair<std::string, ir::Function>> programs;
  programs.emplace_back("SINTRAN", workloads::by_name("SINTRAN").fn);
  for (uint64_t seed = 1014; seed <= 1020; ++seed)
    programs.emplace_back("GEN" + std::to_string(seed),
                          testgen::random_program(seed));
  size_t total_checked = 0;
  for (const auto& [name, fn] : programs) {
    const std::set<std::string> baseline = verify::undefined_reads(fn);
    size_t checked = 0, allocs = 0, budget = 0, stmts = 0;
    for (const xform::Candidate& c : lib.find_all(fn, {})) {
      ir::Function g;
      try {
        g = lib.apply(fn, c);
      } catch (const Error&) {
        continue;
      }
      const size_t bound = 2 * names_and_control(g) + 16;
      const size_t before = allocations();
      const verify::Report rep =
          verify::verify_function(g, verify::Level::Fast, &baseline);
      const size_t used = allocations() - before;
      if (!rep.ok()) continue;  // a report's issues allocate their text
      ++checked;
      allocs += used;
      budget += bound;
      stmts += g.stmt_count();
      EXPECT_LE(used, bound) << name << " " << c.describe();
    }
    std::printf("%s verify_function: %zu allocations over %zu candidates "
                "(%zu statements; budget %zu)\n",
                name.c_str(), allocs, checked, stmts, budget);
    total_checked += checked;
  }
  EXPECT_GT(total_checked, 300u);
}

}  // namespace
}  // namespace fact::sched
