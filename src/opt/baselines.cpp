#include "opt/baselines.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace fact::opt {

using ir::ExprPtr;
using ir::Op;
using ir::Stmt;
using ir::StmtKind;

namespace {

BaselineResult schedule_and_measure(ir::Function fn,
                                    const hlslib::Library& lib,
                                    const hlslib::Allocation& alloc,
                                    const hlslib::FuSelection& sel,
                                    const sim::Trace& trace,
                                    const sched::SchedOptions& sched_opts,
                                    const power::PowerOptions& power_opts) {
  BaselineResult r;
  const sim::Profile profile = sim::profile_function(fn, trace);
  sched::Scheduler scheduler(lib, alloc, sel, sched_opts);
  r.schedule = scheduler.schedule(fn, profile);
  r.power_nominal = measure_design(r.schedule.stg, lib, power_opts,
                                   Objective::Throughput);
  r.avg_len = r.power_nominal.avg_schedule_length;
  r.fn = std::move(fn);
  return r;
}

/// Flamel's schedule-blind cost: operation nodes and expression depth,
/// weighted by 10 per loop-nesting level (an op inside a loop runs many
/// times). Lower is better; no resource or clock information enters.
double static_cost(const ir::Function& fn) {
  double cost = 0.0;

  std::function<double(const ExprPtr&)> depth = [&](const ExprPtr& e) {
    if (e->num_args() == 0) return 0.0;
    double d = 0.0;
    for (const auto& a : e->args()) d = std::max(d, depth(a));
    return d + 1.0;
  };
  auto op_nodes = [&](const ExprPtr& e) {
    double n = 0.0;
    ir::for_each_node(e, [&](const ExprPtr& node) {
      if (node->num_args() > 0) n += 1.0;
    });
    return n;
  };

  std::function<void(const std::vector<ir::StmtPtr>&, double)> walk =
      [&](const std::vector<ir::StmtPtr>& stmts, double weight) {
        for (const auto& s : stmts) {
          for (const auto* slot : s->expr_slots())
            cost += weight * (op_nodes(*slot) + 0.5 * depth(*slot));
          const double child_weight =
              s->kind == StmtKind::While ? weight * 10.0 : weight;
          for (const auto* child : s->child_lists()) walk(*child, child_weight);
        }
      };
  walk(fn.body()->stmts, 1.0);
  return cost;
}

}  // namespace

BaselineResult run_m1(const ir::Function& fn, const hlslib::Library& lib,
                      const hlslib::Allocation& alloc,
                      const hlslib::FuSelection& sel,
                      const sim::TraceConfig& trace_config,
                      const sched::SchedOptions& sched_opts,
                      const power::PowerOptions& power_opts, uint64_t seed) {
  const sim::Trace trace = sim::generate_trace(fn, trace_config, seed);
  return schedule_and_measure(fn.clone(), lib, alloc, sel, trace, sched_opts,
                              power_opts);
}

BaselineResult run_flamel(const ir::Function& fn, const hlslib::Library& lib,
                          const hlslib::Allocation& alloc,
                          const hlslib::FuSelection& sel,
                          const sim::TraceConfig& trace_config,
                          const sched::SchedOptions& sched_opts,
                          const power::PowerOptions& power_opts,
                          uint64_t seed) {
  const sim::Trace trace = sim::generate_trace(fn, trace_config, seed);
  ir::Function current = fn.clone();
  std::vector<std::string> applied;

  // The original is simulated once; each applied transform is checked
  // against its observations.
  const sim::Observations reference = sim::reference_observations(fn, trace);
  const xform::TransformLibrary lib_all = xform::TransformLibrary::standard();
  auto apply_checked = [&](const xform::Candidate& c) {
    ir::Function next = lib_all.apply(current, c);
    if (!sim::profile_if_equivalent(next, trace, reference))
      throw Error("flamel: transform broke equivalence: " + c.describe());
    applied.push_back(c.describe());
    current = std::move(next);
  };

  // Phase 1 — global compaction: convert every eligible conditional into
  // straight-line selects (Flamel merges basic blocks unconditionally).
  const xform::Transform* spec = lib_all.find_transform("speculate");
  for (int guard = 0; guard < 64; ++guard) {
    auto cands = spec->find(current, {});
    if (cands.empty()) break;
    apply_checked(cands.front());
  }

  // Phase 2 — greedy static improvement over the schedule-blind subset:
  // constant folding/propagation, select fusion, factoring, associativity,
  // code motion, full unrolling. Partial unrolling and add/sub regrouping
  // are schedule-relative and deliberately absent.
  const std::vector<std::string> greedy_set = {
      "constfold", "constprop", "select-fuse", "distribute",
      "reassoc",   "licm",      "unroll",      "dce"};
  double cost = static_cost(current);
  for (int pass = 0; pass < 24; ++pass) {
    double best_cost = cost;
    std::optional<xform::Candidate> best;
    for (const auto& name : greedy_set) {
      const xform::Transform* t = lib_all.find_transform(name);
      for (const auto& c : t->find(current, {})) {
        // Flamel never partially unrolls (needs schedule feedback).
        if (name == "unroll" && c.variant != 100) continue;
        ir::Function next = lib_all.apply(current, c);
        const double next_cost = static_cost(next);
        if (next_cost < best_cost - 1e-9) {
          best_cost = next_cost;
          best = c;
        }
      }
    }
    if (!best) break;
    apply_checked(*best);
    cost = static_cost(current);
  }

  BaselineResult r = schedule_and_measure(std::move(current), lib, alloc, sel,
                                          trace, sched_opts, power_opts);
  r.applied = std::move(applied);
  return r;
}

}  // namespace fact::opt
