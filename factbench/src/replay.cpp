// The traced run: per-layer numbers measured from outside the optimizer.
//
// For each program it replays the search's first-generation work by
// calling each module's public functions directly, one span per call,
// named <module>.<call>:
//   baseline: sim.generate_trace, sim.profile_function, sched.schedule,
//             stg.state_probabilities, power.estimate_power,
//             opt.partition_stg, verify.undefined_reads, xform.find_all;
//   per find_all candidate: xform.apply -> verify.verify_function (Fast)
//             -> ir.structural_hash (dedup) -> sim.equivalent_on_trace
//             -> sim.profile_function -> sched.schedule (one FragmentCache
//             shared by the program's candidates) -> stg.state_probabilities
//             -> power.estimate_power[_scaled].
// The spans go to a private obs::Tracer (the program's own spans stay off)
// and are written as Chrome trace JSON; fold_trace.py turns them into the
// per-layer self-time table. Call counts come from registry counter deltas
// around one end-to-end pass, where the program exports a counter.

#include <algorithm>
#include <set>
#include <unordered_set>

#include "bench.hpp"
#include "obs/trace.hpp"
#include "opt/fact.hpp"
#include "ir/hash.hpp"
#include "opt/partition.hpp"
#include "power/power.hpp"
#include "sched/fragment_cache.hpp"
#include "sched/scheduler.hpp"
#include "stg/stg.hpp"
#include "verify/verify.hpp"
#include "xform/transform.hpp"

namespace factbench {

namespace {

using fact::obs::Span;
using fact::obs::Tracer;

/// What the replay saw, per round.
struct ReplayStats {
  uint64_t candidates = 0;       // find_all candidates
  uint64_t applied = 0;          // apply succeeded
  uint64_t verify_rejects = 0;   // verify_function rejected the rewrite
  uint64_t equiv_calls = 0;
  uint64_t power_calls = 0;
  size_t states_max = 0;
};

void replay_program(const Program& p, const Context& ctx, Tracer& tr,
                    const fact::xform::TransformLibrary& xf,
                    ReplayStats& st) {
  namespace sim = fact::sim;
  namespace sched = fact::sched;
  namespace stg = fact::stg;
  namespace power = fact::power;
  namespace verify = fact::verify;
  Span root(&tr, "bench.replay", "bench");
  root.arg("program", p.name);

  // Baseline evaluation, as run_fact does it before the search.
  sim::TraceConfig tc = p.trace;
  if (tc.executions == 0)
    tc.executions = fact::opt::FactOptions{}.trace_executions;
  sim::Trace trace;
  {
    Span s(&tr, "sim.generate_trace", "sim");
    trace = sim::generate_trace(p.fn, tc, fact::opt::FactOptions{}.seed);
  }
  sim::Profile profile;
  {
    Span s(&tr, "sim.profile_function", "sim");
    profile = sim::profile_function(p.fn, trace);
  }
  const sched::Scheduler baseline_scheduler(ctx.lib, p.alloc, ctx.sel);
  sched::ScheduleResult initial;
  {
    Span s(&tr, "sched.schedule", "sched");
    initial = baseline_scheduler.schedule(p.fn, profile);
  }
  st.states_max = std::max(st.states_max, initial.stg.num_states());
  std::vector<double> pi;
  {
    Span s(&tr, "stg.state_probabilities", "stg");
    pi = stg::state_probabilities(initial.stg);
  }
  const double baseline_len = stg::average_schedule_length(initial.stg, pi);
  {
    Span s(&tr, "power.estimate_power", "power");
    power::estimate_power(initial.stg, ctx.lib, {}, &pi);
    ++st.power_calls;
  }
  std::vector<fact::opt::StgBlock> blocks;
  {
    Span s(&tr, "opt.partition_stg", "opt");
    blocks = fact::opt::partition_stg(initial.stg);
  }
  const std::set<int> region =
      blocks.empty() ? std::set<int>{} : blocks.front().stmt_ids;
  std::set<std::string> undef;
  {
    Span s(&tr, "verify.undefined_reads", "verify");
    undef = verify::undefined_reads(p.fn);
  }
  std::vector<fact::xform::Candidate> cands;
  {
    Span s(&tr, "xform.find_all", "xform");
    cands = xf.find_all(p.fn, region);
  }

  // The first generation's gauntlet and evaluation, every candidate.
  std::unordered_set<uint64_t> seen;
  {
    Span s(&tr, "ir.structural_hash", "ir");
    seen.insert(fact::ir::structural_hash(p.fn));
  }
  sched::FragmentCache fragments;
  sched::SchedOptions so;
  so.fragment_cache = &fragments;
  const sched::Scheduler scheduler(ctx.lib, p.alloc, ctx.sel, so);
  for (const fact::xform::Candidate& c : cands) {
    ++st.candidates;
    fact::ir::Function f{""};
    try {
      Span s(&tr, "xform.apply", "xform");
      f = xf.apply(p.fn, c);
    } catch (const std::exception&) {
      continue;
    }
    ++st.applied;
    {
      Span s(&tr, "verify.verify_function", "verify");
      if (!verify::verify_function(f, verify::Level::Fast, &undef).ok()) {
        ++st.verify_rejects;
        continue;
      }
    }
    {
      Span s(&tr, "ir.structural_hash", "ir");
      if (!seen.insert(fact::ir::structural_hash(f)).second) continue;
    }
    ++st.equiv_calls;
    try {
      Span s(&tr, "sim.equivalent_on_trace", "sim");
      if (!sim::equivalent_on_trace(p.fn, f, trace)) continue;
    } catch (const std::exception&) {
      continue;
    }
    sim::Profile cprof;
    {
      Span s(&tr, "sim.profile_function", "sim");
      cprof = sim::profile_function(f, trace);
    }
    sched::ScheduleResult sr;
    try {
      Span s(&tr, "sched.schedule", "sched");
      sr = scheduler.schedule(f, cprof);
    } catch (const std::exception&) {
      continue;
    }
    st.states_max = std::max(st.states_max, sr.stg.num_states());
    std::vector<double> cpi;
    {
      Span s(&tr, "stg.state_probabilities", "stg");
      cpi = stg::state_probabilities(sr.stg);
    }
    ++st.power_calls;
    if (p.objective == fact::opt::Objective::Power) {
      Span s(&tr, "power.estimate_power_scaled", "power");
      power::estimate_power_scaled(sr.stg, ctx.lib, baseline_len, {}, &cpi);
    } else {
      Span s(&tr, "power.estimate_power", "power");
      power::estimate_power(sr.stg, ctx.lib, {}, &cpi);
    }
  }
}

/// Bounds the trace file (the generated workload writes ~130 KB a round).
constexpr int kMaxReplayRounds = 50;

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Growth of a registry counter between two snapshots; 0 when absent.
double counter_delta(const std::map<std::string, uint64_t>& before,
                     const std::map<std::string, uint64_t>& after,
                     const std::string& name) {
  const auto a = after.find(name);
  if (a == after.end()) return 0.0;
  const auto b = before.find(name);
  return static_cast<double>(a->second - (b == before.end() ? 0 : b->second));
}

}  // namespace

RunResult run_traced(const Args& args, const Context& ctx,
                     const std::string& trace_path) {
  RunResult out;
  const bool factd = args.workload == "factd-mix";
  const std::vector<Program> progs =
      factd ? factd_programs() : batch_programs(args.workload, ctx, args.seed);

  // One end-to-end pass, tracing off, with registry deltas around it.
  std::map<std::string, double> flow_ms;
  const auto before = registry_counters();
  for (const Program& p : progs) {
    ++out.attempted;
    const double t0 = now_s();
    const fact::opt::FactResult r = run_flow(p, ctx);
    flow_ms[p.name] += 1000.0 * (now_s() - t0);
    const std::string why =
        check_design(p, ctx, r, held_out_trace(p, args.seed));
    if (!why.empty()) out.fail(p.name + ": " + why);
  }
  const auto after = registry_counters();
  auto delta = [&](const char* name) {
    return counter_delta(before, after, name);
  };

  // The replay, repeated for the run's duration (at least once).
  Tracer tracer;
  const auto xf = fact::xform::TransformLibrary::standard();
  ReplayStats st;
  int rounds = 0;
  const double t_start = now_s();
  do {
    for (const Program& p : progs) replay_program(p, ctx, tracer, xf, st);
    ++rounds;
  } while (now_s() - t_start < args.seconds && rounds < kMaxReplayRounds);
  tracer.write(trace_path);
  out.replay_rounds = rounds;

  const double per_round = 1.0 / rounds;
  const double candidates = delta("fact_search_candidates_total");
  const double eval_requests = delta("fact_eval_requests_total");
  const double frag_hits = delta("fact_fragment_cache_hits_total");
  const double frag_misses = delta("fact_fragment_cache_misses_total");
  // Scheduler runs in the search are the evaluations the memo cache missed;
  // run_fact adds the initial and the final schedule of every flow.
  const double eval_misses =
      eval_requests - delta("fact_eval_cache_hits_total");
  out.metric("sim.profile_calls", delta("fact_sim_profiles_total"), "count");
  out.metric("sim.equiv_calls", st.equiv_calls * per_round, "count");
  out.metric("sched.schedule_calls",
             eval_misses + 2.0 * static_cast<double>(progs.size()), "count");
  out.metric("sched.fragment_hit_ratio",
             ratio(frag_hits, frag_hits + frag_misses), "ratio");
  out.metric("sched.states_max", static_cast<double>(st.states_max), "count");
  out.metric("stg.markov_calls", delta("fact_markov_solves_total"), "count");
  out.metric("stg.sparse_share",
             ratio(delta("fact_markov_sparse_solves_total"),
                   delta("fact_markov_solves_total")),
             "ratio");
  out.metric("power.estimate_calls", st.power_calls * per_round, "count");
  out.metric("xform.candidates", candidates, "count");
  out.metric("verify.reject_ratio",
             ratio(static_cast<double>(st.verify_rejects),
                   static_cast<double>(st.applied)),
             "ratio");
  out.metric("ir.dedup_ratio",
             ratio(delta("fact_search_duplicates_total"), candidates),
             "ratio");
  out.metric("ir.cow_node_copies", delta("fact_ir_cow_node_copies_total"),
             "count");
  out.metric("opt.evaluations", eval_requests, "count");
  out.metric("opt.evalcache_hit_ratio",
             ratio(delta("fact_eval_cache_hits_total"), eval_requests),
             "ratio");
  out.metric("opt.accept_ratio",
             ratio(delta("fact_search_accepted_total"), candidates), "ratio");
  out.metric("opt.quarantined", delta("fact_search_quarantined_total"),
             "count");
  for (const std::string& name : all_program_names())
    out.metric("opt.flow_ms." + name, flow_ms.count(name) ? flow_ms[name] : 0.0,
               "ms");

  // The serve layer, from a few factd-mix rounds (client side).
  std::vector<double> queue_wait, exec;
  double evaluations = 0.0, cache_hits = 0.0;
  const auto serve_before = registry_counters();
  for (uint64_t round = 0; factd && round < 3; ++round) {
    double wall = 0.0;
    for (const auto& client :
         factd_round(args.out_dir + "/factd.sock",
                     factd_sequences(args.seed, round), &wall))
      for (const Reply& r : client) {
        ++out.attempted;
        if (!r.response.get_bool("ok"))
          out.fail("factd: " + r.response.get_string("error"));
        const double w = r.response.get_double("wall_ms");
        exec.push_back(w);
        queue_wait.push_back(r.latency_ms - w);
        evaluations += r.response.get_double("evaluations");
        cache_hits += r.response.get_double("cache_hits");
      }
  }
  const auto serve_after = registry_counters();
  const double rejected = counter_delta(serve_before, serve_after,
                                        "fact_serve_rejected_total");
  out.metric("serve.queue_wait_ms_p50", median(queue_wait), "ms");
  out.metric("serve.exec_ms_p50", median(exec), "ms");
  out.metric("serve.cache_hit_ratio", ratio(cache_hits, evaluations), "ratio");
  out.metric("serve.rejected", rejected, "count");
  return out;
}

}  // namespace factbench
