#include "opt/fact.hpp"

#include <cinttypes>

#include "obs/trace.hpp"
#include "util/strfmt.hpp"

namespace fact::opt {

FactResult run_fact(const ir::Function& fn, const hlslib::Library& lib,
                    const hlslib::Allocation& alloc,
                    const hlslib::FuSelection& sel,
                    const sim::TraceConfig& trace_config,
                    const xform::TransformLibrary& xforms,
                    const FactOptions& opts, EvalCache* cache,
                    const sim::Trace* pinned_trace) {
  FactResult result;

  // Step 0: typical input traces, generated once and reused everywhere —
  // or pinned by the caller (factd sessions) to skip regeneration.
  sim::TraceConfig tc = trace_config;
  if (tc.executions == 0) tc.executions = opts.trace_executions;
  sim::Trace generated;
  {
    obs::Span sp = obs::span("trace_gen", "fact");
    sp.arg("pinned", pinned_trace != nullptr);
    if (!pinned_trace) generated = sim::generate_trace(fn, tc, opts.seed);
  }
  const sim::Trace& trace = pinned_trace ? *pinned_trace : generated;
  const sim::Profile profile = sim::profile_function(fn, trace);

  // Step 1: schedule the input behavior — the "base case" every
  // comparison (and the Vdd-scaling equation) refers to.
  sched::Scheduler scheduler(lib, alloc, sel, opts.sched);
  obs::Span sp_initial = obs::span("initial_schedule", "fact");
  sched::ScheduleResult initial = scheduler.schedule(fn, profile);
  sp_initial.finish();
  // One stationary solve serves the initial measurement and the partition.
  const stg::Chain initial_chain = stg::Chain::of(initial.stg);
  const std::vector<double> initial_pi =
      stg::state_probabilities(initial_chain);
  result.initial_power =
      measure_design(initial_chain, lib, opts.power, Objective::Throughput,
                     0.0, &initial_pi);
  result.initial_avg_len = result.initial_power.avg_schedule_length;
  result.log.push_back(strfmt("initial schedule: %zu states, avg length %.2f",
                              initial.stg.num_states(),
                              result.initial_avg_len));

  // Step 2: partition the STG into hot blocks.
  obs::Span sp_part = obs::span("partition", "fact");
  std::vector<StgBlock> blocks =
      partition_stg(initial.stg, opts.partition_threshold, &initial_pi);
  if (blocks.size() > opts.max_blocks) blocks.resize(opts.max_blocks);
  sp_part.arg("blocks", blocks.size());
  sp_part.finish();
  result.log.push_back(strfmt("partitioned into %zu block(s)", blocks.size()));

  // Steps 3-7 per block: transform with interleaved scheduling. One memo
  // cache spans all blocks: they re-derive overlapping variants, and each
  // block's root is the previous block's winner, so cross-block hits skip
  // the schedule+verify+estimate pipeline entirely.
  TransformEngine engine(lib, alloc, sel, opts.sched, opts.power, xforms,
                         opts.engine);
  EvalCache local_cache;
  EvalCache* shared = cache ? cache : &local_cache;
  ir::Function current = fn.clone();
  for (size_t b = 0; b < blocks.size(); ++b) {
    obs::Span sp_block = obs::span("block", "fact");
    sp_block.arg("idx", b);
    sp_block.arg("weight", blocks[b].weight);
    sp_block.arg("stmts", blocks[b].stmt_ids.size());
    EngineResult er = engine.optimize(current, trace, opts.objective,
                                      blocks[b].stmt_ids,
                                      result.initial_avg_len, shared);
    result.block_telemetry.push_back(std::move(er.telemetry));
    result.counts += er.counts;
    for (const auto& [cls, n] : er.quarantine_by_class)
      result.quarantine_by_class[cls] += n;
    if (er.degraded_to_baseline) result.blocks_degraded++;
    if (er.truncated) result.truncated = true;
    result.log.push_back(
        strfmt("block %zu (weight %.3f, %zu stmts): %zu transform(s), "
               "score %.4f after %" PRIu64 " evaluations",
               b, blocks[b].weight, blocks[b].stmt_ids.size(),
               er.applied.size(), er.best_eval.score, er.counts.evaluations));
    if (er.counts.quarantined > 0)
      result.log.push_back(strfmt(
          "block %zu: %" PRIu64 " candidate(s) quarantined%s%s", b,
          er.counts.quarantined,
          er.degraded_to_baseline ? "; degraded to baseline" : "",
          er.truncated ? "; budget exhausted (best-so-far)" : ""));
    for (const auto& a : er.applied)
      result.applied.push_back(strfmt("block%zu: %s", b, a.c_str()));
    current = std::move(er.best);
  }

  // Final schedule + metrics of the winner.
  obs::Span sp_final = obs::span("final_schedule", "fact");
  const sim::Profile final_profile = sim::profile_function(current, trace);
  result.schedule = scheduler.schedule(current, final_profile);
  sp_final.finish();
  result.final_power = measure_design(result.schedule.stg, lib, opts.power,
                                      opts.objective, result.initial_avg_len);
  result.final_avg_len = result.final_power.avg_schedule_length;
  if (result.counts.evaluations > 0)
    result.log.push_back(strfmt(
        "evaluation cache: %" PRIu64 " hit(s) / %" PRIu64
        " request(s) across %zu block(s)",
        result.counts.cache_hits, result.counts.evaluations, blocks.size()));
  result.log.push_back(strfmt("final: avg length %.2f, power %.4f (Vdd %.2fV)",
                              result.final_avg_len, result.final_power.power,
                              result.final_power.vdd));
  result.optimized = std::move(current);
  return result;
}

std::string render_fact_report(const FactResult& r, Objective objective,
                               bool quiet) {
  std::string out = strfmt(
      "%-7s avg length %10.2f cycles | throughput %8.3f (x1000/cyc) "
      "| power %8.3f | %zu transform(s)\n",
      "FACT", r.final_avg_len, 1000.0 / r.final_avg_len,
      r.final_power.power, r.applied.size());
  if (r.truncated)
    out += "note: search budget exhausted; result is best-so-far\n";
  if (!quiet && r.counts.evaluations > 0)
    out += strfmt("evaluations: %" PRIu64 " (%" PRIu64
                  " served from the memo cache)\n",
                  r.counts.evaluations, r.counts.cache_hits);
  if (!quiet && r.counts.quarantined > 0) {
    out += strfmt("quarantined %" PRIu64 " candidate(s):",
                  r.counts.quarantined);
    for (const auto& [cls, n] : r.quarantine_by_class)
      out += strfmt(" %s=%d", cls.c_str(), n);
    out += "\n";
    if (r.blocks_degraded > 0)
      out += strfmt("%d block(s) degraded to the baseline design\n",
                    r.blocks_degraded);
  }
  if (!quiet) {
    out += strfmt("\nbaseline (untransformed): %.2f cycles, %.3f power\n",
                  r.initial_avg_len, r.initial_power.power);
    if (objective == Objective::Power)
      out += strfmt("scaled Vdd: %.2f V (iso-throughput with the baseline)\n",
                    r.final_power.vdd);
    out += "\ntransforms applied:\n";
    for (const auto& t : r.applied) out += strfmt("  %s\n", t.c_str());
    out += "\ntransformed behavior:\n" + r.optimized.str();
  }
  return out;
}

Json telemetry_json(const FactResult& r) {
  auto object_of = [](const auto& map) {
    Json out = Json::object();
    for (const auto& [key, value] : map) out.set(key, value);
    return out;
  };
  Json blocks = Json::array();
  for (const SearchTelemetry& t : r.block_telemetry) {
    Json generations = Json::array();
    for (const GenerationTelemetry& g : t.generations) {
      Json gen = Json::object();
      const SearchCounts& c = g.counts;
      gen.set("outer", g.outer);
      gen.set("k", g.k);
      for (const SearchCountField& f : kSearchCountFields)
        gen.set(f.key, c.*f.member);
      gen.set("best_score", g.best_score);
      const double candidates = static_cast<double>(c.candidates);
      gen.set("acceptance_rate", candidates > 0 ? c.accepted / candidates : 0);
      generations.push_back(std::move(gen));
    }
    Json ranks = Json::object();
    for (const auto& [rank, n] : t.selected_ranks)
      ranks.set(std::to_string(rank), n);
    Json block = Json::object();
    block.set("generations", std::move(generations));
    block.set("selected_ranks", std::move(ranks));
    block.set("accepted_by_transform", object_of(t.accepted_by_transform));
    block.set("improvements_by_transform",
              object_of(t.improvements_by_transform));
    block.set("improvement_by_transform",
              object_of(t.improvement_by_transform));
    blocks.push_back(std::move(block));
  }
  Json out = Json::object();
  out.set("blocks", std::move(blocks));
  set_totals(out, r);
  return out;
}

void set_totals(Json& out, const FactResult& r) {
  out.set("evaluations", r.counts.evaluations);
  out.set("cache_hits", r.counts.cache_hits);
  out.set("cache_misses", r.counts.cache_misses());
  out.set("quarantined", r.counts.quarantined);
  out.set("blocks_degraded", r.blocks_degraded);
  out.set("truncated", r.truncated);
}

}  // namespace fact::opt
