#pragma once

#include <string>
#include <vector>

#include "opt/engine.hpp"
#include "opt/partition.hpp"
#include "util/json.hpp"

namespace fact::opt {

/// End-to-end configuration of the FACT flow (Figure 5).
struct FactOptions {
  sched::SchedOptions sched;
  power::PowerOptions power;
  EngineOptions engine;
  Objective objective = Objective::Throughput;
  double partition_threshold = 0.25;  // hot-edge cutoff (Section 4.1)
  size_t max_blocks = 3;              // optimize at most this many blocks
  uint64_t seed = 7;                  // trace-generation seed
  size_t trace_executions = 24;
};

/// Everything FACT produces: the transformed behavior, its schedule, and
/// before/after metrics.
struct FactResult {
  ir::Function optimized;
  sched::ScheduleResult schedule;     // final schedule of `optimized`
  double initial_avg_len = 0.0;       // M1 schedule length of the input
  double final_avg_len = 0.0;
  power::PowerEstimate initial_power; // at nominal Vdd
  power::PowerEstimate final_power;   // Vdd-scaled in Power mode
  std::vector<std::string> applied;   // transform sequence
  std::vector<std::string> log;       // human-readable flow narration
  /// The search counts summed over all per-block engine runs (cache hits
  /// include the blocks' shared memo cache: every block's root is the
  /// previous block's winner).
  SearchCounts counts;

  // Robustness accounting aggregated over all per-block engine runs:
  std::map<std::string, int> quarantine_by_class;
  int blocks_degraded = 0;            // blocks that fell back to baseline
  bool truncated = false;             // some block hit the deadline budget

  /// Search telemetry of each per-block engine run, in block order
  /// (jobs-invariant; see SearchTelemetry). Rendered by telemetry_json().
  std::vector<SearchTelemetry> block_telemetry;
};

/// Runs the full FACT flow on a behavior:
///  1. schedule the input (M1 baseline / "base case"),
///  2. profile with generated typical traces,
///  3. partition the STG into hot blocks,
///  4. per block, run the Apply_transforms search (throughput or power),
///  5. reschedule and report.
///
/// `cache` optionally carries memoized candidate evaluations across calls
/// (design-space exploration re-running the flow over seeds/allocations;
/// factd shares one across all sessions); when null a flow-local cache
/// still spans the per-block engine runs.
///
/// `trace` optionally supplies the typical-input trace instead of
/// generating it: factd sessions pin the generated trace so follow-up
/// requests skip regeneration. Passing the trace that
/// sim::generate_trace(fn, trace_config, opts.seed) would produce is
/// byte-equivalent to passing null.
FactResult run_fact(const ir::Function& fn, const hlslib::Library& lib,
                    const hlslib::Allocation& alloc,
                    const hlslib::FuSelection& sel,
                    const sim::TraceConfig& trace_config,
                    const xform::TransformLibrary& xforms,
                    const FactOptions& opts, EvalCache* cache = nullptr,
                    const sim::Trace* trace = nullptr);

/// Renders the FACT result exactly as `factc` prints it (the "FACT ..."
/// summary line through the transformed behavior). factd returns this
/// string in optimize responses; the end-to-end determinism test diffs it
/// byte-for-byte against `factc` batch output.
std::string render_fact_report(const FactResult& r, Objective objective,
                               bool quiet);

/// The per-block search telemetry plus the flow-level cache counters as
/// one JSON object (insertion-ordered keys; doubles exact, in shortest
/// round-trip form). Deterministic for a given FactResult — its dump() is
/// safe to byte-diff across jobs counts. `factc --metrics-out` embeds it
/// under the "search" key.
Json telemetry_json(const FactResult& r);

/// Sets the flow's totals (evaluations through truncated) on `out`, as
/// telemetry_json and factd's optimize responses end.
void set_totals(Json& out, const FactResult& r);

}  // namespace fact::opt
