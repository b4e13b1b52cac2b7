#pragma once

#include <string>
#include <vector>

#include "hlslib/library.hpp"
#include "ir/function.hpp"
#include "sched/dfg.hpp"
#include "sched/region.hpp"
#include "sim/trace.hpp"
#include "stg/stg.hpp"

namespace fact::sched {

class FragmentCache;

/// Scheduler configuration. Defaults reproduce the paper's setup: 25ns
/// clock with concurrent-loop parallelization on. The rest of the policy
/// is fixed in scheduler.cpp: 5V supply, loop pipelining up to II 64,
/// at most 4 loops fused at once within a 64-step hyperperiod, and the
/// state-explosion guard.
struct SchedOptions {
  double clock_ns = 25.0;
  bool fuse_loops = true;  // parallelize independent adjacent loops
  /// Optional region-scoped schedule memoization, shared across schedule()
  /// calls (the optimizer owns one per optimize() run). Borrowed, not
  /// owned; must outlive every Scheduler constructed with these options.
  /// nullptr disables fragment caching. FragmentCache is internally
  /// synchronized, so this is compatible with schedule()'s thread-safety
  /// contract.
  FragmentCache* fragment_cache = nullptr;
};

/// What the scheduler decided for one loop (for reports and benches).
struct LoopInfo {
  int stmt_id = -1;
  bool pipelined = false;
  int ii = 0;           // initiation interval when pipelined
  int body_csteps = 0;  // acyclic schedule length of one iteration
  std::vector<int> fused_with;  // stmt ids of loops sharing a phase run
};

/// What schedule() produces: the STG and the per-loop decisions behind
/// it. Identical with or without SchedOptions::fragment_cache; the cache's
/// traffic is counted only in the registry (see FragmentCache).
struct ScheduleResult {
  stg::Stg stg;
  std::vector<LoopInfo> loops;
  /// True when the STG is cycle- and value-exact for the RTL backend.
  /// Concurrent-loop (fused) phases are metrics-grade only: their rings
  /// omit per-phase prologue/epilogue, so overlapped iterations read
  /// stale wires around phase transitions. Schedule with
  /// SchedOptions::fuse_loops = false to guarantee RTL-exact output.
  bool rtl_exact = true;
};

/// The CFI scheduler (the paper's Wavesched-style substrate, ref [13]).
///
/// Capabilities, matching Section 5's description:
///  * resource-constrained list scheduling with operator chaining under
///    the clock period, multi-cycling ops longer than one clock;
///  * implicit loop unrolling / functional pipelining: loops whose body is
///    one straight-line segment are modulo-scheduled at the smallest
///    feasible initiation interval, overlapping iterations;
///  * concurrent loop optimization: adjacent independent loops are fused
///    into shared-resource phases; when one loop exits, the schedule
///    transitions to a phase executing the survivors (the Figure 2(b)
///    n0/n1/n2 structure), generated lazily per reachable loop subset.
///
/// The output STG annotates every state with the operations executed (with
/// iteration tags, as in Figure 1(c)) and every edge with its probability,
/// derived from the profile.
class Scheduler {
 public:
  Scheduler(const hlslib::Library& lib, const hlslib::Allocation& alloc,
            const hlslib::FuSelection& sel, SchedOptions opts = {});

  /// Schedules the function. The profile supplies branch probabilities
  /// (the paper's "simulate once, reuse"); it may be empty, in which case
  /// branches default to probability 0.5.
  ///
  /// Thread-safety: const and safe to call concurrently on one instance.
  /// All mutable scheduling state (resource tables, wave fronts, the STG
  /// under construction) lives in call-local structures; the members below
  /// are read-only after construction. The optimizer relies on this — with
  /// EngineOptions::jobs > 1 its worker threads schedule candidates
  /// through the one Scheduler each optimize() call builds (see
  /// DESIGN.md §"Parallel candidate evaluation"). Keep it that way: any
  /// future cache or scratch buffer added to this class must be
  /// call-local or internally synchronized.
  ScheduleResult schedule(const ir::Function& fn,
                          const sim::Profile& profile) const;

  /// The chain of the STG schedule() would return, emitted by the same
  /// control code but without the STG: its states, edges and
  /// probabilities, and per state the op counts by FU type and the
  /// register traffic. `fus` views this Scheduler's library, so the chain
  /// must not outlive it. Validated like schedule()'s STG (Chain::validate)
  /// and under the same explosion guard; same thread-safety. For a design
  /// that is only measured (a candidate's evaluation).
  stg::Chain summarize(const ir::Function& fn,
                       const sim::Profile& profile) const;

 private:
  // Stored by value: callers routinely pass temporaries (e.g.
  // FuSelection::defaults(lib)) and the scheduler may outlive them.
  // Immutable after construction (the thread-safety contract of
  // schedule() above).
  hlslib::Library lib_;
  hlslib::Allocation alloc_;
  SchedOptions opts_;
  /// The FU bindings every DFG build of every thread uses, resolved once
  /// here from the library, the allocation and the selection. Builds work
  /// in per-thread scratch.
  DfgBuilder builder_;
};

}  // namespace fact::sched
