#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "sched/dfg.hpp"

namespace fact::sched {

/// Region-scoped schedule memoization. Candidates within one
/// Apply_transforms run differ only inside the active block, so most of
/// their control regions — straight-line segments, branch/loop condition
/// evaluations, pipelined loop bodies, fused concurrent-loop runs — are
/// byte-for-byte identical to the parent's. The Emitter keys each such
/// fragment by ir::fragment_hash (structure *and* statement ids, since the
/// scheduled DFG's annotations record ids) and reuses the scheduled DFG
/// instead of re-running DFG build and list scheduling.
///
/// What is cached is the *scheduled DFG*, not STG states: materialization
/// into the STG depends on run-global state (wire numbering, transition
/// stitching) and is cheap, while DFG build + (modulo) list scheduling is
/// the scheduler's hot path. A miss builds the DFG in the thread's scratch
/// with the Scheduler's one binding table (DfgBuilder), in one pass that
/// also lays out the edge, successor, priority and resource arrays every
/// list_schedule of it walks. The entry's DFG owns its name buffer and
/// its edge arrays (shared by copies of it), and the STG ops emitted from
/// it view both, names and pre-reader lists alike, so an STG keeps the
/// entries it emits from alive (Stg::keep_alive). Next to the DFG an
/// entry keeps what emission
/// derives from it alone: the summary rows (op counts per FU type and
/// register traffic) of the states it turns into, which
/// Scheduler::summarize appends instead of ops, and a pipelined loop's
/// lags and drain states. A fused run's loops share one resource table,
/// so a loop's schedule depends on its phase partners: a fused entry is
/// keyed by the ordered partner set (every loop's pipelined-loop key:
/// body fragment hashes, condition hash, statement id) and holds the
/// admitted joint schedule of every phase. The loops' closing
/// probabilities, the fluid model derived from them and the phase STG
/// stay outside the entry — they come from the candidate's profile, which
/// the key does not cover.
///
/// Determinism: an entry's value is a pure function of its key (the
/// scheduler is deterministic and every input that isn't part of the key —
/// library, allocation, FU selection, clock — is fixed for the cache's
/// owner, one engine optimize() call, whose one Scheduler resolves them
/// once). A hit therefore reproduces exactly
/// what recomputation would, so results are byte-identical whatever the
/// hit/miss interleaving.
///
/// Traffic is counted in one place only: the registry's
/// fact_fragment_cache_{hits,misses}_total. Those counts are diagnostic
/// and not jobs-invariant — worker threads racing to first-compute one
/// key may each count a miss where a serial run counts a miss and a hit —
/// so no report or result carries them.
///
/// Thread-safe; entries are immutable once inserted and handed out as
/// shared_ptr so readers survive concurrent rehashes.
class FragmentCache {
 public:
  struct Entry {
    /// One phase of a fused run: the loops executing together, in
    /// admission order with their IIs, their DFGs scheduled into one
    /// modulo table, and its hyperperiod. No active loop means admission
    /// failed.
    struct FusedPhase {
      std::vector<std::pair<size_t, int>> active;  // (run position, II)
      std::vector<Dfg> dfgs;                       // parallel to active
      int hyperperiod = 0;
      stg::OpRows rows;  // summary row of each ring slot
    };

    /// Scheduling succeeded. When false, `error` holds the fact::Error
    /// message to rethrow so a cached failure is byte-identical to a
    /// recomputed one.
    bool ok = false;
    std::string error;
    /// The scheduled DFG (plain fragments; pipelined winners). May be
    /// empty for a straight region with no operations.
    Dfg dfg;
    /// Pipelined-loop entries only: whether modulo scheduling found a
    /// feasible initiation interval, and which. pipelined == false with
    /// ok == true means "fall back to the sequential loop path".
    bool pipelined = false;
    int ii = 0;
    /// Control steps of `dfg` (plain fragments; a pipelined loop's
    /// prologue).
    int csteps = 0;
    /// Summary rows of the states emission creates from the entry, built
    /// from its kind's op placement walk: a plain fragment's control
    /// steps; a pipelined loop's prologue steps, then its II kernel-ring
    /// slots, then its drain states.
    stg::OpRows rows;
    /// Pipelined-loop entries: each node's pipeline lag and the drain
    /// rounds it owes when the exit fires, and the (round, cstep) of each
    /// drain state in emission order.
    std::vector<int> lag, owed;
    std::vector<std::pair<int, int>> drain;
    /// Fused-run entries only: the phase of every remaining-loop set
    /// (bitmask over run positions) reachable from the full run. Empty
    /// means the run is not fusable: emit its loops one by one.
    std::map<unsigned, FusedPhase> phases;
  };

  explicit FragmentCache(size_t capacity = 1 << 16)
      : capacity_(capacity) {}

  /// nullptr on miss; the resident immutable entry on hit. Counted in the
  /// process-wide metrics registry (write-only — the counters never
  /// influence caching, so determinism is untouched).
  std::shared_ptr<const Entry> lookup(uint64_t key) const {
    std::shared_ptr<const Entry> hit;
    {
      std::lock_guard<std::mutex> lock(mu_);
      const auto it = map_.find(key);
      if (it != map_.end()) hit = it->second;
    }
    if (hit) hits_counter().inc();
    else misses_counter().inc();
    return hit;
  }

  /// First insertion wins (concurrent computes of one key produce
  /// identical values, so whichever lands is correct); at capacity new
  /// keys are simply not retained — the entry still serves its computing
  /// caller. Returns the resident entry.
  std::shared_ptr<const Entry> insert(uint64_t key,
                                      std::shared_ptr<const Entry> entry) {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = map_.find(key);
    if (it != map_.end()) return it->second;
    if (map_.size() >= capacity_) return entry;
    map_.emplace(key, entry);
    return entry;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return map_.size();
  }

 private:
  static obs::Counter& hits_counter() {
    static obs::Counter& c = obs::Registry::global().counter(
        "fact_fragment_cache_hits_total",
        "Region schedule fragments reused instead of rescheduled");
    return c;
  }
  static obs::Counter& misses_counter() {
    static obs::Counter& c = obs::Registry::global().counter(
        "fact_fragment_cache_misses_total",
        "Region schedule fragments computed (DFG build + list schedule)");
    return c;
  }

  const size_t capacity_;
  mutable std::mutex mu_;
  std::unordered_map<uint64_t, std::shared_ptr<const Entry>> map_;
};

}  // namespace fact::sched
