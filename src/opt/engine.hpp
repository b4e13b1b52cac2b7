#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "power/power.hpp"
#include "sched/scheduler.hpp"
#include "sim/trace.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "verify/verify.hpp"
#include "xform/transform.hpp"

namespace fact::opt {

enum class Objective { Throughput, Power };

/// Parameters of the Apply_transforms search (Figure 6). The search keeps
/// a population In_set, explores every candidate transformation of every
/// member, evaluates candidates by rescheduling and estimating the
/// objective, and selects the next population with probability
/// proportional to e^(-k * rank), k growing linearly per outer iteration.
struct EngineOptions {
  int max_moves = 2;                 // MAX_MOVES (inner loop of Fig. 6)
  size_t in_set_size = 4;            // |In_set| after selection
  int max_outer_iters = 8;           // stop after this many generations
  size_t max_neighbors_eval = 96;    // evaluation budget per move
  double k0 = 0.4;                   // initial selection sharpness
  double k_step = 0.4;               // k increment per outer iteration
  uint64_t seed = 1;
  bool reschedule_in_loop = true;    // ablation: schedule-guided selection

  /// Invariant checking per candidate. Fast runs the structural IR checks
  /// on every applied rewrite before it can enter the population; Full
  /// additionally verifies every candidate's schedule (STG structure and
  /// legality against the allocation) inside evaluate().
  verify::Level validate = verify::Level::Fast;
  /// Wall-clock budget for one optimize() call in milliseconds; when
  /// exhausted the search stops and returns best-so-far with
  /// EngineResult::truncated set. 0 = unlimited.
  double deadline_ms = 0.0;
  /// Evaluation-count budget (schedule+estimate invocations); same
  /// best-so-far / truncated contract. 0 = unlimited.
  int max_evaluations = 0;

  /// Worker threads for candidate evaluation (apply/verify/equivalence/
  /// schedule+estimate run concurrently; neighborhood generation and all
  /// result reduction stay serial). 0 = hardware concurrency. The engine's
  /// determinism contract: any jobs value produces byte-identical results
  /// to jobs=1 (see DESIGN.md). Leave at 1 when the TransformLibrary is a
  /// stateful wrapper (e.g. the FaultInjector) — find/apply are called from
  /// worker threads when jobs > 1 and must be thread-safe.
  int jobs = 1;

  /// Cooperative cancellation: when non-null and set, the search stops at
  /// the next budget check and returns best-so-far with
  /// EngineResult::truncated (same contract as an expired deadline). The
  /// pointee must outlive the optimize() call; factd maps per-request
  /// `cancel` onto it.
  const std::atomic<bool>* cancel = nullptr;

  /// Worker pool to evaluate candidates on. When null the engine spawns a
  /// private pool of `jobs` threads per optimize() call; when set, the
  /// pool is borrowed (not owned) and `jobs` is ignored — several engines
  /// may share one pool (WorkerPool serializes waves and degrades
  /// contended calls to inline execution, which never changes results).
  WorkerPool* pool = nullptr;
};

/// Structured quarantine records kept per optimize() call (the counts
/// cover every quarantined candidate).
inline constexpr size_t kQuarantineLogCap = 64;

/// Why and where a candidate was quarantined instead of evaluated.
struct QuarantineRecord {
  std::string pass;           // apply | verify | equivalence | evaluate
  std::string failure_class;  // verifier check name or exception class
  std::string message;        // diagnostic detail
  std::vector<std::string> transforms;  // sequence ending at the failure
};

struct Evaluation {
  double avg_len = 0.0;  // average schedule length, cycles
  double power = 0.0;    // estimated power (scaled Vdd in Power mode)
  double vdd = 5.0;
  double score = 0.0;    // objective value; lower is better
};

/// Measures a scheduled design the one way every flow does (Section 2.2):
/// solves the chain once and estimates power from that solution; the
/// estimate's avg_schedule_length is the design's average schedule
/// length. Power mode scales the supply to iso-throughput with
/// `baseline_len`; Throughput mode reports power at nominal Vdd and
/// ignores `baseline_len`. `pi` optionally supplies the solution when the
/// caller needs it too (run_fact partitions the initial design with it).
/// Without `breakdown` the per-FU maps stay empty (power::estimate_power).
power::PowerEstimate measure_design(const stg::Chain& chain,
                                    const hlslib::Library& lib,
                                    const power::PowerOptions& opts,
                                    Objective objective,
                                    double baseline_len = 0.0,
                                    const std::vector<double>* pi = nullptr,
                                    bool breakdown = true);
/// measure_design(stg::Chain::of(stg), ...).
power::PowerEstimate measure_design(const stg::Stg& stg,
                                    const hlslib::Library& lib,
                                    const power::PowerOptions& opts,
                                    Objective objective,
                                    double baseline_len = 0.0,
                                    const std::vector<double>* pi = nullptr);

/// Memoized candidate evaluations, keyed by (structural hash, objective,
/// baseline_len, evaluation context digest). run_fact shares one cache
/// across its per-block engine runs: blocks repeatedly re-derive
/// overlapping variants (and every block's root is the previous block's
/// winner), and a hit skips the full schedule+verify+estimate pipeline.
/// factd shares one process-wide cache across all sessions, whose
/// requests differ in allocation, clock, validation level and trace: the
/// context digest (TransformEngine::eval_context) keeps their evaluations
/// apart. Failed evaluations are
/// memoized too, so a known-bad variant quarantines again without
/// re-running the scheduler.
///
/// Bounded: at most `capacity` entries, evicting least-recently-used past
/// it so a long-lived daemon cannot grow memory without limit. Recency is
/// advanced only by insert() and touch() — both called from the engine's
/// serial reduction step — never by lookup(), so lookups within one
/// evaluation wave see a frozen cache and hit/miss counts are independent
/// of `jobs`. Thread-safe throughout: one mutex guards one map and one
/// exact LRU list. Traffic is accounted by the engine's SearchCounts (and
/// the fact_eval_*_total registry counters derived from them), not here.
class EvalCache {
 public:
  struct Entry {
    bool ok = false;
    Evaluation eval;            // valid when ok
    std::string failure_class;  // quarantine class when !ok
    std::string message;        // diagnostic when !ok
  };

  /// Generous by default — one entry is a few hundred bytes, so the cap
  /// mainly keeps a long-lived daemon from growing without limit.
  explicit EvalCache(size_t capacity = 1 << 18);

  std::optional<Entry> lookup(uint64_t structural_hash, Objective objective,
                              double baseline_len, uint64_t context) const;
  /// First insertion wins; re-inserting the same key only refreshes its
  /// recency (the engine re-requests a key only when dedup already
  /// collapsed it). Evicts the least-recently-used entry past capacity.
  void insert(uint64_t structural_hash, Objective objective,
              double baseline_len, uint64_t context, Entry entry);
  /// Marks a key most-recently-used (no-op when absent). The engine calls
  /// this on every cache hit, from the serial reduction.
  void touch(uint64_t structural_hash, Objective objective,
             double baseline_len, uint64_t context);
  size_t size() const;
  size_t capacity() const { return capacity_; }

 private:
  struct Key {
    uint64_t hash;
    int objective;
    uint64_t baseline_bits;  // bit pattern of baseline_len (exact match)
    uint64_t context;        // TransformEngine::eval_context digest
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const;
  };
  static Key make_key(uint64_t h, Objective o, double baseline_len,
                      uint64_t context);

  struct Slot {
    Entry entry;
    std::list<Key>::iterator lru;  // position in lru_ (front = MRU)
  };

  const size_t capacity_;
  mutable std::mutex mu_;
  std::unordered_map<Key, Slot, KeyHash> map_;
  std::list<Key> lru_;  // front = most recently used
};

/// The work of the Figure 6 search: the serial reduction of optimize()
/// counts each event in one field at one site (so the counts are
/// jobs-invariant), and every total, generation row and registry counter
/// is derived from this record.
struct SearchCounts {
  uint64_t candidates = 0;     // work items that entered the gauntlet
  uint64_t duplicates = 0;     // dropped by structural dedup
  uint64_t quarantined = 0;    // failed apply/verify/equivalence/evaluate
  uint64_t nonequivalent = 0;  // of those, failing trace equivalence
  uint64_t evaluations = 0;    // schedule+estimate requests
  uint64_t cache_hits = 0;     // of those, served from the memo cache
  uint64_t accepted = 0;       // survived every gate incl. evaluation
  uint64_t improvements = 0;   // accepted candidates that improved the best

  /// Evaluation requests that ran the schedule+estimate pipeline.
  uint64_t cache_misses() const { return evaluations - cache_hits; }

  SearchCounts& operator+=(const SearchCounts& o);
  SearchCounts operator-(const SearchCounts& o) const;
  bool operator==(const SearchCounts&) const = default;
};

/// Each SearchCounts field, in declaration order, with its key in
/// telemetry_json and the registry counter optimize() adds it to.
struct SearchCountField {
  uint64_t SearchCounts::*member;
  const char* key;
  const char* metric;
  const char* help;
};
inline constexpr SearchCountField kSearchCountFields[] = {
    {&SearchCounts::candidates, "candidates", "fact_search_candidates_total",
     "Candidate transformations entering the gauntlet"},
    {&SearchCounts::duplicates, "duplicates", "fact_search_duplicates_total",
     "Candidates dropped by structural dedup"},
    {&SearchCounts::quarantined, "quarantined", "fact_search_quarantined_total",
     "Candidates quarantined (apply/verify/equivalence/evaluate)"},
    {&SearchCounts::nonequivalent, "nonequivalent",
     "fact_search_nonequivalent_total", "Candidates failing trace equivalence"},
    {&SearchCounts::evaluations, "evaluations", "fact_eval_requests_total",
     "Candidate evaluations requested (cache hits + misses)"},
    {&SearchCounts::cache_hits, "cache_hits", "fact_eval_cache_hits_total",
     "Evaluation requests served from the memo cache"},
    {&SearchCounts::accepted, "accepted", "fact_search_accepted_total",
     "Candidates surviving every gate incl. evaluation"},
    {&SearchCounts::improvements, "improvements",
     "fact_search_improvements_total",
     "Accepted candidates that improved the best score"},
};

/// One outer iteration (generation) of the Figure 6 search: its counts
/// are the run's counts at its close minus those at its start.
struct GenerationTelemetry {
  int outer = 0;            // generation index
  double k = 0.0;           // selection sharpness this generation
  double best_score = 0.0;  // best-so-far after this generation
  SearchCounts counts;
};

/// Search telemetry for one optimize() call: the per-generation funnel
/// plus distributions that summarize *how* the search moved — which ranks
/// the Boltzmann selection actually picked, and which transform classes
/// produced accepted candidates and score improvements.
struct SearchTelemetry {
  std::vector<GenerationTelemetry> generations;
  /// rank -> times a member of that rank was selected into In_set.
  std::map<int, int> selected_ranks;
  /// transform class -> accepted candidates whose *last* move was it.
  std::map<std::string, int> accepted_by_transform;
  /// transform class -> times it produced a new best score.
  std::map<std::string, int> improvements_by_transform;
  /// transform class -> summed score improvement (previous best minus new
  /// best) attributed to the move that produced each new best.
  std::map<std::string, double> improvement_by_transform;
};

struct EngineResult {
  ir::Function best;
  Evaluation best_eval;
  std::vector<std::string> applied;      // winning transform sequence
  /// What the search did, the root's evaluation included; `quarantine`
  /// keeps the first kQuarantineLogCap records of counts.quarantined.
  SearchCounts counts;
  std::map<std::string, int> quarantine_by_class;
  std::vector<QuarantineRecord> quarantine;
  /// True when the deadline/evaluation budget expired and the result is
  /// best-so-far rather than a converged search.
  bool truncated = false;
  /// True when not a single candidate survived the gauntlet: the engine
  /// gracefully fell back to the untransformed baseline design.
  bool degraded_to_baseline = false;

  /// Per-generation funnel and selection/attribution distributions
  /// (jobs-invariant; see SearchTelemetry).
  SearchTelemetry telemetry;
};

/// The transformation-application engine of Section 4.2: population search
/// over CDFG variants with interleaved scheduling (steps 3-7 of Figure 5).
class TransformEngine {
 public:
  TransformEngine(const hlslib::Library& lib, const hlslib::Allocation& alloc,
                  const hlslib::FuSelection& sel,
                  const sched::SchedOptions& sched_opts,
                  const power::PowerOptions& power_opts,
                  const xform::TransformLibrary& xforms, EngineOptions opts);

  /// Optimizes `fn` for `objective`, applying transforms only within
  /// `region` (statement ids; empty = whole function). `baseline_len` is
  /// the untransformed design's average schedule length, the reference for
  /// iso-throughput Vdd scaling in Power mode. `cache` optionally shares
  /// memoized evaluations across calls (run_fact passes one per flow);
  /// when null a run-local cache is used. Its entries are keyed by
  /// eval_context(trace), so one cache may serve engines of any
  /// configuration. Results are identical for any EngineOptions::jobs
  /// value: candidate work runs on worker threads but is reduced strictly
  /// in the serial submission order.
  EngineResult optimize(const ir::Function& fn, const sim::Trace& trace,
                        Objective objective, const std::set<int>& region,
                        double baseline_len, EvalCache* cache = nullptr) const;

  /// Schedules and evaluates one function (used standalone by benches).
  /// At EngineOptions::validate == Full, throws verify::VerifyError when
  /// the produced schedule fails structural or legality checks.
  Evaluation evaluate(const ir::Function& fn, const sim::Trace& trace,
                      Objective objective, double baseline_len) const;

 private:
  /// One digest of everything but the candidate that an evaluation reads:
  /// the library, the allocation, the FU selection, the scheduler and
  /// power options, the validation level and the stimuli of `trace`.
  uint64_t eval_context(const sim::Trace& trace) const;

  /// evaluate() through a given Scheduler, with an optional known profile
  /// of `fn` over `trace`. optimize() builds one Scheduler per run, over
  /// the run's FragmentCache, and shares it across its workers; it passes
  /// the profile from the candidate's equivalence pass (or the root's
  /// from the reference pass). A null profile makes evaluate_impl simulate
  /// the trace itself.
  Evaluation evaluate_impl(const sched::Scheduler& scheduler,
                           const ir::Function& fn, const sim::Trace& trace,
                           Objective objective, double baseline_len,
                           const sim::Profile* known_profile) const;

  // Hardware context is stored by value (callers pass temporaries); the
  // transform library is a reference — it is not copyable and must outlive
  // the engine.
  hlslib::Library lib_;
  hlslib::Allocation alloc_;
  hlslib::FuSelection sel_;
  sched::SchedOptions sched_opts_;
  power::PowerOptions power_opts_;
  const xform::TransformLibrary& xforms_;
  EngineOptions opts_;
};

}  // namespace fact::opt
