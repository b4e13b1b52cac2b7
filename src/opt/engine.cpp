#include "opt/engine.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <iterator>
#include <typeinfo>
#include <unordered_set>
#include <utility>

#include "ir/hash.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sched/fragment_cache.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/parallel.hpp"
#include "util/strfmt.hpp"

namespace fact::opt {

namespace {

/// A member's statements go into the gate's store only when it has at
/// least this many candidates; the candidates of one with fewer reuse what
/// the store holds already. An add costs about two candidates' gates, and
/// on the Table 2 behaviors, whose members have 5 to 21 candidates, a
/// candidate redoes 40% to 87% of its statements whatever the store holds;
/// the generated behaviors' members have a hundred or more.
constexpr size_t kOwnGateCandidates = 32;

/// One member of the search population: a transformed variant plus the
/// bookkeeping needed to keep exploring from it.
struct Member {
  ir::Function fn;
  std::set<int> region;              // region ids incl. transform-created
  std::vector<std::string> applied;  // how we got here
  std::string via;                   // transform class of the last move
  Evaluation eval;
  uint64_t hash = 0;                 // ir::structural_hash(fn)
  /// fn's profile from the pass that checked its equivalence (the root's
  /// from the reference pass), handed to evaluation and dropped there.
  /// Empty for a root whose reference pass aborted.
  std::optional<sim::Profile> profile;
  /// fn's checkpoints from the same pass, which its candidates' passes
  /// resume from. Null for a root whose reference pass aborted.
  sim::CheckpointsPtr checkpoints;
  std::vector<int> ids;  // fn.stmt_ids() when region is not empty
};

/// Adds one optimize() call's search to the process-wide registry (obs),
/// once, after the search. Strictly write-only: metrics are never read
/// back to make decisions, so the determinism contract (jobs-invariance,
/// factd == factc) is untouched.
void publish(const EngineResult& r) {
  obs::Registry& reg = obs::Registry::global();
  for (const SearchCountField& f : kSearchCountFields)
    reg.counter(f.metric, f.help).inc(r.counts.*f.member);
  reg.counter("fact_eval_cache_misses_total",
              "Evaluation requests that ran the full pipeline")
      .inc(r.counts.cache_misses());
  reg.counter("fact_search_generations_total",
              "Outer search iterations completed")
      .inc(r.telemetry.generations.size());
  obs::Histogram& ranks = reg.histogram(
      "fact_search_selected_rank",
      {0.5, 1.5, 2.5, 3.5, 5.5, 7.5, 11.5, 15.5, 23.5, 31.5},
      "Rank of each member selected into In_set (0 = best)");
  for (const auto& [rank, n] : r.telemetry.selected_ranks)
    for (int i = 0; i < n; ++i) ranks.observe(static_cast<double>(rank));
}

}  // namespace

// ---- SearchCounts ------------------------------------------------------

static_assert(sizeof(SearchCounts) ==
                  std::size(kSearchCountFields) * sizeof(uint64_t),
              "kSearchCountFields must list every SearchCounts field");

SearchCounts& SearchCounts::operator+=(const SearchCounts& o) {
  for (const SearchCountField& f : kSearchCountFields)
    this->*f.member += o.*f.member;
  return *this;
}

SearchCounts SearchCounts::operator-(const SearchCounts& o) const {
  SearchCounts d = *this;
  for (const SearchCountField& f : kSearchCountFields)
    d.*f.member -= o.*f.member;
  return d;
}

// ---- EvalCache ---------------------------------------------------------

EvalCache::EvalCache(size_t capacity)
    : capacity_(std::max<size_t>(1, capacity)) {}

EvalCache::Key EvalCache::make_key(uint64_t h, Objective o,
                                   double baseline_len, uint64_t context) {
  return Key{h, static_cast<int>(o), std::bit_cast<uint64_t>(baseline_len),
             context};
}

size_t EvalCache::KeyHash::operator()(const Key& k) const {
  uint64_t h = hash_mix(k.hash, k.baseline_bits);
  h = hash_mix(h, static_cast<uint64_t>(k.objective));
  return static_cast<size_t>(hash_mix(h, k.context));
}

std::optional<EvalCache::Entry> EvalCache::lookup(uint64_t structural_hash,
                                                  Objective objective,
                                                  double baseline_len,
                                                  uint64_t context) const {
  const Key key = make_key(structural_hash, objective, baseline_len, context);
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = map_.find(key);
  if (it == map_.end()) return std::nullopt;
  return it->second.entry;
}

void EvalCache::insert(uint64_t structural_hash, Objective objective,
                       double baseline_len, uint64_t context, Entry entry) {
  const Key key = make_key(structural_hash, objective, baseline_len, context);
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = map_.find(key);
  if (it != map_.end()) {
    // First insertion wins; a re-insert just counts as a use.
    lru_.splice(lru_.begin(), lru_, it->second.lru);
    return;
  }
  lru_.push_front(key);
  map_.emplace(key, Slot{std::move(entry), lru_.begin()});
  while (map_.size() > capacity_) {
    map_.erase(lru_.back());
    lru_.pop_back();
  }
}

void EvalCache::touch(uint64_t structural_hash, Objective objective,
                      double baseline_len, uint64_t context) {
  const Key key = make_key(structural_hash, objective, baseline_len, context);
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = map_.find(key);
  if (it != map_.end()) lru_.splice(lru_.begin(), lru_, it->second.lru);
}

size_t EvalCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

// ---- evaluation context ------------------------------------------------

uint64_t TransformEngine::eval_context(const sim::Trace& trace) const {
  const auto real = [](double v) { return std::bit_cast<uint64_t>(v); };
  uint64_t h = hash_mix(0xC0E7u, lib_.types().size());
  for (const hlslib::FuType& t : lib_.types()) {
    h = hash_mix(h, t.name);
    h = hash_mix(h, static_cast<uint64_t>(t.cls));
    for (const double v : {t.energy_coeff, t.delay_ns, t.area})
      h = hash_mix(h, real(v));
  }
  h = hash_mix(h, alloc_.counts.size());
  for (const auto& [name, count] : alloc_.counts)
    h = hash_mix(hash_mix(h, name), static_cast<uint64_t>(count));
  h = hash_mix(h, sel_.choice.size());
  for (const auto& [op, name] : sel_.choice)
    h = hash_mix(hash_mix(h, static_cast<uint64_t>(op)), name);
  // The fragment cache is a memo of the schedule, not an input to it.
  h = hash_mix(h, real(sched_opts_.clock_ns));
  h = hash_mix(h, sched_opts_.fuse_loops ? 1u : 0u);
  for (const double v : {power_opts_.vdd, power_opts_.vt, power_opts_.clock_ns,
                         power_opts_.overhead_fraction})
    h = hash_mix(h, real(v));
  // At Full an evaluation verifies the schedule and can fail on it.
  h = hash_mix(h, static_cast<uint64_t>(opts_.validate));
  h = hash_mix(h, trace.size());
  for (const sim::Stimulus& s : trace) {
    h = hash_mix(h, s.params.size());
    for (const auto& [name, value] : s.params)
      h = hash_mix(hash_mix(h, name), static_cast<uint64_t>(value));
    h = hash_mix(h, s.arrays.size());
    for (const auto& [name, values] : s.arrays) {
      h = hash_mix(hash_mix(h, name), values.size());
      for (const int64_t v : values) h = hash_mix(h, static_cast<uint64_t>(v));
    }
  }
  return h;
}

// ---- measurement -------------------------------------------------------

power::PowerEstimate measure_design(const stg::Chain& chain,
                                    const hlslib::Library& lib,
                                    const power::PowerOptions& opts,
                                    Objective objective, double baseline_len,
                                    const std::vector<double>* pi,
                                    bool breakdown) {
  obs::Span sp = obs::span("estimate", "eval");
  std::vector<double> solved;
  if (!pi) {
    solved = stg::state_probabilities(chain);
    pi = &solved;
  }
  return objective == Objective::Power
             ? power::estimate_power_scaled(chain, lib, baseline_len, opts,
                                            pi, breakdown)
             : power::estimate_power(chain, lib, opts, pi, breakdown);
}

power::PowerEstimate measure_design(const stg::Stg& stg,
                                    const hlslib::Library& lib,
                                    const power::PowerOptions& opts,
                                    Objective objective, double baseline_len,
                                    const std::vector<double>* pi) {
  return measure_design(stg::Chain::of(stg), lib, opts, objective,
                        baseline_len, pi);
}

// ---- TransformEngine ---------------------------------------------------

TransformEngine::TransformEngine(const hlslib::Library& lib,
                                 const hlslib::Allocation& alloc,
                                 const hlslib::FuSelection& sel,
                                 const sched::SchedOptions& sched_opts,
                                 const power::PowerOptions& power_opts,
                                 const xform::TransformLibrary& xforms,
                                 EngineOptions opts)
    : lib_(lib),
      alloc_(alloc),
      sel_(sel),
      sched_opts_(sched_opts),
      power_opts_(power_opts),
      xforms_(xforms),
      opts_(opts) {}

Evaluation TransformEngine::evaluate(const ir::Function& fn,
                                     const sim::Trace& trace,
                                     Objective objective,
                                     double baseline_len) const {
  const sched::Scheduler scheduler(lib_, alloc_, sel_, sched_opts_);
  return evaluate_impl(scheduler, fn, trace, objective, baseline_len, nullptr);
}

Evaluation TransformEngine::evaluate_impl(
    const sched::Scheduler& scheduler, const ir::Function& fn,
    const sim::Trace& trace, Objective objective, double baseline_len,
    const sim::Profile* known_profile) const {
  // The candidate's own profile (transformed control structure means new
  // branch sites). Inside optimize() it comes from the pass that checked
  // the candidate's equivalence; only without one is the trace simulated
  // here.
  std::optional<sim::Profile> own_profile;
  if (!known_profile) {
    obs::Span sp_profile = obs::span("profile", "eval");
    own_profile = sim::profile_function(fn, trace);
  }
  const sim::Profile& profile = known_profile ? *known_profile : *own_profile;
  // The score needs only the schedule's chain. Full validation needs the
  // STG itself: the schedule must be structurally sound and legal under
  // the allocation before its metrics are trusted. schedule() has checked
  // the structure (Stg::validate; a defect throws and is quarantined as a
  // schedule-error), so only steering and legality remain.
  const bool full = opts_.validate == verify::Level::Full;
  obs::Span sp_sched = obs::span("schedule", "eval");
  std::optional<sched::ScheduleResult> sr;
  stg::Chain chain;
  if (full)
    sr = scheduler.schedule(fn, profile);
  else
    chain = scheduler.summarize(fn, profile);
  sp_sched.finish();
  if (full) {
    verify::Report rep = verify::verify_steering(sr->stg, opts_.validate);
    if (rep.ok())
      rep = verify::verify_schedule(fn, sr->stg, lib_, alloc_, opts_.validate);
    verify::check_or_throw(rep);
    chain = stg::Chain::of(sr->stg);
  }

  const power::PowerEstimate est =
      measure_design(chain, lib_, power_opts_, objective, baseline_len,
                     nullptr, /*breakdown=*/false);
  Evaluation ev;
  ev.avg_len = est.avg_schedule_length;
  ev.power = est.power;
  ev.vdd = est.vdd;
  // Iso-throughput constraint (Section 2.2): in Power mode the transformed
  // design must not be slower than the base case; slower candidates would
  // fake a power win simply by stretching the denominator.
  if (objective == Objective::Power)
    ev.score = ev.avg_len <= baseline_len * 1.001 ? est.power : 1e30;
  else
    ev.score = ev.avg_len;
  return ev;
}

EngineResult TransformEngine::optimize(const ir::Function& fn,
                                       const sim::Trace& trace,
                                       Objective objective,
                                       const std::set<int>& region,
                                       double baseline_len,
                                       EvalCache* shared_cache) const {
  Rng rng(opts_.seed);
  const auto start_time = std::chrono::steady_clock::now();
  const uint64_t context = eval_context(trace);

  static obs::Counter& optimize_calls = obs::Registry::global().counter(
      "fact_engine_optimize_total", "TransformEngine::optimize() calls");
  optimize_calls.inc();
  obs::Span sp_opt = obs::span("engine.optimize", "opt");
  sp_opt.arg("objective",
             objective == Objective::Power ? "power" : "throughput");

  EngineResult result;
  result.best = fn.clone();

  // Memoized evaluations: shared across calls when the caller provides a
  // cache (run_fact does, one per flow; factd one per process), run-local
  // otherwise.
  EvalCache local_cache;
  EvalCache& cache = shared_cache ? *shared_cache : local_cache;

  // Region-scoped schedule memoization, one per run: candidates share the
  // regions they did not mutate, so their schedules reuse each other's
  // fragments. Never shared across runs — its entries assume this run's
  // library/allocation/selection/clock. One Scheduler over it serves every
  // worker: schedule() is const and keeps all mutable state call-local.
  sched::FragmentCache fragment_cache;
  sched::SchedOptions sched_opts = sched_opts_;
  sched_opts.fragment_cache = &fragment_cache;
  const sched::Scheduler scheduler(lib_, alloc_, sel_, sched_opts);

  // The pool only parallelizes per-candidate work (apply/verify/
  // equivalence/evaluate); neighborhood generation, the RNG, and every
  // reduction over candidate outcomes stay on this thread, in submission
  // order — which is what makes results independent of the jobs count.
  // A caller-provided pool is borrowed (factd shares one across engines);
  // otherwise a private pool of `jobs` threads lives for this call.
  const int jobs =
      opts_.jobs <= 0 ? WorkerPool::hardware_threads() : opts_.jobs;
  std::optional<WorkerPool> own_pool;
  if (!opts_.pool) own_pool.emplace(jobs);
  WorkerPool& pool = opts_.pool ? *opts_.pool : *own_pool;

  auto out_of_budget = [&]() {
    if (result.truncated) return true;
    if (opts_.cancel && opts_.cancel->load(std::memory_order_relaxed)) {
      result.truncated = true;
      return true;
    }
    if (opts_.max_evaluations > 0 &&
        result.counts.evaluations >=
            static_cast<uint64_t>(opts_.max_evaluations)) {
      result.truncated = true;
      return true;
    }
    if (opts_.deadline_ms > 0.0) {
      const double elapsed_ms =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - start_time)
              .count();
      if (elapsed_ms >= opts_.deadline_ms) {
        result.truncated = true;
        return true;
      }
    }
    return false;
  };

  auto quarantine = [&](const char* pass, std::string failure_class,
                        std::string message,
                        const std::vector<std::string>& transforms) {
    result.counts.quarantined++;
    result.quarantine_by_class[failure_class]++;
    if (result.quarantine.size() < kQuarantineLogCap) {
      QuarantineRecord rec;
      rec.pass = pass;
      rec.failure_class = std::move(failure_class);
      rec.message = std::move(message);
      rec.transforms = transforms;
      result.quarantine.push_back(std::move(rec));
    }
  };

  // Transactional evaluation, compute side: any failure — allocation
  // infeasibility, scheduler non-convergence, verifier rejection of the
  // schedule, or an arbitrary exception — becomes a failure entry instead
  // of aborting the search. Called concurrently from workers, which share
  // the run's Scheduler; all engine context is read-only.
  auto compute_entry = [&](const Member& m) {
    EvalCache::Entry e;
    try {
      e.eval = evaluate_impl(scheduler, m.fn, trace, objective, baseline_len,
                             m.profile ? &*m.profile : nullptr);
      e.ok = true;
    } catch (const verify::VerifyError& ex) {
      e.failure_class =
          ex.report().ok() ? "verify" : ex.report().first_check();
      e.message = ex.what();
    } catch (const Error& ex) {
      // e.g. a transform pushed the behavior outside the allocation's
      // reach, or the scheduler could not converge under the clock.
      e.failure_class = "schedule-error";
      e.message = ex.what();
    } catch (const std::exception& ex) {
      e.failure_class = strfmt("exception:%s", typeid(ex).name());
      e.message = ex.what();
    }
    return e;
  };

  // Transactional evaluation, accounting side (serial): counts the
  // request, publishes fresh results to the cache, and quarantines
  // failures. Returns false when the member must drop out.
  auto consume_entry = [&](Member& m, const EvalCache::Entry& entry,
                           bool hit) {
    result.counts.evaluations++;
    if (hit) {
      result.counts.cache_hits++;
      cache.touch(m.hash, objective, baseline_len, context);
    } else {
      cache.insert(m.hash, objective, baseline_len, context, entry);
    }
    if (!entry.ok) {
      quarantine("evaluate", entry.failure_class, entry.message, m.applied);
      m.eval = Evaluation{};
      m.eval.score = 1e30;
      return false;
    }
    m.eval = entry.eval;
    return true;
  };

  Member root;
  root.fn = fn.clone();
  root.region = region;
  root.hash = ir::structural_hash(fn);
  if (!region.empty()) root.ids = root.fn.stmt_ids();

  // The gate's store, one per run: the compiled statements and verifier
  // results of the root and of every member with kOwnGateCandidates
  // candidates, found by statement pointer. Members are added serially,
  // during neighborhood generation; workers only read it. Every candidate
  // is gated against it and redoes only the statements it does not hold.
  const bool checked = opts_.validate != verify::Level::Off;
  sim::StatementCode code;
  verify::StatementChecks checks;
  if (checked) checks.add(root.fn);

  // Reads-before-def present in the *input* behavior are legal (registers
  // read as 0); candidates may not enlarge the set.
  const std::set<std::string> baseline_undef =
      checked ? verify::FunctionChecks(root.fn, &checks).undefined_reads()
              : std::set<std::string>{};

  // Gate 3 compares every candidate against the input behavior, so the
  // input is simulated once, here: its observations become the reference
  // and the same pass yields the root's profile and checkpoints. If the
  // input itself aborts (or does not compile), the root's evaluation
  // re-raises the error and every candidate is quarantined with it.
  sim::Observations reference;
  std::optional<std::string> reference_error;
  {
    obs::Span sp_ref = obs::span("reference", "opt");
    try {
      code.add(root.fn);
      sim::Profile p;
      reference = sim::reference_observations(root.fn, &code, trace, &p,
                                              &root.checkpoints);
      root.profile = std::move(p);
    } catch (const std::exception& e) {
      reference_error = e.what();
    }
  }

  bool root_ok;
  {
    const auto hit = cache.lookup(root.hash, objective, baseline_len, context);
    root_ok = consume_entry(root, hit ? *hit : compute_entry(root),
                            hit.has_value());
    root.profile.reset();
  }
  result.best_eval = root.eval;

  // Structural dedup across the whole run.
  std::unordered_set<uint64_t> seen;
  seen.insert(root.hash);

  std::vector<Member> in_set;
  in_set.push_back(std::move(root));

  struct WorkItem {
    size_t parent;  // index into in_set
    xform::Candidate cand;
  };

  /// Outcome of the speculative (worker-side) part of one candidate's
  /// gauntlet. The serial reduction replays these in submission order.
  struct Outcome {
    enum class Status { Survived, Duplicate, Quarantined, NonEquivalent };
    Status status = Status::Duplicate;
    ir::Function fn;            // transformed (valid past gate 1)
    std::optional<sim::Profile> profile;  // from gate 3 when Survived
    sim::CheckpointsPtr checkpoints;      // from gate 3 when Survived
    uint64_t hash = 0;          // valid when past_dedup
    bool past_dedup = false;    // reached the dedup gate (post-verify)
    const char* pass = "";      // quarantine pass when Quarantined
    std::string failure_class;
    std::string message;
    /// Unless a known Duplicate: the parent's sequence and this move's
    /// description. When Survived: the region and fn's ids (see Member).
    std::vector<std::string> seq;
    std::set<int> region;
    std::vector<int> ids;
  };

  // Gates 1-3 of one candidate of member `g`, on a worker: the outcome's
  // status and what it carries.
  auto gauntlet = [&](const Member& g, const xform::Candidate& cand,
                      Outcome& o) {
    // Gate 1: the rewrite itself. A transform implementation may throw
    // anything; the candidate is quarantined, never the run.
    try {
      obs::Span sp_apply = obs::span("apply", "opt");
      o.fn = xforms_.apply(g.fn, cand);
    } catch (const Error& e) {
      o.status = Outcome::Status::Quarantined;
      o.pass = "apply";
      o.failure_class = "apply-error";
      o.message = e.what();
      return;
    } catch (const std::exception& e) {
      o.status = Outcome::Status::Quarantined;
      o.pass = "apply";
      o.failure_class = strfmt("exception:%s", typeid(e).name());
      o.message = e.what();
      return;
    }

    // Gate 2: deep IR invariants, before dedup so that even a corruption
    // that leaves the structural hash unchanged (e.g. a duplicated
    // statement id) is caught and accounted for. Only the statements the
    // candidate does not share with the gate's store are checked afresh.
    if (checked) {
      obs::Span sp_verify = obs::span("verify", "opt");
      const verify::Report rep =
          verify::FunctionChecks(o.fn, &checks).report(&baseline_undef);
      if (!rep.ok()) {
        o.status = Outcome::Status::Quarantined;
        o.pass = "verify";
        o.failure_class = rep.first_check();
        o.message = rep.str();
        return;
      }
    }

    {
      obs::Span sp_hash = obs::span("hash", "opt");
      o.hash = ir::structural_hash(o.fn);
    }
    o.past_dedup = true;
    // Pre-filter against the dedup set, frozen during the wave: known
    // duplicates skip the equivalence simulation. The authoritative dedup
    // (which also catches duplicates *within* this wave) runs in the
    // reduction.
    if (seen.count(o.hash)) {
      o.status = Outcome::Status::Duplicate;
      return;
    }

    // Gate 3: observable behavior must match the original. One
    // interpreter pass checks it against the reference and profiles the
    // candidate for evaluation. The compile links the store's fragments of
    // the statements the candidate shares with it, and the pass resumes
    // from the parent's checkpoints at the first top-level statement the
    // candidate changes.
    {
      obs::Span sp_eq = obs::span("equivalence", "opt");
      try {
        if (reference_error) throw Error(*reference_error);
        o.profile = sim::profile_if_equivalent(o.fn, &code, trace, reference,
                                               g.checkpoints.get(),
                                               &o.checkpoints);
      } catch (const std::exception& e) {
        o.status = Outcome::Status::Quarantined;
        o.pass = "equivalence";
        o.failure_class = "simulation-error";
        o.message = e.what();
        return;
      }
    }
    o.status = o.profile ? Outcome::Status::Survived
                         : Outcome::Status::NonEquivalent;
  };

  double best_score = result.best_eval.score;
  for (int outer = 0;
       outer < opts_.max_outer_iters && !out_of_budget(); ++outer) {
    const double k = opts_.k0 + opts_.k_step * outer;
    const double score_before = best_score;

    const SearchCounts counts_before = result.counts;
    obs::Span sp_gen = obs::span("generation", "opt");
    sp_gen.arg("outer", outer);
    sp_gen.arg("k", k);

    for (int move = 0; move < opts_.max_moves && !out_of_budget(); ++move) {
      // Neighborhood generation (serial): every candidate transformation
      // of every population member (statement 6 of Figure 6) goes into one
      // RNG-ordered work list.
      obs::Span sp_find = obs::span("find", "opt");
      std::vector<WorkItem> work;
      for (size_t gi = 0; gi < in_set.size(); ++gi) {
        if (out_of_budget()) break;
        Member& m = in_set[gi];
        std::vector<xform::Candidate> cands = xforms_.find_all(m.fn, m.region);
        if (cands.size() >= kOwnGateCandidates && !m.applied.empty()) {
          // (The root, which applied nothing, is in the store already.)
          obs::Span sp_store = obs::span("store", "opt");
          code.add(m.fn);
          if (checked) checks.add(m.fn);
        }
        // Deterministic shuffle so the evaluation budget samples the
        // neighborhood uniformly instead of front-loading one transform.
        for (size_t i = cands.size(); i > 1; --i)
          std::swap(cands[i - 1],
                    cands[static_cast<size_t>(rng.uniform_int(0, static_cast<int64_t>(i) - 1))]);
        for (auto& c : cands)
          work.push_back(WorkItem{gi, std::move(c)});
      }
      sp_find.finish();

      // The gauntlet (gates 1-3), in waves: workers speculatively apply,
      // verify, hash, and equivalence-check candidates; the reduction then
      // replays outcomes in submission order, so the dedup set, the
      // quarantine counters/records, and the surviving behavior_set are
      // exactly those of a jobs=1 run. Wave size is the number of
      // survivors still wanted — independent of the jobs count — so even
      // the set of speculatively processed candidates is deterministic.
      std::vector<Member> behavior_set;
      size_t next_item = 0;
      while (next_item < work.size() &&
             behavior_set.size() < opts_.max_neighbors_eval &&
             !out_of_budget()) {
        const size_t wave =
            std::min(work.size() - next_item,
                     opts_.max_neighbors_eval - behavior_set.size());
        std::vector<Outcome> outcomes(wave);
        pool.parallel_for(wave, [&](size_t w) {
          const WorkItem& item = work[next_item + w];
          const Member& g = in_set[item.parent];
          Outcome& o = outcomes[w];
          obs::Span sp_cand = obs::span("candidate", "opt");
          sp_cand.arg("transform", item.cand.transform);
          gauntlet(g, item.cand, o);
          if (o.status == Outcome::Status::Duplicate) return;
          // What the reduction keeps of the candidate, made here so that
          // it only moves it: its transform sequence and, for a survivor,
          // its region, the parent's ids plus any transform-created ones.
          o.seq.reserve(g.applied.size() + 1);
          o.seq = g.applied;
          o.seq.push_back(item.cand.describe());
          if (o.status != Outcome::Status::Survived) return;
          o.region = g.region;
          if (!g.region.empty()) {
            o.ids = o.fn.stmt_ids();
            std::set_difference(o.ids.begin(), o.ids.end(), g.ids.begin(),
                                g.ids.end(),
                                std::inserter(o.region, o.region.end()));
          }
        });

        // The serial reduction: dedup, quarantine accounting, regions.
        obs::Span sp_reduce = obs::span("reduce", "opt");
        for (size_t w = 0; w < wave; ++w) {
          if (behavior_set.size() >= opts_.max_neighbors_eval) break;
          if (out_of_budget()) break;
          Outcome& o = outcomes[w];
          result.counts.candidates++;
          // Structural dedup, in submission order (mirrors the serial
          // gate: candidates reaching it insert their hash whether or not
          // they later fail equivalence).
          if (o.past_dedup && !seen.insert(o.hash).second) {
            result.counts.duplicates++;
            continue;
          }

          const WorkItem& item = work[next_item + w];
          switch (o.status) {
            case Outcome::Status::Quarantined:
              quarantine(o.pass, std::move(o.failure_class),
                         std::move(o.message), o.seq);
              break;
            case Outcome::Status::Duplicate:
              break;  // unreachable: the seen-insert above filtered it
            case Outcome::Status::NonEquivalent:
              result.counts.nonequivalent++;
              quarantine("equivalence", "nonequivalent", o.seq.back(), o.seq);
              break;
            case Outcome::Status::Survived: {
              Member m;
              m.fn = std::move(o.fn);
              m.region = std::move(o.region);
              m.ids = std::move(o.ids);
              m.profile = std::move(o.profile);
              m.checkpoints = std::move(o.checkpoints);
              m.applied = std::move(o.seq);
              m.via = item.cand.transform;
              m.hash = o.hash;
              behavior_set.push_back(std::move(m));
              break;
            }
          }
        }
        next_item += wave;
      }
      if (behavior_set.empty()) break;

      // Assess efficacy: reschedule + estimate (statements 8-10), one
      // parallel wave over the surviving neighborhood against the frozen
      // cache, reduced in submission order. Members whose evaluation fails
      // are quarantined and drop out of the population.
      std::vector<Member> evaluated;
      evaluated.reserve(behavior_set.size());
      // Admits an evaluated member into the next population and tracks
      // the best design, attributing an improvement to the transform class
      // of the move that produced it (the sentinel 1e30 score a failed
      // root leaves behind gets no delta — it would be meaningless).
      auto accept = [&](Member& m) {
        result.counts.accepted++;
        result.telemetry.accepted_by_transform[m.via]++;
        if (m.eval.score < best_score) {
          const double delta =
              best_score < 1e29 ? best_score - m.eval.score : 0.0;
          best_score = m.eval.score;
          result.best = m.fn.clone();
          result.best_eval = m.eval;
          result.applied = m.applied;
          result.counts.improvements++;
          result.telemetry.improvements_by_transform[m.via]++;
          result.telemetry.improvement_by_transform[m.via] += delta;
        }
        evaluated.push_back(std::move(m));
      };
      if (opts_.reschedule_in_loop) {
        const size_t n = behavior_set.size();
        std::vector<EvalCache::Entry> entries(n);
        std::vector<char> hits(n, 0);
        pool.parallel_for(n, [&](size_t w) {
          obs::Span sp_eval = obs::span("evaluate", "opt");
          sp_eval.arg("transform", behavior_set[w].via);
          const auto hit =
              cache.lookup(behavior_set[w].hash, objective, baseline_len,
                           context);
          sp_eval.arg("cache_hit", hit.has_value());
          if (hit) {
            entries[w] = std::move(*hit);
            hits[w] = 1;
          } else {
            entries[w] = compute_entry(behavior_set[w]);
          }
          behavior_set[w].profile.reset();  // in_set must not keep it alive
        });
        obs::Span sp_reduce = obs::span("reduce", "opt");
        for (size_t w = 0; w < n; ++w) {
          if (out_of_budget()) break;
          Member& m = behavior_set[w];
          if (consume_entry(m, entries[w], hits[w] != 0)) accept(m);
        }
      } else {
        for (Member& m : behavior_set) {
          if (out_of_budget()) break;
          // Ablation: schedule-blind search scores by static op count.
          size_t ops = 0;
          m.fn.for_each([&](const ir::Stmt& s) {
            for (const auto* slot : s.expr_slots())
              ops += (*slot)->tree_size();
          });
          m.eval.score = static_cast<double>(ops);
          m.profile.reset();  // scored without it
          accept(m);
        }
      }
      behavior_set = std::move(evaluated);
      if (behavior_set.empty()) break;

      // Rank decreasing gain = increasing score; select a fixed-size
      // subset with P(rank) ~ e^(-k * rank).
      obs::Span sp_rank = obs::span("reduce", "opt");
      std::sort(behavior_set.begin(), behavior_set.end(),
                [](const Member& a, const Member& b) {
                  return a.eval.score < b.eval.score;
                });
      const size_t want = std::min(opts_.in_set_size, behavior_set.size());
      std::vector<size_t> chosen;
      std::vector<bool> taken(behavior_set.size(), false);
      while (chosen.size() < want) {
        double total = 0.0;
        for (size_t r = 0; r < behavior_set.size(); ++r)
          if (!taken[r]) total += std::exp(-k * static_cast<double>(r));
        double x = rng.uniform() * total;
        size_t pick = behavior_set.size();
        for (size_t r = 0; r < behavior_set.size(); ++r) {
          if (taken[r]) continue;
          x -= std::exp(-k * static_cast<double>(r));
          if (x <= 0.0) {
            pick = r;
            break;
          }
        }
        if (pick == behavior_set.size()) {  // numerical tail: take best free
          for (size_t r = 0; r < behavior_set.size(); ++r)
            if (!taken[r]) {
              pick = r;
              break;
            }
        }
        taken[pick] = true;
        chosen.push_back(pick);
        result.telemetry.selected_ranks[static_cast<int>(pick)]++;
      }
      std::vector<Member> next;
      next.reserve(chosen.size());
      for (size_t r : chosen) next.push_back(std::move(behavior_set[r]));
      in_set = std::move(next);
    }

    const GenerationTelemetry& gen = result.telemetry.generations.emplace_back(
        GenerationTelemetry{outer, k, best_score, result.counts - counts_before});
    sp_gen.arg("candidates", gen.counts.candidates);
    sp_gen.arg("accepted", gen.counts.accepted);
    // Termination: a full generation without improvement (Section 4.2).
    if (best_score >= score_before - 1e-9 && outer > 0) break;
    if (in_set.empty()) break;
  }

  // If the schedule-blind ablation was used, the recorded eval lacks real
  // metrics; evaluate the winner properly once. A winner that fails this
  // final evaluation is abandoned in favor of the baseline.
  if (!opts_.reschedule_in_loop && result.counts.accepted > 0) {
    try {
      result.best_eval = evaluate_impl(scheduler, result.best, trace,
                                       objective, baseline_len, nullptr);
    } catch (const std::exception& e) {
      quarantine("evaluate", "final-evaluation", e.what(), result.applied);
      result.best = fn.clone();
      result.applied.clear();
      result.best_eval = Evaluation{};
      result.best_eval.score = 1e30;
      result.degraded_to_baseline = true;
    }
  }

  // Graceful degradation: when the whole neighborhood was quarantined or
  // rejected, or the ablation's winner failed its final evaluation, the
  // engine falls back to the (already validated or at least unmodified)
  // baseline design rather than failing the run.
  result.degraded_to_baseline |= result.counts.accepted == 0 &&
                                 (result.counts.quarantined > 0 || !root_ok);

  publish(result);
  sp_opt.arg("evaluations", result.counts.evaluations);
  sp_opt.arg("cache_hits", result.counts.cache_hits);
  return result;
}

}  // namespace fact::opt
