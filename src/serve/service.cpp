#include "serve/service.hpp"

#include <algorithm>
#include <cmath>

#include "lang/parser.hpp"
#include "obs/metrics.hpp"
#include "opt/baselines.hpp"
#include "opt/fact.hpp"
#include "util/error.hpp"
#include "verify/verify.hpp"
#include "workloads/workloads.hpp"
#include "xform/transform.hpp"

namespace fact::serve {

namespace {

/// Completed-request latencies kept for the percentile estimates.
constexpr size_t kLatencyWindow = 4096;

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Response skeleton: ok first, then the echoed client id (if any), then
/// the request type — the field order every factd response shares.
Json base_response(const Json& req, bool ok) {
  Json r = Json::object();
  r.set("ok", ok);
  if (const Json* id = req.get("id")) r.set("id", *id);
  const std::string type = req.get_string("type");
  if (!type.empty()) r.set("type", type);
  return r;
}

Json error_response(const Json& req, const std::string& msg) {
  Json r = base_response(req, false);
  r.set("error", msg);
  return r;
}

}  // namespace

// ---- JobState ------------------------------------------------------------

void JobState::complete(Json response) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (done_) return;  // first completion wins
    response_ = std::move(response);
    done_ = true;
  }
  cv_.notify_all();
}

bool JobState::done() const {
  std::lock_guard<std::mutex> lk(mu_);
  return done_;
}

const Json& JobState::wait() const {
  std::unique_lock<std::mutex> lk(mu_);
  cv_.wait(lk, [&] { return done_; });
  return response_;
}

uint64_t Ticket::id() const { return state_ ? state_->ticket() : 0; }

Json Ticket::wait() const { return state_ ? state_->wait() : Json(); }

// ---- Session -------------------------------------------------------------

/// A session pins everything re-derivable about one behavior so follow-up
/// requests skip the front end entirely: the parsed IR, the allocation,
/// the trace configuration, and (lazily) the generated trace. The parsed
/// members are immutable after construction — IR expressions are shared
/// immutable nodes, so any number of jobs may read one session
/// concurrently; only the trace pin mutates, under its own mutex.
struct Service::Session {
  std::string name;  // "" = ephemeral (not stored in the registry)
  ir::Function fn{""};
  hlslib::Allocation alloc;
  sim::TraceConfig trace_config;

  /// Requests resolved to this session (stats_response inventory).
  std::atomic<uint64_t> requests{0};

  std::mutex trace_mu;
  uint64_t trace_seed = 0;
  size_t trace_execs = 0;
  std::shared_ptr<const sim::Trace> trace;

  /// The trace sim::generate_trace(fn, tc, seed) would produce, generated
  /// at most once per (seed, executions) and shared by reference with any
  /// number of concurrent jobs.
  std::shared_ptr<const sim::Trace> trace_for(const sim::TraceConfig& tc,
                                              uint64_t seed) {
    std::lock_guard<std::mutex> lk(trace_mu);
    if (!trace || trace_seed != seed || trace_execs != tc.executions) {
      trace = std::make_shared<sim::Trace>(sim::generate_trace(fn, tc, seed));
      trace_seed = seed;
      trace_execs = tc.executions;
    }
    return trace;
  }

  bool trace_pinned() {
    std::lock_guard<std::mutex> lk(trace_mu);
    return trace != nullptr;
  }
};

// ---- Service lifecycle ---------------------------------------------------

Service::Service(ServiceOptions opts)
    : opts_(opts),
      lib_(hlslib::Library::dac98()),
      sel_(hlslib::FuSelection::defaults(lib_)),
      pool_(opts.workers > 0 ? opts.workers : WorkerPool::hardware_threads()),
      cache_(opts.cache_cap) {
  if (opts_.queue_cap == 0) opts_.queue_cap = 1;
  latencies_.resize(kLatencyWindow, 0.0);
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

Service::~Service() { stop(); }

void Service::stop() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stopping_ = true;
  }
  cv_work_.notify_all();
  {
    // Cancel in-flight jobs so shutdown is prompt: engines notice the flag
    // at their next budget check and return best-so-far.
    std::lock_guard<std::mutex> lk(jobs_mu_);
    for (auto& [id, weak] : live_jobs_)
      if (auto s = weak.lock()) s->request_cancel();
  }
  if (dispatcher_.joinable()) dispatcher_.join();
  std::deque<std::shared_ptr<JobState>> leftover;
  {
    std::lock_guard<std::mutex> lk(mu_);
    leftover.swap(queue_);
  }
  for (auto& s : leftover) {
    s->complete(error_response(s->request(), "server shutting down"));
    count(JobEvent::Failed);
  }
  std::lock_guard<std::mutex> lk(jobs_mu_);
  live_jobs_.clear();
}

// ---- submission and dispatch ---------------------------------------------

Ticket Service::submit(Json request) {
  const uint64_t ticket = next_ticket_.fetch_add(1, std::memory_order_relaxed);
  auto state = std::make_shared<JobState>(ticket, std::move(request));
  const Json& req = state->request();

  auto fail_now = [&](const std::string& msg, bool rejected) {
    count(rejected ? JobEvent::Rejected : JobEvent::Failed);
    state->complete(error_response(req, msg));
    return Ticket(state);
  };

  const std::string type = req.get_string("type");
  if (type != "optimize" && type != "schedule" && type != "profile")
    return fail_now("unknown request type '" + type +
                        "' (want optimize|schedule|profile)",
                    false);

  {
    // Registered before it is queued: once the dispatcher can see the job,
    // cancel() must be able to find it.
    std::lock_guard<std::mutex> lk(jobs_mu_);
    live_jobs_[ticket] = state;
  }
  {
    std::unique_lock<std::mutex> lk(mu_);
    if (stopping_) {
      lk.unlock();
      std::lock_guard<std::mutex> jk(jobs_mu_);
      live_jobs_.erase(ticket);
      return fail_now("server shutting down", false);
    }
    if (queue_.size() >= opts_.queue_cap) {
      lk.unlock();
      std::lock_guard<std::mutex> jk(jobs_mu_);
      live_jobs_.erase(ticket);
      return fail_now("queue full (" + std::to_string(opts_.queue_cap) +
                          " jobs queued)",
                      true);
    }
    queue_.push_back(state);
  }
  count(JobEvent::Accepted);
  cv_work_.notify_one();
  return Ticket(std::move(state));
}

bool Service::cancel(uint64_t ticket_id) {
  std::shared_ptr<JobState> state;
  {
    std::lock_guard<std::mutex> lk(jobs_mu_);
    auto it = live_jobs_.find(ticket_id);
    if (it != live_jobs_.end()) state = it->second.lock();
  }
  if (!state || state->done()) return false;
  state->request_cancel();
  return true;
}

void Service::dispatcher_loop() {
  for (;;) {
    std::vector<std::shared_ptr<JobState>> batch;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_work_.wait(lk, [&] { return stopping_ || !queue_.empty(); });
      if (stopping_) return;  // stop() fails whatever is left in the queue
      const size_t want =
          opts_.batch_max > 0 ? opts_.batch_max
                              : static_cast<size_t>(pool_.threads());
      while (!queue_.empty() && batch.size() < std::max<size_t>(want, 1)) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      in_flight_ += batch.size();
    }
    if (batch.size() == 1) {
      // A lone job runs on the dispatcher thread itself, leaving the whole
      // pool to the engine inside it: an idle service gives one request
      // full intra-request parallelism.
      run_job(*batch[0]);
    } else {
      // A backlog fans out across the pool; the engines inside the jobs
      // find it busy and degrade to inline evaluation, trading
      // intra-request for cross-request parallelism.
      pool_.parallel_for(batch.size(),
                         [&](size_t i) { run_job(*batch[i]); });
    }
    {
      std::lock_guard<std::mutex> lk(mu_);
      in_flight_ -= batch.size();
    }
  }
}

void Service::run_job(JobState& job) {
  const auto start = std::chrono::steady_clock::now();
  Json resp;
  if (job.cancel_requested()) {
    resp = error_response(job.request(), "cancelled");
    resp.set("cancelled", true);
  } else {
    try {
      resp = execute(job.request(), job);
    } catch (const fact::Error& e) {
      resp = error_response(job.request(), e.what());
    } catch (const std::exception& e) {
      // Last-resort guard, mirroring factc: a library defect must surface
      // as an error response, never kill the daemon.
      resp = error_response(job.request(), std::string("internal: ") +
                                               e.what());
    }
    if (job.cancel_requested() && !resp.has("cancelled"))
      resp.set("cancelled", true);
  }
  const double wall = ms_since(start);
  resp.set("wall_ms", wall);
  count(job.cancel_requested() ? JobEvent::Cancelled
        : resp.get_bool("ok")  ? JobEvent::Completed
                               : JobEvent::Failed);
  record_latency(wall);
  {
    std::lock_guard<std::mutex> lk(jobs_mu_);
    live_jobs_.erase(job.ticket());
  }
  job.complete(std::move(resp));
}

// ---- request execution ---------------------------------------------------

Json Service::execute(const Json& req, JobState& job) {
  const std::string type = req.get_string("type");
  if (type == "optimize") return execute_optimize(req, job);
  if (type == "schedule") return execute_schedule(req);
  return execute_profile(req);
}

Service::SessionPtr Service::resolve_session(const Json& req) {
  const std::string name = req.get_string("session");
  const bool has_behavior = req.has("benchmark") || req.has("source");
  if (name.empty()) {
    if (!has_behavior)
      throw Error("request needs a 'benchmark', 'source' or 'session'");
    return build_session(req, "");
  }
  if (!has_behavior) {
    std::lock_guard<std::mutex> lk(sessions_mu_);
    auto it = sessions_.find(name);
    if (it == sessions_.end())
      throw Error("unknown session '" + name +
                  "' (supply 'benchmark' or 'source' to create it)");
    it->second->requests.fetch_add(1, std::memory_order_relaxed);
    return it->second;
  }
  // Behavior plus a session name: (re)create and remember. Parse outside
  // the registry lock; last writer wins on a name race.
  SessionPtr ses = build_session(req, name);
  ses->requests.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lk(sessions_mu_);
  sessions_[name] = ses;
  return ses;
}

Service::SessionPtr Service::build_session(const Json& req,
                                           const std::string& name) const {
  auto ses = std::make_shared<Session>();
  ses->name = name;
  const std::string alloc_spec = req.get_string("alloc");
  if (req.has("benchmark")) {
    workloads::Workload w = workloads::by_name(req.get_string("benchmark"));
    ses->fn = std::move(w.fn);
    ses->alloc = alloc_spec.empty() ? w.allocation
                                    : hlslib::parse_allocation(alloc_spec, lib_);
    ses->trace_config = w.trace;
  } else {
    const Json* src = req.get("source");
    if (!src || !src->is_string())
      throw Error("'source' must be a string of behavior text");
    ses->fn = lang::parse_function(src->as_string());
    ses->alloc = hlslib::parse_allocation(alloc_spec, lib_);
    ses->trace_config = sim::TraceConfig{};
  }
  return ses;
}

Json Service::execute_optimize(const Json& req, JobState& job) {
  SessionPtr ses = resolve_session(req);

  opt::FactOptions fo;
  fo.sched.clock_ns = req.get_double("clock", fo.sched.clock_ns);
  fo.power.clock_ns = fo.sched.clock_ns;
  fo.sched.fuse_loops = !req.get_bool("no_fuse", false);
  fo.seed = static_cast<uint64_t>(req.get_int("seed", 7));
  const std::string objective = req.get_string("objective", "throughput");
  if (objective == "power") {
    fo.objective = opt::Objective::Power;
  } else if (objective != "throughput") {
    throw Error("bad objective '" + objective + "' (want throughput|power)");
  }
  fo.engine.validate =
      verify::level_from_string(req.get_string("validate", "fast"));
  const double deadline = req.get_double("deadline_ms", 0.0);
  if (deadline < 0.0) throw Error("deadline_ms must be >= 0");
  fo.engine.deadline_ms = deadline;
  fo.engine.cancel = job.cancel_flag();
  const int jobs = static_cast<int>(req.get_int("jobs", 0));
  if (jobs > 0) {
    fo.engine.jobs = jobs;  // explicit width: a private per-request pool
  } else {
    fo.engine.pool = &pool_;  // default: share the service pool
  }

  // Named sessions pin the generated trace; what is pinned is exactly the
  // trace run_fact would generate, so pinning never changes results.
  std::shared_ptr<const sim::Trace> pinned;
  if (!ses->name.empty()) {
    sim::TraceConfig tc = ses->trace_config;
    if (tc.executions == 0) tc.executions = fo.trace_executions;
    pinned = ses->trace_for(tc, fo.seed);
  }

  const xform::TransformLibrary xf = xform::TransformLibrary::standard();
  const opt::FactResult r =
      opt::run_fact(ses->fn, lib_, ses->alloc, sel_, ses->trace_config, xf,
                    fo, &cache_, pinned.get());

  {
    std::lock_guard<std::mutex> lk(stats_mu_);
    search_counts_ += r.counts;
  }

  Json resp = base_response(req, true);
  if (!ses->name.empty()) resp.set("session", ses->name);
  resp.set("report",
           opt::render_fact_report(r, fo.objective, req.get_bool("quiet")));
  resp.set("avg_len", r.final_avg_len);
  resp.set("initial_avg_len", r.initial_avg_len);
  resp.set("throughput", 1000.0 / r.final_avg_len);
  resp.set("power", r.final_power.power);
  resp.set("vdd", r.final_power.vdd);
  Json transforms = Json::array();
  for (const std::string& t : r.applied) transforms.push_back(Json(t));
  resp.set("transforms", std::move(transforms));
  opt::set_totals(resp, r);
  return resp;
}

Json Service::execute_schedule(const Json& req) {
  SessionPtr ses = resolve_session(req);
  sched::SchedOptions so;
  so.clock_ns = req.get_double("clock", so.clock_ns);
  so.fuse_loops = !req.get_bool("no_fuse", false);
  power::PowerOptions po;
  po.clock_ns = so.clock_ns;
  const uint64_t seed = static_cast<uint64_t>(req.get_int("seed", 7));
  const opt::BaselineResult r = opt::run_m1(
      ses->fn, lib_, ses->alloc, sel_, ses->trace_config, so, po, seed);
  Json resp = base_response(req, true);
  if (!ses->name.empty()) resp.set("session", ses->name);
  resp.set("method", "m1");
  resp.set("avg_len", r.avg_len);
  resp.set("throughput", 1000.0 / r.avg_len);
  resp.set("power", r.power_nominal.power);
  return resp;
}

Json Service::execute_profile(const Json& req) {
  SessionPtr ses = resolve_session(req);
  const uint64_t seed = static_cast<uint64_t>(req.get_int("seed", 7));
  sim::TraceConfig tc = ses->trace_config;
  if (tc.executions == 0) tc.executions = opt::FactOptions{}.trace_executions;
  std::shared_ptr<const sim::Trace> trace;
  if (!ses->name.empty()) {
    trace = ses->trace_for(tc, seed);
  } else {
    trace = std::make_shared<sim::Trace>(
        sim::generate_trace(ses->fn, tc, seed));
  }
  const sim::Profile profile = sim::profile_function(ses->fn, *trace);
  Json resp = base_response(req, true);
  if (!ses->name.empty()) resp.set("session", ses->name);
  resp.set("executions", profile.executions);
  resp.set("avg_steps", profile.avg_steps());
  return resp;
}

// ---- stats ---------------------------------------------------------------

void Service::count(JobEvent e) {
  obs::Registry& reg = obs::Registry::global();
  static obs::Counter* const metrics[] = {
      &reg.counter("fact_serve_accepted_total", "Jobs admitted to the queue"),
      &reg.counter("fact_serve_completed_total", "Jobs finished ok"),
      &reg.counter("fact_serve_failed_total", "Jobs finished with an error"),
      &reg.counter("fact_serve_cancelled_total",
                   "Jobs cancelled by the client"),
      &reg.counter("fact_serve_rejected_total",
                   "Jobs bounced on a full queue")};
  const size_t i = static_cast<size_t>(e);
  metrics[i]->inc();
  std::lock_guard<std::mutex> lk(stats_mu_);
  ++job_events_[i];
}

void Service::record_latency(double ms) {
  std::lock_guard<std::mutex> lk(stats_mu_);
  latencies_[latency_next_] = ms;
  latency_next_ = (latency_next_ + 1) % latencies_.size();
  ++latency_total_;
  latency_max_ = std::max(latency_max_, ms);
}

size_t Service::session_count() const {
  std::lock_guard<std::mutex> lk(sessions_mu_);
  return sessions_.size();
}

StatsSnapshot Service::stats() const {
  StatsSnapshot s;
  s.uptime_ms = ms_since(start_);
  s.sessions = session_count();
  {
    std::lock_guard<std::mutex> lk(mu_);
    s.queue_depth = queue_.size();
    s.in_flight = in_flight_;
  }
  std::vector<double> window;
  {
    std::lock_guard<std::mutex> lk(stats_mu_);
    auto events = [&](JobEvent e) {
      return job_events_[static_cast<size_t>(e)];
    };
    s.accepted = events(JobEvent::Accepted);
    s.completed = events(JobEvent::Completed);
    s.failed = events(JobEvent::Failed);
    s.cancelled = events(JobEvent::Cancelled);
    s.rejected = events(JobEvent::Rejected);
    s.evaluations = search_counts_.evaluations;
    s.cache_hits = search_counts_.cache_hits;
    s.max_ms = latency_max_;
    const size_t n = std::min(latency_total_, latencies_.size());
    window.assign(latencies_.begin(),
                  latencies_.begin() + static_cast<long>(n));
  }
  s.cache_entries = cache_.size();
  s.cache_cap = cache_.capacity();
  s.latency_count = window.size();
  if (!window.empty()) {
    std::sort(window.begin(), window.end());
    auto pct = [&](double q) {
      const double idx = q * static_cast<double>(window.size() - 1);
      return window[static_cast<size_t>(std::llround(idx))];
    };
    s.p50_ms = pct(0.50);
    s.p90_ms = pct(0.90);
    s.p99_ms = pct(0.99);
  }
  return s;
}

Json Service::status_response() const {
  const StatsSnapshot s = stats();
  Json stats = Json::object();
  stats.set("sessions", s.sessions);
  stats.set("queue_depth", s.queue_depth);
  stats.set("in_flight", s.in_flight);
  stats.set("accepted", s.accepted);
  stats.set("completed", s.completed);
  stats.set("failed", s.failed);
  stats.set("cancelled", s.cancelled);
  stats.set("rejected", s.rejected);
  stats.set("evaluations", s.evaluations);
  stats.set("cache_hits", s.cache_hits);
  const double evaluations = static_cast<double>(s.evaluations);
  stats.set("cache_hit_rate",
            evaluations > 0 ? s.cache_hits / evaluations : 0.0);
  stats.set("cache_entries", s.cache_entries);
  stats.set("cache_cap", s.cache_cap);
  stats.set("latency_count", s.latency_count);
  stats.set("p50_ms", s.p50_ms);
  stats.set("p90_ms", s.p90_ms);
  stats.set("p99_ms", s.p99_ms);
  stats.set("max_ms", s.max_ms);
  Json resp = Json::object();
  resp.set("ok", true);
  resp.set("type", "status");
  resp.set("stats", std::move(stats));
  return resp;
}

Json Service::stats_response() const {
  const StatsSnapshot s = stats();
  Json resp = Json::object();
  resp.set("ok", true);
  resp.set("type", "stats");
  resp.set("uptime_ms", s.uptime_ms);
  resp.set("sessions", s.sessions);
  resp.set("queue_depth", s.queue_depth);
  resp.set("in_flight", s.in_flight);
  resp.set("cache_entries", s.cache_entries);
  resp.set("cache_cap", s.cache_cap);
  Json list = Json::array();
  {
    std::lock_guard<std::mutex> lk(sessions_mu_);
    for (const auto& [name, ses] : sessions_) {
      Json e = Json::object();
      e.set("name", name);
      e.set("requests",
            ses->requests.load(std::memory_order_relaxed));
      e.set("trace_pinned", ses->trace_pinned());
      list.push_back(std::move(e));
    }
  }
  resp.set("session_list", std::move(list));
  return resp;
}

std::string Service::metrics_text() const {
  // Point-in-time service state rides along as gauges; the counters are
  // already in the registry (count() and each optimize() publish them).
  obs::Registry& reg = obs::Registry::global();
  const StatsSnapshot s = stats();
  reg.gauge("fact_serve_sessions", "Named sessions resident")
      .set(static_cast<int64_t>(s.sessions));
  reg.gauge("fact_serve_queue_depth", "Jobs waiting in the queue")
      .set(static_cast<int64_t>(s.queue_depth));
  reg.gauge("fact_serve_in_flight", "Jobs currently executing")
      .set(static_cast<int64_t>(s.in_flight));
  reg.gauge("fact_serve_cache_entries", "Shared EvalCache entries resident")
      .set(static_cast<int64_t>(s.cache_entries));
  reg.gauge("fact_serve_uptime_ms", "Milliseconds since service start")
      .set(static_cast<int64_t>(s.uptime_ms));
  return obs::to_prometheus(reg.snapshot());
}

}  // namespace fact::serve
