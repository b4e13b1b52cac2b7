#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "hlslib/library.hpp"
#include "opt/engine.hpp"
#include "sim/trace.hpp"
#include "util/json.hpp"
#include "util/parallel.hpp"

namespace fact::serve {

/// Tuning of the in-process optimization service.
struct ServiceOptions {
  /// Worker threads in the shared pool (candidate evaluation and request
  /// batches both run on it). 0 = hardware concurrency.
  int workers = 0;
  /// Bounded job queue: submissions beyond this are rejected with an
  /// error response ("queue full") rather than growing memory unboundedly.
  size_t queue_cap = 256;
  /// Jobs drained per dispatch wave. A wave of one runs directly on the
  /// dispatcher thread, so the engine inside it gets the whole pool; a
  /// larger wave fans requests out across the pool and the engines inside
  /// degrade to inline evaluation. 0 = pool thread count.
  size_t batch_max = 0;
  /// Capacity of the process-wide EvalCache shared by all sessions.
  size_t cache_cap = 1 << 18;
};

/// Point-in-time service counters, exposed by `status` responses.
struct StatsSnapshot {
  double uptime_ms = 0.0;  // since Service construction
  size_t sessions = 0;
  size_t queue_depth = 0;
  size_t in_flight = 0;
  uint64_t accepted = 0;    // jobs admitted to the queue
  uint64_t completed = 0;   // finished with ok:true
  uint64_t failed = 0;      // finished with ok:false (excluding cancelled)
  uint64_t cancelled = 0;
  uint64_t rejected = 0;    // bounced on a full queue
  uint64_t evaluations = 0;  // engine evaluation requests, all jobs
  uint64_t cache_hits = 0;   // of which served from the shared EvalCache
  size_t cache_entries = 0;
  size_t cache_cap = 0;
  size_t latency_count = 0;  // samples behind the percentiles
  double p50_ms = 0.0, p90_ms = 0.0, p99_ms = 0.0, max_ms = 0.0;
};

/// A submitted job: the service's unit of queueing, execution, completion
/// and cancellation. Connections hold Tickets; the dispatcher holds the
/// same state through the queue.
class JobState;

class Ticket {
 public:
  Ticket() = default;
  explicit Ticket(std::shared_ptr<JobState> state) : state_(std::move(state)) {}

  bool valid() const { return state_ != nullptr; }
  uint64_t id() const;
  /// Blocks until the job completes and returns a copy of its response.
  /// By value on purpose: `service.submit(req).wait()` must stay safe even
  /// though the temporary Ticket holds the last reference to the job.
  Json wait() const;

 private:
  std::shared_ptr<JobState> state_;
};

/// The concurrent optimization service behind factd: a bounded job queue
/// feeding one shared WorkerPool, named sessions pinning parsed IR and
/// generated traces, and one process-wide EvalCache shared across all
/// sessions.
///
/// Determinism contract: the response to a request is a pure function of
/// the request — independent of queue position, batch shape, concurrent
/// clients, and worker count. The two mechanisms are (a) the engine's
/// jobs-invariance (candidate evaluation reduces in serial submission
/// order no matter where it ran) and (b) the EvalCache memoization
/// contract (a cached entry is exactly what recomputation would produce,
/// so cache sharing changes only what is recomputed, never any result).
class Service {
 public:
  explicit Service(ServiceOptions opts = {});
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Submits one optimize/schedule/profile request. Never throws: every
  /// failure (unknown type, malformed behavior, full queue, stopped
  /// service) becomes an ok:false response on the returned ticket.
  Ticket submit(Json request);

  /// Requests cooperative cancellation of a submitted job. Queued jobs
  /// complete immediately with a cancellation response; running jobs stop
  /// at the engine's next budget check and return best-so-far marked
  /// truncated+cancelled. Returns false when the ticket is unknown or
  /// already done.
  bool cancel(uint64_t ticket_id);

  StatsSnapshot stats() const;
  /// The `status` response body (stats rendered as JSON).
  Json status_response() const;
  /// The `stats` response body: uptime, queue/cache occupancy, and the
  /// per-session inventory (name, request count, trace pinned) — the
  /// lightweight operational view, vs. status's counter dump.
  Json stats_response() const;
  /// Prometheus text exposition (format 0.0.4) of the process-wide obs
  /// registry, with the service gauges (sessions, queue depth, in-flight,
  /// cache entries, uptime) refreshed first. Served by the factd
  /// `metrics` request for scraping.
  std::string metrics_text() const;

  /// Fails all queued jobs, cancels in-flight ones, and joins the
  /// dispatcher. Idempotent; called by the destructor.
  void stop();

  size_t session_count() const;

 private:
  struct Session;
  using SessionPtr = std::shared_ptr<Session>;

  void dispatcher_loop();
  void run_job(JobState& job);
  /// Executes the request proper; returns the response body.
  Json execute(const Json& req, JobState& job);
  Json execute_optimize(const Json& req, JobState& job);
  Json execute_schedule(const Json& req);
  Json execute_profile(const Json& req);
  /// Resolves the behavior a request names: a stored session, a new
  /// session (when "session" plus behavior fields are given), or an
  /// ephemeral one (no "session").
  SessionPtr resolve_session(const Json& req);
  SessionPtr build_session(const Json& req, const std::string& name) const;
  /// A job's lifecycle events, in job_events_ order.
  enum class JobEvent { Accepted, Completed, Failed, Cancelled, Rejected };
  /// Counts one event for this instance (status) and in the process-wide
  /// registry (metrics): one call per event.
  void count(JobEvent e);
  void record_latency(double ms);

  ServiceOptions opts_;
  const std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
  hlslib::Library lib_;
  hlslib::FuSelection sel_;
  WorkerPool pool_;
  opt::EvalCache cache_;

  mutable std::mutex mu_;
  std::condition_variable cv_work_;
  std::deque<std::shared_ptr<JobState>> queue_;
  size_t in_flight_ = 0;
  bool stopping_ = false;
  std::atomic<uint64_t> next_ticket_{1};

  mutable std::mutex sessions_mu_;
  std::map<std::string, SessionPtr> sessions_;

  mutable std::mutex jobs_mu_;
  std::map<uint64_t, std::weak_ptr<JobState>> live_jobs_;

  mutable std::mutex stats_mu_;
  std::array<uint64_t, 5> job_events_{};  // by JobEvent
  opt::SearchCounts search_counts_;  // this instance's jobs, summed
  std::vector<double> latencies_;  // ring buffer (service.cpp kLatencyWindow)
  size_t latency_next_ = 0;
  size_t latency_total_ = 0;
  double latency_max_ = 0.0;

  std::thread dispatcher_;
};

/// Shared state of one submitted job.
class JobState {
 public:
  JobState(uint64_t ticket, Json request)
      : ticket_(ticket),
        request_(std::move(request)),
        enqueued_(std::chrono::steady_clock::now()) {}

  uint64_t ticket() const { return ticket_; }
  const Json& request() const { return request_; }
  std::chrono::steady_clock::time_point enqueued() const { return enqueued_; }

  void request_cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancel_requested() const {
    return cancelled_.load(std::memory_order_relaxed);
  }
  const std::atomic<bool>* cancel_flag() const { return &cancelled_; }

  void complete(Json response);
  bool done() const;
  const Json& wait() const;

 private:
  uint64_t ticket_;
  Json request_;
  std::chrono::steady_clock::time_point enqueued_;
  std::atomic<bool> cancelled_{false};

  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  bool done_ = false;
  Json response_;
};

}  // namespace fact::serve
