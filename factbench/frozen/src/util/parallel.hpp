#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace fact {

/// A small reusable pool of worker threads for data-parallel loops. The
/// customers are the optimizer's candidate-evaluation waves and the factd
/// service's request batches, so the design favors correctness over
/// throughput: work items are coarse (milliseconds each — a full
/// apply/verify/schedule pipeline), so indices are claimed under a mutex
/// and the per-item locking cost is noise.
///
/// A pool constructed with `threads <= 1` spawns nothing and runs every
/// parallel_for inline on the caller, in index order — the degenerate pool
/// is exactly a serial for-loop, which is what makes `jobs=1` runs trivially
/// deterministic.
///
/// One pool may be shared by several concurrent callers (the daemon's
/// request batches and the engines inside them): only one parallel_for
/// distributes onto the workers at a time, and any call arriving while a
/// job is active — from another thread, or nested from inside a worker —
/// simply runs its whole loop inline on the caller. Inline execution has
/// the same semantics as the distributed path (every index runs exactly
/// once, in order; the first body exception is rethrown after the loop
/// drains), so which path a call takes is unobservable to the caller.
/// Destruction may not race with an active parallel_for.
class WorkerPool {
 public:
  /// Spawns `threads - 1` helper threads (the caller of parallel_for is
  /// always the remaining worker).
  explicit WorkerPool(int threads = 1);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  int threads() const { return threads_; }

  /// Runs body(i) for every i in [0, n), distributing indices across the
  /// pool; blocks until all n calls returned. Safe to call concurrently
  /// from several threads and reentrantly from inside a body: whenever a
  /// job is already active the call degrades to an inline serial loop on
  /// the caller. If body throws, the first exception is rethrown here
  /// after the loop drains.
  void parallel_for(size_t n, const std::function<void(size_t)>& body);

  /// std::thread::hardware_concurrency(), clamped to at least 1.
  static int hardware_threads();

 private:
  void worker_loop();
  /// Claims and executes items of job `job` until it is drained or retired.
  void run_slice(uint64_t job);

  int threads_;
  std::vector<std::thread> pool_;

  std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  // Current job, all guarded by mu_. job_id_ is a generation counter: a
  // worker may only claim items while the id it was woken for is still
  // current, which keeps stragglers from stealing items of a later job.
  uint64_t job_id_ = 0;
  bool job_active_ = false;  // a parallel_for currently owns the workers
  const std::function<void(size_t)>* job_body_ = nullptr;
  size_t job_n_ = 0;
  size_t job_next_ = 0;
  size_t job_done_ = 0;
  std::exception_ptr job_error_;
  bool stop_ = false;
};

}  // namespace fact
