#include "util/parallel.hpp"

#include <algorithm>

namespace fact {

WorkerPool::WorkerPool(int threads) : threads_(std::max(1, threads)) {
  pool_.reserve(static_cast<size_t>(threads_ - 1));
  for (int t = 1; t < threads_; ++t)
    pool_.emplace_back([this] { worker_loop(); });
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_start_.notify_all();
  for (auto& t : pool_) t.join();
}

int WorkerPool::hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

namespace {

/// Serial fallback with the same drain semantics as the distributed path:
/// every index runs, the first exception is rethrown after the loop.
void run_inline(size_t n, const std::function<void(size_t)>& body) {
  std::exception_ptr first;
  for (size_t i = 0; i < n; ++i) {
    try {
      body(i);
    } catch (...) {
      if (!first) first = std::current_exception();
    }
  }
  if (first) std::rethrow_exception(first);
}

}  // namespace

void WorkerPool::parallel_for(size_t n,
                              const std::function<void(size_t)>& body) {
  if (n == 0) return;
  if (pool_.empty()) {
    run_inline(n, body);
    return;
  }

  uint64_t job;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (job_active_) {
      // Another parallel_for owns the workers — either a concurrent caller
      // or our own job, reentered from inside a body. Blocking here would
      // deadlock the nested case and stall the concurrent one (the waiting
      // thread is itself a worker), so degrade to an inline serial loop.
      lock.unlock();
      run_inline(n, body);
      return;
    }
    job_active_ = true;
    job_body_ = &body;
    job_n_ = n;
    job_next_ = 0;
    job_done_ = 0;
    job_error_ = nullptr;
    job = ++job_id_;
  }
  cv_start_.notify_all();
  run_slice(job);

  std::unique_lock<std::mutex> lock(mu_);
  cv_done_.wait(lock, [&] { return job_done_ == job_n_; });
  job_body_ = nullptr;
  job_active_ = false;
  if (job_error_) {
    std::exception_ptr e = job_error_;
    job_error_ = nullptr;
    lock.unlock();
    std::rethrow_exception(e);
  }
}

void WorkerPool::run_slice(uint64_t job) {
  std::unique_lock<std::mutex> lock(mu_);
  while (job_id_ == job && job_next_ < job_n_) {
    const size_t i = job_next_++;
    const auto* body = job_body_;
    lock.unlock();
    try {
      (*body)(i);
    } catch (...) {
      std::lock_guard<std::mutex> guard(mu_);
      if (!job_error_) job_error_ = std::current_exception();
    }
    lock.lock();
    // The claimed-but-uncounted item keeps job_done_ < job_n_, so the job
    // cannot retire while any worker is still between claim and count.
    if (++job_done_ == job_n_) cv_done_.notify_all();
  }
}

void WorkerPool::worker_loop() {
  uint64_t seen = 0;
  for (;;) {
    uint64_t job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_start_.wait(lock, [&] { return stop_ || job_id_ != seen; });
      if (stop_) return;
      seen = job_id_;
      job = seen;
    }
    run_slice(job);
  }
}

}  // namespace fact
