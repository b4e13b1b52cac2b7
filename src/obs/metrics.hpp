#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace fact::obs {

/// Process-wide metrics for the optimizer, scheduler, caches and factd.
///
/// Design constraints, in order:
///  * hot-path cost: Counter::inc() is one relaxed fetch_add on one
///    atomic word;
///  * thread safety: all mutation is on std::atomic (TSan-clean); the
///    registry mutex guards registration and snapshotting only, never an
///    increment;
///  * determinism: metrics are write-only from the search path. Nothing in
///    the optimizer ever *reads* a metric to make a decision, so
///    instrumentation cannot perturb the byte-identical determinism
///    contracts (`--jobs N` == `--jobs 1`, factd == factc).
///
/// Values are exact in any serial or properly joined concurrent run: a
/// read that is not concurrent with writers sees every prior increment
/// (the WorkerPool joins its waves, so the engine's serial reduction
/// always reads settled counts).

/// Monotonic event count.
class Counter {
 public:
  void inc(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

/// A value that can go up and down (queue depth, cache occupancy).
class Gauge {
 public:
  void set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  int64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { set(0); }

 private:
  std::atomic<int64_t> v_{0};
};

/// Fixed-bucket histogram (Prometheus-style cumulative `le` buckets on
/// export; stored per-bucket internally). Bucket i counts observations
/// v <= bounds[i] that no earlier bucket took; the implicit last bucket
/// is +Inf. Bounds are fixed at registration.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double v);
  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket (non-cumulative) counts; size() == bounds().size() + 1,
  /// the last entry being the +Inf bucket.
  std::vector<uint64_t> bucket_counts() const;
  uint64_t count() const;
  double sum() const;
  void reset();

 private:
  std::vector<double> bounds_;  // strictly increasing
  std::unique_ptr<std::atomic<uint64_t>[]> counts_;  // bounds_.size() + 1
  std::atomic<uint64_t> sum_bits_{0};  // bit pattern of a double, CAS-added
};

/// One metric's point-in-time value, as captured by Registry::snapshot().
struct MetricSnapshot {
  enum class Kind { Counter, Gauge, Histogram };
  std::string name;
  std::string help;
  Kind kind = Kind::Counter;
  uint64_t counter_value = 0;            // Kind::Counter
  int64_t gauge_value = 0;               // Kind::Gauge
  std::vector<double> bounds;            // Kind::Histogram
  std::vector<uint64_t> bucket_counts;   // per bucket + +Inf
  uint64_t count = 0;
  double sum = 0.0;
};

struct Snapshot {
  std::vector<MetricSnapshot> metrics;  // sorted by name
};

/// Name-keyed registry of metrics with stable addresses: callers register
/// once (typically through a function-local static reference) and then
/// touch the returned metric lock-free forever. Re-registering a name
/// returns the existing metric; registering it as a different kind throws
/// fact::Error. Most code uses the process-wide Registry::global();
/// separate instances exist so tests can exercise export formats against a
/// registry nothing else writes to.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  static Registry& global();

  Counter& counter(const std::string& name, const std::string& help = "");
  Gauge& gauge(const std::string& name, const std::string& help = "");
  /// Bounds must be strictly increasing and non-empty; on re-registration
  /// the original bounds win and the new ones are ignored.
  Histogram& histogram(const std::string& name, std::vector<double> bounds,
                       const std::string& help = "");

  /// Point-in-time copy of every metric, sorted by name. Concurrent
  /// increments may or may not be included (relaxed reads), but the
  /// snapshot never tears a single counter below a value it already read.
  Snapshot snapshot() const;

  /// Zeroes every metric (registrations and addresses survive). Benches
  /// call this so their exported snapshot covers exactly their own run.
  void reset();

  size_t size() const;

 private:
  struct Entry {
    MetricSnapshot::Kind kind;
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;  // sorted => deterministic export
};

/// Prometheus text exposition (format 0.0.4): HELP/TYPE preamble per
/// metric, cumulative `le` buckets plus _sum/_count for histograms.
/// Deterministic: metrics in name order, integers rendered as integers.
std::string to_prometheus(const Snapshot& snap);

/// The same snapshot as one JSON object keyed by metric name; counters and
/// gauges map to numbers, histograms to {"buckets":[[le,count],...],
/// "inf":n,"sum":s,"count":n}. Deterministic: metrics in name order.
Json to_json(const Snapshot& snap);

}  // namespace fact::obs
