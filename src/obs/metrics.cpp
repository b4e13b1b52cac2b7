#include "obs/metrics.hpp"

#include <algorithm>
#include <cstring>

#include "util/error.hpp"
#include "util/strfmt.hpp"

namespace fact::obs {

// ---- Histogram -----------------------------------------------------------

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  if (bounds_.empty())
    throw Error("histogram needs at least one bucket bound");
  for (size_t i = 1; i < bounds_.size(); ++i)
    if (!(bounds_[i - 1] < bounds_[i]))
      throw Error("histogram bounds must be strictly increasing");
  counts_ = std::make_unique<std::atomic<uint64_t>[]>(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) counts_[i].store(0);
}

void Histogram::observe(double v) {
  // First bound >= v (le semantics); past the last bound lands in +Inf.
  const size_t i = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin());
  counts_[i].fetch_add(1, std::memory_order_relaxed);
  uint64_t old_bits = sum_bits_.load(std::memory_order_relaxed);
  for (;;) {
    double old_sum;
    std::memcpy(&old_sum, &old_bits, sizeof old_sum);
    const double new_sum = old_sum + v;
    uint64_t new_bits;
    std::memcpy(&new_bits, &new_sum, sizeof new_bits);
    if (sum_bits_.compare_exchange_weak(old_bits, new_bits,
                                        std::memory_order_relaxed))
      return;
  }
}

std::vector<uint64_t> Histogram::bucket_counts() const {
  std::vector<uint64_t> out(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i)
    out[i] = counts_[i].load(std::memory_order_relaxed);
  return out;
}

uint64_t Histogram::count() const {
  uint64_t n = 0;
  for (size_t i = 0; i <= bounds_.size(); ++i)
    n += counts_[i].load(std::memory_order_relaxed);
  return n;
}

double Histogram::sum() const {
  const uint64_t bits = sum_bits_.load(std::memory_order_relaxed);
  double s;
  std::memcpy(&s, &bits, sizeof s);
  return s;
}

void Histogram::reset() {
  for (size_t i = 0; i <= bounds_.size(); ++i)
    counts_[i].store(0, std::memory_order_relaxed);
  sum_bits_.store(0, std::memory_order_relaxed);
}

// ---- Registry ------------------------------------------------------------

Registry& Registry::global() {
  static Registry* g = new Registry();  // leaked: outlives static teardown
  return *g;
}

Counter& Registry::counter(const std::string& name, const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    Entry e;
    e.kind = MetricSnapshot::Kind::Counter;
    e.help = help;
    e.counter = std::make_unique<Counter>();
    it = entries_.emplace(name, std::move(e)).first;
  } else if (it->second.kind != MetricSnapshot::Kind::Counter) {
    throw Error("metric '" + name + "' already registered as a non-counter");
  }
  return *it->second.counter;
}

Gauge& Registry::gauge(const std::string& name, const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    Entry e;
    e.kind = MetricSnapshot::Kind::Gauge;
    e.help = help;
    e.gauge = std::make_unique<Gauge>();
    it = entries_.emplace(name, std::move(e)).first;
  } else if (it->second.kind != MetricSnapshot::Kind::Gauge) {
    throw Error("metric '" + name + "' already registered as a non-gauge");
  }
  return *it->second.gauge;
}

Histogram& Registry::histogram(const std::string& name,
                               std::vector<double> bounds,
                               const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    Entry e;
    e.kind = MetricSnapshot::Kind::Histogram;
    e.help = help;
    e.histogram = std::make_unique<Histogram>(std::move(bounds));
    it = entries_.emplace(name, std::move(e)).first;
  } else if (it->second.kind != MetricSnapshot::Kind::Histogram) {
    throw Error("metric '" + name + "' already registered as a non-histogram");
  }
  return *it->second.histogram;
}

Snapshot Registry::snapshot() const {
  Snapshot snap;
  std::lock_guard<std::mutex> lock(mu_);
  snap.metrics.reserve(entries_.size());
  for (const auto& [name, e] : entries_) {
    MetricSnapshot m;
    m.name = name;
    m.help = e.help;
    m.kind = e.kind;
    switch (e.kind) {
      case MetricSnapshot::Kind::Counter:
        m.counter_value = e.counter->value();
        break;
      case MetricSnapshot::Kind::Gauge:
        m.gauge_value = e.gauge->value();
        break;
      case MetricSnapshot::Kind::Histogram:
        m.bounds = e.histogram->bounds();
        m.bucket_counts = e.histogram->bucket_counts();
        m.count = 0;
        for (uint64_t c : m.bucket_counts) m.count += c;
        m.sum = e.histogram->sum();
        break;
    }
    snap.metrics.push_back(std::move(m));
  }
  return snap;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, e] : entries_) {
    (void)name;
    switch (e.kind) {
      case MetricSnapshot::Kind::Counter: e.counter->reset(); break;
      case MetricSnapshot::Kind::Gauge: e.gauge->reset(); break;
      case MetricSnapshot::Kind::Histogram: e.histogram->reset(); break;
    }
  }
}

size_t Registry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

// ---- export --------------------------------------------------------------

std::string to_prometheus(const Snapshot& snap) {
  std::string out;
  for (const MetricSnapshot& m : snap.metrics) {
    if (!m.help.empty())
      out += "# HELP " + m.name + " " + m.help + "\n";
    switch (m.kind) {
      case MetricSnapshot::Kind::Counter:
        out += "# TYPE " + m.name + " counter\n";
        out += m.name + " " + strfmt("%llu", static_cast<unsigned long long>(
                                                 m.counter_value)) +
               "\n";
        break;
      case MetricSnapshot::Kind::Gauge:
        out += "# TYPE " + m.name + " gauge\n";
        out += m.name + " " +
               strfmt("%lld", static_cast<long long>(m.gauge_value)) + "\n";
        break;
      case MetricSnapshot::Kind::Histogram: {
        out += "# TYPE " + m.name + " histogram\n";
        uint64_t cum = 0;
        for (size_t i = 0; i < m.bounds.size(); ++i) {
          cum += m.bucket_counts[i];
          out += m.name + "_bucket{le=\"" + Json(m.bounds[i]).dump() +
                 "\"} " +
                 strfmt("%llu", static_cast<unsigned long long>(cum)) + "\n";
        }
        cum += m.bucket_counts.back();
        out += m.name + "_bucket{le=\"+Inf\"} " +
               strfmt("%llu", static_cast<unsigned long long>(cum)) + "\n";
        out += m.name + "_sum " + Json(m.sum).dump() + "\n";
        out += m.name + "_count " +
               strfmt("%llu", static_cast<unsigned long long>(cum)) + "\n";
        break;
      }
    }
  }
  return out;
}

Json to_json(const Snapshot& snap) {
  Json out = Json::object();
  for (const MetricSnapshot& m : snap.metrics) {
    switch (m.kind) {
      case MetricSnapshot::Kind::Counter:
        out.set(m.name, m.counter_value);
        break;
      case MetricSnapshot::Kind::Gauge:
        out.set(m.name, m.gauge_value);
        break;
      case MetricSnapshot::Kind::Histogram: {
        Json buckets = Json::array();
        for (size_t i = 0; i < m.bounds.size(); ++i) {
          Json bucket = Json::array();
          bucket.push_back(m.bounds[i]);
          bucket.push_back(m.bucket_counts[i]);
          buckets.push_back(std::move(bucket));
        }
        Json h = Json::object();
        h.set("buckets", std::move(buckets));
        h.set("inf", m.bucket_counts.back());
        h.set("sum", m.sum);
        h.set("count", m.count);
        out.set(m.name, std::move(h));
        break;
      }
    }
  }
  return out;
}

}  // namespace fact::obs
