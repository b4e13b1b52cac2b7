#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/json.hpp"

namespace fact::obs {

/// Span tracing with explicit clock injection, emitting Chrome
/// trace-event JSON (loads in Perfetto / chrome://tracing).
///
/// Determinism: the tracer never feeds anything back into the code it
/// observes — spans are write-only, and every timestamp comes from the
/// injected Clock, never an ad-hoc wall read inside the instrumented
/// (determinism-checked) path. Tests drive a ManualClock so the emitted
/// JSON itself is byte-deterministic; production uses the steady clock.
///
/// Zero-cost-when-disabled: instrumented code asks `obs::tracer()` (one
/// relaxed atomic load) and constructs a Span only against a non-null,
/// enabled tracer; with no tracer installed a Span is an empty struct and
/// every method is an inline no-op.

/// Time source. now_ns() must be monotonic; it is called from worker
/// threads concurrently.
class Clock {
 public:
  virtual ~Clock() = default;
  virtual uint64_t now_ns() const = 0;
};

/// std::chrono::steady_clock — the production clock.
class SteadyClock : public Clock {
 public:
  uint64_t now_ns() const override;
};

/// Hand-advanced clock for deterministic tests.
class ManualClock : public Clock {
 public:
  uint64_t now_ns() const override {
    return ns_.load(std::memory_order_relaxed);
  }
  void set(uint64_t ns) { ns_.store(ns, std::memory_order_relaxed); }
  void advance(uint64_t d) { ns_.fetch_add(d, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> ns_{0};
};

/// Small stable integer id for the calling thread (dense, assigned on
/// first use); becomes the Chrome trace "tid".
int current_thread_id();

/// Collects trace events; thread-safe (spans end on worker threads).
/// Timestamps are relative to construction, so a trace always starts near
/// t=0 whatever the clock's epoch.
class Tracer {
 public:
  /// `clock` is borrowed and must outlive the tracer; null uses a
  /// built-in SteadyClock.
  explicit Tracer(const Clock* clock = nullptr);

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  uint64_t now_ns() const { return clock_->now_ns(); }

  /// Records one complete ("ph":"X") event; `args` is its "args" object
  /// (null or empty for none).
  void complete(std::string name, const char* cat, uint64_t start_ns,
                uint64_t end_ns, Json args);
  /// Records an instant ("ph":"i") event.
  void instant(std::string name, const char* cat);

  size_t event_count() const;
  void clear();

  /// {"traceEvents":[...],"displayTimeUnit":"ms"} — the Chrome trace
  /// format, directly loadable in Perfetto.
  std::string chrome_json() const;
  void write(const std::string& path) const;  // throws fact::Error

 private:
  struct Event {
    std::string name;
    const char* cat;
    char phase;
    uint64_t ts_ns;
    uint64_t dur_ns;
    int tid;
    Json args;
  };

  const Clock* clock_;
  SteadyClock default_clock_;
  uint64_t epoch_ns_;
  std::atomic<bool> enabled_{true};
  mutable std::mutex mu_;
  std::vector<Event> events_;
};

/// The process-wide tracer, or null when tracing is off (the default).
/// `factc --trace-out` installs one around the optimization run.
Tracer* tracer();
void set_tracer(Tracer* t);

/// RAII span: records a complete event covering its lifetime. A Span
/// constructed against a null or disabled tracer does nothing at all.
class Span {
 public:
  Span() = default;
  Span(Tracer* t, const char* name, const char* cat = "fact")
      : tracer_(t && t->enabled() ? t : nullptr), name_(name), cat_(cat) {
    if (tracer_) start_ns_ = tracer_->now_ns();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  Span(Span&& o) noexcept { *this = std::move(o); }
  Span& operator=(Span&& o) noexcept {
    finish();
    tracer_ = o.tracer_;
    name_ = o.name_;
    cat_ = o.cat_;
    start_ns_ = o.start_ns_;
    args_ = std::move(o.args_);
    o.tracer_ = nullptr;
    return *this;
  }
  ~Span() { finish(); }

  /// Annotation, rendered into the event's "args" object: anything a Json
  /// is built from (string, number, bool). An inert span builds nothing.
  template <typename T>
  void arg(const char* key, T&& value) {
    if (tracer_) args_.set(key, Json(std::forward<T>(value)));
  }

  /// Ends the span now (idempotent; the destructor calls it too).
  void finish();

 private:
  Tracer* tracer_ = nullptr;
  const char* name_ = "";
  const char* cat_ = "";
  uint64_t start_ns_ = 0;
  Json args_;
};

/// Convenience: a span on the process-wide tracer (no-op when none).
inline Span span(const char* name, const char* cat = "fact") {
  return Span(tracer(), name, cat);
}

}  // namespace fact::obs
