#include "obs/trace.hpp"

#include <chrono>
#include <fstream>

#include "util/error.hpp"
#include "util/strfmt.hpp"

namespace fact::obs {

uint64_t SteadyClock::now_ns() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

int current_thread_id() {
  static std::atomic<int> next{0};
  thread_local const int id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

// ---- Tracer --------------------------------------------------------------

Tracer::Tracer(const Clock* clock) : clock_(clock ? clock : &default_clock_) {
  epoch_ns_ = clock_->now_ns();
}

void Tracer::complete(std::string name, const char* cat, uint64_t start_ns,
                      uint64_t end_ns, Json args) {
  Event e;
  e.name = std::move(name);
  e.cat = cat;
  e.phase = 'X';
  e.ts_ns = start_ns >= epoch_ns_ ? start_ns - epoch_ns_ : 0;
  e.dur_ns = end_ns >= start_ns ? end_ns - start_ns : 0;
  e.tid = current_thread_id();
  e.args = std::move(args);
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(std::move(e));
}

void Tracer::instant(std::string name, const char* cat) {
  Event e;
  e.name = std::move(name);
  e.cat = cat;
  e.phase = 'i';
  const uint64_t now = clock_->now_ns();
  e.ts_ns = now >= epoch_ns_ ? now - epoch_ns_ : 0;
  e.dur_ns = 0;
  e.tid = current_thread_id();
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(std::move(e));
}

size_t Tracer::event_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
}

namespace {

/// Chrome trace timestamps are microseconds; keep nanosecond resolution
/// with three decimals, trimmed of a trailing ".000" so whole-µs values
/// (the ManualClock tests) render as plain integers.
std::string render_us(uint64_t ns) {
  std::string s = strfmt("%llu.%03llu",
                         static_cast<unsigned long long>(ns / 1000),
                         static_cast<unsigned long long>(ns % 1000));
  if (s.size() >= 4 && s.compare(s.size() - 4, 4, ".000") == 0)
    s.resize(s.size() - 4);
  return s;
}

}  // namespace

std::string Tracer::chrome_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const Event& e : events_) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":";
    out += Json(e.name).dump();
    out += ",\"cat\":";
    out += Json(e.cat).dump();
    out += strfmt(",\"ph\":\"%c\",\"ts\":", e.phase);
    out += render_us(e.ts_ns);
    if (e.phase == 'X') {
      out += ",\"dur\":";
      out += render_us(e.dur_ns);
    }
    if (e.phase == 'i') out += ",\"s\":\"t\"";
    out += strfmt(",\"pid\":1,\"tid\":%d", e.tid);
    if (e.args.size()) {
      out += ",\"args\":";
      out += e.args.dump();
    }
    out += "}";
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw Error("cannot write " + path);
  out << chrome_json() << "\n";
}

// ---- global tracer -------------------------------------------------------

namespace {
std::atomic<Tracer*> g_tracer{nullptr};
}  // namespace

Tracer* tracer() { return g_tracer.load(std::memory_order_relaxed); }
void set_tracer(Tracer* t) { g_tracer.store(t, std::memory_order_relaxed); }

// ---- Span ----------------------------------------------------------------

void Span::finish() {
  if (!tracer_) return;
  Tracer* t = tracer_;
  tracer_ = nullptr;
  t->complete(name_, cat_, start_ns_, t->now_ns(), std::move(args_));
}

}  // namespace fact::obs
