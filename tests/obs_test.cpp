// Tests of the observability layer: the lock-striped metrics registry
// (exact counts under concurrency, histogram bucket semantics, export
// formats pinned by a golden file) and the span tracer (deterministic
// Chrome trace JSON under a ManualClock, strict no-op when disabled).

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace {

using namespace fact;

// ---- metrics -------------------------------------------------------------

TEST(Obs, CounterSumsExactlyAcrossThreads) {
  obs::Counter c;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i) c.inc();
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), uint64_t(kThreads) * kIncrements);
  c.inc(42);
  EXPECT_EQ(c.value(), uint64_t(kThreads) * kIncrements + 42);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Obs, HistogramBucketBoundariesAreLe) {
  obs::Histogram h({1.0, 2.0, 4.0});
  // `le` semantics: an observation equal to a bound lands in that bound's
  // bucket; past the last bound lands in +Inf.
  h.observe(0.5);   // le=1
  h.observe(1.0);   // le=1 (boundary is inclusive)
  h.observe(1.5);   // le=2
  h.observe(4.0);   // le=4
  h.observe(4.01);  // +Inf
  const auto counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 4.0 + 4.01);
}

TEST(Obs, HistogramRejectsBadBounds) {
  EXPECT_THROW(obs::Histogram({}), Error);
  EXPECT_THROW(obs::Histogram({1.0, 1.0}), Error);
  EXPECT_THROW(obs::Histogram({2.0, 1.0}), Error);
}

TEST(Obs, HistogramExactUnderConcurrentObserve) {
  obs::Histogram h({10.0});
  constexpr int kThreads = 8;
  constexpr int kObservations = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      for (int i = 0; i < kObservations; ++i) h.observe(1.0);
    });
  for (auto& t : threads) t.join();
  // Counts are exact; the CAS-added sum of exactly-representable values
  // is too (1.0 added 40000 times has no rounding).
  EXPECT_EQ(h.count(), uint64_t(kThreads) * kObservations);
  EXPECT_DOUBLE_EQ(h.sum(), double(kThreads) * kObservations);
  EXPECT_EQ(h.bucket_counts()[0], uint64_t(kThreads) * kObservations);
  EXPECT_EQ(h.bucket_counts()[1], 0u);
}

TEST(Obs, RegistryReturnsStableMetricAndRejectsKindClash) {
  obs::Registry reg;
  obs::Counter& a = reg.counter("x_total", "help one");
  a.inc(3);
  // Re-registering the same name hands back the same metric (the second
  // help string is ignored), so function-local statics in different TUs
  // all share one counter.
  obs::Counter& b = reg.counter("x_total", "help two");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.value(), 3u);
  EXPECT_EQ(reg.size(), 1u);
  // The same name as a different kind is a bug, not a silent alias.
  EXPECT_THROW(reg.gauge("x_total"), Error);
  EXPECT_THROW(reg.histogram("x_total", {1.0}), Error);
  obs::Histogram& h = reg.histogram("h", {1.0, 2.0});
  obs::Histogram& h2 = reg.histogram("h", {99.0});  // original bounds win
  EXPECT_EQ(&h, &h2);
  EXPECT_EQ(h2.bounds().size(), 2u);
}

TEST(Obs, RegistryResetZeroesButKeepsAddresses) {
  obs::Registry reg;
  obs::Counter& c = reg.counter("c_total");
  obs::Gauge& g = reg.gauge("g");
  obs::Histogram& h = reg.histogram("h", {1.0});
  c.inc(5);
  g.set(-7);
  h.observe(0.5);
  reg.reset();
  EXPECT_EQ(&c, &reg.counter("c_total"));
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  EXPECT_EQ(reg.size(), 3u);
}

/// A registry nothing else writes to, with one metric of each kind and
/// known values — the fixture behind the export-format tests.
obs::Snapshot export_fixture() {
  static obs::Registry* reg = [] {
    auto* r = new obs::Registry();
    r->counter("fact_test_requests_total", "Requests served.").inc(3);
    r->gauge("fact_test_queue_depth", "Queue depth.").set(-2);
    obs::Histogram& h =
        r->histogram("fact_test_latency_ms", {1.0, 2.5, 10.0}, "Latency.");
    h.observe(0.5);
    h.observe(2.5);
    h.observe(100.0);
    return r;
  }();
  return reg->snapshot();
}

TEST(Obs, PrometheusTextMatchesGolden) {
  const std::string got = obs::to_prometheus(export_fixture());
  const std::string path = std::string(FACT_TEST_DATA_DIR) +
                           "/metrics_golden.prom";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path;
  std::stringstream want;
  want << in.rdbuf();
  EXPECT_EQ(got, want.str())
      << "Prometheus exposition drifted from the golden file. If the "
         "change is intentional, update tests/data/metrics_golden.prom.";
}

TEST(Obs, JsonExportParseableAndExact) {
  const Json snap = Json::parse(obs::to_json(export_fixture()).dump());
  EXPECT_EQ(snap.get_int("fact_test_requests_total"), 3);
  EXPECT_EQ(snap.get_int("fact_test_queue_depth"), -2);
  const Json* h = snap.get("fact_test_latency_ms");
  ASSERT_TRUE(h != nullptr);
  EXPECT_EQ(h->get_int("count"), 3);
  EXPECT_DOUBLE_EQ(h->get_double("sum"), 103.0);
  EXPECT_EQ(h->get_int("inf"), 1);
  const Json* buckets = h->get("buckets");
  ASSERT_TRUE(buckets != nullptr);
  ASSERT_EQ(buckets->size(), 3u);
  EXPECT_DOUBLE_EQ(buckets->at(0).at(0).as_double(), 1.0);
  EXPECT_EQ(buckets->at(0).at(1).as_int(), 1);
  EXPECT_DOUBLE_EQ(buckets->at(1).at(0).as_double(), 2.5);
  EXPECT_EQ(buckets->at(1).at(1).as_int(), 1);
  EXPECT_EQ(buckets->at(2).at(1).as_int(), 0);
}

TEST(Obs, ExportsEscapeNamesAndArgs) {
  // Quotes, backslashes and control characters in a metric name, a span
  // name or a span argument come back unchanged through a parse of either
  // export.
  const std::string odd = "q\"b\\n\nt\tu\x01";
  obs::Registry reg;
  reg.counter(odd).inc(7);
  const Json snap = Json::parse(obs::to_json(reg.snapshot()).dump());
  EXPECT_EQ(snap.get_int(odd), 7);

  obs::ManualClock clock;
  obs::Tracer tracer(&clock);
  {
    obs::Span sp(&tracer, odd.c_str());
    sp.arg("value", odd);
    sp.arg(odd.c_str(), 1);
  }
  const Json trace = Json::parse(tracer.chrome_json());
  const Json& event = trace.get("traceEvents")->at(0);
  EXPECT_EQ(event.get_string("name"), odd);
  const Json* args = event.get("args");
  ASSERT_TRUE(args != nullptr);
  EXPECT_EQ(args->get_string("value"), odd);
  EXPECT_EQ(args->get_int(odd), 1);
}

TEST(Obs, GlobalRegistryHasProcessMetrics) {
  // The process-wide registry: register-once semantics mean this test
  // neither disturbs nor depends on what other tests incremented.
  obs::Counter& c = obs::Registry::global().counter("fact_obs_test_total");
  const uint64_t before = c.value();
  c.inc();
  EXPECT_EQ(c.value(), before + 1);
}

// ---- tracing -------------------------------------------------------------

TEST(Obs, TracerEmitsDeterministicChromeJson) {
  obs::ManualClock clock;
  clock.set(0);
  obs::Tracer tracer(&clock);
  clock.set(1000);
  {
    obs::Span sp(&tracer, "work", "opt");
    sp.arg("transform", "unroll");
    sp.arg("n", 3);
    sp.arg("ratio", 2.5);
    sp.arg("hit", true);
    clock.advance(2500);
  }
  ASSERT_EQ(tracer.event_count(), 1u);
  const int tid = obs::current_thread_id();
  const std::string want =
      "{\"traceEvents\":[{\"name\":\"work\",\"cat\":\"opt\",\"ph\":\"X\","
      "\"ts\":1,\"dur\":2.500,\"pid\":1,\"tid\":" +
      std::to_string(tid) +
      ",\"args\":{\"transform\":\"unroll\",\"n\":3,\"ratio\":2.5,"
      "\"hit\":true}}],\"displayTimeUnit\":\"ms\"}";
  EXPECT_EQ(tracer.chrome_json(), want);
  // And it really is JSON.
  const Json parsed = Json::parse(tracer.chrome_json());
  EXPECT_EQ(parsed.get("traceEvents")->size(), 1u);
}

TEST(Obs, TracerInstantEventsAndClear) {
  obs::ManualClock clock;
  obs::Tracer tracer(&clock);
  clock.set(5000);
  tracer.instant("mark", "fact");
  ASSERT_EQ(tracer.event_count(), 1u);
  const std::string json = tracer.chrome_json();
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":5"), std::string::npos);
  EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);
  tracer.clear();
  EXPECT_EQ(tracer.event_count(), 0u);
  EXPECT_EQ(tracer.chrome_json(),
            "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}");
}

TEST(Obs, SpanIsNoOpWithoutTracer) {
  // No global tracer installed (the default): spans vanish.
  ASSERT_EQ(obs::tracer(), nullptr);
  {
    obs::Span sp = obs::span("ghost", "opt");
    sp.arg("k", 1);
  }
  // A disabled tracer is just as inert, even when passed explicitly.
  obs::ManualClock clock;
  obs::Tracer tracer(&clock);
  tracer.set_enabled(false);
  {
    obs::Span sp(&tracer, "ghost2");
    sp.arg("k", 2);
  }
  EXPECT_EQ(tracer.event_count(), 0u);
}

TEST(Obs, SpanMoveTransfersOwnershipAndFinishIsIdempotent) {
  obs::ManualClock clock;
  obs::Tracer tracer(&clock);
  {
    obs::Span a(&tracer, "moved");
    obs::Span b = std::move(a);
    b.finish();
    b.finish();  // idempotent
  }                // a's destructor must not double-record
  EXPECT_EQ(tracer.event_count(), 1u);
}

TEST(Obs, SpansFromManyThreadsAllRecorded) {
  obs::ManualClock clock;
  obs::Tracer tracer(&clock);
  constexpr int kThreads = 8;
  constexpr int kSpans = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      for (int i = 0; i < kSpans; ++i) obs::Span sp(&tracer, "w");
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(tracer.event_count(), size_t(kThreads) * kSpans);
  EXPECT_NO_THROW(Json::parse(tracer.chrome_json()));
}

}  // namespace
