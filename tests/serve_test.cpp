// Unit and in-process tests of the factd service layer: the JSON wire
// format, the socket line transport, the Service (sessions, shared cache,
// bounded queue, cancellation, shutdown-while-busy) and the Server
// (per-connection response ordering over a real unix socket).

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "hlslib/library.hpp"
#include "opt/fact.hpp"
#include "serve/json.hpp"
#include "serve/net.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "util/error.hpp"
#include "verify/verify.hpp"
#include "workloads/workloads.hpp"
#include "xform/transform.hpp"

namespace {

using fact::serve::Json;

// ---- JSON ----------------------------------------------------------------

TEST(ServeJson, RoundTripsScalarsAndContainers) {
  Json obj = Json::object();
  obj.set("b", true);
  obj.set("n", 42);
  obj.set("f", 2.5);
  obj.set("s", "hi\n\"there\"\\");
  Json arr = Json::array();
  arr.push_back(1).push_back(Json()).push_back("x");
  obj.set("a", std::move(arr));

  const std::string text = obj.dump();
  EXPECT_EQ(text,
            "{\"b\":true,\"n\":42,\"f\":2.5,"
            "\"s\":\"hi\\n\\\"there\\\"\\\\\",\"a\":[1,null,\"x\"]}");

  const Json back = Json::parse(text);
  EXPECT_TRUE(back.get_bool("b"));
  EXPECT_EQ(back.get_int("n"), 42);
  EXPECT_DOUBLE_EQ(back.get_double("f"), 2.5);
  EXPECT_EQ(back.get_string("s"), "hi\n\"there\"\\");
  ASSERT_TRUE(back.get("a") != nullptr);
  EXPECT_EQ(back.get("a")->size(), 3u);
  EXPECT_TRUE(back.get("a")->at(1).is_null());
  // dump(parse(dump(x))) is a fixpoint — the determinism the e2e test
  // leans on.
  EXPECT_EQ(back.dump(), text);
}

TEST(ServeJson, PreservesInsertionOrderAndReplacesInPlace) {
  Json obj = Json::object();
  obj.set("z", 1);
  obj.set("a", 2);
  obj.set("z", 3);  // replace keeps position
  EXPECT_EQ(obj.dump(), "{\"z\":3,\"a\":2}");
}

TEST(ServeJson, NumbersRoundTrip) {
  for (const double v : {0.0, -1.0, 1e-3, 119.11, 1234567890123.0, 0.1,
                         1.0 / 3.0, 1e20, -2.5e-7}) {
    const Json parsed = Json::parse(Json(v).dump());
    EXPECT_DOUBLE_EQ(parsed.as_double(), v) << Json(v).dump();
  }
  EXPECT_EQ(Json(42).dump(), "42");
  EXPECT_EQ(Json(-7).dump(), "-7");
}

TEST(ServeJson, ParsesEscapesAndSurrogates) {
  EXPECT_EQ(Json::parse("\"\\u0041\\u00e9\"").as_string(), "A\xc3\xa9");
  // U+1F600 as a surrogate pair.
  EXPECT_EQ(Json::parse("\"\\ud83d\\ude00\"").as_string(),
            "\xf0\x9f\x98\x80");
}

TEST(ServeJson, RejectsMalformedInput) {
  const char* bad[] = {
      "",           "{",           "[1,2",       "{\"a\":}",
      "tru",        "\"unterminated", "{\"a\" 1}", "01x",
      "[1,]",       "{\"a\":1,}",  "\"\\u12g4\"", "\"\\ud800\"",
      "1 2",        "nullx",       "\"a\" extra",
  };
  for (const char* text : bad)
    EXPECT_THROW(Json::parse(text), fact::Error) << text;
}

TEST(ServeJson, RejectsPathologicalNesting) {
  const std::string deep(5000, '[');
  EXPECT_THROW(Json::parse(deep), fact::Error);
  // A modest depth parses fine.
  std::string ok;
  for (int i = 0; i < 30; ++i) ok += "[";
  ok += "1";
  for (int i = 0; i < 30; ++i) ok += "]";
  EXPECT_NO_THROW(Json::parse(ok));
}

// ---- line transport ------------------------------------------------------

TEST(ServeNet, LineReaderReassemblesSplitLines) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  fact::serve::LineReader reader(fds[0]);

  // One line split across writes, two lines in one write, and an
  // unterminated fragment that EOF must not surface as a line.
  const char* chunks[] = {"hel", "lo\n", "world\nx\n", "tail-no-newline"};
  for (const char* c : chunks)
    ASSERT_GT(::send(fds[1], c, strlen(c), 0), 0);
  ::close(fds[1]);

  std::string line;
  ASSERT_TRUE(reader.next(line));
  EXPECT_EQ(line, "hello");
  ASSERT_TRUE(reader.next(line));
  EXPECT_EQ(line, "world");
  ASSERT_TRUE(reader.next(line));
  EXPECT_EQ(line, "x");
  EXPECT_FALSE(reader.next(line));  // the tail fragment is not a line
  ::close(fds[0]);
}

TEST(ServeNet, LineReaderRejectsOversizedLine) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  fact::serve::LineReader reader(fds[0], 64);
  const std::string big(1024, 'x');
  std::thread tx([&] {
    fact::serve::send_line(fds[1], big);
    ::close(fds[1]);
  });
  std::string line;
  EXPECT_THROW(reader.next(line), fact::Error);
  tx.join();
  ::close(fds[0]);
}

// ---- Service -------------------------------------------------------------

Json optimize_request(const std::string& benchmark, int id) {
  Json req = Json::object();
  req.set("type", "optimize");
  req.set("id", id);
  req.set("benchmark", benchmark);
  req.set("quiet", true);
  return req;
}

TEST(Service, RunsOptimizeScheduleAndProfile) {
  fact::serve::Service svc;

  Json opt = optimize_request("GCD", 1);
  const Json& r1 = svc.submit(opt).wait();
  ASSERT_TRUE(r1.get_bool("ok")) << r1.dump();
  EXPECT_EQ(r1.get_int("id"), 1);
  EXPECT_GT(r1.get_double("avg_len"), 0.0);
  EXPECT_FALSE(r1.get_string("report").empty());

  Json sch = Json::object();
  sch.set("type", "schedule");
  sch.set("benchmark", "GCD");
  const Json& r2 = svc.submit(sch).wait();
  ASSERT_TRUE(r2.get_bool("ok")) << r2.dump();
  EXPECT_EQ(r2.get_string("method"), "m1");
  EXPECT_GT(r2.get_double("avg_len"), 0.0);
  const double len_25ns = r2.get_double("avg_len");
  const double power_25ns = r2.get_double("power");

  // The power model runs on the request's clock: GCD's M1 schedule keeps
  // its cycle count at 50 ns, so its power halves.
  sch.set("clock", 50.0);
  const Json& r2_slow = svc.submit(sch).wait();
  ASSERT_TRUE(r2_slow.get_bool("ok")) << r2_slow.dump();
  EXPECT_DOUBLE_EQ(r2_slow.get_double("avg_len"), len_25ns);
  EXPECT_NEAR(r2_slow.get_double("power"), power_25ns / 2, 1e-12 * power_25ns);

  Json prof = Json::object();
  prof.set("type", "profile");
  prof.set("benchmark", "GCD");
  const Json& r3 = svc.submit(prof).wait();
  ASSERT_TRUE(r3.get_bool("ok")) << r3.dump();
  EXPECT_GT(r3.get_int("executions"), 0);
  EXPECT_GT(r3.get_double("avg_steps"), 0.0);

  const fact::serve::StatsSnapshot s = svc.stats();
  EXPECT_EQ(s.completed, 4u);
  EXPECT_EQ(s.failed, 0u);
  EXPECT_GT(s.evaluations, 0u);
}

TEST(Service, ErrorsAreResponsesNeverThrows) {
  fact::serve::Service svc;

  Json unknown = Json::object();
  unknown.set("type", "frobnicate");
  const Json& r1 = svc.submit(unknown).wait();
  EXPECT_FALSE(r1.get_bool("ok"));
  EXPECT_NE(r1.get_string("error").find("unknown request type"),
            std::string::npos);

  Json nofn = Json::object();
  nofn.set("type", "optimize");
  const Json& r2 = svc.submit(nofn).wait();
  EXPECT_FALSE(r2.get_bool("ok"));

  Json badsrc = Json::object();
  badsrc.set("type", "optimize");
  badsrc.set("source", "GCD(int a { while (");  // truncated garbage
  const Json& r3 = svc.submit(badsrc).wait();
  EXPECT_FALSE(r3.get_bool("ok"));
  EXPECT_NE(r3.get_string("error").find("parse error"), std::string::npos);

  Json badbench = Json::object();
  badbench.set("type", "optimize");
  badbench.set("benchmark", "NOPE");
  const Json& r4 = svc.submit(badbench).wait();
  EXPECT_FALSE(r4.get_bool("ok"));

  // The service survives all of it.
  const Json& ok = svc.submit(optimize_request("GCD", 9)).wait();
  EXPECT_TRUE(ok.get_bool("ok")) << ok.dump();
}

TEST(Service, SessionPinsBehaviorAndWarmsCache) {
  fact::serve::Service svc;

  Json first = optimize_request("FIR", 1);
  first.set("session", "fir");
  const Json& r1 = svc.submit(first).wait();
  ASSERT_TRUE(r1.get_bool("ok")) << r1.dump();
  EXPECT_EQ(r1.get_string("session"), "fir");
  EXPECT_EQ(svc.session_count(), 1u);

  // Re-optimize through the session: no behavior fields needed, the warm
  // shared cache serves every evaluation, and the result is identical.
  Json second = Json::object();
  second.set("type", "optimize");
  second.set("id", 2);
  second.set("session", "fir");
  second.set("quiet", true);
  const Json& r2 = svc.submit(second).wait();
  ASSERT_TRUE(r2.get_bool("ok")) << r2.dump();
  EXPECT_GT(r2.get_int("cache_hits"), 0);
  EXPECT_EQ(r2.get_double("avg_len"), r1.get_double("avg_len"));
  EXPECT_EQ(r2.get_string("report"), r1.get_string("report"));
  EXPECT_EQ(r2.get("transforms")->dump(), r1.get("transforms")->dump());
  EXPECT_EQ(svc.session_count(), 1u);

  // An unknown session without a behavior is an error, not a crash.
  Json ghost = Json::object();
  ghost.set("type", "optimize");
  ghost.set("session", "nope");
  const Json& r3 = svc.submit(ghost).wait();
  EXPECT_FALSE(r3.get_bool("ok"));
  EXPECT_NE(r3.get_string("error").find("unknown session"),
            std::string::npos);
}

TEST(Service, SharedCacheCrossesSessions) {
  fact::serve::Service svc;
  Json a = optimize_request("GCD", 1);
  a.set("session", "one");
  Json b = optimize_request("GCD", 2);
  b.set("session", "two");
  const Json& r1 = svc.submit(a).wait();
  ASSERT_TRUE(r1.get_bool("ok")) << r1.dump();
  // A different session over the same behavior hits the process-wide
  // cache: same structural hashes, same objective, same baseline.
  const Json& r2 = svc.submit(b).wait();
  ASSERT_TRUE(r2.get_bool("ok")) << r2.dump();
  EXPECT_GT(r2.get_int("cache_hits"), 0);
  EXPECT_EQ(r2.get_double("avg_len"), r1.get_double("avg_len"));
  EXPECT_EQ(svc.session_count(), 2u);
}

// factd's one EvalCache serves requests under every allocation, clock and
// validation level.
// Each reply of a sequence must equal a cold in-process run_fact of its
// request, its cache hits included: an evaluation cached under one context
// must not serve another.
TEST(Service, CacheKeyedByEvaluationContext) {
  struct Request {
    const char* benchmark;
    const char* objective;
    const char* alloc;  // empty: the benchmark's own
    double clock;
    const char* validate;
  };
  // Each pair of requests has equal baseline lengths, so only the
  // evaluation context tells their evaluations apart.
  const std::vector<std::vector<Request>> sequences = {
      {{"PPS", "throughput", "", 25.0, "fast"},
       {"PPS", "throughput", "a1=2,sb1=2,mt1=2,cp1=2,e1=1,i1=1,n1=1,s1=1",
        25.0, "fast"}},
      {{"GCD", "power", "", 25.0, "fast"}, {"GCD", "power", "", 50.0, "fast"}},
      // A Full evaluation verifies the schedule a Fast one never checked.
      {{"GCD", "throughput", "", 25.0, "fast"},
       {"GCD", "throughput", "", 25.0, "full"}},
  };
  const fact::hlslib::Library lib = fact::hlslib::Library::dac98();
  const fact::hlslib::FuSelection sel =
      fact::hlslib::FuSelection::defaults(lib);
  const fact::xform::TransformLibrary xforms =
      fact::xform::TransformLibrary::standard();
  for (const std::vector<Request>& sequence : sequences) {
    fact::serve::Service svc;
    int id = 0;
    for (const Request& q : sequence) {
      Json req = optimize_request(q.benchmark, ++id);
      req.set("objective", q.objective);
      if (*q.alloc) req.set("alloc", q.alloc);
      req.set("clock", q.clock);
      req.set("validate", q.validate);
      const Json& got = svc.submit(req).wait();
      ASSERT_TRUE(got.get_bool("ok")) << got.dump();

      const fact::workloads::Workload w =
          fact::workloads::by_name(q.benchmark);
      fact::opt::FactOptions fo;
      if (std::string(q.objective) == "power")
        fo.objective = fact::opt::Objective::Power;
      fo.sched.clock_ns = q.clock;
      fo.power.clock_ns = q.clock;
      fo.engine.validate = fact::verify::level_from_string(q.validate);
      const fact::opt::FactResult want = fact::opt::run_fact(
          w.fn, lib,
          *q.alloc ? fact::hlslib::parse_allocation(q.alloc, lib)
                   : w.allocation,
          sel, w.trace, xforms, fo);
      const std::string what = std::string(q.benchmark) + " " +
                               q.objective + " alloc '" + q.alloc +
                               "' clock " + std::to_string(q.clock) +
                               " validate " + q.validate;
      EXPECT_EQ(got.get_string("report"),
                fact::opt::render_fact_report(want, fo.objective, true))
          << what;
      EXPECT_EQ(got.get_double("avg_len"), want.final_avg_len) << what;
      EXPECT_EQ(got.get_double("power"), want.final_power.power) << what;
      EXPECT_EQ(got.get_int("evaluations"),
                static_cast<int64_t>(want.counts.evaluations))
          << what;
      // A request may hit its own flow's entries, never another's.
      EXPECT_EQ(got.get_int("cache_hits"),
                static_cast<int64_t>(want.counts.cache_hits))
          << what;
    }
  }
}

TEST(Service, ResponsesIndependentOfBatchShapeAndWorkers) {
  // The determinism contract: request results do not depend on service
  // concurrency. Compare a wide service (batched dispatch, pool sharing)
  // against a strictly serial one.
  const char* workloads[] = {"GCD", "TEST2", "PPS"};

  fact::serve::ServiceOptions wide;
  wide.workers = 4;
  wide.batch_max = 4;
  fact::serve::Service parallel_svc(wide);
  std::vector<fact::serve::Ticket> tickets;
  int id = 0;
  for (int rep = 0; rep < 2; ++rep)
    for (const char* w : workloads)
      tickets.push_back(parallel_svc.submit(optimize_request(w, ++id)));

  fact::serve::ServiceOptions narrow;
  narrow.workers = 1;
  narrow.batch_max = 1;
  fact::serve::Service serial_svc(narrow);

  for (size_t i = 0; i < tickets.size(); ++i) {
    const Json& wide_resp = tickets[i].wait();
    ASSERT_TRUE(wide_resp.get_bool("ok")) << wide_resp.dump();
    const Json& serial_resp =
        serial_svc
            .submit(optimize_request(workloads[i % 3],
                                     static_cast<int>(i + 1)))
            .wait();
    ASSERT_TRUE(serial_resp.get_bool("ok")) << serial_resp.dump();
    EXPECT_EQ(wide_resp.get_string("report"),
              serial_resp.get_string("report"))
        << workloads[i % 3];
    EXPECT_EQ(wide_resp.get_double("avg_len"),
              serial_resp.get_double("avg_len"));
    EXPECT_EQ(wide_resp.get("transforms")->dump(),
              serial_resp.get("transforms")->dump());
  }
}

TEST(Service, BoundedQueueRejectsOverflow) {
  fact::serve::ServiceOptions o;
  o.workers = 1;
  o.queue_cap = 1;
  o.batch_max = 1;
  fact::serve::Service svc(o);

  std::vector<fact::serve::Ticket> tickets;
  for (int i = 0; i < 5; ++i)
    tickets.push_back(svc.submit(optimize_request("SINTRAN", i + 1)));

  size_t rejected = 0, succeeded = 0;
  for (auto& t : tickets) {
    const Json& r = t.wait();
    if (r.get_bool("ok")) {
      ++succeeded;
    } else {
      EXPECT_NE(r.get_string("error").find("queue full"), std::string::npos)
          << r.dump();
      ++rejected;
    }
  }
  // The dispatcher can hold at most one job with one queued behind it, so
  // of five instant submissions at least two bounce.
  EXPECT_GE(rejected, 2u);
  EXPECT_GE(succeeded, 1u);
  EXPECT_GE(svc.stats().rejected, 2u);
}

TEST(Service, CancelTruncatesOrSkipsJob) {
  fact::serve::ServiceOptions o;
  o.workers = 1;
  fact::serve::Service svc(o);

  // Two jobs: the second queues behind the first, so cancelling it always
  // exercises the cancelled-before-start path; cancelling the first
  // exercises the cooperative in-flight path.
  fact::serve::Ticket t1 = svc.submit(optimize_request("IGF", 1));
  fact::serve::Ticket t2 = svc.submit(optimize_request("IGF", 2));
  EXPECT_TRUE(svc.cancel(t1.id()));
  EXPECT_TRUE(svc.cancel(t2.id()));

  const Json& r1 = t1.wait();
  EXPECT_TRUE(r1.get_bool("cancelled")) << r1.dump();
  if (r1.get_bool("ok")) {
    EXPECT_TRUE(r1.get_bool("truncated")) << r1.dump();
  }
  const Json& r2 = t2.wait();
  EXPECT_TRUE(r2.get_bool("cancelled")) << r2.dump();

  // Cancelling a finished or unknown ticket reports false.
  EXPECT_FALSE(svc.cancel(t1.id()));
  EXPECT_FALSE(svc.cancel(999999));
  EXPECT_GE(svc.stats().cancelled, 1u);
}

TEST(Service, ShutdownWhileBusyCompletesEveryTicket) {
  fact::serve::ServiceOptions o;
  o.workers = 2;
  fact::serve::Service svc(o);
  std::vector<fact::serve::Ticket> tickets;
  for (int i = 0; i < 6; ++i)
    tickets.push_back(svc.submit(optimize_request("SINTRAN", i + 1)));
  svc.stop();
  for (auto& t : tickets) {
    const Json& r = t.wait();  // must not hang
    // Finished normally (possibly truncated by the shutdown cancel), was
    // cancelled in flight, or failed with the shutdown error.
    EXPECT_TRUE(r.get_bool("ok") || !r.get_string("error").empty())
        << r.dump();
  }
  // Submissions after stop fail fast.
  const Json& late = svc.submit(optimize_request("GCD", 99)).wait();
  EXPECT_FALSE(late.get_bool("ok"));
}

// ---- Server over a real unix socket --------------------------------------

std::string test_socket_path(const char* tag) {
  return "/tmp/fact_serve_test_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + ".sock";
}

TEST(Server, OrderedResponsesOverUnixSocket) {
  const std::string path = test_socket_path("order");
  fact::serve::Service svc;
  fact::serve::ServerOptions so;
  so.unix_path = path;
  fact::serve::Server server(svc, so);
  std::thread runner([&] { server.run(); });

  const int fd = fact::serve::connect_unix(path);
  // Pipelined mix: immediate (status), queued (optimize/schedule), broken
  // (bad json, unknown type). Responses must come back 1:1 in order.
  fact::serve::send_line(fd, "{\"type\":\"status\",\"id\":1}");
  Json opt = optimize_request("GCD", 2);
  fact::serve::send_line(fd, opt.dump());
  fact::serve::send_line(fd, "this is not json");
  fact::serve::send_line(fd, "{\"type\":\"mystery\",\"id\":4}");
  fact::serve::send_line(fd, "{\"type\":\"schedule\",\"id\":5,"
                             "\"benchmark\":\"GCD\"}");

  fact::serve::LineReader reader(fd);
  std::string line;
  std::vector<Json> resps;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(reader.next(line)) << "response " << i;
    resps.push_back(Json::parse(line));
  }
  EXPECT_EQ(resps[0].get_string("type"), "status");
  EXPECT_TRUE(resps[0].get_bool("ok"));
  EXPECT_EQ(resps[1].get_int("id"), 2);
  EXPECT_TRUE(resps[1].get_bool("ok")) << resps[1].dump();
  EXPECT_FALSE(resps[2].get_bool("ok"));
  EXPECT_NE(resps[2].get_string("error").find("bad json"),
            std::string::npos);
  EXPECT_FALSE(resps[3].get_bool("ok"));
  EXPECT_EQ(resps[3].get_int("id"), 4);
  EXPECT_EQ(resps[4].get_int("id"), 5);
  EXPECT_TRUE(resps[4].get_bool("ok")) << resps[4].dump();

  fact::serve::send_line(fd, "{\"type\":\"shutdown\",\"id\":6}");
  ASSERT_TRUE(reader.next(line));
  EXPECT_TRUE(Json::parse(line).get_bool("ok"));
  fact::serve::close_fd(fd);
  runner.join();  // shutdown request ends run()
}

TEST(Server, CancelTargetsEarlierRequestOnConnection) {
  const std::string path = test_socket_path("cancel");
  fact::serve::ServiceOptions o;
  o.workers = 1;
  fact::serve::Service svc(o);
  fact::serve::ServerOptions so;
  so.unix_path = path;
  fact::serve::Server server(svc, so);
  std::thread runner([&] { server.run(); });

  const int fd = fact::serve::connect_unix(path);
  Json slow1 = optimize_request("IGF", 1);
  Json slow2 = optimize_request("IGF", 2);
  fact::serve::send_line(fd, slow1.dump());
  fact::serve::send_line(fd, slow2.dump());
  // Cancel request 2 (still queued behind 1 on a single worker).
  fact::serve::send_line(fd, "{\"type\":\"cancel\",\"id\":3,\"target\":2}");

  fact::serve::LineReader reader(fd);
  std::string line;
  std::vector<Json> resps;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(reader.next(line));
    resps.push_back(Json::parse(line));
  }
  // Responses arrive in request order: 1, 2, then the cancel ack.
  EXPECT_EQ(resps[0].get_int("id"), 1);
  EXPECT_EQ(resps[1].get_int("id"), 2);
  EXPECT_TRUE(resps[1].get_bool("cancelled")) << resps[1].dump();
  EXPECT_EQ(resps[2].get_string("type"), "cancel");
  EXPECT_TRUE(resps[2].get_bool("ok"));
  EXPECT_TRUE(resps[2].get_bool("cancelled")) << resps[2].dump();

  fact::serve::shutdown_fd(fd);
  fact::serve::close_fd(fd);
  server.stop();
  runner.join();
}

// ---- stats & metrics -----------------------------------------------------

/// The sample value on a `name value` exposition line, or -1 if absent.
long long prom_value(const std::string& text, const std::string& name) {
  size_t pos = 0;
  while ((pos = text.find(name + " ", pos)) != std::string::npos) {
    if (pos == 0 || text[pos - 1] == '\n')
      return std::stoll(text.substr(pos + name.size() + 1));
    ++pos;
  }
  return -1;
}

TEST(Service, StatsResponseInventoriesSessions) {
  fact::serve::Service svc;
  Json req = optimize_request("GCD", 1);
  req.set("session", "obs-test");
  ASSERT_TRUE(svc.submit(req).wait().get_bool("ok"));

  const Json resp = svc.stats_response();
  EXPECT_TRUE(resp.get_bool("ok"));
  EXPECT_EQ(resp.get_string("type"), "stats");
  EXPECT_GE(resp.get_double("uptime_ms"), 0.0);
  EXPECT_EQ(resp.get_int("sessions"), 1);
  // wait() returns when the ticket completes, which can be a beat before
  // the dispatcher retires the job from its in-flight accounting — so
  // bound these rather than pinning them to zero.
  EXPECT_LE(resp.get_int("queue_depth"), 1);
  EXPECT_LE(resp.get_int("in_flight"), 1);
  EXPECT_GT(resp.get_int("cache_entries"), 0);
  EXPECT_GE(resp.get_int("cache_cap"), resp.get_int("cache_entries"));
  const Json* list = resp.get("session_list");
  ASSERT_TRUE(list != nullptr);
  ASSERT_EQ(list->size(), 1u);
  EXPECT_EQ(list->at(0).get_string("name"), "obs-test");
  EXPECT_EQ(list->at(0).get_int("requests"), 1);
  EXPECT_TRUE(list->at(0).get_bool("trace_pinned"));
}

TEST(Service, MetricsTextIsPrometheusWithLiveCounters) {
  fact::serve::Service svc;
  ASSERT_TRUE(svc.submit(optimize_request("GCD", 1)).wait().get_bool("ok"));

  const std::string text = svc.metrics_text();
  EXPECT_NE(text.find("# TYPE fact_serve_completed_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE fact_serve_sessions gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE fact_eval_requests_total counter"),
            std::string::npos);
  // Counters are process-global, so exact values depend on test order —
  // but this service just completed a job, so they cannot be zero.
  EXPECT_GE(prom_value(text, "fact_serve_completed_total"), 1);
  EXPECT_GE(prom_value(text, "fact_eval_requests_total"), 1);
  EXPECT_GE(prom_value(text, "fact_search_generations_total"), 1);
  EXPECT_EQ(prom_value(text, "fact_serve_queue_depth"), 0);
}

TEST(Server, StatsAndMetricsRequestsOverSocket) {
  const std::string path = test_socket_path("stats");
  fact::serve::Service svc;
  fact::serve::ServerOptions so;
  so.unix_path = path;
  fact::serve::Server server(svc, so);
  std::thread runner([&] { server.run(); });

  const int fd = fact::serve::connect_unix(path);
  fact::serve::LineReader reader(fd);
  std::string line;
  std::vector<Json> resps;
  // stats/metrics responses are computed the moment the request line is
  // read (they only *deliver* in order), so consume the optimize response
  // before asking for counters that job must have bumped.
  fact::serve::send_line(fd, optimize_request("GCD", 1).dump());
  ASSERT_TRUE(reader.next(line));
  resps.push_back(Json::parse(line));
  fact::serve::send_line(fd, "{\"type\":\"stats\",\"id\":2}");
  fact::serve::send_line(fd, "{\"type\":\"metrics\",\"id\":3}");
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(reader.next(line));
    resps.push_back(Json::parse(line));
  }
  EXPECT_TRUE(resps[0].get_bool("ok")) << resps[0].dump();
  EXPECT_EQ(resps[1].get_int("id"), 2);
  EXPECT_EQ(resps[1].get_string("type"), "stats");
  EXPECT_GE(resps[1].get_double("uptime_ms"), 0.0);
  EXPECT_EQ(resps[2].get_int("id"), 3);
  EXPECT_EQ(resps[2].get_string("type"), "metrics");
  EXPECT_EQ(resps[2].get_string("content_type"),
            "text/plain; version=0.0.4");
  const std::string body = resps[2].get_string("body");
  EXPECT_NE(body.find("# TYPE fact_serve_completed_total counter"),
            std::string::npos);
  EXPECT_GE(prom_value(body, "fact_serve_completed_total"), 1);

  fact::serve::shutdown_fd(fd);
  fact::serve::close_fd(fd);
  server.stop();
  runner.join();
}

}  // namespace
