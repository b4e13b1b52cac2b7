// factd — the FACT optimization service.
//
//   factd --unix /tmp/factd.sock [--tcp-port 7333] [options]
//
// Line-delimited JSON over unix-domain and/or TCP sockets: one request
// object per line, one response object per line, responses in request
// order per connection. Request types: optimize, schedule, profile,
// status, stats, metrics, cancel, shutdown (see README "Running factd").
//
// Options:
//   --unix <path>       listen on a unix-domain socket
//   --tcp-port <n>      listen on TCP (0 = ephemeral; the chosen port is
//                       printed on startup)
//   --tcp-host <addr>   TCP bind address (default 127.0.0.1)
//   --workers <n>       shared worker-pool threads (default: hardware)
//   --queue-cap <n>     bounded job queue length (default 256)
//   --batch-max <n>     jobs dispatched per wave (default: pool threads)
//   --cache-cap <n>     shared EvalCache capacity (default 262144)
//   --stats-interval <s> print a periodic stats line every <s> seconds
//   --quiet             no startup/shutdown banner

#include <cinttypes>
#include <cstdio>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>

#include "serve/server.hpp"
#include "serve/service.hpp"
#include "util/error.hpp"

namespace {

using namespace fact;

struct Args {
  serve::ServiceOptions service;
  serve::ServerOptions server;
  long stats_interval_s = 0;  // 0 = no periodic stats line
  bool quiet = false;
};

[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg) fprintf(stderr, "factd: %s\n", msg);
  fprintf(stderr,
          "usage: factd [--unix <path>] [--tcp-port <n>] [--tcp-host <addr>]\n"
          "  [--workers <n>] [--queue-cap <n>] [--batch-max <n>]\n"
          "  [--cache-cap <n>] [--stats-interval <s>] [--quiet]\n");
  exit(2);
}

long parse_long(const std::string& text, const std::string& opt) {
  try {
    size_t pos = 0;
    const long v = std::stol(text, &pos);
    if (pos != text.size()) throw Error("");
    return v;
  } catch (const std::exception&) {
    throw Error("bad numeric value '" + text + "' for " + opt);
  }
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string inline_value;
    bool has_inline = false;
    if (arg.size() > 2 && arg[0] == '-' && arg[1] == '-') {
      const size_t eq = arg.find('=');
      if (eq != std::string::npos) {
        inline_value = arg.substr(eq + 1);
        has_inline = true;
        arg = arg.substr(0, eq);
      }
    }
    auto next = [&]() -> std::string {
      if (has_inline) return inline_value;
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    auto count = [&]() {  // negative would wrap: --queue-cap -1 = no bound
      const std::string text = next();
      const long v = parse_long(text, arg);
      if (v < 0) usage((arg + " must be >= 0, got " + text).c_str());
      return v;
    };
    if (arg == "--unix") a.server.unix_path = next();
    else if (arg == "--tcp-port") a.server.tcp_port = static_cast<int>(parse_long(next(), arg));
    else if (arg == "--tcp-host") a.server.tcp_host = next();
    else if (arg == "--workers") a.service.workers = static_cast<int>(count());
    else if (arg == "--queue-cap") a.service.queue_cap = static_cast<size_t>(count());
    else if (arg == "--batch-max") a.service.batch_max = static_cast<size_t>(count());
    else if (arg == "--cache-cap") a.service.cache_cap = static_cast<size_t>(count());
    else if (arg == "--stats-interval") a.stats_interval_s = count();
    else if (arg == "--quiet") a.quiet = true;
    else if (arg == "--help" || arg == "-h") usage();
    else usage(("unknown option " + arg).c_str());
  }
  if (a.server.unix_path.empty() && a.server.tcp_port < 0)
    usage("provide --unix <path> and/or --tcp-port <n>");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    serve::Service service(args.service);
    serve::Server server(service, args.server);
    if (!args.quiet) {
      if (!server.unix_path().empty())
        printf("factd: listening on unix:%s\n", server.unix_path().c_str());
      if (server.tcp_port() >= 0)
        printf("factd: listening on tcp://%s:%d\n",
               args.server.tcp_host.c_str(), server.tcp_port());
      // Scripts wait for the banner before connecting.
      fflush(stdout);
    }

    // Periodic operational stats on stderr (stdout stays protocol-clean
    // for banner-watching scripts). Interruptible sleep so shutdown never
    // waits out a full interval.
    std::thread stats_thread;
    std::mutex stats_mu;
    std::condition_variable stats_cv;
    bool stats_stop = false;
    if (args.stats_interval_s > 0) {
      stats_thread = std::thread([&] {
        const auto interval = std::chrono::seconds(args.stats_interval_s);
        std::unique_lock<std::mutex> lk(stats_mu);
        while (!stats_cv.wait_for(lk, interval, [&] { return stats_stop; })) {
          const serve::StatsSnapshot s = service.stats();
          fprintf(stderr,
                  "factd: stats uptime=%.0fms sessions=%zu queue=%zu "
                  "in_flight=%zu completed=%" PRIu64 " failed=%" PRIu64
                  " cancelled=%" PRIu64 " evals=%" PRIu64 " cache=%zu/%zu\n",
                  s.uptime_ms, s.sessions, s.queue_depth, s.in_flight,
                  s.completed, s.failed, s.cancelled, s.evaluations,
                  s.cache_entries, s.cache_cap);
        }
      });
    }

    server.run();
    if (stats_thread.joinable()) {
      {
        std::lock_guard<std::mutex> lk(stats_mu);
        stats_stop = true;
      }
      stats_cv.notify_all();
      stats_thread.join();
    }
    if (!args.quiet) {
      const serve::StatsSnapshot s = service.stats();
      printf("factd: shutdown after %" PRIu64 " completed, %" PRIu64
             " failed, %" PRIu64 " cancelled, %" PRIu64
             " rejected; cache %zu/%zu entries\n",
             s.completed, s.failed, s.cancelled, s.rejected, s.cache_entries,
             s.cache_cap);
    }
    return 0;
  } catch (const fact::Error& e) {
    fprintf(stderr, "factd: error: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    fprintf(stderr, "factd: internal error: %s\n", e.what());
    return 1;
  }
}
