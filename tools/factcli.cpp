// factcli — thin client for factd.
//
//   factcli --unix /tmp/factd.sock --benchmark GCD --session g1
//   factcli --tcp-port 7333 --request '{"type":"status"}'
//   factcli --unix /tmp/factd.sock --stdin < requests.jsonl
//
// Connection (exactly one of):
//   --unix <path>            connect over a unix-domain socket
//   --tcp-port <n>           connect over TCP (with --tcp-host, default
//                            127.0.0.1)
//
// Request (exactly one mode):
//   --request '<json>'       send one raw request line
//   --stdin                  pipeline every line of stdin, print the
//                            responses in request order
//   --status | --shutdown    convenience one-shots
//   --stats                  session/queue/cache inventory one-shot
//   --metrics                Prometheus text scrape: sends a `metrics`
//                            request and prints the response body raw
//   (default)                build an optimize request from factc-style
//                            flags: --benchmark/--source, --session,
//                            --objective, --alloc, --clock, --seed,
//                            --validate, --deadline-ms, --jobs,
//                            --no-fuse, --quiet; --type schedule|profile
//                            picks the other job kinds
//
// Output: one JSON response per line. With --report, optimize responses
// print their "report" field raw instead — byte-identical to factc's
// stdout for the same behavior and options, which is what the end-to-end
// determinism test diffs. Exit code 1 if any response has ok:false.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "serve/net.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace {

using namespace fact;

struct Args {
  std::string unix_path;
  std::string tcp_host = "127.0.0.1";
  int tcp_port = -1;

  std::string raw_request;
  bool from_stdin = false;
  bool report_only = false;

  std::string type = "optimize";
  std::string benchmark, source_path, session, objective, alloc, validate;
  bool has_clock = false, has_seed = false, has_deadline = false,
       has_jobs = false;
  double clock_ns = 0.0, deadline_ms = 0.0;
  long seed = 0, jobs = 0;
  bool no_fuse = false, quiet = false;
};

[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg) fprintf(stderr, "factcli: %s\n", msg);
  fprintf(stderr,
          "usage: factcli (--unix <path> | --tcp-port <n> [--tcp-host <a>])\n"
          "  --request '<json>' | --stdin | --status | --stats | --metrics |\n"
          "  --shutdown |\n"
          "  [--type optimize|schedule|profile] --benchmark <NAME> | --source <f>\n"
          "  [--session <name>] [--objective throughput|power] [--alloc <spec>]\n"
          "  [--clock <ns>] [--seed <n>] [--validate off|fast|full]\n"
          "  [--deadline-ms <n>] [--jobs <n>] [--no-fuse] [--quiet]\n"
          "  [--report]\n");
  exit(2);
}

double parse_double(const std::string& text, const std::string& opt) {
  try {
    size_t pos = 0;
    const double v = std::stod(text, &pos);
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
    if (arg == "--unix") a.unix_path = next();
    else if (arg == "--tcp-port") a.tcp_port = static_cast<int>(parse_double(next(), arg));
    else if (arg == "--tcp-host") a.tcp_host = next();
    else if (arg == "--request") a.raw_request = next();
    else if (arg == "--stdin") a.from_stdin = true;
    else if (arg == "--status") a.type = "status";
    else if (arg == "--stats") a.type = "stats";
    else if (arg == "--metrics") a.type = "metrics";
    else if (arg == "--shutdown") a.type = "shutdown";
    else if (arg == "--type") a.type = next();
    else if (arg == "--report") a.report_only = true;
    else if (arg == "--benchmark") a.benchmark = next();
    else if (arg == "--source") a.source_path = next();
    else if (arg == "--session") a.session = next();
    else if (arg == "--objective") a.objective = next();
    else if (arg == "--alloc") a.alloc = next();
    else if (arg == "--validate") a.validate = next();
    else if (arg == "--clock") { a.clock_ns = parse_double(next(), arg); a.has_clock = true; }
    else if (arg == "--seed") { a.seed = static_cast<long>(parse_double(next(), arg)); a.has_seed = true; }
    else if (arg == "--deadline-ms") { a.deadline_ms = parse_double(next(), arg); a.has_deadline = true; }
    else if (arg == "--jobs") { a.jobs = static_cast<long>(parse_double(next(), arg)); a.has_jobs = true; }
    else if (arg == "--no-fuse") a.no_fuse = true;
    else if (arg == "--quiet") a.quiet = true;
    else if (arg == "--help" || arg == "-h") usage();
    else usage(("unknown option " + arg).c_str());
  }
  if (a.unix_path.empty() == (a.tcp_port < 0))
    usage("provide exactly one of --unix or --tcp-port");
  return a;
}

std::string build_request(const Args& a) {
  if (!a.raw_request.empty()) return a.raw_request;
  Json req = Json::object();
  req.set("type", a.type);
  req.set("id", 1);
  if (a.type == "status" || a.type == "stats" || a.type == "metrics" ||
      a.type == "shutdown")
    return req.dump();
  if (!a.session.empty()) req.set("session", a.session);
  if (!a.benchmark.empty()) req.set("benchmark", a.benchmark);
  if (!a.source_path.empty()) {
    std::ifstream in(a.source_path);
    if (!in) throw Error("cannot open " + a.source_path);
    std::stringstream buf;
    buf << in.rdbuf();
    req.set("source", buf.str());
  }
  if (!a.objective.empty()) req.set("objective", a.objective);
  if (!a.alloc.empty()) req.set("alloc", a.alloc);
  if (!a.validate.empty()) req.set("validate", a.validate);
  if (a.has_clock) req.set("clock", a.clock_ns);
  if (a.has_seed) req.set("seed", static_cast<int64_t>(a.seed));
  if (a.has_deadline) req.set("deadline_ms", a.deadline_ms);
  if (a.has_jobs) req.set("jobs", static_cast<int64_t>(a.jobs));
  if (a.no_fuse) req.set("no_fuse", true);
  if (a.quiet) req.set("quiet", true);
  return req.dump();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);

    std::vector<std::string> requests;
    if (args.from_stdin) {
      std::string line;
      while (std::getline(std::cin, line))
        if (!line.empty()) requests.push_back(line);
    } else {
      requests.push_back(build_request(args));
    }
    if (requests.empty()) return 0;

    const int fd = args.unix_path.empty()
                       ? serve::connect_tcp(args.tcp_host, args.tcp_port)
                       : serve::connect_unix(args.unix_path);

    // Receive concurrently with sending so a pipelined batch can never
    // deadlock on filled socket buffers in both directions.
    bool all_ok = true;
    std::thread rx([&] {
      serve::LineReader reader(fd);
      std::string line;
      for (size_t i = 0; i < requests.size(); ++i) {
        if (!reader.next(line)) {
          fprintf(stderr, "factcli: connection closed after %zu of %zu "
                          "responses\n", i, requests.size());
          all_ok = false;
          return;
        }
        const Json resp = Json::parse(line);
        if (!resp.get_bool("ok")) all_ok = false;
        // A --metrics one-shot prints the Prometheus text body raw, ready
        // for a scraper; everything else keeps the JSON line protocol.
        if (args.type == "metrics" && args.raw_request.empty() &&
            !args.from_stdin) {
          if (const Json* body = resp.get("body"))
            fputs(body->as_string().c_str(), stdout);
          else
            fprintf(stderr, "factcli: error: %s\n",
                    resp.get_string("error", "unknown error").c_str());
        } else if (args.report_only) {
          if (const Json* report = resp.get("report"))
            fputs(report->as_string().c_str(), stdout);
          else if (!resp.get_bool("ok"))
            fprintf(stderr, "factcli: error: %s\n",
                    resp.get_string("error", "unknown error").c_str());
        } else {
          printf("%s\n", line.c_str());
        }
      }
    });
    for (const std::string& r : requests) {
      if (!serve::send_line(fd, r)) {
        fprintf(stderr, "factcli: send failed\n");
        break;
      }
    }
    rx.join();
    serve::close_fd(fd);
    return all_ok ? 0 : 1;
  } catch (const fact::Error& e) {
    fprintf(stderr, "factcli: error: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    fprintf(stderr, "factcli: internal error: %s\n", e.what());
    return 1;
  }
}
