// fact-bench driver: one workload, one seed, one mode per invocation.
//
//   factbench --workload <t2-loops|t2-branches|generated|factd-mix>
//             --seed <n> --seconds <s> --trace <0|1> --out-dir <dir>
//
// Prints human-readable notes, then, as its last stdout line, one JSON
// object: {"correct","attempted","failed","metrics"} with every end-to-end
// metric (--trace 0) or the registry/replay-derived per-layer metrics
// (--trace 1, which adds "trace_file" and "replay_rounds" for run.py to
// fold with fold_trace.py). Exits
// non-zero on bad usage or when the run itself cannot complete.

#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>

#include "bench.hpp"
#include "util/error.hpp"

namespace {

using namespace factbench;

[[noreturn]] void usage(const char* msg) {
  fprintf(stderr,
          "factbench: %s\nusage: factbench --workload <name> --seed <n> "
          "--seconds <s> --trace <0|1> --out-dir <dir>\n",
          msg);
  exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string v = argv[++i];
    try {
      if (arg == "--workload") a.workload = v;
      else if (arg == "--seed") a.seed = std::stoull(v);
      else if (arg == "--seconds") a.seconds = std::stod(v);
      else if (arg == "--trace") a.trace = std::stoi(v) != 0;
      else if (arg == "--out-dir") a.out_dir = v;
      else usage(("unknown option " + arg).c_str());
    } catch (const std::logic_error&) {
      usage(("bad value for " + arg).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (a.seconds <= 0.0) usage("--seconds must be positive");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  // A reference child that dies must surface as a failed write, not kill
  // this process.
  std::signal(SIGPIPE, SIG_IGN);
  try {
    const double t0 = now_s();
    const double cpu0 = process_cpu_s() + children_cpu_s();
    const HostCalibration host = calibrate_host();
    const Context ctx;
    const std::string trace_path = args.out_dir + "/trace-" + args.workload +
                                   "-" + std::to_string(args.seed) + ".json";
    RunResult r;
    if (args.trace) r = run_traced(args, ctx, trace_path);
    else if (args.workload == "factd-mix") r = run_factd(args, ctx);
    else r = run_batch(args, ctx);

    const double wall = now_s() - t0;
    const double cpu = process_cpu_s() + children_cpu_s() - cpu0;
    printf("host nproc=%d effective_cores=%.3f spin_ms_1=%.3f spin_ms_n=%.3f "
           "cpu_granted=%.3f (cpu %.3f s / wall %.3f s)\n",
           host.nproc, host.effective_cores, host.spin_ms_1, host.spin_ms_n,
           cpu / wall, cpu, wall);
    for (const std::string& n : r.notes) printf("%s\n", n.c_str());
    for (const std::string& f : r.failures) printf("FAILED %s\n", f.c_str());

    Json metrics = Json::object();
    for (auto& [name, m] : r.metrics) metrics.set(name, std::move(m));
    if (!args.trace) {
      // Share of attempted flows/requests that passed every oracle.
      Json ok = Json::object();
      ok.set("value", r.attempted == 0
                          ? 0.0
                          : static_cast<double>(r.attempted - r.failed) /
                                static_cast<double>(r.attempted));
      ok.set("unit", "ratio");
      metrics.set("ok_share", std::move(ok));
    }
    Json out = Json::object();
    out.set("correct", r.failed == 0 && r.attempted > 0);
    out.set("attempted", r.attempted);
    out.set("failed", r.failed);
    out.set("metrics", std::move(metrics));
    Json host_json = Json::object();
    host_json.set("nproc", host.nproc);
    host_json.set("effective_cores", host.effective_cores);
    host_json.set("cpu_granted", cpu / wall);
    out.set("host", std::move(host_json));
    if (args.trace) {
      out.set("trace_file", trace_path);
      out.set("replay_rounds", r.replay_rounds);
    }
    printf("%s\n", out.dump().c_str());
    return 0;
  } catch (const std::exception& e) {
    fprintf(stderr, "factbench: error: %s\n", e.what());
    return 1;
  }
}
