// factc — command-line driver for the FACT framework.
//
//   factc <source.fact> [options]
//   factc --benchmark GCD [options]
//
// Options:
//   --objective throughput|power   optimization goal (default throughput)
//   --method fact|flamel|m1|all    which method(s) to run (default fact)
//   --alloc a1=2,sb1=1,...         allocation constraint (default: 2 of each)
//   --clock <ns>                   clock period for scheduling and power
//                                  (default 25)
//   --seed <n>                     trace seed (default 7)
//   --validate off|fast|full       per-candidate invariant checking (fast)
//   --deadline-ms <n>              per-block search budget; best-so-far
//   --jobs <n>                     worker threads for candidate evaluation
//                                  (default: hardware concurrency; results
//                                  are identical for any value)
//   --no-fuse                      disable concurrent-loop fusion (RTL-exact)
//   --emit-verilog <file>          write the optimized design's Verilog
//   --emit-stg <file>              write the optimized design's STG (DOT)
//   --emit-cdfg <file>             write the behavior's CDFG (DOT)
//   --trace-out <file>             write a Chrome trace-event JSON of the
//                                  run's phases/blocks/candidates (open in
//                                  Perfetto or chrome://tracing)
//   --metrics-out <file>           write the metrics-registry snapshot and
//                                  search telemetry as JSON
//   --binding                      print the datapath binding report
//   --quiet                        only the summary line

#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>

#include "bind/binding.hpp"
#include "cdfg/cdfg.hpp"
#include "lang/parser.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "opt/baselines.hpp"
#include "opt/fact.hpp"
#include "rtl/verilog.hpp"
#include "util/error.hpp"
#include "verify/verify.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace fact;

struct Args {
  std::string source_path;
  std::string benchmark;
  std::string objective = "throughput";
  std::string method = "fact";
  std::string alloc_spec;
  std::string validate = "fast";
  std::string emit_verilog, emit_stg, emit_cdfg;
  std::string trace_out, metrics_out;
  double clock_ns = 25.0;
  double deadline_ms = 0.0;
  int jobs = 0;  // 0 = hardware concurrency
  uint64_t seed = 7;
  bool no_fuse = false;
  bool binding = false;
  bool quiet = false;
};

[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg) fprintf(stderr, "factc: %s\n", msg);
  fprintf(stderr,
          "usage: factc <source.fact> | --benchmark <NAME>\n"
          "  [--objective throughput|power] [--method fact|flamel|m1|all]\n"
          "  [--alloc a1=2,sb1=1,...] [--clock <ns>] [--seed <n>] [--no-fuse]\n"
          "  [--validate off|fast|full] [--deadline-ms <n>] [--jobs <n>]\n"
          "  [--emit-verilog <f>] [--emit-stg <f>] [--emit-cdfg <f>]\n"
          "  [--trace-out <f>] [--metrics-out <f>] [--binding] [--quiet]\n");
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

uint64_t parse_u64(const std::string& text, const std::string& opt) {
  try {
    size_t pos = 0;
    const uint64_t v = std::stoull(text, &pos);
    if (pos != text.size() || text[0] == '-') throw Error("");
    return v;
  } catch (const std::exception&) {
    throw Error("bad numeric value '" + text + "' for " + opt);
  }
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    // Accept both "--opt value" and "--opt=value".
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
    if (arg == "--benchmark") a.benchmark = next();
    else if (arg == "--objective") a.objective = next();
    else if (arg == "--method") a.method = next();
    else if (arg == "--alloc") a.alloc_spec = next();
    else if (arg == "--clock") a.clock_ns = parse_double(next(), arg);
    else if (arg == "--seed") a.seed = parse_u64(next(), arg);
    else if (arg == "--validate") a.validate = next();
    else if (arg == "--deadline-ms") a.deadline_ms = parse_double(next(), arg);
    else if (arg == "--jobs") a.jobs = static_cast<int>(parse_u64(next(), arg));
    else if (arg == "--no-fuse") a.no_fuse = true;
    else if (arg == "--emit-verilog") a.emit_verilog = next();
    else if (arg == "--emit-stg") a.emit_stg = next();
    else if (arg == "--emit-cdfg") a.emit_cdfg = next();
    else if (arg == "--trace-out") a.trace_out = next();
    else if (arg == "--metrics-out") a.metrics_out = next();
    else if (arg == "--binding") a.binding = true;
    else if (arg == "--quiet") a.quiet = true;
    else if (arg == "--help" || arg == "-h") usage();
    else if (!arg.empty() && arg[0] == '-') usage(("unknown option " + arg).c_str());
    else if (a.source_path.empty()) a.source_path = arg;
    else usage("multiple source files");
  }
  if (a.source_path.empty() == a.benchmark.empty())
    usage("provide exactly one of <source.fact> or --benchmark");
  return a;
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  if (!out) throw Error("cannot write " + path);
  out << text;
  printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);

    // Span tracing: installed before any work runs so every phase is
    // covered. The tracer only records — nothing on the optimization path
    // reads it back — so stdout is byte-identical with tracing on or off
    // (asserted by the determinism test). Written silently at exit for
    // the same reason.
    std::optional<obs::Tracer> tracer;
    if (!args.trace_out.empty()) {
      tracer.emplace();
      obs::set_tracer(&*tracer);
    }

    // Load the behavior + context.
    const hlslib::Library lib = hlslib::Library::dac98();
    const hlslib::FuSelection sel = hlslib::FuSelection::defaults(lib);
    ir::Function fn("");
    hlslib::Allocation alloc;
    sim::TraceConfig traces;
    if (!args.benchmark.empty()) {
      workloads::Workload w = workloads::by_name(args.benchmark);
      fn = std::move(w.fn);
      alloc = args.alloc_spec.empty()
                  ? w.allocation
                  : hlslib::parse_allocation(args.alloc_spec, lib);
      traces = w.trace;
    } else {
      std::ifstream in(args.source_path);
      if (!in) throw Error("cannot open " + args.source_path);
      std::stringstream buf;
      buf << in.rdbuf();
      fn = lang::parse_function(buf.str());
      alloc = hlslib::parse_allocation(args.alloc_spec, lib);
    }

    sched::SchedOptions so;
    so.clock_ns = args.clock_ns;
    so.fuse_loops = !args.no_fuse;
    power::PowerOptions po;
    po.clock_ns = args.clock_ns;  // power divides energy by run time

    if (!args.emit_cdfg.empty())
      write_file(args.emit_cdfg, cdfg::Cdfg::from_function(fn).dot(fn.name()));

    const bool all = args.method == "all";
    Json search;  // telemetry_json of the FACT run, if any (else null)
    auto line = [&](const char* tag, double len, double power, size_t n) {
      printf("%-7s avg length %10.2f cycles | throughput %8.3f (x1000/cyc) "
             "| power %8.3f | %zu transform(s)\n",
             tag, len, 1000.0 / len, power, n);
    };

    if (all || args.method == "m1") {
      const auto r = opt::run_m1(fn, lib, alloc, sel, traces, so, po, args.seed);
      line("M1", r.avg_len, r.power_nominal.power, 0);
    }
    if (all || args.method == "flamel") {
      const auto r =
          opt::run_flamel(fn, lib, alloc, sel, traces, so, po, args.seed);
      line("Flamel", r.avg_len, r.power_nominal.power, r.applied.size());
    }
    if (all || args.method == "fact") {
      opt::FactOptions fo;
      fo.sched = so;
      fo.power = po;
      fo.seed = args.seed;
      fo.objective = args.objective == "power" ? opt::Objective::Power
                                               : opt::Objective::Throughput;
      if (args.objective != "power" && args.objective != "throughput")
        usage("bad --objective");
      fo.engine.validate = verify::level_from_string(args.validate);
      if (args.deadline_ms < 0) throw Error("--deadline-ms must be >= 0");
      fo.engine.deadline_ms = args.deadline_ms;
      fo.engine.jobs = args.jobs;  // 0 = hardware concurrency
      const auto xf = xform::TransformLibrary::standard();
      const opt::FactResult r =
          opt::run_fact(fn, lib, alloc, sel, traces, xf, fo);
      search = opt::telemetry_json(r);
      // Rendered by the same function factd uses for optimize responses,
      // which is what makes server output byte-identical to batch output.
      fputs(opt::render_fact_report(r, fo.objective, args.quiet).c_str(),
            stdout);
      if (args.binding) {
        const bind::Binding b =
            bind::bind_datapath(r.schedule.stg, lib, alloc);
        printf("\n%s", b.report(lib).c_str());
      }
      if (!args.emit_stg.empty())
        write_file(args.emit_stg, r.schedule.stg.dot(fn.name()));
      if (!args.emit_verilog.empty()) {
        if (!r.schedule.rtl_exact)
          fprintf(stderr,
                  "factc: note: schedule uses fused concurrent loops; the "
                  "Verilog preview is metrics-grade (re-run with --no-fuse "
                  "for RTL-exact output)\n");
        write_file(args.emit_verilog, rtl::emit_verilog(fn, r.schedule.stg));
      }
    }

    // Observability outputs, written without announcing on stdout: the
    // determinism tests diff batch output with these flags on vs. off.
    if (!args.metrics_out.empty()) {
      Json doc = Json::object();
      doc.set("registry", obs::to_json(obs::Registry::global().snapshot()));
      doc.set("search", std::move(search));
      std::ofstream out(args.metrics_out);
      if (!out) throw Error("cannot write " + args.metrics_out);
      out << doc.dump() << "\n";
    }
    if (tracer) {
      obs::set_tracer(nullptr);
      tracer->write(args.trace_out);
    }
    return 0;
  } catch (const fact::Error& e) {
    fprintf(stderr, "factc: error: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    // Last-resort guard: any library defect surfaces as a clean message
    // and exit code, never an abort.
    fprintf(stderr, "factc: internal error: %s\n", e.what());
    return 1;
  }
}
