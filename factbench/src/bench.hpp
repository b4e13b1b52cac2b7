#pragma once

// Shared declarations of the fact-bench driver: the workload inputs, the
// timed end-to-end runs with their correctness oracles, the traced
// per-layer replay, and the host calibration. See README.md for what each
// workload and metric means.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "hlslib/library.hpp"
#include "ir/function.hpp"
#include "opt/fact.hpp"
#include "serve/json.hpp"
#include "sim/trace.hpp"

namespace factbench {

using fact::serve::Json;

/// One behavior the optimizer is run on, with everything a flow needs.
struct Program {
  std::string name;  // TEST2, FIR, ..., GEN1014, ...
  fact::ir::Function fn{""};
  fact::hlslib::Allocation alloc;
  fact::sim::TraceConfig trace;
  fact::opt::Objective objective = fact::opt::Objective::Throughput;
};

/// The frozen `generated` draw: tests/program_gen's generator, copied into
/// this directory, at its default shape (GenOptions{}), seeds
/// kGenFirstSeed .. kGenFirstSeed + kGenCount - 1.
constexpr uint64_t kGenFirstSeed = 1014;
constexpr int kGenCount = 7;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";  // traces, sockets and result files
};

/// The fixed hardware context every flow uses.
struct Context {
  fact::hlslib::Library lib = fact::hlslib::Library::dac98();
  fact::hlslib::FuSelection sel = fact::hlslib::FuSelection::defaults(lib);
};

/// Programs of a batch workload (t2-loops, t2-branches, generated), in the
/// seed-rotated order of one pass. Throws on an unknown workload name.
std::vector<Program> batch_programs(const std::string& workload,
                                    const Context& ctx, uint64_t seed);

/// A Table 2 behavior with its Table 3 allocation and trace configuration.
Program table2_program(const std::string& name,
                       fact::opt::Objective objective);

/// The optimize programs factd-mix sends (Table 2 behaviors under both
/// objectives); Request::ref of an optimize request indexes this list.
std::vector<Program> factd_programs();
/// The behavior behind each factd-mix client's named session, by client.
std::vector<std::string> factd_session_behaviors();

/// Result of one benchmark run: the contract's counts plus the metric
/// values (end-to-end or per-layer, by mode) and free-form host notes.
struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;  // first few oracle diagnostics
  std::vector<std::pair<std::string, Json>> metrics;  // name -> {value,unit}
  std::vector<std::string> notes;                     // printed before JSON
  int replay_rounds = 0;  // traced run: replay rounds the trace holds

  void fail(std::string why);
  void metric(const std::string& name, double value, const char* unit);
};

/// Every program name a workload can run; opt.flow_ms.<PROGRAM> has one
/// per-layer row for each.
std::vector<std::string> all_program_names();

/// One cold serial run_fact flow with the default FACT options.
fact::opt::FactResult run_flow(const Program& p, const Context& ctx);

/// The held-out trace of `p`: generated from a seed the search never sees.
fact::sim::Trace held_out_trace(const Program& p, uint64_t seed);

/// Oracles that need no other run: the final design is equivalent to the
/// input on the held-out trace, and its schedule passes verify_stg and
/// verify_schedule at Level::Full. Returns "" or what failed.
std::string check_design(const Program& p, const Context& ctx,
                         const fact::opt::FactResult& r,
                         const fact::sim::Trace& held_out);

/// One request of factd-mix's closed-loop traffic.
struct Request {
  enum class Kind { Fresh, Repeat, Session } kind = Kind::Fresh;
  Json body;
  /// Optimize: index into factd_programs(). Session: the client index.
  int ref = -1;
};
/// Every client's request sequence for one round. The run's seed and the
/// round number draw the interleaving, so a run covers many orders of the
/// same requests rather than repeating one.
std::vector<std::vector<Request>> factd_sequences(uint64_t seed,
                                                  uint64_t round);

/// One reply with its client-side latency.
struct Reply {
  double latency_ms = 0.0;
  Json response;
};
/// One factd-mix round: a fresh Service (2 workers, cold shared EvalCache)
/// behind a Server on `socket_path`, and one closed-loop client connection
/// per sequence that sends each request and waits for its reply. Returns
/// every client's replies in order, and the round's wall time. Throws when
/// a connection fails.
std::vector<std::vector<Reply>> factd_round(
    const std::string& socket_path,
    const std::vector<std::vector<Request>>& seqs, double* wall_s);

/// Timed, tracing-off end-to-end runs.
RunResult run_batch(const Args& args, const Context& ctx);
RunResult run_factd(const Args& args, const Context& ctx);

/// The traced run: the first-generation replay with one span per module
/// call (written as Chrome trace JSON to `trace_path`), plus registry
/// counter deltas around one end-to-end pass.
RunResult run_traced(const Args& args, const Context& ctx,
                     const std::string& trace_path);

// ---- host ---------------------------------------------------------------

/// CPU seconds (user + sys) this process has consumed so far.
double process_cpu_s();
/// The same for its finished child processes (the reference units).
double children_cpu_s();
/// Peak resident set size of this process, in MiB.
double peak_rss_mb();
double now_s();  // steady clock, seconds

/// Host calibration: logical CPUs this process may run on, and effective
/// cores actually granted, measured by a short spin loop on all of them.
struct HostCalibration {
  int nproc = 1;
  double effective_cores = 0.0;
  double spin_ms_1 = 0.0;  // one thread's spin time
  double spin_ms_n = 0.0;  // wall time of nproc threads spinning at once
};
HostCalibration calibrate_host();

// ---- statistics ---------------------------------------------------------

double median(std::vector<double> v);
/// The highest percentile that leaves at least `beyond` samples above it,
/// as (percentile in [0,100], value). Percentile 0 when too few samples.
std::pair<double, double> tail_percentile(std::vector<double> v,
                                          size_t beyond = 10);
/// Geometric mean; bit-identical for any order of `v`.
double geomean(std::vector<double> v);

/// Every counter the program exports through obs::Registry::global(), by
/// name. Readers treat a missing name as 0, so a counter a later change
/// removes reads as "no such work" rather than breaking the benchmark.
std::map<std::string, uint64_t> registry_counters();

}  // namespace factbench
