// The work each workload does: its programs, one run_fact flow, the
// design oracles, and factd-mix's client traffic.
//
// This file is compiled twice: against src/ for the measured program, and
// against frozen/src/ for the frozen reference (see README.md), so
// both sides run exactly the same work.

#include <algorithm>
#include <thread>

#include "bench.hpp"
#include "program_gen.hpp"
#include "serve/net.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"
#include "verify/verify.hpp"
#include "workloads/workloads.hpp"

namespace factbench {

using fact::opt::FactResult;
using fact::opt::Objective;

namespace {

/// The optimize requests of factd-mix: the light Table 2 behaviors under
/// both objectives. Client c owns the entries c, c + kClients, ...
const std::pair<const char*, Objective> kOptimize[] = {
    {"GCD", Objective::Throughput}, {"IGF", Objective::Power},
    {"PPS", Objective::Throughput}, {"FIR", Objective::Power},
    {"GCD", Objective::Power},      {"IGF", Objective::Throughput},
    {"PPS", Objective::Power},      {"FIR", Objective::Throughput},
};
/// Behavior behind each client's named session.
const char* const kSessionBehavior[] = {"SINTRAN", "TEST2"};
constexpr int kClients = 2;
constexpr int kSessionRequests = 6;  // per client, including the creating one

/// Seed the search never sees (run_fact generates its trace from
/// FactOptions::seed, 7 by default): the held-out equivalence oracle.
uint64_t held_out_seed(uint64_t seed) { return 0xB5E1D0000ull + seed; }

const char* objective_name(Objective o) {
  return o == Objective::Power ? "power" : "throughput";
}

/// A client's request sequence: its fresh optimize requests, one repeat of
/// each (only after the original completed, so it reads the shared
/// EvalCache), and schedule/profile requests on its named session,
/// interleaved by a seeded draw.
std::vector<Request> client_sequence(int client, uint64_t seed,
                                     uint64_t round) {
  fact::Rng rng((seed * 1000003ull + round) * kClients +
                static_cast<uint64_t>(client));
  std::vector<int> fresh;
  for (int i = client; i < static_cast<int>(std::size(kOptimize));
       i += kClients)
    fresh.push_back(i);
  std::vector<int> repeatable;
  int session_left = kSessionRequests;
  const std::string session = "c" + std::to_string(client);
  std::vector<Request> seq;
  size_t next_fresh = 0;
  int id = 0;
  while (next_fresh < fresh.size() || !repeatable.empty() || session_left) {
    std::vector<Request::Kind> choices;
    if (next_fresh < fresh.size()) choices.push_back(Request::Kind::Fresh);
    if (!repeatable.empty()) choices.push_back(Request::Kind::Repeat);
    if (session_left) choices.push_back(Request::Kind::Session);
    Request r;
    r.kind = choices[static_cast<size_t>(
        rng.uniform_int(0, static_cast<int64_t>(choices.size()) - 1))];
    r.body = Json::object();
    if (r.kind == Request::Kind::Session) {
      const bool create = session_left == kSessionRequests;
      const bool schedule = create || session_left % 2 == 0;
      r.body.set("type", schedule ? "schedule" : "profile");
      r.body.set("id", ++id);
      r.body.set("session", session);
      if (create) r.body.set("benchmark", kSessionBehavior[client]);
      r.ref = client;
      --session_left;
    } else {
      if (r.kind == Request::Kind::Fresh) {
        r.ref = fresh[next_fresh++];
        repeatable.push_back(r.ref);
      } else {
        const size_t k = static_cast<size_t>(rng.uniform_int(
            0, static_cast<int64_t>(repeatable.size()) - 1));
        r.ref = repeatable[k];
        repeatable.erase(repeatable.begin() + static_cast<long>(k));
      }
      const auto& [bench, objective] = kOptimize[r.ref];
      r.body.set("type", "optimize");
      r.body.set("id", ++id);
      r.body.set("benchmark", bench);
      r.body.set("objective", objective_name(objective));
      r.body.set("quiet", true);
    }
    seq.push_back(std::move(r));
  }
  return seq;
}

}  // namespace

Program table2_program(const std::string& name, Objective objective) {
  fact::workloads::Workload w = fact::workloads::by_name(name);
  Program p;
  p.name = w.name;
  p.fn = std::move(w.fn);
  p.alloc = std::move(w.allocation);
  p.trace = std::move(w.trace);
  p.objective = objective;
  return p;
}

std::vector<std::string> all_program_names() {
  std::vector<std::string> names = {"TEST2", "FIR", "SINTRAN",
                                    "IGF",   "GCD", "PPS"};
  for (int i = 0; i < kGenCount; ++i)
    names.push_back("GEN" +
                    std::to_string(kGenFirstSeed + static_cast<uint64_t>(i)));
  return names;
}

std::vector<Program> batch_programs(const std::string& workload,
                                    const Context& ctx, uint64_t seed) {
  std::vector<Program> progs;
  if (workload == "t2-loops") {
    for (const char* n : {"TEST2", "FIR"})
      progs.push_back(table2_program(n, Objective::Throughput));
  } else if (workload == "t2-branches") {
    for (const char* n : {"SINTRAN", "IGF", "GCD", "PPS"})
      progs.push_back(table2_program(n, Objective::Power));
  } else if (workload == "generated") {
    for (int i = 0; i < kGenCount; ++i) {
      const uint64_t s = kGenFirstSeed + static_cast<uint64_t>(i);
      Program p;
      p.name = "GEN" + std::to_string(s);
      p.fn = fact::testgen::random_program(s, fact::testgen::GenOptions{});
      p.alloc = fact::hlslib::parse_allocation("", ctx.lib);  // 2 of each
      p.objective = Objective::Throughput;
      progs.push_back(std::move(p));
    }
  } else {
    throw fact::Error("unknown batch workload '" + workload + "'");
  }
  // The seed picks which program a pass starts with; the set is fixed so
  // that runs under different seeds measure the same work.
  std::rotate(progs.begin(),
              progs.begin() + static_cast<long>(seed % progs.size()),
              progs.end());
  return progs;
}

std::vector<Program> factd_programs() {
  std::vector<Program> progs;
  for (const auto& [bench, objective] : kOptimize)
    progs.push_back(table2_program(bench, objective));
  return progs;
}

std::vector<std::string> factd_session_behaviors() {
  return {std::begin(kSessionBehavior), std::end(kSessionBehavior)};
}

fact::sim::Trace held_out_trace(const Program& p, uint64_t seed) {
  fact::sim::TraceConfig tc = p.trace;
  tc.executions = 32;
  return fact::sim::generate_trace(p.fn, tc, held_out_seed(seed));
}

FactResult run_flow(const Program& p, const Context& ctx) {
  fact::opt::FactOptions fo;
  fo.objective = p.objective;
  fo.engine.jobs = 1;  // cold serial search
  const auto xf = fact::xform::TransformLibrary::standard();
  return fact::opt::run_fact(p.fn, ctx.lib, p.alloc, ctx.sel, p.trace, xf,
                             fo);
}

std::string check_design(const Program& p, const Context& ctx,
                         const FactResult& r,
                         const fact::sim::Trace& held_out) {
  namespace verify = fact::verify;
  try {
    if (!fact::sim::equivalent_on_trace(p.fn, r.optimized, held_out))
      return "not equivalent on the held-out trace";
  } catch (const std::exception& e) {
    return std::string("held-out simulation failed: ") + e.what();
  }
  verify::Report rep = verify::verify_stg(r.schedule.stg, verify::Level::Full);
  if (rep.ok())
    rep = verify::verify_schedule(r.optimized, r.schedule.stg, ctx.lib,
                                  p.alloc, verify::Level::Full);
  if (!rep.ok()) return "final schedule rejected: " + rep.first_check();
  return "";
}

std::vector<std::vector<Request>> factd_sequences(uint64_t seed,
                                                  uint64_t round) {
  std::vector<std::vector<Request>> seqs;
  for (int c = 0; c < kClients; ++c)
    seqs.push_back(client_sequence(c, seed, round));
  return seqs;
}

std::vector<std::vector<Reply>> factd_round(
    const std::string& socket_path,
    const std::vector<std::vector<Request>>& seqs, double* wall_s) {
  fact::serve::ServiceOptions so;
  so.workers = 2;
  fact::serve::Service service(so);
  fact::serve::ServerOptions sv;
  sv.unix_path = socket_path;
  fact::serve::Server server(service, sv);
  std::thread server_thread([&] { server.run(); });

  std::vector<std::vector<Reply>> replies(seqs.size());
  std::vector<std::string> errors(seqs.size());
  const double t0 = now_s();
  std::vector<std::thread> clients;
  for (size_t c = 0; c < seqs.size(); ++c)
    clients.emplace_back([&, c] {
      int fd = -1;
      try {
        fd = fact::serve::connect_unix(socket_path);
        fact::serve::LineReader reader(fd);
        for (const Request& r : seqs[c]) {
          const double s0 = now_s();
          std::string line;
          if (!fact::serve::send_line(fd, r.body.dump()) ||
              !reader.next(line))
            throw fact::Error("connection closed");
          replies[c].push_back(Reply{1000.0 * (now_s() - s0), Json::parse(line)});
        }
      } catch (const std::exception& e) {
        errors[c] = e.what();
      }
      if (fd >= 0) fact::serve::close_fd(fd);
    });
  for (auto& t : clients) t.join();
  *wall_s = now_s() - t0;
  server.stop();
  server_thread.join();
  for (const std::string& e : errors)
    if (!e.empty()) throw fact::Error("factd client: " + e);
  return replies;
}

}  // namespace factbench
