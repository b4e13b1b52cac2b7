// The timed end-to-end runs and their correctness oracles.
//
// Batch workloads (t2-loops, t2-branches, generated) time cold serial
// run_fact passes over the workload's programs; factd-mix times rounds of
// closed-loop client traffic against an in-process serve::Server. Tracing
// stays off throughout; the per-layer numbers come from the separate
// traced run (replay.cpp).
//
// Host normalization. On a shared host the same pass can take twice as
// long from one minute to the next, which no statistic within a run
// removes. So every measured unit comes with the same work run by the
// frozen reference (frozen_ref.hpp): each flow of a pass right after the
// reference flow of the same program, each round and each set-up right
// after a reference round or pass. Each unit's wall time is scaled by
// calibration_unit() / (its reference time), CPU times likewise: times
// read as seconds on a host where the reference unit takes
// calibration_unit(). The raw medians are printed above the JSON.

#include <cstdio>

#include "bench.hpp"
#include "frozen_ref.hpp"
#include "opt/baselines.hpp"

namespace factbench {

using fact::opt::FactResult;
using fact::opt::Objective;

void RunResult::fail(std::string why) {
  ++failed;
  if (failures.size() < 8) failures.push_back(std::move(why));
}

void RunResult::metric(const std::string& name, double value,
                       const char* unit) {
  Json m = Json::object();
  m.set("value", value);
  m.set("unit", unit);
  metrics.emplace_back(name, std::move(m));
}

namespace {

/// Wall and CPU seconds of one frozen reference unit on the host the
/// benchmark was calibrated on (a 4-vCPU Xeon VM in a quiet period): the
/// scale of every normalized time. Fixed forever: changing one rescales
/// that workload's history.
fbref::UnitTime calibration_unit(const std::string& workload) {
  if (workload == "t2-loops") return {0.52, 0.52};
  if (workload == "t2-branches") return {0.32, 0.32};
  if (workload == "generated") return {0.78, 0.78};
  return {0.42, 0.69};  // factd-mix
}

/// Factors that turn this moment's times into calibration-host times.
struct Scale {
  double wall = 1.0, cpu = 1.0;
};

/// The frozen reference as a yardstick. Every measured unit (a set-up, a
/// pass or a round) runs right after, or interleaved with, the same work on
/// the reference, and scale_for() turns that reference time into the
/// unit's scale. Host speed also moves from one second to the next, so no
/// reference time is shared between measured units: sharing one reference
/// pass between two measured passes made t2-loops' round_s spread 12%
/// instead of 3%.
class Yardstick {
 public:
  explicit Yardstick(const Args& args)
      : ref_(args.workload, args.seed, args.out_dir),
        calibration_(calibration_unit(args.workload)) {}

  /// One piece of reference work: flow `index`, or factd-mix round `index`.
  fbref::UnitTime run(uint64_t index) { return ref_.run(index); }

  /// The reference work of one whole unit: every flow of a pass, or round
  /// `round`.
  fbref::UnitTime unit(uint64_t round) {
    if (ref_.flows() == 0) return run(round);
    fbref::UnitTime sum;
    for (size_t i = 0; i < ref_.flows(); ++i) {
      const fbref::UnitTime t = run(i);
      sum.wall_s += t.wall_s;
      sum.cpu_s += t.cpu_s;
    }
    return sum;
  }

  /// The scale of a measured unit whose reference unit took `t`.
  Scale scale_for(const fbref::UnitTime& t) {
    wall_.push_back(t.wall_s);
    cpu_.push_back(t.cpu_s);
    return {calibration_.wall_s / t.wall_s, calibration_.cpu_s / t.cpu_s};
  }

  const fbref::UnitTime& calibration() const { return calibration_; }
  double median_wall_s() const { return median(wall_); }
  double median_cpu_s() const { return median(cpu_); }

 private:
  fbref::Reference ref_;
  fbref::UnitTime calibration_;
  std::vector<double> wall_, cpu_;  // per reference unit
};

/// Units a batch run makes even when --seconds ends first. From 11 passes
/// on, the ten samples beyond req_ms_tail are all flows of the slowest
/// program, so the tail does not jump between programs as the count moves.
constexpr size_t kMinPasses = 11;

/// What a repeat of the same flow must reproduce exactly.
struct Expected {
  std::string report;  // render_fact_report, full (not quiet)
  double initial_len = 0.0, final_len = 0.0;
  double initial_power = 0.0, final_power = 0.0;

  static Expected of(const FactResult& r, Objective objective) {
    return {fact::opt::render_fact_report(r, objective, false),
            r.initial_avg_len, r.final_avg_len, r.initial_power.power,
            r.final_power.power};
  }
  bool same_as(const Expected& o) const {
    return report == o.report && initial_len == o.initial_len &&
           final_len == o.final_len && initial_power == o.initial_power &&
           final_power == o.final_power;
  }
};

/// Runs `setup` three times and returns the median set-up time, normalized
/// like every other time (raw in `*raw_s`). The last set-up's state is the
/// one the timed phase uses.
template <typename Setup>
double timed_setups(Yardstick& yardstick, double* raw_s, Setup&& setup) {
  std::vector<double> raw, normalized;
  for (int i = 0; i < 3; ++i) {
    const Scale scale =
        yardstick.scale_for(yardstick.unit(static_cast<uint64_t>(i)));
    const double t0 = now_s();
    setup();
    raw.push_back(now_s() - t0);
    normalized.push_back(raw.back() * scale.wall);
  }
  *raw_s = median(raw);
  return median(normalized);
}

/// Raw times of one measured unit, and of its reference work.
struct UnitTimes {
  double wall_s = 0.0, cpu_s = 0.0;
  std::vector<double> latency_ms;  // per flow or request
  fbref::UnitTime reference;
};

/// The timed units of one run, raw, with the host speed factors of each.
struct Units {
  std::vector<double> wall, cpu;  // per unit
  std::vector<Scale> scale;
  std::vector<std::vector<double>> latency_ms;  // per unit, per request

  void add(Yardstick& yardstick, const UnitTimes& t) {
    scale.push_back(yardstick.scale_for(t.reference));
    wall.push_back(t.wall_s);
    cpu.push_back(t.cpu_s);
    latency_ms.push_back(t.latency_ms);
  }
};

/// Reports the time metrics. `p50_per_unit`: req_ms_p50 is the median of
/// each unit's median instead of the median of all requests. A batch pass
/// mixes a few programs of very different cost, and the median of all its
/// flows would sit on the gap between two of them, set by one extreme flow.
void report_times(RunResult& out, const Units& u, const Yardstick& yardstick,
                  double setup_s, double raw_setup_s, bool p50_per_unit) {
  std::vector<double> wall, cpu, rate, unit_p50, lat, raw_lat;
  for (size_t i = 0; i < u.wall.size(); ++i) {
    wall.push_back(u.wall[i] * u.scale[i].wall);
    cpu.push_back(u.cpu[i] * u.scale[i].cpu);
    rate.push_back(static_cast<double>(u.latency_ms[i].size()) / wall.back());
    std::vector<double> scaled;
    for (double l : u.latency_ms[i]) {
      scaled.push_back(l * u.scale[i].wall);
      raw_lat.push_back(l);
    }
    unit_p50.push_back(median(scaled));
    lat.insert(lat.end(), scaled.begin(), scaled.end());
  }
  out.metric("round_s", median(wall), "s");
  out.metric("round_cpu_s", median(cpu), "s");
  out.metric("req_per_s", median(rate), "1/s");
  out.metric("req_ms_p50", median(p50_per_unit ? unit_p50 : lat), "ms");
  const auto [pct, tail] = tail_percentile(lat);
  out.metric("req_ms_tail", tail, "ms");
  out.metric("setup_s", setup_s, "s");
  char note[320];
  snprintf(note, sizeof note,
           "units=%zu requests=%zu req_ms_tail is p%.1f of %zu samples "
           "(>=10 beyond it)",
           wall.size(), lat.size(), pct, lat.size());
  out.notes.push_back(note);
  snprintf(note, sizeof note,
           "reference unit wall %.4f s cpu %.4f s here, wall %.4f s cpu "
           "%.4f s on the calibration host; raw round_s %.4f, raw "
           "round_cpu_s %.4f, raw flow/request ms p50 %.3f, raw setup_s %.4f",
           yardstick.median_wall_s(), yardstick.median_cpu_s(),
           yardstick.calibration().wall_s, yardstick.calibration().cpu_s,
           median(u.wall),
           median(u.cpu), median(raw_lat), raw_setup_s);
  out.notes.push_back(note);
}

void report_design_ratios(RunResult& out,
                          const std::vector<Expected>& refs) {
  std::vector<double> len, power;
  for (const Expected& r : refs) {
    len.push_back(r.final_len / r.initial_len);
    power.push_back(r.final_power / r.initial_power);
  }
  out.metric("design_len_ratio", geomean(len), "ratio");
  out.metric("design_power_ratio", geomean(power), "ratio");
}

}  // namespace

RunResult run_batch(const Args& args, const Context& ctx) {
  RunResult out;
  std::vector<Program> progs;
  std::vector<fact::sim::Trace> held_out;
  std::vector<Expected> refs;

  Yardstick yardstick(args);

  // Set-up: inputs, held-out traces, and one reference flow per program
  // (whose report every timed repeat must reproduce byte for byte).
  double raw_setup_s = 0.0;
  const double setup_s = timed_setups(yardstick, &raw_setup_s, [&] {
    progs = batch_programs(args.workload, ctx, args.seed);
    held_out.clear();
    refs.clear();
    for (const Program& p : progs) {
      held_out.push_back(held_out_trace(p, args.seed));
      refs.push_back(Expected::of(run_flow(p, ctx), p.objective));
    }
  });

  Units units;
  const double t_start = now_s();
  double last_unit = 0.0;
  while (units.wall.size() < kMinPasses ||
         now_s() - t_start + last_unit <= args.seconds) {
    const double u0 = now_s();
    UnitTimes t;
    for (size_t i = 0; i < progs.size(); ++i) {
      // The reference flow of the same program right before each flow.
      const fbref::UnitTime ref = yardstick.run(i);
      t.reference.wall_s += ref.wall_s;
      t.reference.cpu_s += ref.cpu_s;
      const Program& p = progs[i];
      ++out.attempted;
      const double c0 = process_cpu_s();
      const double t0 = now_s();
      FactResult r;
      try {
        r = run_flow(p, ctx);
      } catch (const std::exception& e) {
        out.fail(p.name + ": run_fact threw: " + e.what());
        continue;
      }
      const double dt = now_s() - t0;
      t.cpu_s += process_cpu_s() - c0;
      t.wall_s += dt;
      t.latency_ms.push_back(1000.0 * dt);
      // Oracles, outside the flow's time.
      std::string why = check_design(p, ctx, r, held_out[i]);
      if (why.empty() && !Expected::of(r, p.objective).same_as(refs[i]))
        why = "report differs from the reference flow";
      if (!why.empty()) out.fail(p.name + ": " + why);
    }
    units.add(yardstick, t);
    last_unit = now_s() - u0;
  }

  report_times(out, units, yardstick, setup_s, raw_setup_s, true);
  report_design_ratios(out, refs);
  out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
  return out;
}

namespace {

/// factd-mix answers the schedule and profile requests of a session must
/// reproduce, computed in-process.
struct SessionRef {
  double m1_len = 0.0;
  double executions = 0.0, avg_steps = 0.0;
};

}  // namespace

RunResult run_factd(const Args& args, const Context& ctx) {
  RunResult out;
  std::vector<Program> progs;
  std::vector<FactResult> refs;
  std::vector<SessionRef> session_refs;

  Yardstick yardstick(args);

  // Set-up: the in-process reference of every optimize request and of the
  // sessions' schedule/profile answers.
  double raw_setup_s = 0.0;
  const double setup_s = timed_setups(yardstick, &raw_setup_s, [&] {
    progs = factd_programs();
    refs.clear();
    for (const Program& p : progs) refs.push_back(run_flow(p, ctx));
    session_refs.clear();
    for (const std::string& name : factd_session_behaviors()) {
      const Program p = table2_program(name, Objective::Throughput);
      SessionRef s;
      s.m1_len = fact::opt::run_m1(p.fn, ctx.lib, p.alloc, ctx.sel, p.trace,
                                   {}, {}, 7)
                     .avg_len;
      fact::sim::TraceConfig tc = p.trace;
      if (tc.executions == 0)
        tc.executions = fact::opt::FactOptions{}.trace_executions;
      const fact::sim::Profile prof = fact::sim::profile_function(
          p.fn, fact::sim::generate_trace(p.fn, tc, 7));
      s.executions = static_cast<double>(prof.executions);
      s.avg_steps = prof.avg_steps();
      session_refs.push_back(s);
    }
  });
  const std::string socket_path = args.out_dir + "/factd.sock";

  auto check = [&](const Request& r, const Json& resp) -> std::string {
    if (!resp.get_bool("ok")) return "ok:false: " + resp.get_string("error");
    if (r.kind == Request::Kind::Session) {
      const SessionRef& s = session_refs[static_cast<size_t>(r.ref)];
      if (resp.get_string("type") == "schedule")
        return resp.get_double("avg_len") == s.m1_len ? "" : "schedule differs";
      return resp.get_double("executions") == s.executions &&
                     resp.get_double("avg_steps") == s.avg_steps
                 ? ""
                 : "profile differs";
    }
    const FactResult& ref = refs[static_cast<size_t>(r.ref)];
    const Objective o = progs[static_cast<size_t>(r.ref)].objective;
    if (resp.get_string("report") !=
        fact::opt::render_fact_report(ref, o, true))
      return "report differs from in-process run_fact";
    const Json* xs = resp.get("transforms");
    bool same = xs && xs->size() == ref.applied.size() &&
                resp.get_double("avg_len") == ref.final_avg_len &&
                resp.get_double("power") == ref.final_power.power;
    for (size_t i = 0; same && i < ref.applied.size(); ++i)
      same = xs->at(i).as_string() == ref.applied[i];
    return same ? "" : "design differs from in-process run_fact";
  };

  Units units;
  const double t_start = now_s();
  double last_unit = 0.0;
  while (units.wall.empty() ||
         now_s() - t_start + last_unit <= args.seconds) {
    const double u0 = now_s();
    const auto seqs = factd_sequences(args.seed, units.wall.size());
    UnitTimes t;
    // The reference runs the same round (same interleaving) first.
    t.reference = yardstick.run(units.wall.size());
    const double c0 = process_cpu_s();
    const auto replies = factd_round(socket_path, seqs, &t.wall_s);
    t.cpu_s = process_cpu_s() - c0;
    for (const auto& client : replies)
      for (const Reply& r : client) t.latency_ms.push_back(r.latency_ms);
    units.add(yardstick, t);
    for (size_t c = 0; c < seqs.size(); ++c)
      for (size_t i = 0; i < seqs[c].size(); ++i) {
        ++out.attempted;
        const std::string why = check(seqs[c][i], replies[c][i].response);
        if (!why.empty()) out.fail(seqs[c][i].body.dump() + ": " + why);
      }
    last_unit = now_s() - u0;
  }

  report_times(out, units, yardstick, setup_s, raw_setup_s, false);
  std::vector<Expected> design;
  for (size_t i = 0; i < refs.size(); ++i)
    design.push_back(Expected::of(refs[i], progs[i].objective));
  report_design_ratios(out, design);
  out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
  return out;
}

}  // namespace factbench
