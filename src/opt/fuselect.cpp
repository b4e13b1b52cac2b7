#include "opt/fuselect.hpp"

#include "opt/engine.hpp"
#include "util/error.hpp"
#include "util/strfmt.hpp"

namespace fact::opt {

namespace {

/// Moves the allocation of `from` onto `to` (instances are rebuilt as the
/// alternative type during synthesis).
hlslib::Allocation transfer(const hlslib::Allocation& alloc,
                            const std::string& from, const std::string& to) {
  hlslib::Allocation out = alloc;
  const int n = out.count(from);
  if (from != to && n > 0) {
    out.counts[to] = out.count(to) + n;
    out.counts.erase(from);
  }
  return out;
}

/// Schedules `fn` under one allocation and selection and measures it at
/// iso-throughput with `baseline_len`.
power::PowerEstimate measure(const ir::Function& fn,
                             const sim::Profile& profile,
                             const hlslib::Library& lib,
                             const hlslib::Allocation& alloc,
                             const hlslib::FuSelection& sel,
                             const sched::SchedOptions& sched_opts,
                             const power::PowerOptions& power_opts,
                             double baseline_len) {
  const sched::Scheduler scheduler(lib, alloc, sel, sched_opts);
  return measure_design(scheduler.summarize(fn, profile), lib, power_opts,
                        Objective::Power, baseline_len, nullptr,
                        /*breakdown=*/false);
}

}  // namespace

FuSelectResult explore_fu_selection(const ir::Function& fn,
                                    const hlslib::Library& lib,
                                    const hlslib::Allocation& alloc,
                                    const hlslib::FuSelection& initial,
                                    const sim::Trace& trace,
                                    const sched::SchedOptions& sched_opts,
                                    const power::PowerOptions& power_opts,
                                    double baseline_len) {
  // The behavior never changes, so neither does its profile.
  const sim::Profile profile = sim::profile_function(fn, trace);
  FuSelectResult best;
  best.selection = initial;
  best.allocation = alloc;
  {
    const power::PowerEstimate m = measure(
        fn, profile, lib, alloc, initial, sched_opts, power_opts, baseline_len);
    best.power = m.power;
    best.avg_len = m.avg_schedule_length;
  }

  // Greedy: one op kind at a time, try every alternative of its class.
  // Iterate over a snapshot of the op kinds: accepted swaps replace the
  // selection being explored.
  std::vector<ir::Op> op_kinds;
  for (const auto& [op, type] : best.selection.choice) op_kinds.push_back(op);
  bool improved = true;
  while (improved) {
    improved = false;
    for (const ir::Op op : op_kinds) {
      const std::string current_type = best.selection.choice.at(op);
      const hlslib::FuClass cls = hlslib::op_fu_class(op);
      for (const hlslib::FuType* alt : lib.all_of(cls)) {
        if (alt->name == current_type) continue;
        hlslib::FuSelection cand_sel = best.selection;
        cand_sel.choice[op] = alt->name;
        const hlslib::Allocation cand_alloc =
            transfer(best.allocation, current_type, alt->name);
        power::PowerEstimate m;
        try {
          m = measure(fn, profile, lib, cand_alloc, cand_sel, sched_opts,
                      power_opts, baseline_len);
        } catch (const Error&) {
          continue;  // unschedulable with this unit (e.g. delay too long)
        }
        // Iso-throughput constraint plus strict power improvement.
        if (m.avg_schedule_length > baseline_len * 1.001) continue;
        if (m.power >= best.power - 1e-9) continue;
        best.selection = cand_sel;
        best.allocation = cand_alloc;
        best.power = m.power;
        best.avg_len = m.avg_schedule_length;
        best.log.push_back(strfmt("%s: %s -> %s (power %.4f)",
                                  ir::op_token(op), current_type.c_str(),
                                  alt->name.c_str(), m.power));
        improved = true;
        break;  // re-enter with the updated selection
      }
      if (improved) break;
    }
  }
  return best;
}

}  // namespace fact::opt
