#include "power/power.hpp"

#include <algorithm>
#include <sstream>
#include <string_view>

#include "util/strfmt.hpp"

namespace fact::power {

namespace {

/// Expected executions of each FU type per behavior execution, plus
/// register traffic: per-state counts weighted by state probabilities,
/// scaled by the average schedule length (Example 1's
/// "119.11 x (P_S1 x 1 + P_S5 x 1)" computation).
PowerEstimate accumulate(const stg::Stg& stg, const hlslib::Library& lib,
                         const PowerOptions& opts,
                         const std::vector<double>* pi_in) {
  PowerEstimate est;
  std::vector<double> solved;
  if (!pi_in) solved = stg::state_probabilities(stg);
  const std::vector<double>& pi = pi_in ? *pi_in : solved;
  est.avg_schedule_length = stg::average_schedule_length(stg, pi);

  // Per-cycle expected ops by FU type. A design binds a handful of types,
  // so a linear scan finds an op's row; each row still sums its ops in
  // state order, and the rows are folded in name order below, so every
  // sum is the one a name-keyed map gives.
  struct Rate {
    std::string_view fu;
    double rate;
  };
  std::vector<Rate> op_rate;
  double reg_rate = 0.0;
  for (size_t s = 0; s < stg.num_states(); ++s) {
    const stg::State& st = stg.state(static_cast<int>(s));
    for (const auto& op : st.ops) {
      if (op.fu_type.empty()) continue;
      auto row = std::find_if(op_rate.begin(), op_rate.end(),
                              [&](const Rate& r) { return r.fu == op.fu_type; });
      if (row == op_rate.end()) row = op_rate.insert(row, {op.fu_type, 0.0});
      row->rate += pi[s];
    }
    reg_rate += pi[s] * (st.reg_reads + st.reg_writes);
  }
  std::sort(op_rate.begin(), op_rate.end(),
            [](const Rate& a, const Rate& b) { return a.fu < b.fu; });

  double total = 0.0;
  for (const auto& [fu_view, rate] : op_rate) {
    const std::string fu(fu_view);
    const double n_ops = rate * est.avg_schedule_length;
    est.ops_per_exec[fu] = n_ops;
    const hlslib::FuType& t = lib.get(fu);
    est.energy_coeff[fu] = t.energy_coeff * n_ops;
    total += t.energy_coeff * n_ops;
  }
  est.reg_accesses_per_exec = reg_rate * est.avg_schedule_length;
  const hlslib::FuType* reg = lib.first_of(hlslib::FuClass::Register);
  const double reg_coeff = reg ? reg->energy_coeff : 0.0;
  est.energy_coeff["<registers>"] = reg_coeff * est.reg_accesses_per_exec;
  total += reg_coeff * est.reg_accesses_per_exec;

  est.energy_coeff_total = total * (1.0 + opts.overhead_fraction);
  est.energy_coeff["<overhead>"] = total * opts.overhead_fraction;
  return est;
}

}  // namespace

std::string PowerEstimate::report() const {
  std::ostringstream out;
  out << strfmt("avg schedule length : %.2f cycles\n", avg_schedule_length);
  out << strfmt("supply voltage      : %.2f V\n", vdd);
  for (const auto& [fu, e] : energy_coeff)
    out << strfmt("  energy %-12s: %10.2f x Vdd^2\n", fu.c_str(), e);
  out << strfmt("energy total        : %10.2f x Vdd^2\n", energy_coeff_total);
  out << strfmt("average power       : %.4f units\n", power);
  return out.str();
}

PowerEstimate estimate_power(const stg::Stg& stg, const hlslib::Library& lib,
                             const PowerOptions& opts,
                             const std::vector<double>* pi) {
  PowerEstimate est = accumulate(stg, lib, opts, pi);
  est.vdd = opts.vdd;
  const double energy = est.energy_coeff_total * opts.vdd * opts.vdd;
  est.power = energy / (est.avg_schedule_length * opts.clock_ns);
  return est;
}

double structural_overhead_fraction(const stg::Stg& stg,
                                    const hlslib::Library& lib,
                                    int total_mux_inputs, size_t registers,
                                    double mux_energy_per_input,
                                    double ctrl_energy_per_state) {
  // Base energy per execution (FU + storage), as accumulate() computes
  // with no overhead.
  PowerOptions no_overhead;
  no_overhead.overhead_fraction = 0.0;
  const PowerEstimate base = estimate_power(stg, lib, no_overhead);
  const double base_energy = base.energy_coeff_total;
  if (base_energy <= 0.0) return 0.0;

  // Interconnect: every cycle the active muxes steer operands; charge the
  // full mux population once per cycle (pessimistic but simple).
  // Controller: the FSM's state register + next-state logic toggle every
  // cycle, scaling with the state count; register count adds decoder load.
  const double per_cycle =
      mux_energy_per_input * total_mux_inputs +
      ctrl_energy_per_state * static_cast<double>(stg.num_states()) +
      0.01 * static_cast<double>(registers);
  const double overhead_energy = per_cycle * base.avg_schedule_length;
  return overhead_energy / base_energy;
}

PowerEstimate estimate_power_scaled(const stg::Stg& stg,
                                    const hlslib::Library& lib,
                                    double baseline_avg_length,
                                    const PowerOptions& opts,
                                    const std::vector<double>* pi) {
  PowerEstimate est = accumulate(stg, lib, opts, pi);
  // Scale Vdd until this design slows down to the baseline's schedule
  // length. The schedule length in cycles at 5V, expressed at the scaled
  // voltage, becomes exactly baseline_avg_length (Example 1: 119.11 cycles
  // at 5V == 151.30 cycles at 4.29V).
  est.vdd =
      hlslib::scale_vdd_for_slowdown(est.avg_schedule_length,
                                     baseline_avg_length, opts.vt);
  const double energy = est.energy_coeff_total * est.vdd * est.vdd;
  const double effective_len =
      est.avg_schedule_length * hlslib::delay_scale(est.vdd, opts.vt);
  est.power = energy / (effective_len * opts.clock_ns);
  return est;
}

}  // namespace fact::power
