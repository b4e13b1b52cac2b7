#include "power/power.hpp"

#include <algorithm>
#include <sstream>

#include "util/strfmt.hpp"

namespace fact::power {

namespace {

/// Expected executions of each FU type per behavior execution, plus
/// register traffic: per-state counts weighted by state probabilities,
/// scaled by the average schedule length (Example 1's
/// "119.11 x (P_S1 x 1 + P_S5 x 1)" computation). Without `breakdown`
/// the per-FU maps stay empty; every other field is the same.
PowerEstimate accumulate(const stg::Chain& chain, const hlslib::Library& lib,
                         const PowerOptions& opts,
                         const std::vector<double>* pi_in, bool breakdown) {
  PowerEstimate est;
  std::vector<double> solved;
  if (!pi_in) solved = stg::state_probabilities(chain);
  const std::vector<double>& pi = pi_in ? *pi_in : solved;
  est.avg_schedule_length = stg::average_schedule_length(chain, pi);

  // Per-cycle expected ops by FU type: a row adds pi[s] once per op, in
  // state order, and exists only where some state has an op for it. The
  // rows are folded in name order below, so every sum is the one a
  // name-keyed map gives.
  thread_local std::vector<double> rate;
  thread_local std::vector<char> used;
  thread_local std::vector<size_t> order;
  rate.assign(chain.fus.size(), 0.0);
  used.assign(chain.fus.size(), 0);
  double reg_rate = 0.0;
  const stg::OpRows& states = chain.states();
  for (size_t s = 0; s < states.size(); ++s) {
    for (const stg::FuCount& fc : states.ops(s)) {
      const size_t f = static_cast<size_t>(fc.fu);
      used[f] = 1;
      for (int k = 0; k < fc.count; ++k) rate[f] += pi[s];
    }
    reg_rate += pi[s] * states.reg_traffic(s);
  }
  order.clear();
  for (size_t f = 0; f < used.size(); ++f)
    if (used[f]) order.push_back(f);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return chain.fus[a] < chain.fus[b];
  });

  double total = 0.0;
  for (const size_t f : order) {
    const std::string fu(chain.fus[f]);
    const double n_ops = rate[f] * est.avg_schedule_length;
    const hlslib::FuType& t = lib.get(fu);
    if (breakdown) {
      est.ops_per_exec[fu] = n_ops;
      est.energy_coeff[fu] = t.energy_coeff * n_ops;
    }
    total += t.energy_coeff * n_ops;
  }
  est.reg_accesses_per_exec = reg_rate * est.avg_schedule_length;
  const hlslib::FuType* reg = lib.first_of(hlslib::FuClass::Register);
  const double reg_coeff = reg ? reg->energy_coeff : 0.0;
  if (breakdown)
    est.energy_coeff["<registers>"] = reg_coeff * est.reg_accesses_per_exec;
  total += reg_coeff * est.reg_accesses_per_exec;

  est.energy_coeff_total = total * (1.0 + opts.overhead_fraction);
  if (breakdown) est.energy_coeff["<overhead>"] = total * opts.overhead_fraction;
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

PowerEstimate estimate_power(const stg::Chain& chain,
                             const hlslib::Library& lib,
                             const PowerOptions& opts,
                             const std::vector<double>* pi, bool breakdown) {
  PowerEstimate est = accumulate(chain, lib, opts, pi, breakdown);
  est.vdd = opts.vdd;
  const double energy = est.energy_coeff_total * opts.vdd * opts.vdd;
  est.power = energy / (est.avg_schedule_length * opts.clock_ns);
  return est;
}

PowerEstimate estimate_power(const stg::Stg& stg, const hlslib::Library& lib,
                             const PowerOptions& opts,
                             const std::vector<double>* pi) {
  return estimate_power(stg::Chain::of(stg), lib, opts, pi);
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

PowerEstimate estimate_power_scaled(const stg::Chain& chain,
                                    const hlslib::Library& lib,
                                    double baseline_avg_length,
                                    const PowerOptions& opts,
                                    const std::vector<double>* pi,
                                    bool breakdown) {
  PowerEstimate est = accumulate(chain, lib, opts, pi, breakdown);
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

PowerEstimate estimate_power_scaled(const stg::Stg& stg,
                                    const hlslib::Library& lib,
                                    double baseline_avg_length,
                                    const PowerOptions& opts,
                                    const std::vector<double>* pi) {
  return estimate_power_scaled(stg::Chain::of(stg), lib, baseline_avg_length,
                               opts, pi);
}

}  // namespace fact::power
