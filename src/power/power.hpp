#pragma once

#include <map>
#include <string>

#include "hlslib/library.hpp"
#include "stg/stg.hpp"

namespace fact::power {

/// Configuration of the Section 2.2 high-level power model.
struct PowerOptions {
  double vdd = 5.0;       // supply voltage for the energy term
  double vt = 1.0;        // threshold voltage (Vdd-scaling law)
  double clock_ns = 25.0; // cycle time
  /// Interconnect + controller energy, modeled as a fraction of the
  /// datapath/storage energy ("after accounting for the contribution due
  /// to the interconnect and controller", Example 1). Example 1's numbers
  /// imply roughly half the FU+storage energy again.
  double overhead_fraction = 0.51;
};

/// Energy/power breakdown of a scheduled design, per Section 2.2:
///   E(fu type) = C_type * Vdd^2 * N_ops, with N_ops the expected number
///   of operations per execution (state-probability weighted), and
///   P = E_total / (average schedule length * cycle time).
struct PowerEstimate {
  double avg_schedule_length = 0.0;       // cycles per execution at Vdd
  std::map<std::string, double> ops_per_exec;    // FU type -> expected ops
  std::map<std::string, double> energy_coeff;    // FU type -> E / Vdd^2
  double reg_accesses_per_exec = 0.0;
  double energy_coeff_total = 0.0;  // total E / Vdd^2 incl. overhead
  double vdd = 5.0;
  double power = 0.0;  // units: energy-units / ns (relative mW)

  std::string report() const;
};

/// Estimates average power of a scheduled design at `opts.vdd` (no
/// voltage scaling): Example 1's first computation.
///
/// `pi` optionally supplies the precomputed stationary distribution of
/// the chain (as returned by stg::state_probabilities); callers that
/// already solved it pass it to avoid a second solve. nullptr recomputes
/// internally. Without `breakdown`, ops_per_exec and energy_coeff stay
/// empty and every other field is the same (a candidate's score needs
/// none of the per-FU maps).
PowerEstimate estimate_power(const stg::Chain& chain,
                             const hlslib::Library& lib,
                             const PowerOptions& opts = {},
                             const std::vector<double>* pi = nullptr,
                             bool breakdown = true);
/// estimate_power(stg::Chain::of(stg), ...).
PowerEstimate estimate_power(const stg::Stg& stg, const hlslib::Library& lib,
                             const PowerOptions& opts = {},
                             const std::vector<double>* pi = nullptr);

/// Power-optimization-mode estimate: scales the supply voltage down until
/// the design's average schedule length (in equivalent cycles) rises to
/// `baseline_avg_length` — the untransformed design's length — then
/// reports power at the scaled voltage. This is the paper's iso-throughput
/// Vdd scaling (Example 1: 119.11 vs 151.30 cycles -> 4.29V).
PowerEstimate estimate_power_scaled(const stg::Chain& chain,
                                    const hlslib::Library& lib,
                                    double baseline_avg_length,
                                    const PowerOptions& opts = {},
                                    const std::vector<double>* pi = nullptr,
                                    bool breakdown = true);
/// estimate_power_scaled(stg::Chain::of(stg), ...).
PowerEstimate estimate_power_scaled(const stg::Stg& stg,
                                    const hlslib::Library& lib,
                                    double baseline_avg_length,
                                    const PowerOptions& opts = {},
                                    const std::vector<double>* pi = nullptr);

/// Structural overhead model: instead of the flat `overhead_fraction`,
/// derives the interconnect + controller energy from a datapath binding
/// (mux inputs switched per cycle) and the FSM size (state-register and
/// next-state logic scale with state count). Returns the equivalent
/// overhead fraction to plug into PowerOptions, so the two models stay
/// comparable. `mux_energy_per_input` and `ctrl_energy_per_state` are in
/// the same E/Vdd^2 units as Table 1.
double structural_overhead_fraction(const stg::Stg& stg,
                                    const hlslib::Library& lib,
                                    int total_mux_inputs, size_t registers,
                                    double mux_energy_per_input = 0.02,
                                    double ctrl_energy_per_state = 0.05);

}  // namespace fact::power
