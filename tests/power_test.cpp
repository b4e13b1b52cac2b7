#include <gtest/gtest.h>

#include "power/power.hpp"

namespace fact::power {
namespace {

/// A two-state machine: S0 (one adder op, 2 reg reads, 1 reg write),
/// S1 (one multiplier op), deterministic cycle. Both states have pi = 0.5
/// and the schedule length is 2, so per execution: 1 add, 1 mul, 3 reg
/// accesses.
stg::Stg two_state() {
  stg::Stg stg;
  const int s0 = stg.add_state("S0");
  const int s1 = stg.add_state("S1");
  {
    fact::stg::OpInstance op_inst;
    op_inst.fu_type = "a1";
    op_inst.op = ir::Op::Add;
    op_inst.stmt_id = 0;
    op_inst.iteration = 0;
    stg.state(s0).ops.push_back(std::move(op_inst));
  }
  stg.state(s0).reg_reads = 2;
  stg.state(s0).reg_writes = 1;
  {
    fact::stg::OpInstance op_inst;
    op_inst.fu_type = "mt1";
    op_inst.op = ir::Op::Mul;
    op_inst.stmt_id = 1;
    op_inst.iteration = 0;
    stg.state(s1).ops.push_back(std::move(op_inst));
  }
  stg.add_edge(s0, s1, 1.0);
  stg.add_edge(s1, s0, 1.0, "", true);
  stg.set_entry(s0);
  stg.validate();
  return stg;
}

TEST(PowerModel, CountsOpsAndRegistersPerExecution) {
  const auto lib = hlslib::Library::dac98();
  PowerOptions opts;
  opts.overhead_fraction = 0.0;
  const PowerEstimate est = estimate_power(two_state(), lib, opts);
  EXPECT_NEAR(est.avg_schedule_length, 2.0, 1e-9);
  EXPECT_NEAR(est.ops_per_exec.at("a1"), 1.0, 1e-9);
  EXPECT_NEAR(est.ops_per_exec.at("mt1"), 1.0, 1e-9);
  EXPECT_NEAR(est.reg_accesses_per_exec, 3.0, 1e-9);
}

TEST(PowerModel, EnergyFollowsTable1Coefficients) {
  const auto lib = hlslib::Library::dac98();
  PowerOptions opts;
  opts.overhead_fraction = 0.0;
  const PowerEstimate est = estimate_power(two_state(), lib, opts);
  // E/Vdd^2 = 1.3 (a1) + 2.3 (mt1) + 3 * 0.3 (reg accesses) = 4.5.
  EXPECT_NEAR(est.energy_coeff_total, 4.5, 1e-9);
  // P = 4.5 * 25 / (2 * 25ns).
  EXPECT_NEAR(est.power, 4.5 * 25.0 / 50.0, 1e-9);
  EXPECT_DOUBLE_EQ(est.vdd, 5.0);
}

TEST(PowerModel, OverheadFractionScalesTotal) {
  const auto lib = hlslib::Library::dac98();
  PowerOptions with, without;
  with.overhead_fraction = 0.51;
  without.overhead_fraction = 0.0;
  const double p1 = estimate_power(two_state(), lib, with).power;
  const double p0 = estimate_power(two_state(), lib, without).power;
  EXPECT_NEAR(p1 / p0, 1.51, 1e-9);
}

TEST(PowerModel, ScaledModeLowersVoltageAndPower) {
  const auto lib = hlslib::Library::dac98();
  PowerOptions opts;
  // This design takes 2 cycles; the baseline took 3: slack 1.5x.
  const PowerEstimate nominal = estimate_power(two_state(), lib, opts);
  const PowerEstimate scaled = estimate_power_scaled(two_state(), lib, 3.0, opts);
  EXPECT_LT(scaled.vdd, 5.0);
  EXPECT_GT(scaled.vdd, 1.0);
  EXPECT_LT(scaled.power, nominal.power);
  // Voltage solves the delay law for ratio 3/2 exactly.
  EXPECT_NEAR(hlslib::delay_scale(scaled.vdd, opts.vt), 1.5, 1e-6);
}

TEST(PowerModel, ScaledModeNoSlackEqualsNominal) {
  const auto lib = hlslib::Library::dac98();
  PowerOptions opts;
  const PowerEstimate nominal = estimate_power(two_state(), lib, opts);
  const PowerEstimate scaled = estimate_power_scaled(two_state(), lib, 2.0, opts);
  EXPECT_DOUBLE_EQ(scaled.vdd, 5.0);
  EXPECT_NEAR(scaled.power, nominal.power, 1e-9);
}

TEST(PowerModel, ScaledPowerMatchesClosedForm) {
  // P_scaled = E(v) / (baseline_len * cycle): Example 1's final formula
  // 665.58 * 4.29^2 / (151.30 * cycle_time) pattern.
  const auto lib = hlslib::Library::dac98();
  PowerOptions opts;
  opts.overhead_fraction = 0.0;
  const PowerEstimate scaled = estimate_power_scaled(two_state(), lib, 3.0, opts);
  const double expect =
      4.5 * scaled.vdd * scaled.vdd / (3.0 * opts.clock_ns);
  EXPECT_NEAR(scaled.power, expect, 1e-9);
}

TEST(PowerModel, UnknownFuTypesIgnoredGracefully) {
  // Ops with empty fu (controller glue / copies) contribute no FU energy.
  const auto lib = hlslib::Library::dac98();
  stg::Stg stg;
  const int s0 = stg.add_state("");
  {
    fact::stg::OpInstance op_inst;
    op_inst.fu_type = "";
    op_inst.op = ir::Op::Lt;
    op_inst.stmt_id = 0;
    op_inst.iteration = 0;
    stg.state(s0).ops.push_back(std::move(op_inst));
  }
  stg.add_edge(s0, s0, 1.0, "", true);
  stg.validate();
  PowerOptions opts;
  opts.overhead_fraction = 0.0;
  const PowerEstimate est = estimate_power(stg, lib, opts);
  EXPECT_NEAR(est.energy_coeff_total, 0.0, 1e-12);
}

TEST(PowerModel, ReportMentionsKeyLines) {
  const auto lib = hlslib::Library::dac98();
  const PowerEstimate est = estimate_power(two_state(), lib, {});
  const std::string r = est.report();
  EXPECT_NE(r.find("avg schedule length"), std::string::npos);
  EXPECT_NE(r.find("a1"), std::string::npos);
  EXPECT_NE(r.find("average power"), std::string::npos);
}

}  // namespace
}  // namespace fact::power
