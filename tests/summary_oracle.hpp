#pragma once

// The summary oracle: Scheduler::summarize must emit exactly the chain of
// the STG Scheduler::schedule emits, and every measurement taken on it
// must equal, bit for bit, the one taken on the full STG.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "opt/engine.hpp"
#include "sched/scheduler.hpp"
#include "stg/stg.hpp"
#include "util/error.hpp"

namespace fact::oracle {

inline uint64_t bits(double v) { return std::bit_cast<uint64_t>(v); }

/// Bitwise equality of two estimates, per-FU maps included.
inline void expect_same_estimate(const power::PowerEstimate& a,
                                 const power::PowerEstimate& b,
                                 const std::string& what) {
  EXPECT_EQ(bits(a.avg_schedule_length), bits(b.avg_schedule_length)) << what;
  EXPECT_EQ(bits(a.reg_accesses_per_exec), bits(b.reg_accesses_per_exec))
      << what;
  EXPECT_EQ(bits(a.energy_coeff_total), bits(b.energy_coeff_total)) << what;
  EXPECT_EQ(bits(a.vdd), bits(b.vdd)) << what;
  EXPECT_EQ(bits(a.power), bits(b.power)) << what;
  for (const auto* maps : {&a.ops_per_exec, &a.energy_coeff}) {
    const auto& other = maps == &a.ops_per_exec ? b.ops_per_exec
                                                : b.energy_coeff;
    ASSERT_EQ(maps->size(), other.size()) << what;
    for (auto i = maps->begin(), j = other.begin(); i != maps->end(); ++i, ++j) {
      EXPECT_EQ(i->first, j->first) << what;
      EXPECT_EQ(bits(i->second), bits(j->second)) << what << " " << i->first;
    }
  }
}

/// Each state's op counts by FU name.
inline std::vector<std::map<std::string, int>> named_rows(const stg::Chain& c) {
  std::vector<std::map<std::string, int>> rows(c.num_states());
  for (size_t s = 0; s < c.num_states(); ++s)
    for (const stg::FuCount& fc : c.states().ops(s))
      rows[s][std::string(c.fus[static_cast<size_t>(fc.fu)])] += fc.count;
  return rows;
}

/// Schedules `fn` both ways and expects the summary to be the full STG's
/// chain, with bitwise-equal stationary distributions and estimates under
/// both objectives (Power against `baseline_len`). A behavior that does
/// not schedule must fail both ways with one message. Returns whether it
/// scheduled.
inline bool expect_summary_matches(const sched::Scheduler& s,
                                   const ir::Function& fn,
                                   const sim::Profile& profile,
                                   const hlslib::Library& lib,
                                   double baseline_len,
                                   const std::string& what) {
  std::optional<sched::ScheduleResult> full;
  std::optional<stg::Chain> summary;
  std::string full_error, summary_error;
  try {
    full = s.schedule(fn, profile);
  } catch (const Error& e) {
    full_error = e.what();
  }
  try {
    summary = s.summarize(fn, profile);
  } catch (const Error& e) {
    summary_error = e.what();
  }
  EXPECT_EQ(full_error, summary_error) << what;
  if (!full || !summary) {
    EXPECT_EQ(full.has_value(), summary.has_value()) << what;
    return false;
  }

  const stg::Chain of = stg::Chain::of(full->stg);
  EXPECT_EQ(of.entry(), summary->entry()) << what;
  EXPECT_EQ(of.num_states(), summary->num_states()) << what;
  EXPECT_EQ(named_rows(of), named_rows(*summary)) << what;
  for (size_t st = 0; st < of.num_states() && st < summary->num_states(); ++st)
    EXPECT_EQ(of.states().reg_traffic(st), summary->states().reg_traffic(st))
        << what << " state " << st;
  EXPECT_EQ(of.edges().size(), summary->edges().size()) << what;
  for (size_t e = 0; e < of.edges().size() && e < summary->edges().size(); ++e) {
    const stg::ChainEdge& x = of.edges()[e];
    const stg::ChainEdge& y = summary->edges()[e];
    EXPECT_TRUE(x.from == y.from && x.to == y.to &&
                bits(x.prob) == bits(y.prob) &&
                x.exec_boundary == y.exec_boundary)
        << what << " edge " << e;
  }
  if (::testing::Test::HasFailure()) return true;

  const std::vector<double> pi = stg::state_probabilities(full->stg);
  const std::vector<double> summary_pi = stg::state_probabilities(*summary);
  EXPECT_EQ(pi.size(), summary_pi.size()) << what;
  for (size_t st = 0; st < pi.size() && st < summary_pi.size(); ++st)
    EXPECT_EQ(bits(pi[st]), bits(summary_pi[st])) << what << " state " << st;

  const power::PowerOptions po;
  for (const opt::Objective o :
       {opt::Objective::Throughput, opt::Objective::Power}) {
    const std::string tag =
        what + (o == opt::Objective::Power ? " (power)" : " (throughput)");
    const power::PowerEstimate want =
        opt::measure_design(full->stg, lib, po, o, baseline_len);
    expect_same_estimate(
        want, opt::measure_design(*summary, lib, po, o, baseline_len), tag);
    // Without the per-FU maps, every other field is the same.
    power::PowerEstimate scalars = want;
    scalars.ops_per_exec.clear();
    scalars.energy_coeff.clear();
    expect_same_estimate(scalars,
                         opt::measure_design(*summary, lib, po, o, baseline_len,
                                             nullptr, /*breakdown=*/false),
                         tag + " without breakdown");
  }
  return true;
}

}  // namespace fact::oracle
