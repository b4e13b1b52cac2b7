#pragma once

#include <set>
#include <vector>

#include "stg/stg.hpp"

namespace fact::opt {

/// A group of STG states selected for transformation (Section 4.1): the
/// states connected by high-relative-frequency transitions, plus the IR
/// statement ids whose operations execute in those states (the CDFG
/// extraction of step 3 in Figure 5).
struct StgBlock {
  std::vector<int> states;
  std::set<int> stmt_ids;
  double weight = 0.0;  // sum of member state probabilities
};

/// Partitions the STG into disjoint blocks by the paper's recipe: rank
/// transitions by relative frequency pi[src] * prob, keep those whose
/// frequency is at least `threshold` times the maximum, and grow/fuse
/// blocks over the kept edges in decreasing frequency order. Blocks are
/// returned sorted by decreasing weight. `pi` optionally supplies the
/// STG's stationary distribution when the caller already solved it;
/// nullptr solves the chain here.
std::vector<StgBlock> partition_stg(const stg::Stg& stg,
                                    double threshold = 0.25,
                                    const std::vector<double>* pi = nullptr);

}  // namespace fact::opt
