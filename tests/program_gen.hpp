#pragma once

#include <cstdint>

#include "ir/function.hpp"

namespace fact::testgen {

/// Knobs for the random behavior generator.
struct GenOptions {
  int max_stmts = 8;       // per block
  int max_depth = 2;       // control nesting
  int max_expr_depth = 3;
  int scalar_pool = 5;     // candidate variable names v0..v{n-1}
  int max_loop_trip = 6;   // counted loops only (guaranteed termination)
  bool with_arrays = true;
  /// Ends the body with a run of 2-4 adjacent counted loops that are
  /// mutually independent (each writes only its own scalar and array) and
  /// straight-bodied, so the scheduler fuses them into concurrent phases.
  bool concurrent_loops = false;
};

/// Generates a random, valid, terminating behavior: counted loops,
/// arbitrary nested conditionals, array traffic, and expressions over the
/// full operator set. Used to fuzz transformations (functional
/// equivalence), the scheduler (STG validity), and the RTL backend
/// (hardware-vs-interpreter equivalence).
ir::Function random_program(uint64_t seed, const GenOptions& opts = {});

}  // namespace fact::testgen
