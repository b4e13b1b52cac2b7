#pragma once

#include <string>

#include "ir/function.hpp"

namespace fact::lang {

/// Parses a behavioral description written in the mini language into the
/// behavior IR. The language is the C-like subset the paper's examples use:
///
///   TEST1(int c1, int c2) {
///     input int x0[64];      // array initialized from the input trace
///     int x[64];             // scratch / output memory
///     int i = 0; int a = 0;
///     while (c2 > i) {
///       if (i < c1) { a = (a + 7) * 13; } else { a = a + 17; }
///       i++;                 // sugar for i = i + 1
///       x[i] = a;
///     }
///     output a;              // scalar observable at end of execution
///   }
///
/// `for (init; cond; step) body` is sugar that lowers to init + while.
/// Throws fact::ParseError on malformed input.
ir::Function parse_function(const std::string& source);

}  // namespace fact::lang
