#pragma once

#include <string>
#include <vector>

#include "hlslib/library.hpp"
#include "ir/function.hpp"
#include "sim/trace.hpp"

namespace fact::workloads {

/// One benchmark: behavior source, its parsed IR, the Table 3 allocation,
/// and the trace configuration that drives profiling and power estimation.
struct Workload {
  std::string name;
  std::string source;          // mini-language text (kept for docs/dumps)
  ir::Function fn;
  hlslib::Allocation allocation;
  sim::TraceConfig trace;
};

/// The six circuits of Table 2, with the allocation constraints of
/// Table 3 (a1/sb1/mt1/cp1/e1/i1/n1/s1 counts) re-authored from each
/// benchmark's published description:
///   GCD     - Euclid's algorithm by repeated subtraction
///   FIR     - 8-tap finite impulse response filter over 16 samples
///   Test2   - the three-concurrent-loop behavior of Figure 2(a)
///   SINTRAN - sine transform with data-dependent sign handling
///   IGF     - incomplete-gamma-function series with convergence test
///   PPS     - parallel prefix sum (reduction over eight inputs)
Workload make_gcd();
Workload make_fir();
Workload make_test2();
Workload make_sintran();
Workload make_igf();
Workload make_pps();

/// TEST1 of Figure 1 with the Table 1 library/allocation: the running
/// example of Sections 2 and 2.2.
Workload make_test1();

/// All six Table 2 benchmarks, in table order.
std::vector<Workload> table2_benchmarks();

/// Finds a benchmark by name (case-sensitive); throws if unknown.
Workload by_name(const std::string& name);

}  // namespace fact::workloads
