#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ir/expr.hpp"

namespace fact::hlslib {

/// Classes of hardware resources an operation can bind to.
enum class FuClass {
  Adder,        // a1 / cla1
  Subtracter,   // sb1
  Multiplier,   // mt1 / w_mult1
  Comparator,   // cp1 / comp1 (relational <, <=, >, >=)
  EqComparator, // e1 (equality / inequality)
  Incrementer,  // i1 / incr1 (x + 1 only)
  Inverter,     // n1 (multi-bit bitwise inverter)
  Shifter,      // s1
  Register,     // reg1 (storage; characterized for power, not allocated)
  Memory,       // mem1 (one port per array memory)
  None,         // boolean controller glue; consumes no datapath FU
};

/// One library component, characterized for delay, energy and area exactly
/// as in Table 1 of the paper: the energy per operation is
/// E = energy_coeff * Vdd^2, delay is at the characterization voltage (5V).
struct FuType {
  std::string name;
  FuClass cls = FuClass::None;
  double energy_coeff = 0.0;  // E / Vdd^2, Table 1 units
  double delay_ns = 0.0;      // at Vdd = 5V
  double area = 0.0;          // normalized
};

/// A component library: a set of FuTypes plus register/memory
/// characterization used by the power model.
class Library {
 public:
  void add(const FuType& fu);
  const FuType* find(const std::string& name) const;
  const FuType& get(const std::string& name) const;  // throws if missing
  /// First type of the given class, if any (default FU selection).
  const FuType* first_of(FuClass cls) const;
  const std::vector<FuType>& types() const { return types_; }

  /// The library of Section 5 of the paper: a1 (10ns), sb1 (10ns),
  /// mt1 (23ns), cp1 (10ns), e1 (5ns), i1 (5ns), n1 (2ns), s1 (10ns),
  /// plus reg1/mem1 storage characterization. Energy coefficients follow
  /// Table 1 where given (cla1->a1 class, comp1->cp1 class, w_mult1->mt1,
  /// incr1->i1) and are interpolated by area for the rest.
  static Library dac98();

  /// The TEST1 library of Table 1 verbatim (comp1, cla1, incr1, w_mult1,
  /// reg1, mem1) with Table 1 delays; used by the Example-1/Figure-1
  /// experiments.
  static Library table1();

  /// The Section 5 library extended with low-power variants (slower,
  /// lower energy coefficient): a1_lp, sb1_lp, mt1_lp, cp1_lp. Used by
  /// the functional-unit-selection exploration: where the schedule has
  /// slack, moving operations onto these units saves energy without
  /// losing throughput.
  static Library dac98_lowpower();

  /// All types of a class (for selection exploration).
  std::vector<const FuType*> all_of(FuClass cls) const;

 private:
  std::vector<FuType> types_;
};

/// Allocation constraint: how many instances of each FU type are available,
/// e.g. Table 3's row "GCD: 2 sb1, 1 cp1, 1 e1".
struct Allocation {
  // FU type name -> instances
  std::map<std::string, int, std::less<>> counts;

  int count(std::string_view fu_name) const {
    auto it = counts.find(fu_name);
    return it == counts.end() ? 0 : it->second;
  }
};

/// Parses an allocation spec of the form "a1=2,sb1=1,..." against `lib`
/// (unknown FU types, malformed counts, and non-positive counts throw
/// fact::Error). An empty spec yields the default allocation: two
/// instances of every library type. Shared by factc, factd and factcli so
/// every entry point builds identical allocations from identical specs.
Allocation parse_allocation(const std::string& spec, const Library& lib);

/// Functional-unit selection: which library type implements each operation
/// kind. Defaults map each Op onto the first library type of its class.
struct FuSelection {
  std::map<ir::Op, std::string> choice;

  /// Builds the default selection for `lib`: every op kind used in
  /// hardware maps to the first matching FuType.
  static FuSelection defaults(const Library& lib);
};

/// Resource class an IR operation needs. `Add` with a constant-1 operand
/// may instead be bound to an Incrementer when the selection says so.
FuClass op_fu_class(ir::Op op);

/// Supply-voltage scaling law (footnote 1 of the paper, after [11]):
///   Delay(Vdd) = k * Vdd / (Vdd - Vt)^2.
/// `delay_scale(v, vt)` returns Delay(v)/Delay(5V), the multiplier applied
/// to all 5V-characterized delays at supply voltage `v`.
double delay_scale(double vdd, double vt);

/// Solves the paper's Vdd-scaling equation: find the supply voltage at
/// which a design whose average schedule length is `fast_len` cycles (at
/// 5V) slows down to exactly `slow_len` cycles, i.e.
///   Delay(v)/Delay(5V) = slow_len / fast_len  with slow_len >= fast_len.
/// Example 1: scale_vdd_for_slowdown(119.11, 151.30, 1.0) == 4.29V.
/// Returns 5.0 if no scaling is possible (fast_len >= slow_len).
double scale_vdd_for_slowdown(double fast_len, double slow_len, double vt);

}  // namespace fact::hlslib
