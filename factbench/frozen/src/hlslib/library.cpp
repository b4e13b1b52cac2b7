#include "hlslib/library.hpp"

#include <cmath>
#include <sstream>

#include "util/error.hpp"

namespace fact::hlslib {

void Library::add(const FuType& fu) { types_.push_back(fu); }

const FuType* Library::find(const std::string& name) const {
  for (const auto& t : types_)
    if (t.name == name) return &t;
  return nullptr;
}

const FuType& Library::get(const std::string& name) const {
  const FuType* t = find(name);
  if (!t) throw Error("unknown functional unit type '" + name + "'");
  return *t;
}

const FuType* Library::first_of(FuClass cls) const {
  for (const auto& t : types_)
    if (t.cls == cls) return &t;
  return nullptr;
}

Library Library::dac98() {
  Library lib;
  // Section 5 library. Delays are the published ones; energy coefficients
  // follow Table 1 for the classes it characterizes (adder via cla1,
  // comparator via comp1, multiplier via w_mult1, incrementer via incr1)
  // and are area-proportional estimates for the rest.
  lib.add({"a1", FuClass::Adder, 1.3, 10.0, 1.5});
  lib.add({"sb1", FuClass::Subtracter, 1.3, 10.0, 1.5});
  lib.add({"mt1", FuClass::Multiplier, 2.3, 23.0, 3.9});
  lib.add({"cp1", FuClass::Comparator, 1.1, 10.0, 1.3});
  lib.add({"e1", FuClass::EqComparator, 0.6, 5.0, 0.7});
  lib.add({"i1", FuClass::Incrementer, 0.7, 5.0, 1.1});
  lib.add({"n1", FuClass::Inverter, 0.2, 2.0, 0.3});
  lib.add({"s1", FuClass::Shifter, 0.8, 10.0, 1.0});
  lib.add({"reg1", FuClass::Register, 0.3, 3.0, 1.0});
  lib.add({"mem1", FuClass::Memory, 1.9, 15.0, 8.1});
  return lib;
}

Library Library::dac98_lowpower() {
  Library lib = dac98();
  // Low-power variants: roughly half the energy for ~1.5x the delay
  // (ripple-carry adders, a non-Wallace multiplier, a slow comparator).
  lib.add({"a1_lp", FuClass::Adder, 0.7, 16.0, 1.0});
  lib.add({"sb1_lp", FuClass::Subtracter, 0.7, 16.0, 1.0});
  lib.add({"mt1_lp", FuClass::Multiplier, 1.3, 38.0, 2.6});
  lib.add({"cp1_lp", FuClass::Comparator, 0.6, 16.0, 0.9});
  return lib;
}

std::vector<const FuType*> Library::all_of(FuClass cls) const {
  std::vector<const FuType*> out;
  for (const auto& t : types_)
    if (t.cls == cls) out.push_back(&t);
  return out;
}

Library Library::table1() {
  Library lib;
  // Table 1 of the paper, verbatim.
  lib.add({"comp1", FuClass::Comparator, 1.1, 12.0, 1.3});
  lib.add({"cla1", FuClass::Adder, 1.3, 10.0, 1.5});
  lib.add({"incr1", FuClass::Incrementer, 0.7, 13.0, 1.1});
  lib.add({"w_mult1", FuClass::Multiplier, 2.3, 23.0, 3.9});
  lib.add({"reg1", FuClass::Register, 0.3, 3.0, 1.0});
  lib.add({"mem1", FuClass::Memory, 1.9, 15.0, 8.1});
  // TEST1 also needs a subtracter class for generality; reuse cla1 figures.
  lib.add({"sub1", FuClass::Subtracter, 1.3, 10.0, 1.5});
  // Equality comparisons bind to the comparator in this library.
  lib.add({"eq1", FuClass::EqComparator, 1.1, 12.0, 1.3});
  return lib;
}

FuSelection FuSelection::defaults(const Library& lib) {
  FuSelection sel;
  auto pick = [&](ir::Op op, FuClass cls) {
    if (const FuType* t = lib.first_of(cls)) sel.choice[op] = t->name;
  };
  pick(ir::Op::Add, FuClass::Adder);
  pick(ir::Op::Sub, FuClass::Subtracter);
  pick(ir::Op::Mul, FuClass::Multiplier);
  pick(ir::Op::Lt, FuClass::Comparator);
  pick(ir::Op::Le, FuClass::Comparator);
  pick(ir::Op::Gt, FuClass::Comparator);
  pick(ir::Op::Ge, FuClass::Comparator);
  pick(ir::Op::Eq, FuClass::EqComparator);
  pick(ir::Op::Ne, FuClass::EqComparator);
  pick(ir::Op::BitNot, FuClass::Inverter);
  pick(ir::Op::Shl, FuClass::Shifter);
  pick(ir::Op::Shr, FuClass::Shifter);
  return sel;
}

FuClass op_fu_class(ir::Op op) {
  switch (op) {
    case ir::Op::Add:
      return FuClass::Adder;
    case ir::Op::Sub:
      return FuClass::Subtracter;
    case ir::Op::Mul:
      return FuClass::Multiplier;
    case ir::Op::Lt:
    case ir::Op::Le:
    case ir::Op::Gt:
    case ir::Op::Ge:
      return FuClass::Comparator;
    case ir::Op::Eq:
    case ir::Op::Ne:
      return FuClass::EqComparator;
    case ir::Op::BitNot:
      return FuClass::Inverter;
    case ir::Op::Shl:
    case ir::Op::Shr:
      return FuClass::Shifter;
    case ir::Op::ArrayRead:
      return FuClass::Memory;
    default:
      return FuClass::None;
  }
}

Allocation parse_allocation(const std::string& spec, const Library& lib) {
  Allocation alloc;
  if (spec.empty()) {
    for (const auto& t : lib.types()) alloc.counts[t.name] = 2;
    return alloc;
  }
  std::stringstream ss(spec);
  std::string item;
  while (std::getline(ss, item, ',')) {
    const size_t eq = item.find('=');
    if (eq == std::string::npos)
      throw Error("bad allocation entry '" + item + "' (want fu=count)");
    const std::string name = item.substr(0, eq);
    if (!lib.find(name)) throw Error("unknown FU type " + name);
    const std::string count_text = item.substr(eq + 1);
    int count = 0;
    try {
      size_t pos = 0;
      count = std::stoi(count_text, &pos);
      if (pos != count_text.size()) throw Error("");
    } catch (const std::exception&) {
      throw Error("bad allocation count '" + count_text + "' for " + name);
    }
    if (count <= 0)
      throw Error("allocation count for " + name + " must be positive (got " +
                  count_text + ")");
    alloc.counts[name] = count;
  }
  return alloc;
}

double delay_scale(double vdd, double vt) {
  if (vdd <= vt) throw Error("delay_scale: Vdd must exceed Vt");
  const double at_v = vdd / ((vdd - vt) * (vdd - vt));
  const double at_5 = 5.0 / ((5.0 - vt) * (5.0 - vt));
  return at_v / at_5;
}

double scale_vdd_for_slowdown(double fast_len, double slow_len, double vt) {
  if (fast_len <= 0.0 || slow_len <= 0.0)
    throw Error("scale_vdd_for_slowdown: lengths must be positive");
  if (fast_len >= slow_len) return 5.0;  // no slack to exploit
  const double r = slow_len / fast_len;
  // Solve v / (v - vt)^2 = A where A = r * 5 / (5 - vt)^2:
  //   A v^2 - (2 A vt + 1) v + A vt^2 = 0, take the root above Vt.
  const double A = r * 5.0 / ((5.0 - vt) * (5.0 - vt));
  const double b = 2.0 * A * vt + 1.0;
  const double disc = b * b - 4.0 * A * A * vt * vt;
  if (disc < 0.0) return 5.0;
  const double v = (b + std::sqrt(disc)) / (2.0 * A);
  // Clamp into the physically meaningful range (just above Vt, at most 5V).
  if (v >= 5.0) return 5.0;
  return std::max(v, vt * 1.05);
}

}  // namespace fact::hlslib
