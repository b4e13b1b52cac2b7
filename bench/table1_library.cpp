// Reproduces Table 1: "Functional unit selection, allocation, and
// component information" — the TEST1 library, characterized for energy
// coefficient (E / Vdd^2), delay and area, plus the Section 5 library used
// by every Table 2 experiment.

#include <cstdio>

#include "bench_util.hpp"

int main() {
  using namespace fact;
  printf("Table 1: TEST1 component library (paper values, verbatim)\n");
  bench::rule();
  printf("%-10s %-14s %10s %8s %8s   allocation\n", "FU type", "class",
         "E/Vdd^2", "delay", "area");
  bench::rule();
  const auto table1 = hlslib::Library::table1();
  const auto alloc1 = workloads::make_test1().allocation;
  auto cls_name = [](hlslib::FuClass c) {
    switch (c) {
      case hlslib::FuClass::Adder: return "adder";
      case hlslib::FuClass::Subtracter: return "subtracter";
      case hlslib::FuClass::Multiplier: return "multiplier";
      case hlslib::FuClass::Comparator: return "comparator";
      case hlslib::FuClass::EqComparator: return "eq-comparator";
      case hlslib::FuClass::Incrementer: return "incrementer";
      case hlslib::FuClass::Inverter: return "inverter";
      case hlslib::FuClass::Shifter: return "shifter";
      case hlslib::FuClass::Register: return "register";
      case hlslib::FuClass::Memory: return "memory";
      case hlslib::FuClass::None: return "-";
    }
    return "-";
  };
  for (const auto& t : table1.types()) {
    const int n = alloc1.count(t.name);
    printf("%-10s %-14s %10.1f %8.0f %8.1f   %s\n", t.name.c_str(),
           cls_name(t.cls), t.energy_coeff, t.delay_ns, t.area,
           n > 0 ? std::to_string(n).c_str() : "n/a");
  }

  printf("\nSection 5 library (used by all Table 2 benchmarks, 25ns clock)\n");
  bench::rule();
  printf("%-10s %-14s %10s %8s %8s\n", "FU type", "class", "E/Vdd^2", "delay",
         "area");
  bench::rule();
  const hlslib::Library dac98 = hlslib::Library::dac98();
  for (const auto& t : dac98.types())
    printf("%-10s %-14s %10.1f %8.0f %8.1f\n", t.name.c_str(),
           cls_name(t.cls), t.energy_coeff, t.delay_ns, t.area);
  printf(
      "\nPaper delays (Section 5): a1=10ns sb1=10ns mt1=23ns cp1=10ns e1=5ns\n"
      "i1=5ns n1=2ns s1=10ns — reproduced exactly above.\n");
  return 0;
}
