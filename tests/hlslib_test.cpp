#include <gtest/gtest.h>

#include "hlslib/library.hpp"
#include "util/error.hpp"

namespace fact::hlslib {
namespace {

TEST(Library, Dac98HasAllSectionFiveComponents) {
  const Library lib = Library::dac98();
  const struct {
    const char* name;
    double delay;
  } expected[] = {{"a1", 10}, {"sb1", 10}, {"mt1", 23}, {"cp1", 10},
                  {"e1", 5},  {"i1", 5},   {"n1", 2},   {"s1", 10}};
  for (const auto& e : expected) {
    const FuType* t = lib.find(e.name);
    ASSERT_NE(t, nullptr) << e.name;
    EXPECT_DOUBLE_EQ(t->delay_ns, e.delay) << e.name;
  }
  EXPECT_NE(lib.find("reg1"), nullptr);
  EXPECT_NE(lib.find("mem1"), nullptr);
}

TEST(Library, Table1Verbatim) {
  const Library lib = Library::table1();
  const FuType& comp = lib.get("comp1");
  EXPECT_DOUBLE_EQ(comp.energy_coeff, 1.1);
  EXPECT_DOUBLE_EQ(comp.delay_ns, 12.0);
  EXPECT_DOUBLE_EQ(comp.area, 1.3);
  const FuType& mult = lib.get("w_mult1");
  EXPECT_DOUBLE_EQ(mult.energy_coeff, 2.3);
  EXPECT_DOUBLE_EQ(mult.delay_ns, 23.0);
  const FuType& incr = lib.get("incr1");
  EXPECT_DOUBLE_EQ(incr.energy_coeff, 0.7);
  const FuType& mem = lib.get("mem1");
  EXPECT_DOUBLE_EQ(mem.energy_coeff, 1.9);
  EXPECT_DOUBLE_EQ(mem.area, 8.1);
}

TEST(Library, GetThrowsOnUnknown) {
  const Library lib = Library::dac98();
  EXPECT_THROW(lib.get("nonesuch"), Error);
  EXPECT_EQ(lib.find("nonesuch"), nullptr);
}

TEST(Library, FirstOfFindsByClass) {
  const Library lib = Library::dac98();
  ASSERT_NE(lib.first_of(FuClass::Multiplier), nullptr);
  EXPECT_EQ(lib.first_of(FuClass::Multiplier)->name, "mt1");
}

TEST(Allocation, CountDefaultsToZero) {
  Allocation a;
  a.counts["a1"] = 2;
  EXPECT_EQ(a.count("a1"), 2);
  EXPECT_EQ(a.count("sb1"), 0);
}

TEST(FuSelection, DefaultsCoverArithmetic) {
  const Library lib = Library::dac98();
  const FuSelection sel = FuSelection::defaults(lib);
  EXPECT_EQ(sel.choice.at(ir::Op::Add), "a1");
  EXPECT_EQ(sel.choice.at(ir::Op::Sub), "sb1");
  EXPECT_EQ(sel.choice.at(ir::Op::Mul), "mt1");
  EXPECT_EQ(sel.choice.at(ir::Op::Lt), "cp1");
  EXPECT_EQ(sel.choice.at(ir::Op::Eq), "e1");
  EXPECT_EQ(sel.choice.at(ir::Op::Shl), "s1");
}

TEST(OpFuClass, Mapping) {
  EXPECT_EQ(op_fu_class(ir::Op::Add), FuClass::Adder);
  EXPECT_EQ(op_fu_class(ir::Op::Ge), FuClass::Comparator);
  EXPECT_EQ(op_fu_class(ir::Op::Ne), FuClass::EqComparator);
  EXPECT_EQ(op_fu_class(ir::Op::ArrayRead), FuClass::Memory);
  EXPECT_EQ(op_fu_class(ir::Op::And), FuClass::None);
  EXPECT_EQ(op_fu_class(ir::Op::Select), FuClass::None);
}

TEST(DelayScale, IdentityAtFiveVolts) {
  EXPECT_NEAR(delay_scale(5.0, 1.0), 1.0, 1e-12);
}

TEST(DelayScale, SlowerAtLowerVdd) {
  EXPECT_GT(delay_scale(3.3, 1.0), 1.0);
  EXPECT_GT(delay_scale(2.0, 1.0), delay_scale(3.0, 1.0));
  EXPECT_THROW(delay_scale(0.9, 1.0), Error);
}

// The paper's Example 1: scaling a 119.11-cycle design to match the
// 151.30-cycle base case yields Vdd = 4.29V.
TEST(VddScaling, Example1Value) {
  EXPECT_NEAR(scale_vdd_for_slowdown(119.11, 151.30, 1.0), 4.29, 0.005);
}

TEST(VddScaling, NoSlackMeansNominal) {
  EXPECT_DOUBLE_EQ(scale_vdd_for_slowdown(100.0, 100.0, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(scale_vdd_for_slowdown(200.0, 100.0, 1.0), 5.0);
}

TEST(VddScaling, ConsistentWithDelayLaw) {
  // For any speedup, the scaled voltage must slow the design by exactly
  // the claimed ratio (round trip through the delay law).
  for (double fast : {50.0, 80.0, 119.11}) {
    const double slow = 151.30;
    const double v = scale_vdd_for_slowdown(fast, slow, 1.0);
    if (v < 5.0 && v > 1.1) {
      EXPECT_NEAR(delay_scale(v, 1.0), slow / fast, 1e-6) << fast;
    }
  }
}

TEST(VddScaling, HugeSpeedupClampsAboveVt) {
  const double v = scale_vdd_for_slowdown(1.0, 1e6, 1.0);
  EXPECT_GT(v, 1.0);
  EXPECT_LT(v, 5.0);
}

TEST(VddScaling, RejectsNonPositive) {
  EXPECT_THROW(scale_vdd_for_slowdown(0.0, 10.0, 1.0), Error);
  EXPECT_THROW(scale_vdd_for_slowdown(10.0, -1.0, 1.0), Error);
}

}  // namespace
}  // namespace fact::hlslib
