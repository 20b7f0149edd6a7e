// Property tests for the closed-form SupplyFunction::inverse()
// implementations against the generic bisection kept with the frozen
// oracles (legacy::inverse_by_bisection), plus regression coverage for its
// bracketing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "hier/multi_slot_supply.hpp"
#include "hier/response_time.hpp"
#include "hier/supply.hpp"
#include "legacy_kernels.hpp"

namespace flexrt::hier {
namespace {

/// Checks that `t = supply.inverse(d)` is (a) the bisection answer to 1e-9
/// relative and (b) minimal: Z(t) covers d but Z just left of t does not.
/// The agreement bound is relative because value() snaps period boundaries
/// with floor_ratio's 1e-9 *relative* tolerance: demands landing exactly on
/// a slot/budget multiple sit on a plateau of width ~1e-9 * t where the
/// closed form returns the exact boundary and bisection the plateau edge.
void check_inverse(const SupplyFunction& supply, double demand) {
  const double closed = supply.inverse(demand);
  const double bisect = legacy::inverse_by_bisection(supply, demand, 1e-12);
  EXPECT_NEAR(closed, bisect, 1e-9 * (1.0 + 2.0 * std::abs(bisect)))
      << "demand=" << demand << " rate=" << supply.rate()
      << " delay=" << supply.delay();
  EXPECT_GE(supply.value(closed) + 1e-9, demand);
  if (closed > 1e-6) {
    EXPECT_LT(supply.value(closed - 1e-6), demand + 1e-9)
        << "inverse not minimal at demand=" << demand;
  }
}

TEST(SupplyInverseProperty, LinearSupplyMatchesBisection) {
  Rng rng(7001);
  for (int it = 0; it < 200; ++it) {
    const double alpha = rng.uniform(0.05, 1.0);
    const double delta = rng.uniform(0.0, 20.0);
    const LinearSupply supply(alpha, delta);
    check_inverse(supply, rng.uniform(1e-3, 50.0));
  }
}

TEST(SupplyInverseProperty, SlotSupplyMatchesBisection) {
  Rng rng(7002);
  for (int it = 0; it < 200; ++it) {
    const double period = rng.uniform(0.5, 20.0);
    const double usable = rng.uniform(0.05, 1.0) * period;
    const SlotSupply supply(period, usable);
    check_inverse(supply, rng.uniform(1e-3, 50.0));
    // Whole-slot multiples sit exactly on a ramp end: the snapping edge.
    const double k = static_cast<double>(rng.uniform_int(1, 5));
    check_inverse(supply, k * usable);
  }
}

TEST(SupplyInverseProperty, PeriodicResourceMatchesBisection) {
  Rng rng(7003);
  for (int it = 0; it < 200; ++it) {
    const double period = rng.uniform(0.5, 20.0);
    const double budget = rng.uniform(0.05, 1.0) * period;
    const PeriodicResource supply(period, budget);
    check_inverse(supply, rng.uniform(1e-3, 50.0));
    const double k = static_cast<double>(rng.uniform_int(1, 5));
    check_inverse(supply, k * budget);
  }
}

/// Multi-slot variant of check_inverse. At demands sitting exactly on a
/// plateau level (whole multiples of the frame budget) the per-start curves
/// differ by float noise, so the strict 1e-12 bisection can report the
/// crossing one whole gap later than the plateau edge. The meaningful
/// contract is: the closed form is never *later* than the strict answer,
/// its supply covers the demand at the library's 1e-9 tolerance (the same
/// leq_tol regime every schedulability consumer uses), and it is minimal.
void check_multi_slot_inverse(const MultiSlotSupply& supply, double demand) {
  const double closed = supply.inverse(demand);
  const double bisect = legacy::inverse_by_bisection(supply, demand, 1e-12);
  EXPECT_LE(closed, bisect + 1e-9 * (1.0 + 2.0 * std::abs(bisect)))
      << "demand=" << demand << " rate=" << supply.rate()
      << " delay=" << supply.delay();
  EXPECT_GE(supply.value(closed), demand - 1e-9 * (1.0 + demand))
      << "demand=" << demand;
  if (closed > 1e-6) {
    EXPECT_LT(supply.value(closed - 1e-6), demand + 1e-9)
        << "inverse not minimal at demand=" << demand;
  }
}

TEST(SupplyInverseProperty, MultiSlotSupplyMatchesBisection) {
  // Even splits exercise the regular geometry...
  Rng rng(7005);
  for (int it = 0; it < 100; ++it) {
    const double period = rng.uniform(1.0, 20.0);
    const double usable = rng.uniform(0.1, 0.9) * period;
    const auto k = static_cast<std::size_t>(rng.uniform_int(1, 4));
    const MultiSlotSupply supply = evenly_split_supply(period, usable, k);
    check_multi_slot_inverse(supply, rng.uniform(1e-3, 50.0));
    const double mult = static_cast<double>(rng.uniform_int(1, 5));
    check_multi_slot_inverse(supply, mult * usable);  // plateau edge
  }
  // ...irregular window layouts the uneven gaps.
  for (int it = 0; it < 100; ++it) {
    const double period = rng.uniform(2.0, 20.0);
    const auto k = static_cast<std::size_t>(rng.uniform_int(1, 4));
    std::vector<MultiSlotSupply::Window> windows;
    double cursor = 0.0;
    for (std::size_t w = 0; w < k; ++w) {
      const double room = period - cursor;
      if (room < 0.2) break;
      const double gap = rng.uniform(0.0, room * 0.4);
      const double len = rng.uniform(0.05, std::max(0.051, room * 0.3));
      windows.push_back({cursor + gap, cursor + gap + len});
      cursor = windows.back().end;
    }
    if (windows.empty() || windows.back().end > period) continue;
    const MultiSlotSupply supply(period, std::move(windows));
    check_multi_slot_inverse(supply, rng.uniform(1e-3, 40.0));
  }
}

TEST(SupplyInverse, MultiSlotClosedFormIsMinimal) {
  // Demand reached exactly at the end of a window followed by a gap: the
  // inverse must land on the window end, not anywhere in the flat region.
  const MultiSlotSupply supply(10.0, {{0.0, 1.0}, {5.0, 6.0}});
  // Worst start is at a window end; one full window (1.0) of demand is
  // first guaranteed after waiting out the longest gap plus the window.
  EXPECT_NEAR(supply.inverse(1.0), 5.0, 1e-9);
  EXPECT_NEAR(supply.value(supply.inverse(1.0)), 1.0, 1e-9);
  // cumulative_inverse on frame multiples lands on the generating ramp end.
  EXPECT_NEAR(supply.cumulative_inverse(2.0), 6.0, 1e-9);
  EXPECT_NEAR(supply.cumulative_inverse(4.0), 16.0, 1e-9);
}

TEST(SupplyInverse, NonPositiveDemandIsZero) {
  const SlotSupply slot(2.0, 0.5);
  EXPECT_DOUBLE_EQ(slot.inverse(0.0), 0.0);
  EXPECT_DOUBLE_EQ(slot.inverse(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(legacy::inverse_by_bisection(slot, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(LinearSupply(0.5, 1.0).inverse(-3.0), 0.0);
  EXPECT_DOUBLE_EQ(PeriodicResource(2.0, 1.0).inverse(0.0), 0.0);
}

TEST(SupplyInverse, FullBudgetPeriodicResourceIsIdentity) {
  const PeriodicResource supply(4.0, 4.0);  // Theta == Pi: sbf(t) = t
  EXPECT_NEAR(supply.inverse(2.5), 2.5, 1e-12);
  EXPECT_NEAR(supply.inverse(9.0), 9.0, 1e-12);
}

TEST(SupplyInverse, EmptySlotCannotCoverDemand) {
  const SlotSupply supply(2.0, 0.0);
  EXPECT_THROW(supply.inverse(1.0), ModelError);
}

TEST(SupplyInverse, SupplyInverseFreeFunctionDelegatesToClosedForm) {
  const SlotSupply slot(2.0, 0.75);
  EXPECT_DOUBLE_EQ(supply_inverse(slot, 1.3), slot.inverse(1.3));
}

/// Exotic staircase whose long-run rate overestimates the early supply, so
/// the bisection's doubling loop must actually run; counts value() calls to
/// pin down the bracketing regression (the seed version restarted the
/// bisection at lo = 0, re-scanning [0, delay) it had already excluded).
class CountingStaircase final : public SupplyFunction {
 public:
  CountingStaircase(double delay, double step) : delay_(delay), step_(step) {}
  double value(double t) const noexcept override {
    ++calls_;
    if (t <= delay_) return 0.0;
    return std::floor((t - delay_) / step_);
  }
  double rate() const noexcept override { return 1.0 / step_; }
  double delay() const noexcept override { return delay_; }
  double inverse(double demand, double tolerance) const override {
    return legacy::inverse_by_bisection(*this, demand, tolerance);
  }
  int calls() const noexcept { return calls_; }

 private:
  double delay_;
  double step_;
  mutable int calls_ = 0;
};

TEST(SupplyInverse, BisectionBracketsFromTheDelay) {
  // Smallest t with floor((t - delay)/10) >= 2.5 is delay + 30.
  const double delay = 1e6;
  CountingStaircase supply(delay, 10.0);
  const double t = legacy::inverse_by_bisection(supply, 2.5);
  EXPECT_NEAR(t, delay + 30.0, 1e-6);
  // Bracketing from the delay keeps the search interval ~ demand/rate wide.
  // The seed version bisected [0, ~delay], needing log2(1e6/1e-9) ~ 50
  // value() calls plus the bracketing; fail well above the hardened cost.
  EXPECT_LT(supply.calls(), 45);
}

TEST(SupplyInverse, BisectionMatchesClosedFormThroughBaseClass) {
  // Calling through the base pointer must agree with the closed forms.
  Rng rng(7004);
  for (int it = 0; it < 50; ++it) {
    const double period = rng.uniform(1.0, 10.0);
    const double usable = rng.uniform(0.1, 1.0) * period;
    const SlotSupply slot(period, usable);
    const SupplyFunction& base = slot;
    const double d = rng.uniform(0.01, 20.0);
    EXPECT_NEAR(base.inverse(d), legacy::inverse_by_bisection(slot, d, 1e-12),
                1e-9);
  }
}

}  // namespace
}  // namespace flexrt::hier
