#include "hier/supply.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/math_util.hpp"

namespace flexrt::hier {

LinearSupply::LinearSupply(double alpha, double delta)
    : alpha_(alpha), delta_(delta) {
  FLEXRT_REQUIRE(alpha > 0.0 && alpha <= 1.0 + 1e-12,
                 "supply rate alpha must be in (0,1]");
  FLEXRT_REQUIRE(delta >= 0.0, "supply delay must be >= 0");
}

double LinearSupply::value(double t) const noexcept {
  return std::max(0.0, alpha_ * (t - delta_));
}

double LinearSupply::inverse(double demand, double /*tolerance*/) const {
  if (demand <= 0.0) return 0.0;
  return delta_ + demand / alpha_;
}

SlotSupply::SlotSupply(double period, double usable)
    : period_(period), usable_(usable) {
  FLEXRT_REQUIRE(period > 0.0, "slot supply period must be > 0");
  FLEXRT_REQUIRE(usable >= 0.0 && usable <= period + 1e-12,
                 "usable quantum must satisfy 0 <= q <= P");
}

double SlotSupply::value(double t) const noexcept {
  if (t <= 0.0 || usable_ <= 0.0) return 0.0;
  const double j = static_cast<double>(floor_ratio(t, period_));
  // Within period j, supply stays flat at j*q until only the final q of the
  // period remains, then ramps with slope 1.
  const double flat = j * usable_;
  const double ramp = t - (j + 1.0) * (period_ - usable_);
  return std::max(flat, ramp);
}

double SlotSupply::inverse(double demand, double /*tolerance*/) const {
  if (demand <= 0.0) return 0.0;
  FLEXRT_REQUIRE(usable_ > 0.0, "supply cannot cover the demand");
  // Z first reaches `demand` on the slope-1 ramp of period j, where j is
  // the number of *whole* slots strictly below the demand. ceil_ratio snaps
  // demands within tolerance of a slot multiple onto the ramp end, matching
  // value()'s floor_ratio snapping.
  const auto j =
      static_cast<double>(std::max<std::int64_t>(
          ceil_ratio(demand, usable_) - 1, 0));
  return demand + (j + 1.0) * (period_ - usable_);
}

LinearSupply SlotSupply::linear_bound() const noexcept {
  return LinearSupply(usable_ / period_, period_ - usable_);
}

PeriodicResource::PeriodicResource(double period, double budget)
    : period_(period), budget_(budget) {
  FLEXRT_REQUIRE(period > 0.0, "resource period must be > 0");
  FLEXRT_REQUIRE(budget > 0.0 && budget <= period + 1e-12,
                 "budget must satisfy 0 < Theta <= Pi");
}

double PeriodicResource::value(double t) const noexcept {
  const double shifted = t - (period_ - budget_);
  if (shifted <= 0.0) return 0.0;
  const double k = static_cast<double>(floor_ratio(shifted, period_));
  const double within = shifted - k * period_;
  return k * budget_ + std::max(0.0, within - (period_ - budget_));
}

double PeriodicResource::inverse(double demand, double /*tolerance*/) const {
  if (demand <= 0.0) return 0.0;
  // sbf reaches `demand` on the ramp of cycle k = ceil(demand/Theta) - 1:
  // demand plus the initial blackout 2(Pi - Theta) plus one (Pi - Theta)
  // gap per completed cycle.
  const auto k =
      static_cast<double>(std::max<std::int64_t>(
          ceil_ratio(demand, budget_) - 1, 0));
  return demand + (k + 2.0) * (period_ - budget_);
}

}  // namespace flexrt::hier
