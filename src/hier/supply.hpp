#pragma once

#include <memory>

namespace flexrt::hier {

/// Default refinement tolerance of SupplyFunction::inverse (and of the
/// bisection loops of the analysis, e.g. min_quantum_exact). The shipped
/// closed forms ignore it; a bisection refines to it. One named
/// constant instead of a 1e-9 literal repeated across every override and
/// call site -- it must match the library-wide 1e-9 snapping regime of
/// math_util (leq_tol / floor_ratio), so change them together or not at all.
inline constexpr double kInverseTolerance = 1e-9;

/// A supply function Z(t): the minimum amount of execution time a time
/// partition is guaranteed to provide in *any* window of length t
/// (paper Def. 1). Implementations must be non-decreasing, 0 at t<=0,
/// super-additively bounded by rate() * t, and must satisfy the linear
/// service floor Z(t) >= rate() * (t - floor_delay()) -- the QPA tail
/// closure of the condensed EDF test (rt/deadline_bound.hpp) relies on it.
class SupplyFunction {
 public:
  virtual ~SupplyFunction() = default;

  /// Minimum supply in any window of length t (t < 0 is treated as 0).
  virtual double value(double t) const noexcept = 0;

  /// Long-run supply rate alpha = lim Z(t)/t.
  virtual double rate() const noexcept = 0;

  /// Service delay Delta: the largest t with Z(t) = 0 (for our shapes).
  virtual double delay() const noexcept = 0;

  /// Delay of the guaranteed linear service floor: the smallest D with
  /// Z(t) >= rate() * (t - D) for every t. For the single-gap shapes
  /// (linear, slot, periodic resource) this equals delay() -- paper Eq. 3
  /// -- which is the default; shapes whose no-supply gaps are uneven
  /// (MultiSlotSupply) must override it, since their floor sits strictly
  /// right of the longest gap.
  virtual double floor_delay() const noexcept { return delay(); }

  /// Pseudo-inverse: the smallest t with Z(t) >= demand (0 for demand <= 0).
  /// Every shape shipped with the library implements it in exact closed
  /// form (tolerance unused). This is the kernel inside every RTA
  /// fixed-point iterate, so the closed forms are property-tested against
  /// the generic bisection kept with the frozen oracles
  /// (legacy::inverse_by_bisection in bench/legacy_kernels.hpp).
  virtual double inverse(double demand, double tolerance = kInverseTolerance) const = 0;
};

/// Linear lower bound Z'(t) = max(0, alpha * (t - delta)) (paper Eq. 3).
/// This is the supply model the paper's closed-form minQ is derived from.
class LinearSupply final : public SupplyFunction {
 public:
  /// alpha in (0, 1], delta >= 0.
  LinearSupply(double alpha, double delta);

  double value(double t) const noexcept override;
  double rate() const noexcept override { return alpha_; }
  double delay() const noexcept override { return delta_; }

  /// Exact: t = delta + demand/alpha (tolerance unused).
  double inverse(double demand, double tolerance = kInverseTolerance) const override;

 private:
  double alpha_;
  double delta_;
};

/// Exact supply of one slot of usable length q repeating every period p
/// (paper Lemma 1):
///   Z(t) = j*q                       if t in [j*p, (j+1)*p - q)
///        = t - (j+1)*(p - q)         otherwise,        j = floor(t/p).
/// Its linear lower bound has alpha = q/p and delta = p - q (paper Eq. 2).
class SlotSupply final : public SupplyFunction {
 public:
  /// period p > 0, usable quantum 0 <= q <= p.
  SlotSupply(double period, double usable);

  double value(double t) const noexcept override;
  double rate() const noexcept override { return usable_ / period_; }
  double delay() const noexcept override { return period_ - usable_; }

  /// Exact (tolerance unused): demand lands on the ramp of period
  /// j = ceil(demand/q) - 1, so t = demand + (j+1)(p - q). Throws
  /// ModelError when q = 0 and demand > 0.
  double inverse(double demand, double tolerance = kInverseTolerance) const override;

  double period() const noexcept { return period_; }
  double usable() const noexcept { return usable_; }

  /// The (alpha, delta) linear bound of this slot supply.
  LinearSupply linear_bound() const noexcept;

 private:
  double period_;
  double usable_;
};

/// Shin–Lee periodic resource model Gamma = (Pi, Theta): a budget Theta
/// guaranteed somewhere within every period Pi (RTSS 2003, cited as [19]).
/// Worst case: budget at the start of one period and at the end of the next,
///   sbf(t) = floor(t'/Pi)*Theta + max(0, t' - (Pi - Theta) - floor(t'/Pi)*Pi)
///   with t' = t - (Pi - Theta),  sbf(t) = 0 for t < Pi - Theta.
/// Included for comparison with the paper's slot model (E4); the slot model
/// pins the budget position inside the period and therefore supplies more.
class PeriodicResource final : public SupplyFunction {
 public:
  PeriodicResource(double period, double budget);

  double value(double t) const noexcept override;
  double rate() const noexcept override { return budget_ / period_; }
  /// Largest t with sbf(t)=0 is 2*(Pi - Theta).
  double delay() const noexcept override { return 2.0 * (period_ - budget_); }

  /// Exact (tolerance unused): demand lands on the ramp of cycle
  /// k = ceil(demand/Theta) - 1, so t = demand + (k + 2)(Pi - Theta).
  double inverse(double demand, double tolerance = kInverseTolerance) const override;

 private:
  double period_;
  double budget_;
};

}  // namespace flexrt::hier
