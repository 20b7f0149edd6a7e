#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <span>

namespace flexrt {

/// Least common multiple with saturation: returns
/// std::numeric_limits<int64_t>::max() on overflow instead of UB.
/// Hyperperiods of generated task sets can easily overflow; downstream
/// analyses treat the saturated value as "cap me".
std::int64_t lcm_saturating(std::int64_t a, std::int64_t b) noexcept;

/// Saturating LCM over a sequence (empty sequence yields 1).
std::int64_t lcm_saturating(std::span<const std::int64_t> values) noexcept;

/// Relative+absolute tolerance comparison for analytical doubles.
/// |a-b| <= abs_tol + rel_tol * max(|a|,|b|).
bool almost_equal(double a, double b, double rel_tol = 1e-9,
                  double abs_tol = 1e-12) noexcept;

/// a <= b up to tolerance (used when checking analytical inequalities that
/// are tight at design boundaries).
bool leq_tol(double a, double b, double tol = 1e-9) noexcept;

/// Ceiling of a/b for positive integers without floating point.
constexpr std::int64_t ceil_div(std::int64_t a, std::int64_t b) noexcept {
  return (a + b - 1) / b;
}

/// Default integer-snapping tolerance of ceil_ratio / floor_ratio. Named so
/// code that inverts the snapping algebra (e.g. the workload band splits in
/// rt::AnalysisContext, which rely on ceil_ratio(t, T) being exactly 0 for
/// T >= t / kRatioSnapTol) stays tied to the ratio kernels by construction.
inline constexpr double kRatioSnapTol = 1e-9;

/// ceil(x/y) for positive doubles computed robustly: values that are within
/// tolerance of an integer are treated as that integer before rounding up.
/// The schedulability sums (Eq. 5/9 of the paper) are extremely sensitive to
/// ceil(t/T) stepping one period too early due to representation noise.
std::int64_t ceil_ratio(double x, double y, double tol = kRatioSnapTol) noexcept;

/// floor(x/y) with the same integer-snapping robustness as ceil_ratio.
std::int64_t floor_ratio(double x, double y, double tol = kRatioSnapTol) noexcept;

/// Where an accumulated downward grid crosses a limit: the two consecutive
/// candidates on either side of it.
struct GridCrossing {
  double last_above;         ///< last candidate > limit
  double first_at_or_below;  ///< the candidate after it, <= limit
};

/// Walks the accumulated grid p, p - step, (p - step) - step, ... -- each
/// difference a double subtraction rounded to nearest -- from p > limit
/// down past `limit`, bit-identical to a `q -= step` loop but without
/// taking its steps one by one.
///
/// Why a run can be jumped: inside one binade [lo, 2 lo) the doubles are
/// the multiples of u = ulp(lo), so while the exact difference q - step
/// stays >= lo it rounds to the multiple of u nearest to it and every
/// step subtracts the same d = u * round(step / u). The exception is a
/// tie, step / u = k + 1/2 exactly: round-half-even then picks the
/// candidate whose significand is even, so the amount depends on the last
/// bit of q. A tie step always lands on an even significand, and from an
/// even significand every later tie step subtracts the even one of k and
/// k + 1 -- constant again. Runs are jumped in exact int64 units of u; a
/// step that leaves the binade, a tie step from an odd significand and
/// every step from a subnormal or non-positive candidate is one real
/// subtraction. The work is O(binades crossed) instead of O(candidates).
///
/// Throws ModelError when p or step is not finite, step <= 0, p <= limit,
/// or the step cannot move some candidate above the limit (q - step == q:
/// step below half the spacing there, or exactly half from an even
/// significand) -- where the plain loop would never end.
GridCrossing walk_down_grid(double p, double step, double limit);

}  // namespace flexrt
