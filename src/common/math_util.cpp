#include "common/math_util.hpp"

#include <algorithm>
#include <cstdlib>

#include "common/error.hpp"

namespace flexrt {

std::int64_t lcm_saturating(std::int64_t a, std::int64_t b) noexcept {
  if (a == 0 || b == 0) return 0;
  a = std::abs(a);
  b = std::abs(b);
  const std::int64_t g = std::gcd(a, b);
  const std::int64_t a_red = a / g;
  // a_red * b overflows iff b > max / a_red.
  if (b > std::numeric_limits<std::int64_t>::max() / a_red) {
    return std::numeric_limits<std::int64_t>::max();
  }
  return a_red * b;
}

std::int64_t lcm_saturating(std::span<const std::int64_t> values) noexcept {
  std::int64_t acc = 1;
  for (const std::int64_t v : values) {
    acc = lcm_saturating(acc, v);
    if (acc == std::numeric_limits<std::int64_t>::max()) return acc;
  }
  return acc;
}

bool almost_equal(double a, double b, double rel_tol, double abs_tol) noexcept {
  const double diff = std::fabs(a - b);
  const double scale = std::max(std::fabs(a), std::fabs(b));
  return diff <= abs_tol + rel_tol * scale;
}

bool leq_tol(double a, double b, double tol) noexcept {
  return a <= b + tol * std::max(1.0, std::max(std::fabs(a), std::fabs(b)));
}

std::int64_t ceil_ratio(double x, double y, double tol) noexcept {
  const double r = x / y;
  const double nearest = std::round(r);
  if (std::fabs(r - nearest) <= tol * std::max(1.0, std::fabs(r))) {
    return static_cast<std::int64_t>(nearest);
  }
  return static_cast<std::int64_t>(std::ceil(r));
}

std::int64_t floor_ratio(double x, double y, double tol) noexcept {
  const double r = x / y;
  const double nearest = std::round(r);
  if (std::fabs(r - nearest) <= tol * std::max(1.0, std::fabs(r))) {
    return static_cast<std::int64_t>(nearest);
  }
  return static_cast<std::int64_t>(std::floor(r));
}

GridCrossing walk_down_grid(double p, double step, double limit) {
  FLEXRT_REQUIRE(std::isfinite(p) && std::isfinite(step) && step > 0.0 &&
                     p > limit,
                 "walk_down_grid needs finite p > limit and a finite step > 0");
  const auto stalled = [] {
    throw ModelError(
        "grid step cannot move a candidate: it is at most half the spacing "
        "of doubles there");
  };
  // Loop invariant: q is a candidate > limit.
  double q = p;
  for (;;) {
    if (q >= std::numeric_limits<double>::min()) {
      const int e = std::ilogb(q);
      const double lo = std::ldexp(1.0, e);       // q in [lo, 2 lo)
      const double u = std::ldexp(1.0, e - 52);   // ulp throughout it
      // Every quotient below is exact: u is a power of two, q - lo and
      // limit - lo are differences within one binade, and all of them
      // are below 2^52 units of u.
      if (step <= q - lo) {
        const double s = step / u;
        const double k = std::floor(s);
        const auto m = static_cast<std::int64_t>((q - lo) / u);
        const bool tie = s - k == 0.5;
        if (!tie || m % 2 == 0) {
          auto d = static_cast<std::int64_t>(k);
          if (tie ? d % 2 != 0 : s - k > 0.5) ++d;
          if (d == 0) stalled();
          // Steps j = 0, 1, ... stay in the binade while m - j d >= s;
          // this run ends with m - (n - 1) d >= ceil(s) > m - n d.
          const std::int64_t n =
              (m - static_cast<std::int64_t>(std::ceil(s))) / d + 1;
          std::int64_t taken = n;
          bool crossed = false;
          if (limit >= lo) {
            // The first j with m - j d <= (limit - lo) / u.
            const auto l = static_cast<std::int64_t>((limit - lo) / u);
            const std::int64_t first = (m - l + d - 1) / d;
            if (first <= n) {
              taken = first;
              crossed = true;
            }
          }
          const double last =
              lo + static_cast<double>(m - (taken - 1) * d) * u;
          q = lo + static_cast<double>(m - taken * d) * u;
          if (crossed) return {last, q};
          continue;
        }
      }
    }
    // One real subtraction: out of the binade, a tie from an odd
    // significand, or a subnormal or non-positive candidate.
    const double next = q - step;
    if (next == q) stalled();
    if (next <= limit) return {q, next};
    q = next;
  }
}

}  // namespace flexrt
