#include "common/math_util.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace flexrt {
namespace {

TEST(LcmSaturating, BasicValues) {
  EXPECT_EQ(lcm_saturating(4, 6), 12);
  EXPECT_EQ(lcm_saturating(6, 4), 12);
  EXPECT_EQ(lcm_saturating(7, 13), 91);
  EXPECT_EQ(lcm_saturating(12, 12), 12);
  EXPECT_EQ(lcm_saturating(1, 9), 9);
}

TEST(LcmSaturating, ZeroYieldsZero) {
  EXPECT_EQ(lcm_saturating(0, 5), 0);
  EXPECT_EQ(lcm_saturating(5, 0), 0);
}

TEST(LcmSaturating, SaturatesOnOverflow) {
  const std::int64_t big = (std::int64_t{1} << 62) + 1;  // odd, huge
  EXPECT_EQ(lcm_saturating(big, big - 2),
            std::numeric_limits<std::int64_t>::max());
}

TEST(LcmSaturating, SequenceFoldsAndSaturates) {
  const std::int64_t vals_ok[] = {4, 6, 10};
  EXPECT_EQ(lcm_saturating(std::span<const std::int64_t>(vals_ok)), 60);
  const std::int64_t empty[] = {1};
  EXPECT_EQ(lcm_saturating(std::span<const std::int64_t>(empty, 0)), 1);
  // A chain of large coprimes must saturate, not wrap.
  const std::int64_t primes[] = {1000003, 1000033, 1000037, 1000039, 1000081,
                                 1000099, 1000117, 1000121};
  EXPECT_EQ(lcm_saturating(std::span<const std::int64_t>(primes)),
            std::numeric_limits<std::int64_t>::max());
}

TEST(AlmostEqual, RelativeAndAbsolute) {
  EXPECT_TRUE(almost_equal(1.0, 1.0 + 1e-12));
  EXPECT_FALSE(almost_equal(1.0, 1.0 + 1e-6));
  EXPECT_TRUE(almost_equal(0.0, 1e-13));
  EXPECT_TRUE(almost_equal(1e9, 1e9 * (1.0 + 1e-10)));
}

TEST(LeqTol, BoundaryBehaviour) {
  EXPECT_TRUE(leq_tol(1.0, 1.0));
  EXPECT_TRUE(leq_tol(1.0 + 1e-12, 1.0));
  EXPECT_FALSE(leq_tol(1.0 + 1e-3, 1.0));
  EXPECT_TRUE(leq_tol(-5.0, 1.0));
}

TEST(CeilDiv, Integers) {
  EXPECT_EQ(ceil_div(10, 5), 2);
  EXPECT_EQ(ceil_div(11, 5), 3);
  EXPECT_EQ(ceil_div(1, 5), 1);
}

TEST(CeilRatio, SnapsNearIntegers) {
  // 0.3/0.1 is 2.9999... in binary floating point; a naive ceil gives 3
  // anyway, but 3*(0.1) vs 0.30000000000000004 style noise must not push
  // the result to 4.
  EXPECT_EQ(ceil_ratio(0.3, 0.1), 3);
  EXPECT_EQ(ceil_ratio(12.0, 4.0), 3);
  EXPECT_EQ(ceil_ratio(12.1, 4.0), 4);
  EXPECT_EQ(ceil_ratio(11.999999999999, 4.0), 3);  // snapped
}

TEST(FloorRatio, SnapsNearIntegers) {
  EXPECT_EQ(floor_ratio(12.0, 4.0), 3);
  EXPECT_EQ(floor_ratio(11.9, 4.0), 2);
  EXPECT_EQ(floor_ratio(12.000000000001, 4.0), 3);  // snapped down
  EXPECT_EQ(floor_ratio(0.3, 0.1), 3);
}

// --- walk_down_grid == the p -= step loop ----------------------------------

/// The loop walk_down_grid replaces; nullopt where it would never end (the
/// step cannot move a candidate above the limit).
std::optional<GridCrossing> subtraction_loop(double p, double step,
                                             double limit) {
  for (double q = p;;) {
    const double next = q - step;
    if (next == q) return std::nullopt;
    if (next <= limit) return GridCrossing{q, next};
    q = next;
  }
}

/// The j-th candidate of the loop (or the one it stalls on).
double candidate(double p, double step, std::int64_t j) {
  for (; j > 0 && p - step != p; --j) p -= step;
  return p;
}

/// The lowest set bit of a positive normal double. A step's rounding ties
/// happen in the one binade [lo, 2 lo) with ulp(lo) = 2 * lowest_bit(step),
/// i.e. lo = 2^53 * lowest_bit(step).
double lowest_bit(double x) {
  int e = 0;
  const auto significand =
      static_cast<std::uint64_t>(std::ldexp(std::frexp(x, &e), 53));
  return std::ldexp(1.0, e - 53 + std::countr_zero(significand));
}

/// Compares the walk with the loop; returns the loop's answer.
std::optional<GridCrossing> expect_walk(double p, double step, double limit) {
  const std::optional<GridCrossing> want = subtraction_loop(p, step, limit);
  if (!want) {
    EXPECT_THROW((void)walk_down_grid(p, step, limit), ModelError)
        << std::hexfloat << "p=" << p << " step=" << step
        << " limit=" << limit;
    return want;
  }
  const GridCrossing got = walk_down_grid(p, step, limit);
  EXPECT_EQ(got.last_above, want->last_above)
      << std::hexfloat << "p=" << p << " step=" << step << " limit=" << limit;
  EXPECT_EQ(got.first_at_or_below, want->first_at_or_below)
      << std::hexfloat << "p=" << p << " step=" << step << " limit=" << limit;
  return want;
}

TEST(WalkDownGrid, MatchesTheSubtractionLoopOnSeededCases) {
  constexpr std::array<double, 5> kGridSteps = {1e-3, 5e-3, 0.05, 0.037,
                                                0.02};
  constexpr int kCases = 100000;
  constexpr std::int64_t kReach = 2000;  // candidates a case walks, about
  Rng rng(0x3A1C);
  int tie_walks = 0;
  int binade_crossings = 0;
  int stalls = 0;
  for (int i = 0; i < kCases && !HasFailure(); ++i) {
    double step = 0.0;
    switch (i % 3) {
      case 0:
        step = kGridSteps[static_cast<std::size_t>(
            rng.uniform_int(0, kGridSteps.size() - 1))];
        break;
      case 1:
        step = rng.log_uniform(1e-7, 10.0);
        break;
      default:
        // At most 8 significant bits, the lowest 2^-k: the tie binade is
        // [2^(53-k), 2^(54-k)), between 2^-7 and 2^20 here. (An odd
        // multiplier of 1 is exactly half an ulp there, and stalls.)
        step = std::ldexp(static_cast<double>(2 * rng.uniform_int(0, 127) + 1),
                          -static_cast<int>(rng.uniform_int(34, 60)));
        break;
    }
    const double tie_lo = 0x1p53 * lowest_bit(step);
    const double reach = static_cast<double>(kReach) * step;

    // The start: anywhere up to 1e6, just above a power of two, or in or
    // just above the tie binade.
    double p = 0.0;
    switch (rng.uniform_int(0, 2)) {
      case 0:
        p = rng.log_uniform(step, 1e6);
        break;
      case 1:
        p = std::ldexp(1.0, static_cast<int>(rng.uniform_int(
                                std::ilogb(step) + 1, 19))) +
            rng.uniform(0.0, 0.5 * reach);
        break;
      default:
        p = rng.uniform_int(0, 1) == 0
                ? tie_lo * rng.uniform(1.0, 2.0)
                : 2.0 * tie_lo + rng.uniform(0.0, 0.5 * reach);
        break;
    }

    // The limit: on a candidate, one ulp either side of it, just under the
    // binade boundary below it, or just under a p_min within reach.
    const double c = candidate(p, step, rng.uniform_int(1, kReach));
    double limit = c;
    switch (rng.uniform_int(0, 4)) {
      case 0:
        break;
      case 1:
        limit = std::nextafter(c, std::numeric_limits<double>::infinity());
        break;
      case 2:
        limit = std::nextafter(c, 0.0);
        break;
      case 3: {
        const double boundary = std::ldexp(1.0, std::ilogb(c));
        if (p - boundary <= 2.0 * reach) limit = std::nextafter(boundary, 0.0);
        break;
      }
      default: {
        const double p_min =
            p - 1e-3 <= reach ? 1e-3 : p - rng.uniform(0.0, reach);
        limit = std::nextafter(p_min, 0.0);
        break;
      }
    }
    if (!(limit < p)) limit = std::nextafter(p, 0.0);  // p stalls

    const std::optional<GridCrossing> want = expect_walk(p, step, limit);
    if (!want) {
      ++stalls;
      continue;
    }
    if (std::ilogb(want->first_at_or_below) != std::ilogb(p)) {
      ++binade_crossings;
    }
    // Candidates in [tie_lo + step, 2 tie_lo) above the limit take a tie
    // step; a stretch of two steps is sure to hold one.
    if (std::min(p, 2.0 * tie_lo) -
            std::max(want->last_above, tie_lo + step) >=
        2.0 * step) {
      ++tie_walks;
    }
  }
  // The draw covers what the walk special-cases.
  EXPECT_GE(tie_walks, kCases / 10);
  EXPECT_GE(binade_crossings, kCases / 4);
  EXPECT_GE(stalls, 1000);
}

TEST(WalkDownGrid, ACandidateTheStepCannotMoveThrows) {
  // One ulp of 3e17 is 64: p - 1e-3 == p.
  EXPECT_THROW((void)walk_down_grid(3e17, 1e-3, 1.0), ModelError);
  // Exactly half an ulp: round-half-even keeps an even significand...
  EXPECT_THROW((void)walk_down_grid(1.0 + 0x1p-51, 0x1p-53, 0.5), ModelError);
  // ...and moves an odd one once, onto an even one that stays.
  EXPECT_THROW((void)walk_down_grid(1.0 + 3 * 0x1p-52, 0x1p-53, 0.5),
               ModelError);
  // The same half ulp from 1 + 2^-52 lands on 1, below which the spacing
  // is 2^-53: every later step moves.
  expect_walk(1.0 + 0x1p-52, 0x1p-53, 1.0 - 0x1p-50);
  // Over half an ulp but under one, the step moves a whole ulp (64 here).
  expect_walk(3e17 + 64 * 1000, 40.0, 3e17);
}

TEST(WalkDownGrid, RejectsBadArguments) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)walk_down_grid(1.0, 0.1, 1.0), ModelError);  // p <= limit
  EXPECT_THROW((void)walk_down_grid(1.0, 0.0, 0.5), ModelError);
  EXPECT_THROW((void)walk_down_grid(1.0, -0.1, 0.5), ModelError);
  EXPECT_THROW((void)walk_down_grid(1.0, nan, 0.5), ModelError);
  EXPECT_THROW((void)walk_down_grid(1.0, inf, 0.5), ModelError);
  EXPECT_THROW((void)walk_down_grid(inf, 0.1, 0.5), ModelError);
  EXPECT_THROW((void)walk_down_grid(1.0, 0.1, nan), ModelError);
}

TEST(WalkDownGrid, SubnormalAndNonPositiveCandidates) {
  // Into the subnormals, to a limit among them and to zero.
  expect_walk(0x1p-1021, 0x1.8p-1030, 0x1p-1025);
  expect_walk(0x1p-1021, 0x1.8p-1030, 0.0);
  // Across zero into negative candidates.
  expect_walk(1e-300, 3e-302, -1e-300);
  expect_walk(1.0, 0.3, -2.0);
}

}  // namespace
}  // namespace flexrt
