#include "hier/min_quantum.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "legacy_kernels.hpp"
#include "rt/priority.hpp"

namespace flexrt::hier {
namespace {

using rt::make_task;
using rt::Mode;
using rt::TaskSet;

TEST(QuantumForPoint, SolvesTheQuadraticExactly) {
  // q is the positive root of q^2 + (t-P) q - W P = 0.
  for (const double t : {1.0, 4.0, 10.0}) {
    for (const double w : {0.5, 1.0, 3.0}) {
      for (const double p : {0.5, 2.0, 8.0}) {
        const double q = quantum_for_point(t, w, p);
        EXPECT_NEAR(q * q + (t - p) * q - w * p, 0.0, 1e-9);
        EXPECT_GT(q, 0.0);
      }
    }
  }
}

TEST(QuantumForPoint, DedicatedLimitWhenWindowEqualsDemand) {
  // With W = t and P arbitrary, the partition must be the whole processor
  // during the window: q such that alpha(t - delta) = t forces q = P.
  EXPECT_NEAR(quantum_for_point(5.0, 5.0, 2.0), 2.0, 1e-12);
}

/// A draw of (t, W, P) with t/P from 1e-6 to 1e15 and W in (0, t].
struct PointDraw {
  double t, w, p;
};

PointDraw draw_point(Rng& rng) {
  const double p = std::pow(10.0, rng.uniform(-3.0, 3.0));
  const double t = p * std::pow(10.0, rng.uniform(-6.0, 15.0));
  return {t, t * std::pow(10.0, rng.uniform(-12.0, 0.0)), p};
}

/// |a - b| in units of the last place of b.
double ulps(double a, double b) {
  return std::abs(a - b) / (std::nextafter(b, INFINITY) - b);
}

TEST(QuantumForPoint, WithinFourUlpOfALongDoubleReference) {
  // The root of q^2 + b q - W P = 0 (b = t - P) in extended precision,
  // each sign of b in the form that adds two non-negative terms.
  const auto reference = [](const PointDraw& d) {
    const long double b = static_cast<long double>(d.t) - d.p;
    const long double pw = static_cast<long double>(d.p) * d.w;
    const long double root = std::sqrt(b * b + 4.0L * pw);
    return static_cast<double>(b > 0 ? 2.0L * pw / (root + b)
                                     : (root - b) / 2.0L);
  };
  Rng rng(0x5EED);
  for (int k = 0; k < 20000; ++k) {
    const PointDraw d = draw_point(rng);
    EXPECT_LE(ulps(quantum_for_point(d.t, d.w, d.p), reference(d)), 4.0)
        << "t " << d.t << ", W " << d.w << ", P " << d.p;
  }
}

TEST(QuantumForPoint, MonotoneInEachArgumentWithinFourUlp) {
  // q does not decrease in W or in P and does not increase in t: the
  // condensed-bucket pairings of min_quantum rely on the W and t halves.
  Rng rng(0xC0FFEE);
  for (int k = 0; k < 20000; ++k) {
    const PointDraw d = draw_point(rng);
    const double up = 1.0 + std::pow(10.0, rng.uniform(-15.0, 0.0));
    const double q = quantum_for_point(d.t, d.w, d.p);
    const double slack = 4.0 * (std::nextafter(q, INFINITY) - q);
    EXPECT_GE(quantum_for_point(d.t, d.w * up, d.p), q - slack) << k;
    EXPECT_GE(quantum_for_point(d.t, d.w, d.p * up), q - slack) << k;
    EXPECT_LE(quantum_for_point(d.t * up, d.w, d.p), q + slack) << k;
  }
}

TEST(MinQuantum, EmptySetNeedsNothing) {
  EXPECT_DOUBLE_EQ(min_quantum(TaskSet{}, Scheduler::EDF, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(min_quantum(TaskSet{}, Scheduler::FP, 1.0), 0.0);
}

TEST(MinQuantum, SingleTaskClosedForm) {
  // One task (C=1, T=D=4), EDF: binding point is t=4 with W=1:
  // q = (sqrt((4-P)^2 + 4P) - (4-P)) / 2.
  const TaskSet ts{make_task("a", 1, 4, Mode::NF)};
  for (const double p : {0.5, 1.0, 2.0, 3.0}) {
    const double expect =
        (std::sqrt((4 - p) * (4 - p) + 4 * p) - (4 - p)) / 2.0;
    EXPECT_NEAR(min_quantum(ts, Scheduler::EDF, p), expect, 1e-9) << p;
    EXPECT_NEAR(min_quantum(ts, Scheduler::FP, p), expect, 1e-9) << p;
  }
}

// Parameterized property sweep over periods.
class MinQuantumProperty : public ::testing::TestWithParam<double> {
 protected:
  TaskSet ts_ = rt::sort_rate_monotonic(
      TaskSet{make_task("a", 1, 6, Mode::NF), make_task("b", 1, 8, Mode::NF),
              make_task("c", 2, 15, Mode::NF)});
};

TEST_P(MinQuantumProperty, AllocatingMinQIsFeasible) {
  const double period = GetParam();
  for (const Scheduler alg : {Scheduler::FP, Scheduler::EDF}) {
    const double q = min_quantum(ts_, alg, period);
    if (q > period) continue;  // no feasible quantum at this period
    EXPECT_TRUE(
        legacy::schedulable(ts_, alg, LinearSupply(q / period, period - q)))
        << to_string(alg) << " P=" << period;
  }
}

TEST_P(MinQuantumProperty, SlightlyLessThanMinQIsInfeasible) {
  const double period = GetParam();
  for (const Scheduler alg : {Scheduler::FP, Scheduler::EDF}) {
    const double q = 0.98 * min_quantum(ts_, alg, period);
    if (q <= 0.0 || q > period) continue;
    EXPECT_FALSE(
        legacy::schedulable(ts_, alg, LinearSupply(q / period, period - q)))
        << to_string(alg) << " P=" << period;
  }
}

TEST_P(MinQuantumProperty, BandwidthAtLeastUtilization) {
  // The quantum must provide at least the task-set utilization as rate.
  const double period = GetParam();
  const double u = ts_.utilization();
  for (const Scheduler alg : {Scheduler::FP, Scheduler::EDF}) {
    EXPECT_GE(min_quantum(ts_, alg, period) / period, u - 1e-9);
  }
}

TEST_P(MinQuantumProperty, EdfNeverNeedsMoreThanFp) {
  // EDF is the optimal uniprocessor scheduler; inverting its exact test can
  // only ask for a smaller quantum than the FP inversion.
  const double period = GetParam();
  EXPECT_LE(min_quantum(ts_, Scheduler::EDF, period),
            min_quantum(ts_, Scheduler::FP, period) + 1e-9);
}

TEST_P(MinQuantumProperty, ExactSupplyNeedsAtMostLinearQuantum) {
  const double period = GetParam();
  for (const Scheduler alg : {Scheduler::FP, Scheduler::EDF}) {
    const double linear = min_quantum(ts_, alg, period);
    const double exact = min_quantum_exact(ts_, alg, period);
    if (std::isinf(exact)) continue;
    EXPECT_LE(exact, std::min(linear, period) + 1e-6)
        << to_string(alg) << " P=" << period;
    // And the exact answer must itself be feasible under the exact supply.
    EXPECT_TRUE(legacy::schedulable(ts_, alg, SlotSupply(period, exact)));
  }
}

INSTANTIATE_TEST_SUITE_P(PeriodSweep, MinQuantumProperty,
                         ::testing::Values(0.25, 0.5, 1.0, 1.5, 2.0, 3.0,
                                           4.0, 6.0));

TEST(MinQuantum, GrowsWithDemand) {
  Rng rng(53);
  for (int trial = 0; trial < 100; ++trial) {
    const double period = rng.uniform(0.5, 4.0);
    const double wcet = rng.uniform(0.2, 1.5);
    const double t_period = rng.uniform(4.0, 20.0);
    const TaskSet light{make_task("a", wcet, t_period, Mode::NF)};
    const TaskSet heavy{make_task("a", wcet * 1.5, t_period, Mode::NF)};
    for (const Scheduler alg : {Scheduler::FP, Scheduler::EDF}) {
      EXPECT_LE(min_quantum(light, alg, period),
                min_quantum(heavy, alg, period) + 1e-12);
    }
  }
}

TEST(MinQuantumExact, InfeasibleSetReportsInfinity) {
  const TaskSet over{make_task("a", 5, 5, Mode::NF),
                     make_task("b", 1, 5, Mode::NF)};  // U = 1.2
  EXPECT_TRUE(std::isinf(min_quantum_exact(over, Scheduler::EDF, 1.0)));
}

}  // namespace
}  // namespace flexrt::hier
