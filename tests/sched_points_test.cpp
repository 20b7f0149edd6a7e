#include "rt/sched_points.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "hier/response_time.hpp"
#include "rt/demand.hpp"
#include "rt/priority.hpp"

namespace flexrt::rt {
namespace {

TEST(SchedPoints, HighestPriorityTaskHasOnlyItsDeadline) {
  const TaskSet ts{make_task("a", 1, 5, Mode::NF),
                   make_task("b", 1, 9, Mode::NF)};
  const auto pts = scheduling_points(ts, 0);
  ASSERT_EQ(pts.size(), 1u);
  EXPECT_DOUBLE_EQ(pts[0], 5.0);
}

TEST(SchedPoints, TwoTaskWorkedExample) {
  // tau1(T=3) > tau2(D=8): P_1(8) = P_0(6) u P_0(8) = {6, 8}.
  const TaskSet ts{make_task("a", 1, 3, Mode::NF),
                   make_task("b", 1, 8, Mode::NF)};
  const auto pts = scheduling_points(ts, 1);
  const std::vector<double> expected = {6, 8};
  ASSERT_EQ(pts.size(), expected.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_DOUBLE_EQ(pts[i], expected[i]);
  }
}

TEST(SchedPoints, ThreeTaskWorkedExample) {
  // tau1(T=3), tau2(T=8), tau3(D=20):
  // P_2(20) = P_1(16) u P_1(20) = {15,16} u {18,20}.
  const TaskSet ts{make_task("a", 1, 3, Mode::NF),
                   make_task("b", 1, 8, Mode::NF),
                   make_task("c", 1, 20, Mode::NF)};
  const auto pts = scheduling_points(ts, 2);
  const std::vector<double> expected = {15, 16, 18, 20};
  ASSERT_EQ(pts.size(), expected.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_DOUBLE_EQ(pts[i], expected[i]);
  }
}

TEST(SchedPoints, AllPointsPositiveAndAtMostDeadline) {
  Rng rng(2024);
  for (int trial = 0; trial < 50; ++trial) {
    TaskSet ts;
    const int n = static_cast<int>(rng.uniform_int(1, 6));
    for (int i = 0; i < n; ++i) {
      const double period = rng.uniform(2.0, 50.0);
      ts.add(make_task("t" + std::to_string(i), 0.5, period, Mode::NF));
    }
    const TaskSet rm = sort_rate_monotonic(ts);
    for (std::size_t i = 0; i < rm.size(); ++i) {
      for (const double t : scheduling_points(rm, i)) {
        EXPECT_GT(t, 0.0);
        EXPECT_LE(t, rm[i].deadline + 1e-9);
      }
    }
  }
}

TEST(SchedPoints, OutOfRangeIndexThrows) {
  const TaskSet ts{make_task("a", 1, 5, Mode::NF)};
  EXPECT_THROW(scheduling_points(ts, 1), ModelError);
}

// Property: the scheduling-point feasibility test on a dedicated processor
// (exists t in schedP_i with W_i(t) <= t) must agree with classic RTA on
// randomized task sets -- both are exact FP tests.
TEST(SchedPoints, AgreesWithResponseTimeAnalysis) {
  Rng rng(77);
  int schedulable_seen = 0, unschedulable_seen = 0;
  for (int trial = 0; trial < 300; ++trial) {
    TaskSet ts;
    const int n = static_cast<int>(rng.uniform_int(2, 5));
    for (int i = 0; i < n; ++i) {
      const double period =
          static_cast<double>(rng.uniform_int(4, 30));
      const double wcet = rng.uniform(0.5, period * 0.5);
      ts.add(make_task("t" + std::to_string(i), wcet, period, Mode::NF));
    }
    const TaskSet rm = sort_rate_monotonic(ts);
    for (std::size_t i = 0; i < rm.size(); ++i) {
      bool points_ok = false;
      for (const double t : scheduling_points(rm, i)) {
        if (fp_workload(rm, i, t) <= t + 1e-9) {
          points_ok = true;
          break;
        }
      }
      const bool rta_ok =
          hier::fp_response_time(rm, i, hier::LinearSupply(1.0, 0.0))
              .has_value();
      EXPECT_EQ(points_ok, rta_ok) << "trial " << trial << " task " << i;
      (rta_ok ? schedulable_seen : unschedulable_seen)++;
    }
  }
  // The generator must exercise both outcomes for the property to mean
  // anything.
  EXPECT_GT(schedulable_seen, 50);
  EXPECT_GT(unschedulable_seen, 50);
}

}  // namespace
}  // namespace flexrt::rt
