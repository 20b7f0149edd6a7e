#include "core/integration.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "core/analysis_engine.hpp"
#include "core/paper_example.hpp"
#include "hier/min_quantum.hpp"

namespace flexrt::core {
namespace {

using hier::Scheduler;

class Integration : public ::testing::Test {
 protected:
  ModeTaskSystem sys_ = paper_example();
  analysis::BatchEngine edf_{sys_, Scheduler::EDF};
};

TEST_F(Integration, MarginEqualsPeriodMinusQuantaSum) {
  for (const double p : {0.5, 1.0, 2.0, 3.0}) {
    double sum = 0.0;
    for (const rt::Mode m : kAllModes) {
      sum += edf_.mode_min_quantum(m, p);
    }
    EXPECT_NEAR(edf_.feasibility_margin(p), p - sum, 1e-12);
  }
}

TEST_F(Integration, ModeMinQuantumIsMaxOverChannels) {
  // The FS mode has channels {tau6..8} (U=0.267) and {tau9} (U=0.25, D=4).
  const double p = 2.0;
  const rt::TaskSet fs1 = sys_.partitions(rt::Mode::FS)[0];
  const rt::TaskSet fs2 = sys_.partitions(rt::Mode::FS)[1];
  const double q1 = hier::min_quantum(fs1, Scheduler::EDF, p);
  const double q2 = hier::min_quantum(fs2, Scheduler::EDF, p);
  EXPECT_NEAR(edf_.mode_min_quantum(rt::Mode::FS, p),
              std::max(q1, q2), 1e-12);
}

TEST_F(Integration, MarginIsContinuousOnTheGrid) {
  // lhs(P) is continuous (max/min of continuous functions); adjacent fine
  // grid samples must not jump.
  const SearchOptions opts{0.2, 3.4, 2e-3, 1e-7, false};
  const auto samples = edf_.sample_region(opts);
  for (std::size_t i = 1; i < samples.size(); ++i) {
    EXPECT_LT(std::fabs(samples[i].margin - samples[i - 1].margin), 0.05)
        << "jump at P=" << samples[i].period;
  }
}

TEST_F(Integration, MaxFeasiblePeriodSitsOnTheBoundary) {
  const double o = 0.05;
  const double p = edf_.max_feasible_period(o);
  EXPECT_GE(edf_.feasibility_margin(p), o - 1e-6);
  // A slightly larger period must be infeasible (this is the last crossing).
  EXPECT_LT(edf_.feasibility_margin(p + 1e-3), o);
}

TEST_F(Integration, InfeasibleOverheadThrows) {
  EXPECT_THROW(edf_.max_feasible_period(10.0), InfeasibleError);
  EXPECT_THROW(edf_.max_slack_period(10.0), InfeasibleError);
}

TEST_F(Integration, MaxOverheadDominatesEveryGridSample) {
  const auto lim = edf_.max_admissible_overhead();
  const auto samples = edf_.sample_region();
  for (const RegionSample& s : samples) {
    EXPECT_LE(s.margin, lim.max_overhead + 1e-6);
  }
}

TEST_F(Integration, SlackOptimumConsistency) {
  const double o = 0.05;
  const auto opt = edf_.max_slack_period(o);
  EXPECT_NEAR(opt.slack,
              edf_.feasibility_margin(opt.period) - o, 1e-6);
  EXPECT_NEAR(opt.slack_bandwidth, opt.slack / opt.period, 1e-9);
  // It must beat a handful of other feasible periods on slack bandwidth.
  for (const double p : {0.5, 1.5, 2.5}) {
    const double other = (edf_.feasibility_margin(p) - o) / p;
    EXPECT_GE(opt.slack_bandwidth, other - 1e-6);
  }
}

TEST_F(Integration, ExactSupplyWidensTheRegion) {
  // minQ under the exact Lemma-1 supply is never larger, so the margin is
  // never smaller and the maximal feasible period can only grow.
  for (const double p : {0.5, 1.0, 2.0, 3.0}) {
    EXPECT_GE(edf_.feasibility_margin(p, true),
              edf_.feasibility_margin(p, false) - 1e-6);
  }
  SearchOptions exact_opts;
  exact_opts.use_exact_supply = true;
  const double p_exact = edf_.max_feasible_period(0.05, exact_opts);
  const double p_linear = edf_.max_feasible_period(0.05);
  EXPECT_GE(p_exact, p_linear - 1e-4);
}

TEST_F(Integration, AutoPeriodBoundCoversLargestDeadline) {
  EXPECT_GE(auto_period_bound(sys_), 30.0);  // tau13's period
}

TEST_F(Integration, InvalidSearchRangeThrows) {
  SearchOptions bad;
  bad.p_min = 5.0;
  bad.p_max = 1.0;
  EXPECT_THROW(edf_.max_feasible_period(0.0, bad), ModelError);
}

}  // namespace
}  // namespace flexrt::core
