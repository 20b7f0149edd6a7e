#include "core/design.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/analysis_engine.hpp"
#include "core/paper_example.hpp"

namespace flexrt::core {
namespace {

using hier::Scheduler;

class DesignTest : public ::testing::Test {
 protected:
  ModeTaskSystem sys_ = paper_example();
  analysis::BatchEngine edf_{sys_, Scheduler::EDF};
  Overheads ov_{0.02, 0.02, 0.01};
};

TEST_F(DesignTest, SolvedSchedulesAlwaysVerify) {
  for (const Scheduler alg : {Scheduler::FP, Scheduler::EDF}) {
    for (const DesignGoal goal : {DesignGoal::MinOverheadBandwidth,
                                  DesignGoal::MaxSlackBandwidth}) {
      const analysis::BatchEngine engine(sys_, alg);
      const Design d = solve_design(engine, ov_, goal);
      EXPECT_TRUE(engine.verify(d.schedule))
          << to_string(alg) << "/" << to_string(goal);
      // The linear-supply guarantee implies the exact-supply one.
      EXPECT_TRUE(engine.verify(d.schedule, true));
      EXPECT_GE(d.schedule.slack(), -1e-9);
    }
  }
}

TEST_F(DesignTest, QuantaEqualModeMinima) {
  const Design d = solve_design(edf_, ov_, DesignGoal::MaxSlackBandwidth);
  const double p = d.schedule.period;
  EXPECT_NEAR(d.schedule.ft.usable, edf_.mode_min_quantum(rt::Mode::FT, p),
              1e-9);
  EXPECT_NEAR(d.schedule.fs.usable, edf_.mode_min_quantum(rt::Mode::FS, p),
              1e-9);
  EXPECT_NEAR(d.schedule.nf.usable, edf_.mode_min_quantum(rt::Mode::NF, p),
              1e-9);
}

TEST_F(DesignTest, OverheadsCarriedIntoSlots) {
  const Design d = solve_design(edf_, ov_, DesignGoal::MinOverheadBandwidth);
  EXPECT_DOUBLE_EQ(d.schedule.ft.overhead, ov_.ft);
  EXPECT_DOUBLE_EQ(d.schedule.fs.overhead, ov_.fs);
  EXPECT_DOUBLE_EQ(d.schedule.nf.overhead, ov_.nf);
}

TEST_F(DesignTest, MinOverheadGoalMinimizesOverheadBandwidth) {
  const Design a = solve_design(edf_, ov_, DesignGoal::MinOverheadBandwidth);
  const Design b = solve_design(edf_, ov_, DesignGoal::MaxSlackBandwidth);
  EXPECT_LE(a.schedule.overhead_bandwidth(),
            b.schedule.overhead_bandwidth() + 1e-9);
  EXPECT_GE(b.schedule.slack_bandwidth(),
            a.schedule.slack_bandwidth() - 1e-9);
}

TEST_F(DesignTest, NegativeOverheadRejected) {
  EXPECT_THROW(
      solve_design(edf_, {-0.1, 0, 0}, DesignGoal::MinOverheadBandwidth),
      ModelError);
}

TEST_F(DesignTest, DistributeSlackConsumesSlackAndStaysFeasible) {
  const Design d = solve_design(edf_, ov_, DesignGoal::MaxSlackBandwidth);
  ASSERT_GT(d.schedule.slack(), 0.01);
  const ModeSchedule grown = distribute_slack(d);
  EXPECT_NEAR(grown.slack(), 0.0, 1e-9);
  EXPECT_GE(grown.ft.usable, d.schedule.ft.usable);
  EXPECT_GE(grown.fs.usable, d.schedule.fs.usable);
  EXPECT_GE(grown.nf.usable, d.schedule.nf.usable);
  EXPECT_TRUE(edf_.verify(grown));
}

TEST(ModeScheduleTest, SlotOffsetsFollowFtFsNfOrder) {
  ModeSchedule s;
  s.period = 10.0;
  s.ft = {2.0, 0.5};
  s.fs = {3.0, 0.5};
  s.nf = {1.0, 0.0};
  s.validate();
  EXPECT_DOUBLE_EQ(s.slot_offset(rt::Mode::FT), 0.0);
  EXPECT_DOUBLE_EQ(s.slot_offset(rt::Mode::FS), 2.5);
  EXPECT_DOUBLE_EQ(s.slot_offset(rt::Mode::NF), 6.0);
  EXPECT_DOUBLE_EQ(s.slack(), 3.0);
  EXPECT_NEAR(s.slack_bandwidth(), 0.3, 1e-12);
  EXPECT_NEAR(s.overhead_bandwidth(), 0.1, 1e-12);
  EXPECT_NEAR(s.allocated_bandwidth(rt::Mode::FS), 0.3, 1e-12);
}

TEST(ModeScheduleTest, SupplyParametersMatchEq2) {
  ModeSchedule s;
  s.period = 4.0;
  s.ft = {1.0, 0.0};
  s.fs = {1.0, 0.0};
  s.nf = {1.0, 0.0};
  const hier::LinearSupply z = s.supply(rt::Mode::FT);
  EXPECT_DOUBLE_EQ(z.rate(), 0.25);
  EXPECT_DOUBLE_EQ(z.delay(), 3.0);
  const hier::SlotSupply ze = s.exact_supply(rt::Mode::FT);
  EXPECT_DOUBLE_EQ(ze.period(), 4.0);
  EXPECT_DOUBLE_EQ(ze.usable(), 1.0);
}

TEST(ModeScheduleTest, ValidateRejectsOverfullFrame) {
  ModeSchedule s;
  s.period = 2.0;
  s.ft = {1.0, 0.0};
  s.fs = {1.0, 0.0};
  s.nf = {1.0, 0.0};
  EXPECT_THROW(s.validate(), ModelError);
}

TEST(ModeScheduleTest, VerifyFailsForStarvedMode) {
  // Give FT zero quantum while it has tasks: must fail verification.
  ModeTaskSystem sys = paper_example();
  ModeSchedule s;
  s.period = 2.0;
  s.ft = {0.0, 0.0};
  s.fs = {0.9, 0.0};
  s.nf = {0.9, 0.0};
  EXPECT_FALSE(analysis::BatchEngine(sys, Scheduler::EDF).verify(s));
}

}  // namespace
}  // namespace flexrt::core
