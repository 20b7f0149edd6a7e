// Acceptance parity: the in-place batched sensitivity kernels must
// reproduce the seed's deep-copy-per-probe implementation (frozen in
// bench/legacy_kernels.hpp) on the paper example, for both schedulers, to
// within the shared bisection tolerance.
#include <gtest/gtest.h>

#include "core/analysis_engine.hpp"
#include "core/design.hpp"
#include "core/paper_example.hpp"
#include "legacy_kernels.hpp"

namespace flexrt::core {
namespace {

ModeSchedule solved_schedule(hier::Scheduler alg) {
  return solve_design(analysis::BatchEngine(paper_example(), alg),
                      {0.02, 0.02, 0.02}, DesignGoal::MaxSlackBandwidth)
      .schedule;
}

// Both implementations bisect to 1e-4 on lambda; identical decisions give
// identical lo endpoints, so the gap can only reach the tolerance if one
// probe flips at an ulp-tight boundary.
constexpr double kMarginTol = 2e-4;

class SensitivityParity : public ::testing::TestWithParam<hier::Scheduler> {};

TEST_P(SensitivityParity, ReportMatchesDeepCopyReference) {
  const hier::Scheduler alg = GetParam();
  const ModeTaskSystem sys = paper_example();
  const ModeSchedule schedule = solved_schedule(alg);

  const std::vector<TaskMargin> fast =
      analysis::BatchEngine(sys, alg).sensitivity_report(schedule);
  const std::vector<TaskMargin> ref =
      legacy::sensitivity_report(sys, schedule, alg);

  ASSERT_EQ(fast.size(), ref.size());
  ASSERT_EQ(fast.size(), sys.num_tasks());
  for (std::size_t i = 0; i < fast.size(); ++i) {
    EXPECT_EQ(fast[i].name, ref[i].name);
    EXPECT_EQ(fast[i].mode, ref[i].mode);
    EXPECT_DOUBLE_EQ(fast[i].wcet, ref[i].wcet);
    EXPECT_NEAR(fast[i].scale_margin, ref[i].scale_margin, kMarginTol)
        << "task " << fast[i].name;
  }
}

TEST_P(SensitivityParity, SingleTaskMarginMatchesDeepCopyReference) {
  const hier::Scheduler alg = GetParam();
  const ModeTaskSystem sys = paper_example();
  const ModeSchedule schedule = solved_schedule(alg);
  const analysis::BatchEngine engine(sys, alg);
  for (const rt::Mode mode : kAllModes) {
    for (const rt::TaskSet& ts : sys.partitions(mode)) {
      for (const rt::Task& t : ts) {
        EXPECT_NEAR(engine.wcet_scale_margin(schedule, t.name),
                    legacy::bisect_margin(sys, schedule, alg, t.name, 16.0,
                                          1e-4),
                    kMarginTol)
            << "task " << t.name;
      }
    }
  }
}

TEST_P(SensitivityParity, GlobalMarginMatchesDeepCopyReference) {
  const hier::Scheduler alg = GetParam();
  const ModeTaskSystem sys = paper_example();
  const ModeSchedule schedule = solved_schedule(alg);
  EXPECT_NEAR(analysis::BatchEngine(sys, alg).global_scale_margin(schedule),
              legacy::bisect_margin(sys, schedule, alg, "", 16.0, 1e-4),
              kMarginTol);
}

INSTANTIATE_TEST_SUITE_P(Schedulers, SensitivityParity,
                         ::testing::Values(hier::Scheduler::EDF,
                                           hier::Scheduler::FP),
                         [](const auto& param_info) {
                           return hier::to_string(param_info.param);
                         });

TEST(BatchEngine, VerifyMatchesVerifySchedule) {
  // The frozen full-enumeration verify is the reference.
  const ModeTaskSystem sys = paper_example();
  for (const hier::Scheduler alg :
       {hier::Scheduler::EDF, hier::Scheduler::FP}) {
    const analysis::BatchEngine engine(sys, alg);
    ModeSchedule schedule = solved_schedule(alg);
    EXPECT_TRUE(engine.verify(schedule));
    // Shrink one quantum until infeasible; both verdicts must track.
    for (const double nf_scale : {1.0, 0.5, 0.0}) {
      schedule.nf.usable *= nf_scale;
      for (const bool exact : {false, true}) {
        EXPECT_EQ(engine.verify(schedule, exact),
                  legacy::verify_schedule(sys, schedule, alg, exact))
            << hier::to_string(alg) << " nf x" << nf_scale
            << (exact ? " exact" : " linear");
      }
    }
  }
}

TEST(BatchEngine, PeriodKernelsMatchLegacyKernels) {
  // The frozen kernels re-derive every channel's points per call; the
  // engine's cached contexts must give the same Eq. 15 margin.
  const ModeTaskSystem sys = paper_example();
  for (const hier::Scheduler alg :
       {hier::Scheduler::EDF, hier::Scheduler::FP}) {
    const analysis::BatchEngine engine(sys, alg);
    for (const double p : {0.8, 1.5, 2.0, 3.0}) {
      EXPECT_NEAR(engine.feasibility_margin(p),
                  legacy::feasibility_margin(sys, alg, p), 1e-9)
          << hier::to_string(alg) << " P=" << p;
    }
  }
}

}  // namespace
}  // namespace flexrt::core
