#include "hier/sched_test.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "hier/response_time.hpp"
#include "legacy_kernels.hpp"
#include "rt/priority.hpp"
#include "rt/task.hpp"

namespace flexrt::hier {
namespace {

using rt::AnalysisContext;
using rt::make_task;
using rt::Mode;
using rt::TaskSet;

TEST(FpSupplyTest, DedicatedSupplyMatchesClassicRta) {
  // With alpha=1, delta=0 the hierarchical test must agree with plain RTA.
  Rng rng(31);
  const LinearSupply dedicated(1.0, 0.0);
  int agree_sched = 0, agree_unsched = 0;
  for (int trial = 0; trial < 200; ++trial) {
    TaskSet ts;
    const int n = static_cast<int>(rng.uniform_int(2, 5));
    for (int i = 0; i < n; ++i) {
      const double period = static_cast<double>(rng.uniform_int(4, 40));
      ts.add(make_task("t" + std::to_string(i),
                       rng.uniform(0.5, period * 0.45), period, Mode::NF));
    }
    const TaskSet rm = rt::sort_rate_monotonic(ts);
    const bool hier = fp_schedulable(AnalysisContext(rm), dedicated);
    bool classic = true;
    for (std::size_t i = 0; i < rm.size(); ++i) {
      classic = classic && fp_response_time(rm, i, dedicated).has_value();
    }
    ASSERT_EQ(hier, classic) << "trial " << trial;
    (classic ? agree_sched : agree_unsched)++;
  }
  EXPECT_GT(agree_sched, 20);
  EXPECT_GT(agree_unsched, 20);
}

TEST(EdfSupplyTest, DedicatedSupplyMatchesProcessorDemand) {
  Rng rng(37);
  const LinearSupply dedicated(1.0, 0.0);
  for (int trial = 0; trial < 200; ++trial) {
    TaskSet ts;
    const int n = static_cast<int>(rng.uniform_int(2, 5));
    for (int i = 0; i < n; ++i) {
      const double period = static_cast<double>(rng.uniform_int(4, 24));
      const double wcet = rng.uniform(0.5, period * 0.45);
      const double deadline = rng.uniform(wcet, period);
      ts.add(make_task("t" + std::to_string(i), wcet, period, deadline,
                       Mode::NF));
    }
    EXPECT_EQ(edf_schedulable(AnalysisContext(ts), dedicated),
              legacy::schedulable(ts, Scheduler::EDF, dedicated))
        << "trial " << trial;
  }
}

TEST(SupplyTests, ShrinkingSupplyBreaksSchedulability) {
  const AnalysisContext ts(TaskSet{make_task("a", 1, 4, Mode::NF),
                                   make_task("b", 1, 8, Mode::NF)});
  // U = 0.375.
  // Generous partition: alpha 0.6, small delay.
  EXPECT_TRUE(edf_schedulable(ts, LinearSupply(0.6, 0.5)));
  EXPECT_TRUE(fp_schedulable(ts, LinearSupply(0.6, 0.5)));
  // Rate below utilization can never work.
  EXPECT_FALSE(edf_schedulable(ts, LinearSupply(0.3, 0.5)));
  EXPECT_FALSE(fp_schedulable(ts, LinearSupply(0.3, 0.5)));
  // Huge delay starves the short-deadline task.
  EXPECT_FALSE(edf_schedulable(ts, LinearSupply(0.9, 3.9)));
  EXPECT_FALSE(fp_schedulable(ts, LinearSupply(0.9, 3.9)));
}

TEST(SupplyTests, ExactSlotSupplyDominatesLinearBound) {
  // Anything schedulable under the linear bound must stay schedulable under
  // the exact Lemma-1 supply of the same slot.
  Rng rng(41);
  int upgraded = 0;
  for (int trial = 0; trial < 150; ++trial) {
    TaskSet ts;
    const int n = static_cast<int>(rng.uniform_int(1, 4));
    for (int i = 0; i < n; ++i) {
      const double period = static_cast<double>(rng.uniform_int(6, 30));
      ts.add(make_task("t" + std::to_string(i),
                       rng.uniform(0.3, period * 0.2), period, Mode::NF));
    }
    const double p = rng.uniform(0.5, 4.0);
    const double q = rng.uniform(0.1 * p, p);
    const SlotSupply exact(p, q);
    const LinearSupply linear = exact.linear_bound();
    const AnalysisContext edf(ts);
    const AnalysisContext rm(rt::sort_rate_monotonic(ts));
    if (edf_schedulable(edf, linear)) {
      EXPECT_TRUE(edf_schedulable(edf, exact)) << "trial " << trial;
    } else if (edf_schedulable(edf, exact)) {
      upgraded++;  // exact supply admits strictly more sets
    }
    if (fp_schedulable(rm, linear)) {
      EXPECT_TRUE(fp_schedulable(rm, exact));
    }
  }
  EXPECT_GT(upgraded, 0) << "exact test never beat the linear bound; the "
                            "comparison is vacuous";
}

TEST(SupplyTests, EmptyTaskSetAlwaysSchedulable) {
  const AnalysisContext empty(TaskSet{});
  EXPECT_TRUE(edf_schedulable(empty, LinearSupply(0.1, 10.0)));
  EXPECT_TRUE(fp_schedulable(empty, LinearSupply(0.1, 10.0)));
}

TEST(SchedulerEnum, Names) {
  EXPECT_STREQ(to_string(Scheduler::FP), "FP");
  EXPECT_STREQ(to_string(Scheduler::EDF), "EDF");
}

}  // namespace
}  // namespace flexrt::hier
