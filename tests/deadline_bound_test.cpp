// Coverage for the QPA-bounded/condensed deadline set: exactness on
// tractable sets, conservative safety of the condensed tests (condensed
// schedulable implies fully schedulable, condensed minQ covers the full
// set), the QPA tail test, and tractability + determinism of the
// hyperperiod-hostile stress generator.
#include "rt/deadline_bound.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/rng.hpp"
#include "gen/taskset_gen.hpp"
#include "hier/min_quantum.hpp"
#include "hier/sched_test.hpp"
#include "hier/supply.hpp"
#include "legacy_kernels.hpp"
#include "rt/analysis_context.hpp"
#include "rt/demand.hpp"

namespace flexrt::rt {
namespace {

TaskSet random_set(std::uint64_t seed, std::size_t n, double util) {
  Rng rng(seed);
  gen::GenParams gp;
  gp.num_tasks = n;
  gp.total_utilization = util;
  gp.ft_fraction = 0.0;
  gp.fs_fraction = 0.0;
  gp.deadline_min_ratio = 0.8;  // constrained deadlines stress dlSet
  return gen::generate_task_set(gp, rng);
}

TEST(BoundedDeadlineSet, ExactOnTractableSets) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const TaskSet ts = random_set(seed, 3 + seed % 8, 0.6);
    const BoundedDeadlineSet dl = bounded_deadline_set(ts);
    const std::vector<double> full = deadline_set(ts);
    EXPECT_TRUE(dl.exact);
    EXPECT_TRUE(dl.ends.empty());  // empty == "identical to times"
    ASSERT_EQ(dl.times.size(), full.size());
    for (std::size_t k = 0; k < full.size(); ++k) {
      EXPECT_DOUBLE_EQ(dl.times[k], full[k]);
    }
    EXPECT_NEAR(dl.full_horizon, ts.hyperperiod(), 1e-9);
    EXPECT_NEAR(dl.utilization, ts.utilization(), 1e-12);
  }
}

TEST(BoundedDeadlineSet, EmptySetIsExactAndEmpty) {
  const BoundedDeadlineSet dl = bounded_deadline_set(TaskSet{});
  EXPECT_TRUE(dl.exact);
  EXPECT_TRUE(dl.times.empty());
}

TEST(BoundedDeadlineSet, BudgetCondensesWithConservativeBuckets) {
  const TaskSet ts = random_set(77, 8, 0.7);
  const std::vector<double> full = deadline_set(ts);
  ASSERT_GT(full.size(), 12u);
  DlBoundOptions opts;
  // Explicit horizon (the full hyperperiod) + a tight budget forces the
  // coalescing path; the auto horizon would pre-bound the enumeration.
  opts.horizon = ts.hyperperiod();
  opts.max_points = 8;
  const BoundedDeadlineSet dl = bounded_deadline_set(ts, opts);
  EXPECT_FALSE(dl.exact);
  EXPECT_LE(dl.times.size(), opts.max_points);
  ASSERT_EQ(dl.times.size(), dl.ends.size());
  for (std::size_t k = 0; k < dl.times.size(); ++k) {
    EXPECT_LE(dl.times[k], dl.ends[k]);  // bucket start <= bucket end
    if (k > 0) {
      EXPECT_GT(dl.times[k], dl.ends[k - 1]);  // disjoint, ordered
    }
  }
  // Every covered deadline falls in some bucket.
  for (const double d : full) {
    if (d > dl.horizon * (1.0 + 1e-12)) continue;
    const bool covered =
        std::any_of(dl.times.begin(), dl.times.end(),
                    [&](double t) { return t <= d; });
    EXPECT_TRUE(covered) << d;
  }
}

TEST(BoundedDeadlineSet, ZeroBudgetDisablesCondensation) {
  const TaskSet ts = random_set(5, 6, 0.6);
  DlBoundOptions opts;
  opts.max_points = 0;
  const BoundedDeadlineSet dl = bounded_deadline_set(ts, opts);
  EXPECT_TRUE(dl.exact);
  EXPECT_EQ(dl.times.size(), deadline_set(ts).size());
}

TEST(QpaHorizon, MatchesTheLineCrossingAlgebra) {
  // U t + c <= rate (t - delay) first holds at L* = (c + rate delay) /
  // (rate - U): the tail is covered from L* on, and not from below it.
  EXPECT_TRUE(tail_covered(0.5, 2.0, 11.0, 0.75, 1.0));  // L* = 11
  EXPECT_FALSE(tail_covered(0.5, 2.0, 11.0 * 0.99, 0.75, 1.0));
  Rng rng(0x7A11);
  for (int k = 0; k < 2000; ++k) {
    const double u = rng.uniform(0.0, 0.9);
    const double rate = u + rng.uniform(0.01, 0.1);
    const double c = rng.uniform(0.0, 10.0);
    const double delay = rng.uniform(0.0, 5.0);
    const double l = (c + rate * delay) / (rate - u);
    const double h = l * (rng.uniform(0.0, 1.0) < 0.5 ? rng.uniform(0.0, 0.999)
                                                      : rng.uniform(1.001, 2.0));
    EXPECT_EQ(tail_covered(u, c, h, rate, delay), h >= l) << k;
  }
}

TEST(QpaHorizon, InfiniteWhenSupplyRateCannotCover) {
  // rate <= U: the lines never cross, so no horizon covers the tail.
  EXPECT_FALSE(tail_covered(0.6, 1.0, 1e12, 0.6, 0.5));
  EXPECT_FALSE(tail_covered(0.6, 1.0, 1e12, 0.5, 0.5));
  EXPECT_TRUE(tail_covered(0.0, 0.0, 0.0, 0.5, 0.0));  // L* = 0
}

TEST(QpaHorizon, TightRateIsCoveredAtTheHorizon) {
  // A G1 design's tail quantum: the rate exceeds U by ~1.4e-8 and the
  // lines meet at H. L* divides by that difference, and its rounding alone
  // can put it past H by more than the tolerance.
  const double u = 0.45389825244586152, h = 59577640.203270882;
  const double delay = 1.8781799527540308;
  const double rate = (u * h) / (h - delay);
  ASSERT_GT(rate, u);
  EXPECT_TRUE(tail_covered(u, 0.0, h, rate, delay));
}

// The heart of the safety argument: a condensed context never reports
// schedulable when the full test would not, and its minQ always covers the
// full set's.
/// Two condensed configurations, both inexact: horizon truncation (auto
/// horizon under a tight budget) and bucket coalescing (explicit full
/// horizon condensed down to the budget).
std::vector<DlBoundOptions> tight_configs(const TaskSet& ts) {
  DlBoundOptions truncating;
  truncating.max_points = 6;
  DlBoundOptions coalescing;
  coalescing.horizon = ts.hyperperiod();
  coalescing.max_points = 6;
  return {truncating, coalescing};
}

TEST(CondensedSafety, SchedulableNeverContradictsFullTest) {
  Rng rng(4242);
  int condensed_passes = 0;
  for (std::uint64_t seed = 20; seed < 50; ++seed) {
    const TaskSet ts = random_set(seed, 8, 0.55 + 0.01 * (seed % 10));
    for (const DlBoundOptions& tight : tight_configs(ts)) {
      const AnalysisContext condensed(ts, tight);
      ASSERT_FALSE(condensed.dl_exact());
      for (int s = 0; s < 10; ++s) {
        const double period = rng.uniform(0.5, 6.0);
        const double usable = rng.uniform(0.05, 1.0) * period;
        const hier::SlotSupply slot(period, usable);
        if (hier::edf_schedulable(condensed, slot)) {
          condensed_passes++;
          EXPECT_TRUE(legacy::schedulable(ts, hier::Scheduler::EDF, slot))
              << "seed=" << seed << " P=" << period << " q=" << usable;
        }
      }
    }
  }
  // The condensed test must stay useful, not degenerate to "never".
  EXPECT_GT(condensed_passes, 50);
}

TEST(CondensedSafety, MinQuantumOverApproximatesAndStaysValid) {
  for (std::uint64_t seed = 60; seed < 75; ++seed) {
    const TaskSet ts = random_set(seed, 8, 0.6);
    const AnalysisContext full(ts);
    ASSERT_TRUE(full.dl_exact());
    for (const DlBoundOptions& tight : tight_configs(ts)) {
      const AnalysisContext condensed(ts, tight);
      for (const double period : {0.5, 1.0, 2.0, 4.0}) {
        const double q_full =
            hier::min_quantum(full, hier::Scheduler::EDF, period);
        const double q_cond =
            hier::min_quantum(condensed, hier::Scheduler::EDF, period);
        // Safe over-approximation...
        EXPECT_GE(q_cond, q_full - 1e-9)
            << "seed=" << seed << " P=" << period;
        // ...whose supply really schedules the full set.
        if (q_cond < period) {
          const hier::LinearSupply supply(q_cond / period, period - q_cond);
          EXPECT_TRUE(legacy::schedulable(ts, hier::Scheduler::EDF, supply))
              << "seed=" << seed << " P=" << period << " q=" << q_cond;
        }
      }
    }
  }
}

TEST(CondensedSafety, ExactContextsKeepExactResults) {
  // Default options on tractable sets: the condensed layer must not perturb
  // the exact analysis at all.
  for (std::uint64_t seed = 80; seed < 90; ++seed) {
    const TaskSet ts = random_set(seed, 6, 0.6);
    const AnalysisContext ctx(ts);
    EXPECT_TRUE(ctx.dl_exact());
    for (const double period : {1.0, 3.0}) {
      double ref = 0.0;
      for (const double t : deadline_set(ts)) {
        ref = std::max(ref,
                       hier::quantum_for_point(t, edf_demand(ts, t), period));
      }
      EXPECT_NEAR(hier::min_quantum(ctx, hier::Scheduler::EDF, period), ref,
                  1e-9);
    }
  }
}

TEST(BoundedDeadlineSet, BudgetBoundsEnumerationUnderExtremePeriodSpread) {
  // Many short-period tasks plus one task whose deadline dwarfs the
  // budget-derived horizon: the enumeration must stay O(max_points), not
  // blow up to max_deadline * density points. First jobs beyond the
  // horizon are covered by the QPA tail, not by materialized points.
  std::vector<Task> tasks;
  for (int i = 0; i < 50; ++i) {
    tasks.push_back(make_task("f" + std::to_string(i), 0.001, 1.0,
                              Mode::NF));
  }
  tasks.push_back(make_task("slow", 1.0, 1e6, Mode::NF));
  const TaskSet ts(std::move(tasks));
  DlBoundOptions opts;
  opts.max_points = 512;
  const BoundedDeadlineSet dl = bounded_deadline_set(ts, opts);
  EXPECT_FALSE(dl.exact);
  EXPECT_LE(dl.times.size(), opts.max_points);
  EXPECT_LT(dl.horizon, 1e6);  // not dragged out to the longest deadline
  // The tail still guards the far deadline: a supply whose rate cannot
  // absorb the long task's demand line is rejected.
  const AnalysisContext ctx(ts, opts);
  EXPECT_FALSE(hier::edf_schedulable(
      ctx, hier::LinearSupply(ts.utilization() * 0.9, 0.0)));
}

TEST(StressGenerator, DeterministicPerSeed) {
  gen::StressParams sp;
  sp.num_tasks = 64;
  Rng a(11), b(11);
  const TaskSet x = gen::generate_stress_set(sp, a);
  const TaskSet y = gen::generate_stress_set(sp, b);
  ASSERT_EQ(x.size(), y.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_DOUBLE_EQ(x[i].wcet, y[i].wcet);
    EXPECT_DOUBLE_EQ(x[i].period, y[i].period);
    EXPECT_DOUBLE_EQ(x[i].deadline, y[i].deadline);
  }
  Rng c(12);
  const TaskSet z = gen::generate_stress_set(sp, c);
  bool any_diff = false;
  for (std::size_t i = 0; i < z.size(); ++i) {
    any_diff = any_diff || z[i].period != x[i].period;
  }
  EXPECT_TRUE(any_diff);
}

TEST(StressGenerator, ShapeAndHostileHyperperiod) {
  gen::StressParams sp;
  sp.num_tasks = 300;
  sp.total_utilization = 0.6;
  Rng rng(21);
  const TaskSet ts = gen::generate_stress_set(sp, rng);
  ASSERT_EQ(ts.size(), 300u);
  EXPECT_NEAR(ts.utilization(), 0.6, 1e-9);
  for (const Task& t : ts) {
    EXPECT_GE(t.period, sp.period_min * (1.0 - 1e-9));
    EXPECT_LE(t.period, sp.period_max * (1.0 + 1e-9));
    EXPECT_LE(t.deadline, t.period + 1e-12);
  }
  // Fine-grid periods make the hyperperiod saturate (or blow past any
  // usable horizon): the scenario the bounded dlSet exists for.
  EXPECT_GT(ts.hyperperiod(), 1e9);
}

TEST(StressGenerator, CondensedAnalysisIsTractable) {
  gen::StressParams sp;
  sp.num_tasks = 1000;
  Rng rng(31);
  const TaskSet ts = gen::generate_stress_set(sp, rng);
  const AnalysisContext ctx(ts);
  EXPECT_FALSE(ctx.dl_exact());
  EXPECT_LE(ctx.deadline_points().size(), DlBoundOptions{}.max_points);
  const double q = hier::min_quantum(ctx, hier::Scheduler::EDF, 2.0);
  EXPECT_TRUE(std::isfinite(q));
  // minQ must at least provide the utilization bandwidth.
  EXPECT_GE(q, ctx.utilization() * 2.0 - 1e-9);
  // And the exact-supply variant stays finite too (bisection over the
  // condensed test with tail closure).
  const double qe = hier::min_quantum_exact(ctx, hier::Scheduler::EDF, 8.0);
  EXPECT_LE(qe, hier::min_quantum(ctx, hier::Scheduler::EDF, 8.0) + 1e-9);
}

TEST(AnalysisContextHorizon, ExplicitHorizonTriggersTailClosure) {
  const TaskSet ts = random_set(3, 5, 0.5);
  const double hyper = ts.hyperperiod();
  const AnalysisContext truncated(ts, hyper / 4.0);
  EXPECT_FALSE(truncated.dl_exact());
  // A generous supply passes despite the truncation (tail closed by QPA)...
  EXPECT_TRUE(hier::edf_schedulable(truncated,
                                    hier::LinearSupply(0.95, 0.01)));
  // ...and a rate below U(T) is still rejected.
  EXPECT_FALSE(hier::edf_schedulable(
      truncated, hier::LinearSupply(ts.utilization() * 0.5, 0.0)));
}

}  // namespace
}  // namespace flexrt::rt
