// Differential harness for the condensed FP analysis
// (rt::bounded_scheduling_points + the AnalysisContext FP caches): over
// hundreds of seeded generated sets small enough that the full
// Bini-Buttazzo point sets are cheap, the condensed kernels must stay on
// the safe side of the exact ones -- a condensed "schedulable" never
// contradicts the exact verdict, condensed minQ >= exact minQ and its
// supply really schedules the full set -- and must degrade to exact parity
// whenever the point sets fit the budget. Plus the budget-ladder
// monotonicity property and the n = 1000 stress smoke the scaling work is
// for.
#include "rt/sched_points.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <limits>

#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "gen/taskset_gen.hpp"
#include "hier/min_quantum.hpp"
#include "hier/sched_test.hpp"
#include "hier/supply.hpp"
#include "legacy_kernels.hpp"
#include "rt/analysis_context.hpp"
#include "rt/deadline_bound.hpp"
#include "rt/demand.hpp"
#include "rt/priority.hpp"

namespace flexrt::rt {
namespace {

using hier::Scheduler;

/// Small FP-ordered set whose full schedP_i are cheap to enumerate.
TaskSet small_fp_set(std::uint64_t seed) {
  Rng rng(seed);
  gen::GenParams gp;
  gp.num_tasks = 3 + seed % 10;  // n <= 12
  gp.total_utilization = 0.45 + 0.05 * static_cast<double>(seed % 8);
  gp.ft_fraction = 0.0;
  gp.fs_fraction = 0.0;
  gp.deadline_min_ratio = 0.8;  // constrained deadlines vary schedP_i
  return sort_deadline_monotonic(gen::generate_task_set(gp, rng));
}

/// The condensed configurations every trial exercises: budgets small
/// enough that generated sets overflow them (tasks fall back to the
/// bucket grid) but large enough that the test stays useful.
const std::size_t kTightBudgets[] = {2, 5, 11};

/// Reference minQ from the full per-point kernel (no context caches).
double full_min_quantum_fp(const TaskSet& ts, double period) {
  double worst = 0.0;
  for (std::size_t i = 0; i < ts.size(); ++i) {
    double best = std::numeric_limits<double>::infinity();
    for (const double t : scheduling_points(ts, i)) {
      best = std::min(best,
                      hier::quantum_for_point(t, fp_workload(ts, i, t), period));
    }
    worst = std::max(worst, best);
  }
  return worst;
}

// --- the differential harness: >= 200 seeded trials ------------------------

TEST(FpCondensedDifferential, VerdictIsSafeAcrossSeededTrials) {
  Rng supply_rng(0xF00D);
  int condensed_passes = 0;
  int condensed_tasks = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const TaskSet ts = small_fp_set(seed);
    for (const std::size_t budget : kTightBudgets) {
      const AnalysisContext condensed(ts, DlBoundOptions{},
                                      FpPointOptions{budget});
      condensed_tasks += condensed.fp_exact() ? 0 : 1;
      for (int s = 0; s < 4; ++s) {
        const double period = supply_rng.uniform(0.5, 8.0);
        const double usable = supply_rng.uniform(0.05, 1.0) * period;
        const hier::SlotSupply slot(period, usable);
        if (hier::fp_schedulable(condensed, slot)) {
          ++condensed_passes;
          // Safety: a condensed pass implies the exact full-point verdict.
          EXPECT_TRUE(legacy::schedulable(ts, Scheduler::FP, slot))
              << "seed=" << seed << " budget=" << budget << " P=" << period
              << " q=" << usable;
        }
      }
    }
  }
  // The condensed test must stay useful, not degenerate to "never", and
  // the tight budgets must actually trigger condensation somewhere.
  EXPECT_GT(condensed_passes, 100);
  EXPECT_GT(condensed_tasks, 100);
}

TEST(FpCondensedDifferential, MinQuantumOverApproximatesAndStaysValid) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const TaskSet ts = small_fp_set(seed);
    const AnalysisContext exact(ts);
    ASSERT_TRUE(exact.fp_exact()) << "seed=" << seed;
    for (const std::size_t budget : kTightBudgets) {
      const AnalysisContext condensed(ts, DlBoundOptions{},
                                      FpPointOptions{budget});
      for (const double period : {0.5, 2.0, 6.0}) {
        const double q_exact = hier::min_quantum(exact, Scheduler::FP, period);
        const double q_cond =
            hier::min_quantum(condensed, Scheduler::FP, period);
        // Safe over-approximation...
        EXPECT_GE(q_cond, q_exact - 1e-9)
            << "seed=" << seed << " budget=" << budget << " P=" << period;
        // ...whose supply really schedules the full set.
        if (q_cond < period) {
          const hier::LinearSupply supply(q_cond / period, period - q_cond);
          EXPECT_TRUE(legacy::schedulable(ts, Scheduler::FP, supply))
              << "seed=" << seed << " budget=" << budget << " P=" << period
              << " q=" << q_cond;
        }
      }
    }
  }
}

TEST(FpCondensedDifferential, ExactParityWhenTheSetFitsTheBudget) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const TaskSet ts = small_fp_set(seed);
    // Default budget: small sets fit, the context must report exactness
    // and reproduce the full point sets and kernels.
    const AnalysisContext ctx(ts);
    ASSERT_TRUE(ctx.fp_exact()) << "seed=" << seed;
    for (std::size_t i = 0; i < ts.size(); ++i) {
      const std::vector<double> want = scheduling_points(ts, i);
      const std::vector<double>& got = ctx.scheduling_points(i);
      ASSERT_EQ(got.size(), want.size()) << "seed=" << seed << " i=" << i;
      for (std::size_t k = 0; k < want.size(); ++k) {
        EXPECT_DOUBLE_EQ(got[k], want[k]);
        EXPECT_NEAR(ctx.fp_point_workloads(i)[k],
                    fp_workload(ts, i, want[k]), 1e-12);
      }
      // ends empty == "identical to times": the exact representation.
      EXPECT_EQ(&ctx.scheduling_point_ends(i), &ctx.scheduling_points(i));
    }
    for (const double period : {1.0, 4.0}) {
      EXPECT_NEAR(hier::min_quantum(ctx, Scheduler::FP, period),
                  full_min_quantum_fp(ts, period), 1e-12)
          << "seed=" << seed;
    }
  }
}

TEST(FpCondensedDifferential, ZeroBudgetDisablesCondensation) {
  const TaskSet ts = small_fp_set(7);
  const AnalysisContext ctx(ts, DlBoundOptions{}, FpPointOptions{0});
  EXPECT_TRUE(ctx.fp_exact());
  for (std::size_t i = 0; i < ts.size(); ++i) {
    EXPECT_EQ(ctx.scheduling_points(i).size(),
              scheduling_points(ts, i).size());
  }
}

// --- the budget ladder (mirror of the EDF ladder properties) ---------------

TEST(FpBudgetLadder, MinQuantumIsMonotoneNonIncreasingAlongTheRungs) {
  gen::StressParams sp;
  sp.num_tasks = 300;
  Rng rng(0xFADE);
  const TaskSet ts = gen::generate_stress_set_fp(sp, rng);
  // A non-power-of-two seed and cap make next_budget_rung's final step a
  // clamped non-2x jump (100 -> ... -> 3200 -> 4000): monotonicity must
  // survive it (the grid snaps to power-of-two bucket counts, so any
  // growing budget sequence stays nested).
  for (const std::size_t start : {std::size_t{8}, std::size_t{100}}) {
    const std::size_t cap = start == 8 ? (1u << 12) : 4000;
    for (const double period : {1.0, 3.0}) {
      double prev = std::numeric_limits<double>::infinity();
      std::size_t budget = start;
      for (;;) {
        const AnalysisContext ctx(ts, DlBoundOptions{},
                                  FpPointOptions{budget});
        const double q = hier::min_quantum(ctx, Scheduler::FP, period);
        EXPECT_LE(q, prev + 1e-9) << "budget " << budget << " P=" << period;
        prev = q;
        if (budget >= cap) break;
        budget = next_budget_rung(budget, cap);
      }
    }
  }
}

TEST(FpBudgetLadder, ArbitraryBudgetGrowthIsMonotone) {
  // The reviewer's counterexample shape before the power-of-two snap:
  // consecutive budgets (45 -> 46) are not a doubling, yet the answer must
  // not worsen for ANY budget growth.
  gen::StressParams sp;
  sp.num_tasks = 200;
  Rng rng(0xFADE);
  const TaskSet ts = gen::generate_stress_set_fp(sp, rng);
  double prev = std::numeric_limits<double>::infinity();
  for (const std::size_t budget : {30u, 45u, 46u, 90u, 100u, 130u}) {
    const AnalysisContext ctx(ts, DlBoundOptions{}, FpPointOptions{budget});
    const double q = hier::min_quantum(ctx, Scheduler::FP, 2.0);
    EXPECT_LE(q, prev + 1e-9) << "budget " << budget;
    prev = q;
  }
}

TEST(FpBudgetLadder, CondensedStressTasksTurnExactAtLargeBudgets) {
  gen::StressParams sp;
  sp.num_tasks = 24;
  sp.period_max = 30.0;  // keeps the full sets enumerable at the top rung
  Rng rng(0xBEEF);
  const TaskSet ts = gen::generate_stress_set_fp(sp, rng);
  const AnalysisContext tight(ts, DlBoundOptions{}, FpPointOptions{8});
  EXPECT_FALSE(tight.fp_exact());
  // A budget past every task's multiples bound restores exactness.
  std::size_t worst_bound = 0;
  for (std::size_t i = 0; i < ts.size(); ++i) {
    std::size_t bound = 1;
    for (std::size_t j = 0; j < i; ++j) {
      const std::int64_t k = floor_ratio(ts[i].deadline, ts[j].period);
      if (k > 0) bound += static_cast<std::size_t>(k);
    }
    worst_bound = std::max(worst_bound, bound);
  }
  const AnalysisContext wide(ts, DlBoundOptions{}, FpPointOptions{worst_bound});
  EXPECT_TRUE(wide.fp_exact());
  EXPECT_LE(hier::min_quantum(wide, Scheduler::FP, 2.0),
            hier::min_quantum(tight, Scheduler::FP, 2.0) + 1e-9);
}

// --- stress smoke: the acceptance criterion ---------------------------------

TEST(FpStress, CondensedMinQuantumAtN1000CompletesFast) {
  gen::StressParams sp;
  sp.num_tasks = 1000;
  Rng rng(977 + 1000);  // the bench workload's seed (bench/stress_workloads)
  const TaskSet ts = gen::generate_stress_set_fp(sp, rng);
  const auto t0 = std::chrono::steady_clock::now();
  const AnalysisContext ctx(ts);
  const double q = hier::min_quantum(ctx, Scheduler::FP, 2.0);
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  EXPECT_FALSE(ctx.fp_exact());  // point-hostile: condensation engaged
  EXPECT_TRUE(std::isfinite(q));
  EXPECT_GT(q, 0.0);
  // The whole point of the condensation: cold cache build + probe finish in
  // milliseconds where the full point sets are astronomically large. The
  // Release-build budget is generous (measured ~30 ms); Debug gets more.
#ifdef NDEBUG
  EXPECT_LT(ms, 2000.0);
#else
  EXPECT_LT(ms, 20000.0);
#endif
  // Warm probes ride the cached points: another period must be cheap and
  // behave like a minQ (monotone non-increasing in the period is not
  // guaranteed, but positivity and finiteness are).
  const double q2 = hier::min_quantum(ctx, Scheduler::FP, 4.0);
  EXPECT_TRUE(std::isfinite(q2));
  EXPECT_GT(q2, 0.0);
}

}  // namespace
}  // namespace flexrt::rt
