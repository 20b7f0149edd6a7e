// Parity tests: everything the AnalysisContext caches must agree with the
// uncached kernels it replaces, across randomized generated task sets.
#include "rt/analysis_context.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <latch>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "gen/taskset_gen.hpp"
#include "hier/min_quantum.hpp"
#include "hier/sched_test.hpp"
#include "hier/supply.hpp"
#include "legacy_kernels.hpp"
#include "rt/demand.hpp"
#include "rt/priority.hpp"
#include "rt/sched_points.hpp"

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

TEST(EdfDemandCurve, MatchesPerPointKernelOnDeadlineSet) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const TaskSet ts = random_set(seed, 3 + seed % 9, 0.5 + 0.02 * seed);
    const std::vector<double> points = deadline_set(ts);
    const std::vector<double> curve = edf_demand_curve(ts, points);
    ASSERT_EQ(curve.size(), points.size());
    for (std::size_t k = 0; k < points.size(); ++k) {
      EXPECT_NEAR(curve[k], edf_demand(ts, points[k]), 1e-9)
          << "seed=" << seed << " t=" << points[k];
    }
  }
}

TEST(EdfDemandCurve, MatchesPerPointKernelOnArbitrarySortedPoints) {
  const TaskSet ts = random_set(42, 8, 0.7);
  Rng rng(424242);
  std::vector<double> points;
  for (int i = 0; i < 500; ++i) points.push_back(rng.uniform(0.0, 100.0));
  std::sort(points.begin(), points.end());
  const std::vector<double> curve = edf_demand_curve(ts, points);
  for (std::size_t k = 0; k < points.size(); ++k) {
    EXPECT_NEAR(curve[k], edf_demand(ts, points[k]), 1e-9) << points[k];
  }
}

TEST(EdfDemandCurve, SnapWindowIsRelativeLikeFloorRatio) {
  // floor_ratio snaps with tolerance 1e-9 * max(1, r): at the 1000th job of
  // a T=1 task the time window is ~1e-6, not 1e-9. A point 5e-7 below the
  // event must count the job, exactly as edf_demand does.
  const TaskSet ts{Task{"a", 0.25, 1.0, 1.0, Mode::NF}};
  const std::vector<double> points = {1000.0 - 5e-7};
  const std::vector<double> curve = edf_demand_curve(ts, points);
  EXPECT_DOUBLE_EQ(curve[0], edf_demand(ts, points[0]));
  EXPECT_DOUBLE_EQ(curve[0], 1000 * 0.25);
}

TEST(AnalysisContext, CachedEdfStateMatchesUncachedKernels) {
  for (std::uint64_t seed = 100; seed < 110; ++seed) {
    const TaskSet ts = random_set(seed, 6, 0.6);
    const AnalysisContext ctx(ts);
    const std::vector<double> points = deadline_set(ts);
    ASSERT_EQ(ctx.deadline_points().size(), points.size());
    for (std::size_t k = 0; k < points.size(); ++k) {
      EXPECT_DOUBLE_EQ(ctx.deadline_points()[k], points[k]);
      EXPECT_NEAR(ctx.edf_demand_at_points()[k], edf_demand(ts, points[k]),
                  1e-9);
    }
    // Per-task job rows reassemble into the demand curve.
    std::vector<double> rebuilt(points.size(), 0.0);
    for (std::size_t i = 0; i < ts.size(); ++i) {
      const std::vector<double> jobs = ctx.edf_point_jobs(i);
      for (std::size_t k = 0; k < points.size(); ++k) {
        rebuilt[k] += jobs[k] * ts[i].wcet;
      }
    }
    for (std::size_t k = 0; k < points.size(); ++k) {
      EXPECT_NEAR(rebuilt[k], ctx.edf_demand_at_points()[k], 1e-9);
    }
  }
}

TEST(AnalysisContext, CachedFpStateMatchesUncachedKernels) {
  for (std::uint64_t seed = 200; seed < 210; ++seed) {
    const TaskSet ts = sort_deadline_monotonic(random_set(seed, 6, 0.6));
    const AnalysisContext ctx(ts);
    for (std::size_t i = 0; i < ts.size(); ++i) {
      const std::vector<double> points = scheduling_points(ts, i);
      ASSERT_EQ(ctx.scheduling_points(i).size(), points.size());
      for (std::size_t k = 0; k < points.size(); ++k) {
        EXPECT_DOUBLE_EQ(ctx.scheduling_points(i)[k], points[k]);
        EXPECT_NEAR(ctx.fp_point_workloads(i)[k],
                    fp_workload(ts, i, points[k]), 1e-12);
      }
      // Job rows reassemble into W_i.
      std::vector<double> rebuilt(points.size(), 0.0);
      for (std::size_t j = 0; j <= i; ++j) {
        const std::vector<double> jobs = ctx.fp_point_jobs(i, j);
        for (std::size_t k = 0; k < points.size(); ++k) {
          rebuilt[k] += jobs[k] * ts[j].wcet;
        }
      }
      for (std::size_t k = 0; k < points.size(); ++k) {
        EXPECT_NEAR(rebuilt[k], ctx.fp_point_workloads(i)[k], 1e-12);
      }
    }
  }
}

TEST(AnalysisContext, SchedulabilityAgreesWithUncachedTest) {
  Rng rng(3003);
  for (std::uint64_t seed = 300; seed < 315; ++seed) {
    const TaskSet edf_ts = random_set(seed, 5, 0.65);
    const TaskSet fp_ts = sort_deadline_monotonic(edf_ts);
    const AnalysisContext edf_ctx(edf_ts);
    const AnalysisContext fp_ctx(fp_ts);
    for (int s = 0; s < 10; ++s) {
      const double period = rng.uniform(0.5, 8.0);
      const double usable = rng.uniform(0.05, 1.0) * period;
      const hier::SlotSupply slot(period, usable);
      EXPECT_EQ(hier::edf_schedulable(edf_ctx, slot),
                legacy::schedulable(edf_ts, hier::Scheduler::EDF, slot))
          << "seed=" << seed << " P=" << period << " q=" << usable;
      EXPECT_EQ(hier::fp_schedulable(fp_ctx, slot),
                legacy::schedulable(fp_ts, hier::Scheduler::FP, slot))
          << "seed=" << seed << " P=" << period << " q=" << usable;
    }
  }
}

TEST(AnalysisContext, MinQuantumAgreesWithDirectEvaluation) {
  for (std::uint64_t seed = 400; seed < 410; ++seed) {
    const TaskSet ts = sort_deadline_monotonic(random_set(seed, 6, 0.55));
    const AnalysisContext ctx(ts);
    for (const double period : {0.5, 1.0, 2.0, 5.0}) {
      // EDF reference: per-point kernel, no caching.
      double edf_ref = 0.0;
      for (const double t : deadline_set(ts)) {
        edf_ref = std::max(
            edf_ref, hier::quantum_for_point(t, edf_demand(ts, t), period));
      }
      EXPECT_NEAR(hier::min_quantum(ctx, hier::Scheduler::EDF, period),
                  edf_ref, 1e-9);
      // FP reference.
      double fp_ref = 0.0;
      for (std::size_t i = 0; i < ts.size(); ++i) {
        double best = std::numeric_limits<double>::infinity();
        for (const double t : scheduling_points(ts, i)) {
          best = std::min(best, hier::quantum_for_point(
                                    t, fp_workload(ts, i, t), period));
        }
        fp_ref = std::max(fp_ref, best);
      }
      EXPECT_NEAR(hier::min_quantum(ctx, hier::Scheduler::FP, period), fp_ref,
                  1e-9);
      // The TaskSet convenience overload routes through a context too.
      EXPECT_DOUBLE_EQ(hier::min_quantum(ts, hier::Scheduler::EDF, period),
                       hier::min_quantum(ctx, hier::Scheduler::EDF, period));
    }
  }
}

TEST(AnalysisContext, MinQuantumExactAgreesAcrossOverloads) {
  const TaskSet ts = sort_deadline_monotonic(random_set(7, 5, 0.5));
  const AnalysisContext ctx(ts);
  for (const double period : {1.0, 2.0}) {
    EXPECT_NEAR(
        hier::min_quantum_exact(ctx, hier::Scheduler::EDF, period),
        hier::min_quantum_exact(ts, hier::Scheduler::EDF, period), 1e-9);
    EXPECT_NEAR(hier::min_quantum_exact(ctx, hier::Scheduler::FP, period),
                hier::min_quantum_exact(ts, hier::Scheduler::FP, period),
                1e-9);
  }
}

TEST(AnalysisContext, EmptySetHasNoPoints) {
  const AnalysisContext ctx{TaskSet{}};
  EXPECT_TRUE(ctx.empty());
  EXPECT_TRUE(ctx.deadline_points().empty());
  EXPECT_TRUE(ctx.edf_demand_at_points().empty());
  EXPECT_DOUBLE_EQ(hier::min_quantum(ctx, hier::Scheduler::EDF, 1.0), 0.0);
}

// Each side is built once, by whichever reader comes first; the others
// wait for it or, once its ready flag is set, read without a lock. Readers
// that all start at once must see the build of a serial context.
TEST(AnalysisContext, ConcurrentFirstReadsSeeOneBuild) {
  const TaskSet ts = sort_deadline_monotonic(random_set(77, 8, 0.7));
  const AnalysisContext serial(ts);
  for (int round = 0; round < 20; ++round) {
    const AnalysisContext shared(ts);
    constexpr int kReaders = 6;
    std::latch start(kReaders);
    std::vector<int> same(kReaders, 0);
    std::vector<std::thread> readers;
    for (int r = 0; r < kReaders; ++r) {
      readers.emplace_back([&, r] {
        start.arrive_and_wait();
        bool ok = shared.deadline_points() == serial.deadline_points() &&
                  shared.edf_demand_at_points() ==
                      serial.edf_demand_at_points() &&
                  shared.dl_exact() == serial.dl_exact();
        for (std::size_t i = 0; i < ts.size(); ++i) {
          ok = ok &&
               shared.scheduling_points(i) == serial.scheduling_points(i) &&
               shared.fp_point_workloads(i) == serial.fp_point_workloads(i);
        }
        same[r] = ok ? 1 : 0;
      });
    }
    for (std::thread& t : readers) t.join();
    for (int r = 0; r < kReaders; ++r) {
      EXPECT_EQ(same[r], 1) << "round " << round << " reader " << r;
    }
  }
}

}  // namespace
}  // namespace flexrt::rt
