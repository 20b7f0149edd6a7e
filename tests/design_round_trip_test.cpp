// Every design solve_design returns must pass its own verify, as
// core/design.hpp promises. Generated 8-task systems (utilization 0.8,
// overhead 0.01 per mode, design goal G1) over four period menus, EDF and
// FP, linear and exact slot supply, plus a system whose NF task has a 1e12
// deadline. Periods up to 1e8 put t/P near 1e8 in the minQ kernel and
// make the QPA tail quantum of a condensed deadline set tight.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/analysis_engine.hpp"
#include "core/design.hpp"
#include "gen/taskset_gen.hpp"
#include "io/task_io.hpp"

namespace flexrt::core {
namespace {

using hier::Scheduler;

/// Solves the systems drawn from seeds 1000, 1001, ... on `menu` (`linear`
/// of them with the linear supply, `exact` with the exact slot supply) and
/// verifies each design against the engine that produced it.
void expect_round_trips(const std::vector<double>& menu, std::size_t linear,
                        std::size_t exact) {
  for (const bool use_exact : {false, true}) {
    for (const Scheduler alg : {Scheduler::EDF, Scheduler::FP}) {
      SCOPED_TRACE(std::string(hier::to_string(alg)) +
                   (use_exact ? " exact supply" : " linear supply"));
      const std::size_t count = use_exact ? exact : linear;
      std::size_t designs = 0;
      for (std::uint64_t seed = 1000; seed < 1000 + count; ++seed) {
        Rng rng(seed);
        gen::GenParams params;
        params.num_tasks = 8;
        params.total_utilization = 0.8;
        params.period_menu = menu;
        const std::optional<ModeTaskSystem> sys =
            gen::build_system(gen::generate_task_set(params, rng));
        if (!sys) continue;
        const analysis::BatchEngine engine(*sys, alg);
        SearchOptions opts;
        opts.p_max = 8.0;
        opts.use_exact_supply = use_exact;
        try {
          const Design design =
              solve_design(engine, {0.01, 0.01, 0.01},
                           DesignGoal::MinOverheadBandwidth, opts);
          ++designs;
          EXPECT_TRUE(engine.verify(design.schedule, use_exact))
              << "seed " << seed << ", period " << design.schedule.period;
        } catch (const InfeasibleError&) {
        }
      }
      EXPECT_GT(designs, count / 2) << "too few designs to check";
    }
  }
}

TEST(DesignRoundTrip, StudyPeriodMenu) {
  expect_round_trips(gen::GenParams{}.period_menu, 300, 300);
}

TEST(DesignRoundTrip, PeriodsUpTo1e3) {
  expect_round_trips({1, 2, 5, 10, 20, 50, 100, 200, 500, 1000}, 300, 100);
}

TEST(DesignRoundTrip, PeriodsUpTo1e5) {
  expect_round_trips({1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000,
                      1e4, 2e4, 5e4, 1e5},
                     300, 6);
}

TEST(DesignRoundTrip, PeriodsUpTo1e8) {
  expect_round_trips({1, 2, 5, 10, 100, 1000, 1e4, 1e5, 1e6, 1e7, 1e8}, 300,
                     4);
}

// t3 needs a quantum of about 4e-12 at the design's period; a kernel that
// cancels it to 0 leaves NF without a slot, and verify rejects the design.
// The linear supply searches the automatic range up to 3e12. The exact
// supply has no closed-form walk over that range, so its search stops at
// P = 8.
TEST(DesignRoundTrip, TrillionDeadlineNfTask) {
  const ModeTaskSystem sys =
      io::parse_mode_task_system_string("t1 1 4 FT 0\nt2 1 4 FS 0\n"
                                        "t3 1 1e12 NF 0\n")
          .system;
  for (const bool use_exact : {false, true}) {
    for (const Scheduler alg : {Scheduler::EDF, Scheduler::FP}) {
      SCOPED_TRACE(std::string(hier::to_string(alg)) +
                   (use_exact ? " exact supply" : " linear supply"));
      const analysis::BatchEngine engine(sys, alg);
      SearchOptions opts;
      opts.use_exact_supply = use_exact;
      if (use_exact) opts.p_max = 8.0;
      const Design design =
          solve_design(engine, {}, DesignGoal::MinOverheadBandwidth, opts);
      EXPECT_GT(design.schedule.nf.usable, 0.0);
      EXPECT_TRUE(engine.verify(design.schedule, use_exact));
    }
  }
}

}  // namespace
}  // namespace flexrt::core
