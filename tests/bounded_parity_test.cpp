// The library has one schedulability path: Theorems 1-2 on a budgeted
// rt::AnalysisContext. This harness compares it with the frozen
// full-enumeration reference (bench/legacy_kernels.hpp) over generated
// fleets -- the baselines' per-bin dedicated test, the engine's verify at
// scaled quanta under linear and exact supply, and verify_frame on
// interleaved frames -- and asserts that every context it compares is
// exact, so a generator change that condenses bins fails here instead of
// hiding behind the conservative verdict. The mixed-period regressions
// below are the systems whose full deadline set does not fit in memory.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <tuple>
#include <vector>

#include "baseline/primary_backup.hpp"
#include "baseline/static_config.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/analysis_engine.hpp"
#include "core/design.hpp"
#include "core/general_frame.hpp"
#include "core/study_runner.hpp"
#include "gen/taskset_gen.hpp"
#include "legacy_kernels.hpp"
#include "part/bin_packing.hpp"
#include "rt/priority.hpp"

namespace flexrt::core {
namespace {

using hier::Scheduler;

enum class Corpus {
  Study,        ///< gen::study_system, the standard per-trial system
  Constrained,  ///< 4-20 tasks, U 0.6-2.6, D/T down to 0.4
};

constexpr std::size_t kSystemsPerCorpus = 800;

std::optional<ModeTaskSystem> draw(Corpus corpus, Rng& rng) {
  if (corpus == Corpus::Study) return gen::study_system(rng);
  gen::GenParams gp;
  gp.num_tasks = static_cast<std::size_t>(rng.uniform_int(4, 20));
  gp.total_utilization = rng.uniform(0.6, 2.6);
  gp.deadline_min_ratio = 0.4;
  return gen::build_system(gen::generate_task_set(gp, rng));
}

/// A verdict, or nullopt when the call throws (an invalid schedule).
template <typename F>
std::optional<bool> verdict(F&& fn) {
  try {
    return fn();
  } catch (const ModelError&) {
    return std::nullopt;
  }
}

ModeSchedule scaled(ModeSchedule s, double factor) {
  for (const rt::Mode mode : kAllModes) s.slot(mode).usable *= factor;
  return s;
}

class BoundedParity
    : public ::testing::TestWithParam<std::tuple<Corpus, Scheduler>> {};

TEST_P(BoundedParity, VerdictsMatchTheFullEnumeration) {
  const auto [corpus, alg] = GetParam();
  const hier::LinearSupply dedicated(1.0, 0.0);
  std::size_t systems = 0, bins = 0, designs = 0;
  std::size_t passes = 0, fails = 0;
  for (std::size_t trial = 0; trial < kSystemsPerCorpus; ++trial) {
    Rng rng = trial_rng(0xB0DED, trial);
    const std::optional<ModeTaskSystem> sys = draw(corpus, rng);
    if (!sys) continue;
    ++systems;
    rt::TaskSet all;
    for (const rt::Mode mode : kAllModes) {
      for (const rt::Task& t : sys->mode_tasks(mode)) all.add(t);
    }

    // Baselines: every primary/backup processor and every static bin
    // (1, 2 and 4 channels are the all-FT, all-FS and all-NF platforms).
    std::vector<rt::TaskSet> dedicated_bins;
    if (const auto pb = baseline::build_primary_backup(all)) {
      dedicated_bins.insert(dedicated_bins.end(), pb->processors.begin(),
                            pb->processors.end());
    }
    for (const std::size_t channels : {1u, 2u, 4u}) {
      if (const auto packed = part::pack(all, channels)) {
        dedicated_bins.insert(dedicated_bins.end(), packed->begin(),
                              packed->end());
      }
    }
    for (const rt::TaskSet& bin : dedicated_bins) {
      const rt::TaskSet ordered =
          alg == Scheduler::FP ? rt::sort_deadline_monotonic(bin) : bin;
      const rt::AnalysisContext ctx(ordered);
      ASSERT_TRUE(alg == Scheduler::FP ? ctx.fp_exact() : ctx.dl_exact())
          << "trial " << trial << ": a condensed bin";
      const bool ok = baseline::dedicated_schedulable(bin, alg);
      EXPECT_EQ(ok, legacy::schedulable(ordered, alg, dedicated))
          << "trial " << trial << " bin of " << bin.size() << " tasks";
      ++bins;
      (ok ? passes : fails)++;
    }

    // The flexible platform: the G1 design, its quanta scaled around the
    // boundary, checked slot by slot and as interleaved frames.
    const analysis::BatchEngine engine(*sys, alg);
    std::optional<Design> design;
    try {
      design = solve_design(engine, {0.0, 0.0, 0.0},
                            DesignGoal::MinOverheadBandwidth);
    } catch (const InfeasibleError&) {
    }
    ASSERT_TRUE(engine.exact())
        << "trial " << trial << ": a condensed channel";
    if (!design) continue;
    ++designs;
    for (const double factor : {0.5, 0.9, 0.99, 1.0, 1.01}) {
      const ModeSchedule s = scaled(design->schedule, factor);
      for (const bool exact : {false, true}) {
        const std::optional<bool> ok = verdict(
            [&] { return engine.verify(s, exact); });
        EXPECT_EQ(ok, verdict([&] {
                    return legacy::verify_schedule(*sys, s, alg, exact);
                  }))
            << "trial " << trial << " x" << factor << (exact ? " exact" : "");
        if (ok) (*ok ? passes : fails)++;
      }
      if (factor > 1.0) continue;  // the frame would overflow its period
      for (std::size_t k = 1; k <= 3; ++k) {
        const GeneralFrame frame = interleave(s, k);
        const bool ok = verify_frame(engine, frame);
        EXPECT_EQ(ok, legacy::verify_frame(*sys, frame, alg))
            << "trial " << trial << " x" << factor << " k=" << k;
        (ok ? passes : fails)++;
      }
    }
  }
  // Both verdicts occur in volume, so agreement is not vacuous.
  EXPECT_GT(systems, kSystemsPerCorpus / 2);
  EXPECT_GT(bins, systems);
  EXPECT_GT(designs, systems / 4);
  EXPECT_GT(passes, systems);
  EXPECT_GT(fails, systems);
}

INSTANTIATE_TEST_SUITE_P(
    Fleets, BoundedParity,
    ::testing::Combine(::testing::Values(Corpus::Study, Corpus::Constrained),
                       ::testing::Values(Scheduler::EDF, Scheduler::FP)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) == Corpus::Study
                             ? "Study"
                             : "Constrained") +
             hier::to_string(std::get<1>(info.param));
    });

// --- mixed periods: the full deadline set would not fit in memory ---------

// NF mixes periods 4 and 1e12: 2.5e11 deadlines to the hyperperiod. The
// bounded path condenses that channel and still returns the verdict.
ModeTaskSystem mixed_period_system() {
  using rt::make_task;
  return ModeTaskSystem({rt::TaskSet{make_task("t1", 1, 4, rt::Mode::FT)}},
                        {rt::TaskSet{make_task("t2", 1, 4, rt::Mode::FS)}},
                        {rt::TaskSet{make_task("t3", 1, 1e12, rt::Mode::NF),
                                     make_task("t4", 0.5, 4, rt::Mode::NF)}});
}

TEST(BoundedAnalysis, VerifyScheduleReturnsOnMixedPeriods) {
  const analysis::BatchEngine engine(mixed_period_system(), Scheduler::EDF);
  const Design d = solve_design(engine, {0.0, 0.0, 0.0},
                                DesignGoal::MinOverheadBandwidth);
  EXPECT_TRUE(engine.verify(d.schedule));
  EXPECT_FALSE(engine.dl_exact());
}

TEST(BoundedAnalysis, VerifyFrameReturnsOnMixedPeriods) {
  const analysis::BatchEngine engine(mixed_period_system(), Scheduler::EDF);
  const Design d = solve_design(engine, {0.0, 0.0, 0.0},
                                DesignGoal::MinOverheadBandwidth);
  EXPECT_TRUE(verify_frame(engine, GeneralFrame::from_schedule(d.schedule)));
}

}  // namespace
}  // namespace flexrt::core
