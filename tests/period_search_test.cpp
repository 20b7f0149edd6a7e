// Identity harness for BatchEngine::max_feasible_period. The engine steps
// over grid candidates that a supply-dominance bound on minQ proves
// infeasible; this file keeps the search it replaced -- every accumulated
// p -= grid_step candidate probed through feasibility_margin, then the same
// bisection -- as a test-local reference, and requires the engine to
// return a bit-identical period (or InfeasibleError exactly where the full
// scan finds nothing) over the paper example, over a thousand seeded
// wire-like systems, over generated study fleets on the study grid and on
// the automatic range, under EDF and FP, for O_tot in {0, .01, .05, .2,
// .5}, with linear supply throughout and exact supply on a slice. A
// property test checks the bound itself on exact and condensed contexts.
#include "core/analysis_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/design.hpp"
#include "core/integration.hpp"
#include "core/paper_example.hpp"
#include "core/study_runner.hpp"
#include "gen/taskset_gen.hpp"
#include "hier/min_quantum.hpp"
#include "io/task_io.hpp"
#include "rt/analysis_context.hpp"
#include "rt/priority.hpp"

namespace flexrt::analysis {
namespace {

using hier::Scheduler;

constexpr std::array<double, 5> kOverheads = {0.0, 0.01, 0.05, 0.2, 0.5};

/// The full grid scan, one downward pass for every overhead at once: per
/// overhead, the first candidate with lhs >= O_tot and its predecessor,
/// then the engine's bisection between them. nullopt = no feasible
/// candidate (the engine must throw InfeasibleError).
std::array<std::optional<double>, kOverheads.size()> reference_periods(
    const BatchEngine& engine, const core::ModeTaskSystem& sys,
    core::SearchOptions opts) {
  if (opts.p_max <= 0.0) opts.p_max = core::auto_period_bound(sys);
  const auto margin = [&](double p) {
    return engine.feasibility_margin(p, opts.use_exact_supply);
  };
  std::array<double, kOverheads.size()> feasible;
  std::array<double, kOverheads.size()> infeasible_above;
  feasible.fill(-1.0);
  infeasible_above.fill(opts.p_max);
  std::size_t open = kOverheads.size();
  for (double p = opts.p_max; p >= opts.p_min && open > 0;
       p -= opts.grid_step) {
    const double m = margin(p);
    for (std::size_t k = 0; k < kOverheads.size(); ++k) {
      if (feasible[k] >= 0.0) continue;
      if (m >= kOverheads[k]) {
        feasible[k] = p;
        --open;
      } else {
        infeasible_above[k] = p;
      }
    }
  }
  std::array<std::optional<double>, kOverheads.size()> out;
  for (std::size_t k = 0; k < kOverheads.size(); ++k) {
    if (feasible[k] < 0.0) continue;
    double lo = feasible[k];
    double hi = infeasible_above[k];
    while (hi - lo > opts.tolerance) {
      const double mid = 0.5 * (lo + hi);
      if (margin(mid) >= kOverheads[k]) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    out[k] = lo;
  }
  return out;
}

/// Compares the engine's search against the reference for every overhead.
void expect_identical(const core::ModeTaskSystem& sys, Scheduler alg,
                     const core::SearchOptions& opts, const std::string& what,
                     const rt::DlBoundOptions& dl_opts = {},
                     const rt::FpPointOptions& fp_opts = {}) {
  const BatchEngine engine(sys, alg, dl_opts, fp_opts);
  const auto want = reference_periods(engine, sys, opts);
  for (std::size_t k = 0; k < kOverheads.size(); ++k) {
    SCOPED_TRACE(what + " " + hier::to_string(alg) +
                 " O_tot=" + std::to_string(kOverheads[k]));
    if (want[k]) {
      EXPECT_EQ(engine.max_feasible_period(kOverheads[k], opts), *want[k]);
    } else {
      EXPECT_THROW((void)engine.max_feasible_period(kOverheads[k], opts),
                   InfeasibleError);
    }
  }
}

/// A wire-like system: 4-16 tasks from the divisor-friendly period menu,
/// the longest period stretched to `longest` (utilization kept), packed.
core::ModeTaskSystem wire_like_system(std::uint64_t index,
                                      double longest = 30.0) {
  Rng rng = core::trial_rng(0x5EA7C4, index);
  gen::GenParams params;
  params.num_tasks = 4 + index % 13;
  params.period_menu = {4, 5, 6, 8, 10, 12, 15, 20, 24, 30};
  for (;;) {
    params.total_utilization = rng.uniform(0.4, 0.9);
    rt::TaskSet ts = gen::generate_task_set(params, rng);
    std::size_t longest_i = 0;
    for (std::size_t i = 1; i < ts.size(); ++i) {
      if (ts[i].period > ts[longest_i].period) longest_i = i;
    }
    rt::TaskSet stretched;
    for (std::size_t i = 0; i < ts.size(); ++i) {
      rt::Task t = ts[i];
      if (i == longest_i) {
        t.wcet = t.utilization() * longest;
        t.period = t.deadline = longest;
      }
      stretched.add(std::move(t));
    }
    if (auto sys = gen::build_system(stretched)) return std::move(*sys);
  }
}

std::vector<core::ModeTaskSystem> study_fleet(std::uint64_t seed,
                                              std::size_t count) {
  std::vector<core::ModeTaskSystem> out;
  for (std::size_t i = 0; out.size() < count; ++i) {
    Rng rng = core::trial_rng(seed, i);
    if (auto sys = gen::study_system(rng)) out.push_back(std::move(*sys));
  }
  return out;
}

core::SearchOptions grid(double p_max, double step) {
  core::SearchOptions opts;
  opts.p_max = p_max;
  opts.grid_step = step;
  return opts;
}

// --- identity: the engine's search == the full grid scan ------------------

TEST(PeriodSearchIdentity, PaperExampleOnTheDefaultGrid) {
  for (const Scheduler alg : {Scheduler::EDF, Scheduler::FP}) {
    expect_identical(core::paper_example(), alg, {}, "paper");
  }
}

TEST(PeriodSearchIdentity, PaperExampleWithExactSupply) {
  core::SearchOptions opts = grid(10.0, 1e-2);
  opts.use_exact_supply = true;
  for (const Scheduler alg : {Scheduler::EDF, Scheduler::FP}) {
    expect_identical(core::paper_example(), alg, opts, "paper exact");
  }
}

// A thousand wire-like systems on the automatic range (3 x 30). The grid
// step varies per system so the accumulated candidate sequences differ;
// the default 1e-3 grid runs on the slice below.
TEST(PeriodSearchIdentity, ThousandWireLikeSystems) {
  constexpr std::array<double, 3> kSteps = {0.05, 0.037, 0.02};
  for (std::uint64_t i = 0; i < 1000 && !HasFailure(); ++i) {
    const Scheduler alg = i % 2 == 0 ? Scheduler::EDF : Scheduler::FP;
    expect_identical(wire_like_system(i), alg,
                     grid(0.0, kSteps[i % kSteps.size()]),
                     "wire #" + std::to_string(i));
  }
}

TEST(PeriodSearchIdentity, WireLikeSystemsOnTheDefaultGrid) {
  for (std::uint64_t i = 1000; i < 1020; ++i) {
    for (const Scheduler alg : {Scheduler::EDF, Scheduler::FP}) {
      expect_identical(wire_like_system(i), alg, {},
                       "wire #" + std::to_string(i));
    }
  }
}

// A longer range: the longest deadline stretched to 1e3 puts p_max at 3e3,
// so a search walks down to its answer across more binades, and along far
// longer stretches of one binade, than the p_max <= 90 cases above.
TEST(PeriodSearchIdentity, WireLikeSystemsOnALongRange) {
  for (std::uint64_t i = 3000; i < 3040; ++i) {
    const Scheduler alg = i % 2 == 0 ? Scheduler::EDF : Scheduler::FP;
    expect_identical(wire_like_system(i, 1e3), alg, grid(0.0, 0.05),
                     "long wire #" + std::to_string(i));
  }
}

TEST(PeriodSearchIdentity, StudyFleetOnTheStudyGrid) {
  const std::vector<core::ModeTaskSystem> fleet = study_fleet(0x57D1, 120);
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    for (const Scheduler alg : {Scheduler::EDF, Scheduler::FP}) {
      expect_identical(fleet[i], alg, grid(10.0, 5e-3),
                       "study #" + std::to_string(i));
    }
  }
}

TEST(PeriodSearchIdentity, StudyFleetOnTheAutomaticRange) {
  const std::vector<core::ModeTaskSystem> fleet = study_fleet(0xA070, 120);
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    for (const Scheduler alg : {Scheduler::EDF, Scheduler::FP}) {
      expect_identical(fleet[i], alg, grid(0.0, 0.05),
                       "study auto #" + std::to_string(i));
    }
  }
}

// Tight budgets: QPA-condensed deadline sets and condensed scheduling
// points, whose minQ carries the tail closure and bucket pairings.
TEST(PeriodSearchIdentity, CondensedEngines) {
  rt::DlBoundOptions dl_tight;
  dl_tight.max_points = 6;
  const rt::FpPointOptions fp_tight{4};
  const std::vector<core::ModeTaskSystem> fleet = study_fleet(0xC0DE, 60);
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    for (const Scheduler alg : {Scheduler::EDF, Scheduler::FP}) {
      expect_identical(fleet[i], alg, grid(10.0, 5e-3),
                       "condensed #" + std::to_string(i), dl_tight, fp_tight);
    }
  }
}

TEST(PeriodSearchIdentity, ExactSupplySlice) {
  core::SearchOptions opts = grid(10.0, 2e-2);
  opts.use_exact_supply = true;
  const std::vector<core::ModeTaskSystem> fleet = study_fleet(0xE8AC, 12);
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    for (const Scheduler alg : {Scheduler::EDF, Scheduler::FP}) {
      expect_identical(fleet[i], alg, opts,
                       "exact #" + std::to_string(i));
    }
  }
  for (std::uint64_t i = 2000; i < 2012; ++i) {
    const Scheduler alg = i % 2 == 0 ? Scheduler::EDF : Scheduler::FP;
    expect_identical(wire_like_system(i), alg, opts,
                     "wire exact #" + std::to_string(i));
  }
}

// --- ranges at the edge of double resolution ------------------------------

/// Period-4 tasks in FT and FS, one NF task whose deadline sets the
/// automatic p_max = 3 D, and `extra` task lines.
core::ModeTaskSystem long_deadline_system(const std::string& deadline,
                                          const std::string& extra = "") {
  return io::parse_mode_task_system_string("t1 1 4 FT 0\nt2 1 4 FS 0\nt3 1 " +
                                           deadline + " NF 0\n" + extra)
      .system;
}

// p_max = 3e12 puts ~3e15 candidates on the default 1e-3 grid: the search
// finishes only because skipped runs are walked in closed form.
TEST(PeriodSearchRange, ATrillionPeriodRangeSolvesAndVerifies) {
  for (const Scheduler alg : {Scheduler::EDF, Scheduler::FP}) {
    SCOPED_TRACE(hier::to_string(alg));
    const core::Design alone =
        core::solve_design(long_deadline_system("1e12"), alg, {},
                           core::DesignGoal::MinOverheadBandwidth);
    EXPECT_GT(alone.schedule.period, 0.0);
    // That design does not verify: hier::quantum_for_point loses t3's
    // quantum (about 4e-12) to cancellation and gives NF none. With a
    // second NF task setting NF's quantum, the design must verify (on the
    // engine's bounded deadline sets: the hyperperiod is 1e12).
    const BatchEngine engine(long_deadline_system("1e12", "t4 1 4 NF 0\n"),
                             alg);
    const core::Design design =
        core::solve_design(engine, {}, core::DesignGoal::MinOverheadBandwidth);
    EXPECT_TRUE(engine.verify(design.schedule));
  }
}

// p_max = 3e17, where the spacing of doubles is 64: p - 1e-3 == p, and the
// scans would spin on p_max forever. Every scan rejects the grid instead.
TEST(PeriodSearchRange, AStepThatCannotMovePMaxIsAModelError) {
  const BatchEngine engine(long_deadline_system("1e17"), Scheduler::EDF);
  try {
    (void)engine.max_feasible_period(0.0);
    ADD_FAILURE() << "expected ModelError";
  } catch (const ModelError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("grid step 0.001"), std::string::npos) << what;
    EXPECT_NE(what.find("p_max 3e+17"), std::string::npos) << what;
    EXPECT_EQ(what.find(".cpp"), std::string::npos) << what;
  }
  EXPECT_THROW((void)engine.sample_region(), ModelError);
  EXPECT_THROW((void)engine.max_admissible_overhead(), ModelError);
  EXPECT_THROW((void)engine.max_slack_period(0.0), ModelError);
}

// Exactly half the spacing below p_max leaves candidates with an even
// significand where they are (ties to even), so it is rejected too; one
// ulp more moves every candidate.
TEST(PeriodSearchRange, HalfTheSpacingBelowPMaxIsTheBoundary) {
  const BatchEngine engine(core::paper_example(), Scheduler::EDF);
  core::SearchOptions opts;
  opts.p_max = 3.0;  // spacing below: 2^-51
  opts.p_min = 3.0 - 0x1p-48;
  opts.grid_step = 0x1p-52;
  EXPECT_THROW((void)engine.sample_region(opts), ModelError);
  EXPECT_THROW((void)engine.max_feasible_period(0.0, opts), ModelError);
  opts.grid_step = std::nextafter(0x1p-52, 1.0);
  EXPECT_EQ(engine.sample_region(opts).size(), 17u);
  EXPECT_EQ(engine.max_feasible_period(0.0, opts), 3.0);
}

// --- the bound the skip rests on ------------------------------------------

/// The property allows min_quantum_exact's bisection tolerance plus
/// rounding, relative to the period. The engine's guard is 1e3 times
/// kInverseTolerance, so a pass here leaves it 250x headroom.
constexpr double kBoundSlack = 4.0 * hier::kInverseTolerance;

/// Random pairs P'' < P checked against minQ(P) - minQ(P'') <= P - P''.
/// Pairs with minQ(P'') > P'' are skipped: there lhs(P'') < 0 and the
/// search needs no bound.
struct BoundCheck {
  double worst = -1.0;  ///< largest excess over P - P'', in max(1, P) units
  int pairs = 0;        ///< pairs checked
  int draws = 0;

  void run(const rt::AnalysisContext& ctx, Scheduler alg, bool exact_supply,
           double p_top, Rng& rng, int n) {
    const auto minq = [&](double p) {
      return exact_supply ? hier::min_quantum_exact(ctx, alg, p)
                          : hier::min_quantum(ctx, alg, p);
    };
    for (int s = 0; s < n; ++s, ++draws) {
      const double p = rng.uniform(0.05, p_top);
      // Half the pairs close together, where rounding matters most.
      const double gap = s % 2 == 0 ? rng.uniform(0.0, p - 0.01)
                                    : rng.uniform(0.0, 1e-3 * p);
      const double lower = p - gap;
      const double q_lower = minq(lower);
      if (!(q_lower <= lower)) continue;
      ++pairs;
      const double excess = minq(p) - q_lower - (p - lower);
      worst = std::max(worst, excess / std::max(1.0, p));
    }
  }
};

double max_deadline(const rt::TaskSet& ts) {
  double d = 0.0;
  for (const rt::Task& t : ts) d = std::max(d, t.deadline);
  return d;
}

TEST(MinQuantumDominanceBound, HoldsOnExactContexts) {
  Rng rng(0xB0D);
  BoundCheck linear, exact;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    Rng draw(seed);
    gen::GenParams gp;
    gp.num_tasks = 3 + seed % 8;
    gp.total_utilization = 0.2 + 0.005 * static_cast<double>(seed);
    gp.ft_fraction = 0.0;
    gp.fs_fraction = 0.0;
    gp.deadline_min_ratio = 0.7;
    const rt::TaskSet ts = gen::generate_task_set(gp, draw);
    const double p_top = 3.0 * max_deadline(ts);
    for (const Scheduler alg : {Scheduler::EDF, Scheduler::FP}) {
      const rt::AnalysisContext ctx(
          alg == Scheduler::FP ? rt::sort_deadline_monotonic(ts) : ts);
      linear.run(ctx, alg, false, p_top, rng, 200);
      exact.run(ctx, alg, true, p_top, rng, 20);
    }
  }
  EXPECT_LE(linear.worst, kBoundSlack);
  EXPECT_LE(exact.worst, kBoundSlack);
  EXPECT_GE(linear.pairs, linear.draws * 9 / 10);
  EXPECT_GE(exact.pairs, exact.draws * 9 / 10);
}

// Hyperperiod-hostile stress sets: the EDF side is QPA-condensed (tail
// closure included) and the FP side runs on condensed scheduling points.
TEST(MinQuantumDominanceBound, HoldsOnCondensedContexts) {
  Rng rng(0xC0B);
  rt::DlBoundOptions qpa;
  qpa.max_points = 256;
  BoundCheck linear, exact;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    gen::StressParams sp;
    sp.num_tasks = 20 + seed % 30;
    sp.total_utilization = 0.3 + 0.02 * static_cast<double>(seed);
    sp.period_max = 100.0;
    Rng draw(seed);
    const rt::TaskSet ts = gen::generate_stress_set(sp, draw);
    const double p_top = 3.0 * max_deadline(ts);

    const rt::AnalysisContext edf(ts, qpa);
    ASSERT_FALSE(edf.dl_exact()) << "seed " << seed;
    linear.run(edf, Scheduler::EDF, false, p_top, rng, 100);
    exact.run(edf, Scheduler::EDF, true, p_top, rng, 6);

    const rt::AnalysisContext fp(rt::sort_deadline_monotonic(ts),
                                 rt::DlBoundOptions{}, rt::FpPointOptions{8});
    ASSERT_FALSE(fp.fp_exact()) << "seed " << seed;
    linear.run(fp, Scheduler::FP, false, p_top, rng, 100);
    exact.run(fp, Scheduler::FP, true, p_top, rng, 6);
  }
  EXPECT_LE(linear.worst, kBoundSlack);
  EXPECT_LE(exact.worst, kBoundSlack);
  EXPECT_GE(linear.pairs, linear.draws * 9 / 10);
  EXPECT_GE(exact.pairs, exact.draws * 9 / 10);
}

}  // namespace
}  // namespace flexrt::analysis
