// End-to-end chains across the whole stack: file format -> partitioning ->
// design solver -> (generalized) frames -> simulation with faults. These
// are the paths a downstream user strings together.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/analysis_engine.hpp"
#include "core/design.hpp"
#include "core/general_frame.hpp"
#include "hier/response_time.hpp"
#include "io/task_io.hpp"
#include "rt/priority.hpp"
#include "sim/simulator.hpp"

namespace flexrt {
namespace {

using hier::Scheduler;

const char* kMixedWorkload =
    "brake   0.5  5      FT\n"
    "steer   0.5  8      FT\n"
    "sensorA 0.6  6      FS 0\n"
    "sensorB 0.8 12      FS 1\n"
    "infot   1.0 16      NF\n"
    "logging 2.0 40      NF\n"
    "camera  1.5 25      NF\n";

TEST(EndToEnd, FileToDesignToSimulation) {
  const io::ParsedSystem parsed =
      io::parse_mode_task_system_string(kMixedWorkload);
  const analysis::BatchEngine engine(parsed.system, Scheduler::EDF);
  const core::Design d = core::solve_design(
      engine, {0.02, 0.02, 0.021}, core::DesignGoal::MinOverheadBandwidth);
  EXPECT_TRUE(engine.verify(d.schedule));
  sim::SimOptions opt;
  opt.horizon = 2000.0;
  const sim::SimResult r = sim::simulate(parsed.system, d.schedule, opt);
  EXPECT_EQ(r.total_misses(), 0u);
  EXPECT_EQ(r.tasks.size(), 7u);
}

TEST(EndToEnd, FileToInterleavedFrameToSimulationWithFaults) {
  const io::ParsedSystem parsed =
      io::parse_mode_task_system_string(kMixedWorkload);
  core::GeneralFrame f = core::solve_interleaved(
      parsed.system, Scheduler::EDF, {0.01, 0.01, 0.01}, 6.0, 2);
  // Pad budgets 2% against the tick grid, shrinking slack.
  std::vector<core::GeneralSlot> padded(f.slots().begin(), f.slots().end());
  for (core::GeneralSlot& s : padded) s.usable *= 1.02;
  const core::GeneralFrame safe(f.period(), std::move(padded));
  ASSERT_TRUE(core::verify_frame(
      analysis::BatchEngine(parsed.system, Scheduler::EDF), safe));

  sim::SimOptions opt;
  opt.horizon = 5000.0;
  opt.faults = {0.02, 2.0};
  opt.seed = 31337;
  const sim::SimResult r = sim::simulate(parsed.system, safe, opt);
  EXPECT_EQ(r.total_misses(), 0u);
  // The fault contract must hold under the generalized frame too.
  for (const sim::TaskStats& t : r.tasks) {
    if (t.mode != rt::Mode::NF) {
      EXPECT_EQ(t.corrupted_outputs, 0u) << t.name;
    }
  }
  EXPECT_GT(r.faults.injected, 20u);
}

TEST(EndToEnd, SensitivityMarginSurvivesSimulation) {
  // Scale the tightest task to 90% of its margin; the grown system must
  // still simulate miss-free under the same (slack-distributed) schedule.
  const io::ParsedSystem parsed =
      io::parse_mode_task_system_string(kMixedWorkload);
  const analysis::BatchEngine engine(parsed.system, Scheduler::EDF);
  const core::Design d = core::solve_design(
      engine, {0.02, 0.02, 0.02}, core::DesignGoal::MaxSlackBandwidth);
  const core::ModeSchedule schedule = core::distribute_slack(d);

  const double margin = engine.wcet_scale_margin(schedule, "sensorA");
  ASSERT_GT(margin, 1.0);
  const double scale = 1.0 + (margin - 1.0) * 0.9;
  std::string grown_file = kMixedWorkload;
  const std::string needle = "sensorA 0.6";
  grown_file.replace(grown_file.find(needle), needle.size(),
                     "sensorA " + std::to_string(0.6 * scale));
  const io::ParsedSystem grown =
      io::parse_mode_task_system_string(grown_file);
  ASSERT_TRUE(
      analysis::BatchEngine(grown.system, Scheduler::EDF).verify(schedule));

  sim::SimOptions opt;
  opt.horizon = 3000.0;
  const sim::SimResult r = sim::simulate(grown.system, schedule, opt);
  EXPECT_EQ(r.total_misses(), 0u);
}

TEST(EndToEnd, ResponseBoundsHoldUnderSporadicArrivals) {
  // Sporadic release jitter only reduces interference; the critical-instant
  // response bounds must keep dominating simulated responses.
  const io::ParsedSystem parsed =
      io::parse_mode_task_system_string(kMixedWorkload);
  const core::Design d = core::solve_design(
      analysis::BatchEngine(parsed.system, Scheduler::FP), {0.02, 0.02, 0.021},
      core::DesignGoal::MinOverheadBandwidth);
  sim::SimOptions opt;
  opt.horizon = 4000.0;
  opt.scheduler = Scheduler::FP;
  opt.sporadic_jitter = 1.5;
  opt.seed = 99;
  const sim::SimResult r = sim::simulate(parsed.system, d.schedule, opt);
  EXPECT_EQ(r.total_misses(), 0u);
  for (const rt::Mode mode : core::kAllModes) {
    for (const rt::TaskSet& raw : parsed.system.partitions(mode)) {
      if (raw.empty()) continue;
      const rt::TaskSet ts = rt::sort_deadline_monotonic(raw);
      const auto bounds =
          hier::fp_response_times(ts, d.schedule.exact_supply(mode));
      for (std::size_t i = 0; i < ts.size(); ++i) {
        ASSERT_TRUE(bounds[i].has_value()) << ts[i].name;
        for (const sim::TaskStats& stat : r.tasks) {
          if (stat.name == ts[i].name) {
            EXPECT_LE(to_units(stat.max_response), *bounds[i] + 1e-5)
                << ts[i].name;
          }
        }
      }
    }
  }
}

TEST(EndToEnd, ModesWithoutTasksAreHandledThroughout) {
  // FS-only workload: FT and NF get zero quanta yet everything must work.
  const io::ParsedSystem parsed = io::parse_mode_task_system_string(
      "a 1 8 FS\n"
      "b 1 10 FS\n");
  const analysis::BatchEngine engine(parsed.system, Scheduler::EDF);
  const core::Design d = core::solve_design(
      engine, {0.0, 0.01, 0.0}, core::DesignGoal::MaxSlackBandwidth);
  EXPECT_DOUBLE_EQ(d.schedule.ft.usable, 0.0);
  EXPECT_DOUBLE_EQ(d.schedule.nf.usable, 0.0);
  EXPECT_TRUE(engine.verify(d.schedule));
  sim::SimOptions opt;
  opt.horizon = 1000.0;
  const sim::SimResult r = sim::simulate(parsed.system, d.schedule, opt);
  EXPECT_EQ(r.total_misses(), 0u);
  EXPECT_GT(r.tasks[0].completions, 0u);
}

}  // namespace
}  // namespace flexrt
