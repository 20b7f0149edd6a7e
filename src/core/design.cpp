#include "core/design.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "core/analysis_engine.hpp"

namespace flexrt::core {

const char* to_string(DesignGoal goal) noexcept {
  return goal == DesignGoal::MinOverheadBandwidth ? "min-overhead-bandwidth"
                                                  : "max-slack-bandwidth";
}

Design solve_design(const analysis::BatchEngine& engine,
                    const Overheads& overheads, DesignGoal goal,
                    const SearchOptions& opts) {
  FLEXRT_REQUIRE(overheads.ft >= 0.0 && overheads.fs >= 0.0 &&
                     overheads.nf >= 0.0,
                 "overheads must be >= 0");
  const hier::Scheduler alg = engine.scheduler();
  double period = 0.0;
  switch (goal) {
    case DesignGoal::MinOverheadBandwidth:
      period = engine.max_feasible_period(overheads.total(), opts);
      break;
    case DesignGoal::MaxSlackBandwidth:
      period = engine.max_slack_period(overheads.total(), opts).period;
      break;
  }

  Design d;
  d.scheduler = alg;
  d.goal = goal;
  d.min_quantum_ft =
      engine.mode_min_quantum(rt::Mode::FT, period, opts.use_exact_supply);
  d.min_quantum_fs =
      engine.mode_min_quantum(rt::Mode::FS, period, opts.use_exact_supply);
  d.min_quantum_nf =
      engine.mode_min_quantum(rt::Mode::NF, period, opts.use_exact_supply);
  d.schedule.period = period;
  d.schedule.ft = {d.min_quantum_ft, overheads.ft};
  d.schedule.fs = {d.min_quantum_fs, overheads.fs};
  d.schedule.nf = {d.min_quantum_nf, overheads.nf};
  // The period search can land a hair inside the boundary; a negative slack
  // within tolerance is clamped by nudging the period up to the exact sum.
  if (d.schedule.slack() < 0.0) {
    const double deficit = -d.schedule.slack();
    FLEXRT_REQUIRE(deficit <= 1e-6 * period,
                   "solver produced an infeasible schedule");
    d.schedule.period += deficit;
  }
  d.schedule.validate();
  return d;
}

ModeSchedule distribute_slack(const Design& design) {
  ModeSchedule out = design.schedule;
  const double slack = out.slack();
  if (slack <= 0.0) return out;
  const double total_min =
      design.min_quantum_ft + design.min_quantum_fs + design.min_quantum_nf;
  if (total_min <= 0.0) return out;
  // Proportional growth keeps every quantum above its minimum, so the
  // schedule stays feasible (supply is monotone in the usable quantum).
  const double scale = slack / total_min;
  out.ft.usable += design.min_quantum_ft * scale;
  out.fs.usable += design.min_quantum_fs * scale;
  out.nf.usable += design.min_quantum_nf * scale;
  out.validate();
  return out;
}

}  // namespace flexrt::core
