#include "core/sensitivity.hpp"

#include "common/error.hpp"
#include "core/analysis_engine.hpp"

namespace flexrt::core {

// One-shot fronts over a throwaway analysis::BatchEngine at the
// library-default budgets. A probe at scale lambda tests
//   base_demand + (lambda - 1) * task_contribution
// against the supply over cached points (see BatchEngine::ScaledProbe);
// hold the engine instead when asking one system many questions.

double wcet_scale_margin(const ModeTaskSystem& sys,
                         const ModeSchedule& schedule, hier::Scheduler alg,
                         const std::string& task_name, double lambda_max,
                         double tolerance) {
  FLEXRT_REQUIRE(!task_name.empty(), "task name must be non-empty");
  return analysis::BatchEngine(sys, alg).wcet_scale_margin(
      schedule, task_name, lambda_max, tolerance);
}

std::vector<TaskMargin> sensitivity_report(const ModeTaskSystem& sys,
                                           const ModeSchedule& schedule,
                                           hier::Scheduler alg,
                                           double lambda_max) {
  return analysis::BatchEngine(sys, alg).sensitivity_report(schedule,
                                                            lambda_max);
}

double global_scale_margin(const ModeTaskSystem& sys,
                           const ModeSchedule& schedule, hier::Scheduler alg,
                           double lambda_max, double tolerance) {
  return analysis::BatchEngine(sys, alg).global_scale_margin(
      schedule, lambda_max, tolerance);
}

}  // namespace flexrt::core
