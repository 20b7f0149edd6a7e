#include "rt/task_set.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/math_util.hpp"

namespace flexrt::rt {

TaskSet::TaskSet(std::vector<Task> tasks) : tasks_(std::move(tasks)) {
  for (const Task& t : tasks_) validate(t);
}

TaskSet::TaskSet(std::initializer_list<Task> tasks)
    : TaskSet(std::vector<Task>(tasks)) {}

void TaskSet::add(Task task) {
  validate(task);
  tasks_.push_back(std::move(task));
}

double TaskSet::utilization() const noexcept {
  double u = 0.0;
  for (const Task& t : tasks_) u += t.utilization();
  return u;
}

double TaskSet::max_utilization() const noexcept {
  double u = 0.0;
  for (const Task& t : tasks_) u = std::max(u, t.utilization());
  return u;
}

namespace {

/// t.period in units of `resolution`, when it lies on that grid.
bool on_grid(const Task& t, double resolution, double& scaled) noexcept {
  const double exact = t.period / resolution;
  scaled = std::round(exact);
  return std::fabs(exact - scaled) <= 1e-6 * std::max(1.0, exact);
}

}  // namespace

double TaskSet::hyperperiod(double resolution) const {
  for (const Task& t : tasks_) {
    double scaled = 0.0;
    FLEXRT_REQUIRE(on_grid(t, resolution, scaled),
                   "period of " + t.name +
                       " is not representable on the resolution grid");
  }
  return hyperperiod_or_inf(resolution);
}

double TaskSet::hyperperiod_or_inf(double resolution) const noexcept {
  constexpr std::int64_t kSaturated = std::numeric_limits<std::int64_t>::max();
  std::int64_t h = 1;
  for (const Task& t : tasks_) {
    double scaled = 0.0;
    if (!on_grid(t, resolution, scaled)) {
      return std::numeric_limits<double>::infinity();
    }
    h = lcm_saturating(h, static_cast<std::int64_t>(scaled));
    if (h == kSaturated) return std::numeric_limits<double>::infinity();
  }
  return static_cast<double>(h) * resolution;
}

TaskSet TaskSet::by_mode(Mode mode) const {
  return filtered([mode](const Task& t) { return t.mode == mode; });
}

}  // namespace flexrt::rt
