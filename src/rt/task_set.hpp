#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

#include "rt/task.hpp"

namespace flexrt::rt {

/// An ordered collection of validated tasks. Order is meaningful: for FP
/// analyses the set must be sorted by decreasing priority first (see
/// sort_rate_monotonic / sort_deadline_monotonic in priority.hpp).
class TaskSet {
 public:
  TaskSet() = default;
  explicit TaskSet(std::vector<Task> tasks);
  TaskSet(std::initializer_list<Task> tasks);

  /// Appends a task (validated).
  void add(Task task);

  std::size_t size() const noexcept { return tasks_.size(); }
  bool empty() const noexcept { return tasks_.empty(); }

  const Task& operator[](std::size_t i) const noexcept { return tasks_[i]; }
  std::span<const Task> tasks() const noexcept { return tasks_; }

  auto begin() const noexcept { return tasks_.begin(); }
  auto end() const noexcept { return tasks_.end(); }

  /// Total utilization U(T) = sum of C_i/T_i.
  double utilization() const noexcept;

  /// Maximum single-task utilization.
  double max_utilization() const noexcept;

  /// Hyperperiod (lcm of periods) when every period is an integer multiple
  /// of `resolution`; +infinity on overflow. Periods that are not
  /// representable on the resolution grid throw ModelError — the EDF dlSet
  /// analysis needs an exact hyperperiod.
  double hyperperiod(double resolution = 1e-6) const;

  /// hyperperiod() without the throw: +infinity also when a period is not
  /// on the grid. Either way no exact enumeration exists, and a bounded
  /// analysis asks this of every set it builds.
  double hyperperiod_or_inf(double resolution = 1e-6) const noexcept;

  /// Keeps only tasks matching the predicate, preserving order.
  template <typename Pred>
  TaskSet filtered(Pred&& pred) const {
    std::vector<Task> out;
    for (const Task& t : tasks_) {
      if (pred(t)) out.push_back(t);
    }
    return TaskSet(std::move(out));
  }

  /// Subset of tasks requiring the given mode.
  TaskSet by_mode(Mode mode) const;

 private:
  std::vector<Task> tasks_;
};

}  // namespace flexrt::rt
