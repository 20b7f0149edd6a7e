#pragma once

// Frozen pre-refactor analysis kernels, kept in-tree as the "before" side
// of tools/bench_report's before/after rows, so the speedup trajectory of
// the batched analysis engine stays measurable, and as the exact oracle the
// tests compare the bounded analysis against. These are verbatim ports of
// the seed implementations:
//  - supply inversion by exponential search + bisection from lo = 0,
//  - Theorems 1-2 over the full scheduling-point and hyperperiod deadline
//    sets (unbounded: a hyperperiod-hostile set exhausts memory), and
//    verify_schedule / verify_frame on them,
//  - min_quantum re-deriving scheduling points / deadline sets and calling
//    the O(n)-per-point demand kernels on every invocation,
//  - feasibility_margin re-sorting and re-deriving per call,
//  - sensitivity margins deep-copying the ModeTaskSystem per probe.
// Do not "optimize" these; their slowness is the point.

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/math_util.hpp"
#include "core/general_frame.hpp"
#include "core/mode_system.hpp"
#include "core/schedule.hpp"
#include "core/sensitivity.hpp"
#include "hier/min_quantum.hpp"
#include "hier/sched_test.hpp"
#include "rt/demand.hpp"
#include "rt/priority.hpp"
#include "rt/sched_points.hpp"

namespace flexrt::legacy {

inline double supply_inverse(const hier::SupplyFunction& supply,
                             double demand, double tolerance = 1e-9) {
  if (demand <= 0.0) return 0.0;
  double hi = supply.delay() + demand / supply.rate();
  int guard = 0;
  while (supply.value(hi) < demand) {
    hi *= 2.0;
    FLEXRT_REQUIRE(++guard < 128, "supply cannot cover the demand");
  }
  double lo = 0.0;  // seed bug kept: never re-bracketed above the delay
  while (hi - lo > tolerance) {
    const double mid = 0.5 * (lo + hi);
    if (supply.value(mid) >= demand) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

/// Theorem 1 (FP, set in priority order) or Theorem 2 (EDF) under
/// `supply`, over the full point and deadline sets.
inline bool schedulable(const rt::TaskSet& ts, hier::Scheduler alg,
                        const hier::SupplyFunction& supply) {
  if (alg == hier::Scheduler::FP) {
    for (std::size_t i = 0; i < ts.size(); ++i) {
      bool ok = false;
      for (const double t : rt::scheduling_points(ts, i)) {
        if (leq_tol(rt::fp_workload(ts, i, t), supply.value(t))) {
          ok = true;
          break;
        }
      }
      if (!ok) return false;
    }
    return true;
  }
  if (ts.empty()) return true;
  if (ts.utilization() > supply.rate() + 1e-12) return false;
  for (const double t : rt::deadline_set(ts)) {
    if (!leq_tol(rt::edf_demand(ts, t), supply.value(t))) return false;
  }
  return true;
}

inline bool verify_schedule(const core::ModeTaskSystem& sys,
                            const core::ModeSchedule& schedule,
                            hier::Scheduler alg,
                            bool use_exact_supply = false) {
  schedule.validate();
  for (const rt::Mode mode : core::kAllModes) {
    if (sys.mode_tasks(mode).empty()) {
      continue;  // unused mode needs no quantum
    }
    if (schedule.slot(mode).usable <= 0.0) {
      return false;  // tasks but no supply at all
    }
    for (const rt::TaskSet& ts : sys.partitions(mode)) {
      if (ts.empty()) continue;
      const rt::TaskSet ordered = alg == hier::Scheduler::FP
                                      ? rt::sort_deadline_monotonic(ts)
                                      : ts;
      const bool ok =
          use_exact_supply
              ? legacy::schedulable(ordered, alg, schedule.exact_supply(mode))
              : legacy::schedulable(ordered, alg, schedule.supply(mode));
      if (!ok) return false;
    }
  }
  return true;
}

inline bool verify_frame(const core::ModeTaskSystem& sys,
                         const core::GeneralFrame& frame,
                         hier::Scheduler alg) {
  for (const rt::Mode mode : core::kAllModes) {
    if (sys.mode_tasks(mode).empty()) continue;
    if (frame.total_usable(mode) <= 0.0) return false;
    const hier::MultiSlotSupply supply = frame.supply(mode);
    for (const rt::TaskSet& ts : sys.partitions(mode)) {
      if (ts.empty()) continue;
      const rt::TaskSet ordered = alg == hier::Scheduler::FP
                                      ? rt::sort_deadline_monotonic(ts)
                                      : ts;
      if (!legacy::schedulable(ordered, alg, supply)) return false;
    }
  }
  return true;
}

inline double min_quantum(const rt::TaskSet& ts, hier::Scheduler alg,
                          double period) {
  if (ts.empty()) return 0.0;
  if (alg == hier::Scheduler::FP) {
    double worst = 0.0;
    for (std::size_t i = 0; i < ts.size(); ++i) {
      double best = std::numeric_limits<double>::infinity();
      for (const double t : rt::scheduling_points(ts, i)) {
        best = std::min(best, hier::quantum_for_point(
                                  t, rt::fp_workload(ts, i, t), period));
      }
      worst = std::max(worst, best);
    }
    return worst;
  }
  double worst = 0.0;
  for (const double t : rt::deadline_set(ts)) {
    worst = std::max(worst,
                     hier::quantum_for_point(t, rt::edf_demand(ts, t), period));
  }
  return worst;
}

inline double feasibility_margin(const core::ModeTaskSystem& sys,
                                 hier::Scheduler alg, double period) {
  double sum = 0.0;
  for (const rt::Mode mode : core::kAllModes) {
    double worst = 0.0;
    for (const rt::TaskSet& ts : sys.partitions(mode)) {
      if (ts.empty()) continue;
      const rt::TaskSet ordered = alg == hier::Scheduler::FP
                                      ? rt::sort_deadline_monotonic(ts)
                                      : ts;
      worst = std::max(worst, legacy::min_quantum(ordered, alg, period));
    }
    sum += worst;
  }
  return period - sum;
}

inline core::ModeTaskSystem scaled(const core::ModeTaskSystem& sys,
                                   const std::string& name, double lambda) {
  core::ModeTaskSystem out = sys;
  for (const rt::Mode mode : core::kAllModes) {
    std::vector<rt::TaskSet> parts;
    for (const rt::TaskSet& ts : sys.partitions(mode)) {
      rt::TaskSet scaled_ts;
      for (rt::Task t : ts) {
        if (name.empty() || t.name == name) t.wcet *= lambda;
        scaled_ts.add(std::move(t));
      }
      parts.push_back(std::move(scaled_ts));
    }
    out.set_partitions(mode, std::move(parts));
  }
  return out;
}

inline bool feasible_at(const core::ModeTaskSystem& sys,
                        const core::ModeSchedule& schedule,
                        hier::Scheduler alg, const std::string& name,
                        double lambda) {
  for (const rt::Mode mode : core::kAllModes) {
    for (const rt::TaskSet& ts : sys.partitions(mode)) {
      for (const rt::Task& t : ts) {
        if ((name.empty() || t.name == name) &&
            t.wcet * lambda > t.deadline * (1.0 + 1e-12)) {
          return false;
        }
      }
    }
  }
  return legacy::verify_schedule(scaled(sys, name, lambda), schedule, alg);
}

inline double bisect_margin(const core::ModeTaskSystem& sys,
                            const core::ModeSchedule& schedule,
                            hier::Scheduler alg, const std::string& name,
                            double lambda_max, double tolerance) {
  if (!feasible_at(sys, schedule, alg, name, 1.0)) return 1.0;
  if (feasible_at(sys, schedule, alg, name, lambda_max)) return lambda_max;
  double lo = 1.0, hi = lambda_max;
  while (hi - lo > tolerance) {
    const double mid = 0.5 * (lo + hi);
    if (feasible_at(sys, schedule, alg, name, mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// Seed sensitivity_report: one deep-copy bisection per task, each probe
/// re-verifying the whole system (including the lambda = 1 check the new
/// engine hoists).
inline std::vector<core::TaskMargin> sensitivity_report(
    const core::ModeTaskSystem& sys, const core::ModeSchedule& schedule,
    hier::Scheduler alg, double lambda_max = 16.0) {
  std::vector<core::TaskMargin> out;
  for (const rt::Mode mode : core::kAllModes) {
    for (const rt::TaskSet& ts : sys.partitions(mode)) {
      for (const rt::Task& t : ts) {
        out.push_back({t.name, mode, t.wcet,
                       bisect_margin(sys, schedule, alg, t.name, lambda_max,
                                     1e-4)});
      }
    }
  }
  return out;
}

}  // namespace flexrt::legacy
