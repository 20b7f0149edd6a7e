#include "rt/deadline_bound.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/math_util.hpp"
#include "rt/demand.hpp"

namespace flexrt::rt {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Merges sorted deadlines into at most `budget` buckets of near-equal point
/// count. Bucket j is tested as (earliest deadline, latest deadline).
void coalesce(const std::vector<double>& points, std::size_t budget,
              std::vector<double>& times, std::vector<double>& ends) {
  const std::size_t m = points.size();
  times.reserve(budget);
  ends.reserve(budget);
  for (std::size_t j = 0; j < budget; ++j) {
    const std::size_t lo = j * m / budget;
    const std::size_t hi = (j + 1) * m / budget;
    if (lo >= hi) continue;  // more buckets than points
    times.push_back(points[lo]);
    ends.push_back(points[hi - 1]);
  }
}

}  // namespace

bool tail_covered(double utilization, double util_const, double horizon,
                  double rate, double delay) noexcept {
  return rate > utilization &&
         leq_tol(utilization * horizon + util_const, rate * (horizon - delay));
}

BoundedDeadlineSet bounded_deadline_set(const TaskSet& ts,
                                        const DlBoundOptions& opts) {
  BoundedDeadlineSet out;
  if (ts.empty()) return out;

  out.utilization = ts.utilization();
  for (const Task& t : ts) {
    out.util_const += t.wcet * (t.period - t.deadline) / t.period;
  }
  out.full_horizon = ts.hyperperiod_or_inf();

  double horizon =
      opts.horizon > 0.0 ? std::min(opts.horizon, out.full_horizon)
                         : out.full_horizon;
  if (opts.horizon <= 0.0 && opts.max_points > 0) {
    // Auto horizon under a budget: the deadline events of task i up to H
    // number ~ H / T_i, so H = max_points / sum(1/T_i) lands near the
    // budget and the enumeration below stays O(max_points + n) regardless
    // of the period spread. Deadlines beyond H -- including first jobs of
    // long-deadline tasks, when the mix is extreme -- are covered
    // conservatively by the QPA tail closure, never dropped. An explicit
    // horizon is honored instead (the caller owns the enumeration cost)
    // and condensed down to the budget by coalescing below.
    double density = 0.0;
    for (const Task& t : ts) density += 1.0 / t.period;
    horizon =
        std::min(horizon, static_cast<double>(opts.max_points) / density);
  }
  FLEXRT_REQUIRE(std::isfinite(horizon),
                 "hyperperiod overflow: pass an explicit horizon or a "
                 "max_points budget");
  out.horizon = horizon;

  std::vector<double> points = deadline_set(ts, horizon);
  const bool covers_full =
      out.full_horizon < kInf && horizon >= out.full_horizon * (1.0 - 1e-12);
  if (opts.max_points > 0 && points.size() > opts.max_points) {
    coalesce(points, opts.max_points, out.times, out.ends);
    out.exact = false;
  } else {
    out.times = std::move(points);
    // ends stays empty: identical to times when nothing was coalesced.
    out.exact = covers_full;
  }
  if (!covers_full) out.exact = false;
  return out;
}

}  // namespace flexrt::rt
