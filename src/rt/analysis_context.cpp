#include "rt/analysis_context.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/math_util.hpp"
#include "rt/demand.hpp"
#include "rt/sched_points.hpp"

namespace flexrt::rt {
namespace {

// floor_ratio snaps ratios within tol * max(1, |r|) of an integer. At the
// k-th deadline event d = D_i + k*T_i the counting ratio is r = k + 1, so
// edf_demand counts the job as soon as t >= d - tol * (k+1) * T_i. The
// sweep mirrors that *relative* window by shifting each event left by it.
constexpr double kSnapTol = kRatioSnapTol;

struct DemandEvent {
  double when = 0.0;    // event time minus the snap window
  double weight = 0.0;  // C_i added to the demand from this time on
};

std::vector<DemandEvent> demand_events(const TaskSet& ts, double last) {
  std::vector<DemandEvent> events;
  for (const Task& task : ts) {
    // d = D_i + k*T_i computed by multiplication (not accumulation) so the
    // event grid carries no compounding rounding error.
    for (std::int64_t k = 0;; ++k) {
      const double when = demand_event_time(task, k);
      if (when > last) break;
      events.push_back({when, task.wcet});
    }
  }
  std::sort(events.begin(), events.end(),
            [](const DemandEvent& a, const DemandEvent& b) {
              return a.when < b.when;
            });
  return events;
}

}  // namespace

std::vector<double> edf_demand_curve(const TaskSet& ts,
                                     std::span<const double> points) {
  std::vector<double> out(points.size(), 0.0);
  if (ts.empty() || points.empty()) return out;
  FLEXRT_REQUIRE(std::is_sorted(points.begin(), points.end()),
                 "query points must be sorted ascending");
  const std::vector<DemandEvent> events = demand_events(ts, points.back());
  double acc = 0.0;
  std::size_t e = 0;
  for (std::size_t k = 0; k < points.size(); ++k) {
    while (e < events.size() && events[e].when <= points[k]) {
      acc += events[e].weight;
      ++e;
    }
    out[k] = acc;
  }
  return out;
}

AnalysisContext::AnalysisContext(TaskSet ts, double horizon)
    : AnalysisContext(std::move(ts),
                      DlBoundOptions{horizon, DlBoundOptions{}.max_points}) {}

AnalysisContext::AnalysisContext(TaskSet ts, const DlBoundOptions& dl_opts)
    : AnalysisContext(std::move(ts), dl_opts, FpPointOptions{}) {}

AnalysisContext::AnalysisContext(TaskSet ts, const DlBoundOptions& dl_opts,
                                 const FpPointOptions& fp_opts)
    : ts_(std::move(ts)),
      dl_opts_(dl_opts),
      fp_opts_(fp_opts),
      utilization_(ts_.utilization()) {}

void AnalysisContext::ensure_edf() const {
  if (edf_ready_.load(std::memory_order_acquire)) return;
  std::call_once(edf_once_, [this] {
    dl_ = bounded_deadline_set(ts_, dl_opts_);
    edf_demand_ = edf_demand_curve(ts_, dl_.demand_times());
    edf_ready_.store(true, std::memory_order_release);
  });
}

namespace {

/// Batch evaluator of the FP workloads W_i(t): the higher-priority tasks
/// seen so far, sorted by period with prefix sums of C and U. Every query
/// splits at two binary searches (ceil_ratio(t, T) is exactly 1 for
/// T in [t, t/tol) and exactly 0 for T >= t/tol, the snap-to-zero band),
/// so only the periods strictly below t are walked explicitly:
///
///   W_i(t) = C_i + sum_{T_j <  t} ceil_ratio(t, T_j) C_j   (walked)
///                + sum_{T_j in [t, t/tol)} C_j             (prefix sums)
///
/// For a condensed task the walk is replaced by its hyperplane overbound
/// ceil(t/T) <= t/T + 1, collapsing the whole query to prefix sums:
///
///   W~_i(t) = C_i + sum_{T_j < t/tol} C_j + t * sum_{T_j < t} U_j
///
/// W~ >= W makes the condensed EXISTS test strictly harder -- safe -- and
/// is budget-independent, so the next_budget_rung ladder stays monotone.
class FpWorkloadSums {
 public:
  explicit FpWorkloadSums(std::size_t n) {
    periods_.reserve(n);
    wcets_.reserve(n);
    prefix_c_.assign(1, 0.0);
    prefix_u_.assign(1, 0.0);
  }

  /// Exact W_i(t) for a task with WCET `wcet` against the tasks added so
  /// far (agrees with rt::fp_workload up to summation order).
  double exact(double wcet, double t) const {
    const auto [lo, hi] = bands(t);
    double w = wcet + (prefix_c_[hi] - prefix_c_[lo]);
    for (std::size_t k = 0; k < lo; ++k) {
      w += static_cast<double>(ceil_ratio(t, periods_[k])) * wcets_[k];
    }
    return w;
  }

  /// Hyperplane overbound W~_i(t) >= W_i(t), prefix sums only.
  double overbound(double wcet, double t) const {
    const auto [lo, hi] = bands(t);
    return wcet + prefix_c_[hi] + t * prefix_u_[lo];
  }

  /// Adds the next task in priority order.
  void add(const Task& task) {
    const auto at = std::lower_bound(periods_.begin(), periods_.end(),
                                     task.period) -
                    periods_.begin();
    periods_.insert(periods_.begin() + at, task.period);
    wcets_.insert(wcets_.begin() + at, task.wcet);
    prefix_c_.resize(periods_.size() + 1);
    prefix_u_.resize(periods_.size() + 1);
    for (std::size_t k = static_cast<std::size_t>(at); k < periods_.size();
         ++k) {
      prefix_c_[k + 1] = prefix_c_[k] + wcets_[k];
      prefix_u_[k + 1] = prefix_u_[k] + wcets_[k] / periods_[k];
    }
  }

 private:
  /// (first index with T >= t, first index in the snap-to-zero band).
  std::pair<std::size_t, std::size_t> bands(double t) const {
    const auto lo = std::lower_bound(periods_.begin(), periods_.end(), t);
    const auto hi = std::lower_bound(lo, periods_.end(), t / kRatioSnapTol);
    return {static_cast<std::size_t>(lo - periods_.begin()),
            static_cast<std::size_t>(hi - periods_.begin())};
  }

  std::vector<double> periods_;   // ascending
  std::vector<double> wcets_;     // aligned with periods_
  std::vector<double> prefix_c_;  // prefix_c_[k] = sum of wcets_[0..k)
  std::vector<double> prefix_u_;  // prefix_u_[k] = sum of wcets_/periods_
};

}  // namespace

void AnalysisContext::ensure_fp() const {
  if (fp_ready_.load(std::memory_order_acquire)) return;
  std::call_once(fp_once_, [this] {
    sched_points_.resize(ts_.size());
    fp_workloads_.resize(ts_.size());
    FpWorkloadSums sums(ts_.size());
    for (std::size_t i = 0; i < ts_.size(); ++i) {
      sched_points_[i] = bounded_scheduling_points(ts_, i, fp_opts_);
      fp_exact_ = fp_exact_ && sched_points_[i].exact;
      // Workloads live on the workload side of each bucket (its end); when
      // exact the ends are the points themselves. Condensed tasks use the
      // hyperplane overbound -- their points are already conservative, and
      // it keeps the whole cache build near-linear at stress scale.
      const std::vector<double>& at = sched_points_[i].workload_times();
      fp_workloads_[i].reserve(at.size());
      for (const double t : at) {
        fp_workloads_[i].push_back(sched_points_[i].exact
                                       ? sums.exact(ts_[i].wcet, t)
                                       : sums.overbound(ts_[i].wcet, t));
      }
      sums.add(ts_[i]);
    }
    fp_ready_.store(true, std::memory_order_release);
  });
}

const std::vector<double>& AnalysisContext::deadline_points() const {
  ensure_edf();
  return dl_.times;
}

const std::vector<double>& AnalysisContext::deadline_bucket_ends() const {
  ensure_edf();
  return dl_.demand_times();
}

const std::vector<double>& AnalysisContext::edf_demand_at_points() const {
  ensure_edf();
  return edf_demand_;
}

bool AnalysisContext::dl_exact() const {
  ensure_edf();
  return dl_.exact;
}

double AnalysisContext::dl_horizon() const {
  ensure_edf();
  return dl_.horizon;
}

double AnalysisContext::dl_util_const() const {
  ensure_edf();
  return dl_.util_const;
}

std::vector<double> AnalysisContext::edf_point_jobs(std::size_t i) const {
  FLEXRT_REQUIRE(i < ts_.size(), "task index out of range");
  ensure_edf();
  const Task& task = ts_[i];
  // Jobs are counted at the bucket ends -- the same times the cached demand
  // curve is evaluated at -- so scaled-demand probes stay conservative on
  // condensed sets and exact on full ones.
  const std::vector<double>& points = dl_.demand_times();
  std::vector<double> row(points.size(), 0.0);
  // Pointer walk over the task's own deadline events: O(points + jobs)
  // instead of a floor_ratio division per point. Events carry the same
  // relative snap window as demand_events() above.
  std::int64_t jobs = 0;
  double next =
      task.deadline - kSnapTol * task.period;  // event 0, ratio 1
  for (std::size_t k = 0; k < points.size(); ++k) {
    while (next <= points[k]) {
      ++jobs;
      next = task.deadline + static_cast<double>(jobs) * task.period -
             kSnapTol * static_cast<double>(jobs + 1) * task.period;
    }
    row[k] = static_cast<double>(jobs);
  }
  return row;
}

const std::vector<double>& AnalysisContext::scheduling_points(
    std::size_t i) const {
  FLEXRT_REQUIRE(i < ts_.size(), "task index out of range");
  ensure_fp();
  return sched_points_[i].times;
}

const std::vector<double>& AnalysisContext::scheduling_point_ends(
    std::size_t i) const {
  FLEXRT_REQUIRE(i < ts_.size(), "task index out of range");
  ensure_fp();
  return sched_points_[i].workload_times();
}

const std::vector<double>& AnalysisContext::fp_point_workloads(
    std::size_t i) const {
  FLEXRT_REQUIRE(i < ts_.size(), "task index out of range");
  ensure_fp();
  return fp_workloads_[i];
}

bool AnalysisContext::fp_exact() const {
  ensure_fp();
  return fp_exact_;
}

std::vector<double> AnalysisContext::fp_point_jobs(std::size_t i,
                                                   std::size_t j) const {
  FLEXRT_REQUIRE(i < ts_.size() && j < ts_.size(), "task index out of range");
  ensure_fp();
  // Jobs are counted at the bucket ends -- where the cached workloads live
  // -- so scaled-workload probes stay conservative on condensed sets and
  // exact on full ones (mirrors edf_point_jobs above).
  const std::vector<double>& points = scheduling_point_ends(i);
  std::vector<double> row(points.size(), 0.0);
  if (j > i) return row;  // lower priority: no contribution to W_i
  for (std::size_t k = 0; k < points.size(); ++k) {
    row[k] = j == i ? 1.0
                    : static_cast<double>(ceil_ratio(points[k], ts_[j].period));
  }
  return row;
}

}  // namespace flexrt::rt
