#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/annotations.hpp"
#include "common/math_util.hpp"
#include "rt/deadline_bound.hpp"
#include "rt/sched_points.hpp"
#include "rt/task_set.hpp"

namespace flexrt::rt {

/// When the demand curve starts charging job k of `task`: its deadline
/// D + k T, less the snap window 1e-9 (k+1) T within which edf_demand's
/// floor_ratio already counts the job. edf_demand_curve charges job k at
/// every point at or after this time; one-shot tests that must count as it
/// does (hier::edf_certificate) use the same expression.
inline double demand_event_time(const Task& task, std::int64_t k) noexcept {
  const double d = task.deadline + static_cast<double>(k) * task.period;
  const double snap = kRatioSnapTol * static_cast<double>(k + 1) * task.period;
  return d - snap;
}

/// Demand of every task at every query point in one event sweep:
/// out[k] = edf_demand(ts, points[k]) for sorted (ascending) `points`, in
/// O(events + n log n + points) instead of the O(n * points) of calling
/// edf_demand per point. Event inclusion uses the same integer-snapping
/// tolerance as floor_ratio, so the sweep agrees with the per-point kernel.
std::vector<double> edf_demand_curve(const TaskSet& ts,
                                     std::span<const double> points);

/// Cached per-TaskSet analysis state: the quantities every schedulability
/// probe re-derives -- Bini-Buttazzo scheduling points and the FP workloads
/// at them, the EDF deadline set dlSet and the demand curve over it -- are
/// computed once and shared by all subsequent queries.
///
/// This is the rt-layer piece of the batched analysis engine: min_quantum,
/// min_quantum_exact, fp/edf_schedulable and the sensitivity kernels all
/// have overloads taking an AnalysisContext, turning an analysis probe
/// (e.g. one bisection step on the quantum) into a pass over cached points
/// with only the supply function evaluated fresh.
///
/// FP caches require the set sorted by decreasing priority (as everywhere
/// else in the library). Both sides are budgeted:
///
/// - The EDF side works on the QPA-bounded/condensed deadline set
///   (rt/deadline_bound.hpp): dl_exact() reports whether it is the full
///   dlSet (probes are then exact) or a condensed safe over-approximation
///   whose consumers must add the tail closure (see hier::edf_schedulable /
///   hier::min_quantum).
/// - The FP side works on the bounded/condensed scheduling points
///   (rt::bounded_scheduling_points): fp_exact() reports whether every
///   task's set is the full schedP_i, otherwise scheduling_points(i) /
///   scheduling_point_ends(i) are the conservative (supply side, workload
///   side) bucket pairs and every test over them is a safe sufficient
///   test -- no tail closure needed, the sets are bounded by D_i.
///
/// Each side is materialized lazily on first use -- an FP-only caller
/// never pays for (or requires) the hyperperiod. Thread-safe: concurrent
/// readers may share one const context. Once a side is built, its
/// accessors check one acquire-loaded flag and take no lock: a probe calls
/// them for every partition or task.
class AnalysisContext {
 public:
  /// Takes ownership of a snapshot of the task set. `horizon` bounds the
  /// EDF deadline set (<= 0 means the hyperperiod, as in deadline_set());
  /// the default DlBoundOptions / FpPointOptions budgets apply either way.
  explicit AnalysisContext(TaskSet ts, double horizon = 0.0);

  /// Full control over the deadline-set bounding/condensation (FP side at
  /// the default budget).
  AnalysisContext(TaskSet ts, const DlBoundOptions& dl_opts);

  /// Full control over both condensation budgets.
  AnalysisContext(TaskSet ts, const DlBoundOptions& dl_opts,
                  const FpPointOptions& fp_opts);

  const TaskSet& tasks() const noexcept { return ts_; }
  std::size_t size() const noexcept { return ts_.size(); }
  bool empty() const noexcept { return ts_.empty(); }
  double utilization() const noexcept { return utilization_; }

  /// The bounding/condensation options this context was built with (the
  /// budgets a re-probe at the next accuracy rung should double from).
  const DlBoundOptions& dl_options() const noexcept { return dl_opts_; }
  const FpPointOptions& fp_options() const noexcept { return fp_opts_; }

  // --- EDF side -----------------------------------------------------------

  /// Bounded/condensed dlSet(T): the conservative test times (bucket
  /// starts). Equals rt::deadline_set(ts) whenever dl_exact() is true.
  const std::vector<double>& deadline_points() const;

  /// Latest deadline of each bucket; demand is evaluated here. Identical to
  /// deadline_points() when dl_exact() is true.
  const std::vector<double>& deadline_bucket_ends() const;

  /// EDF demand at each bucket end (== edf_demand at each point when
  /// exact), computed by the event sweep.
  const std::vector<double>& edf_demand_at_points() const;

  /// True iff deadline_points() is the full dlSet up to the hyperperiod.
  /// When false, consumers must close the tail beyond dl_horizon() with the
  /// QPA tail test (rt::tail_covered) to stay safe.
  bool dl_exact() const;

  /// Horizon covered by deadline_points().
  double dl_horizon() const;

  /// Intercept c of the demand-bound line: dbf(t) <= U t + c for t >= 0.
  double dl_util_const() const;

  /// Job count of task i contributing to the demand at each deadline point:
  /// row[k] = max(0, floor((t_k + T_i - D_i)/T_i)) evaluated at the bucket
  /// end t_k (conservative for condensed sets). The per-task demand
  /// contribution at t_k is row[k] * C_i; sensitivity probes scale it in
  /// place instead of rebuilding the task set.
  std::vector<double> edf_point_jobs(std::size_t i) const;

  // --- FP side ------------------------------------------------------------

  /// Bounded/condensed scheduling points of task i: the conservative
  /// supply-side test times (bucket starts). Equals
  /// rt::scheduling_points(ts, i) whenever fp_exact() is true.
  const std::vector<double>& scheduling_points(std::size_t i) const;

  /// Workload-side time of each bucket of task i (its last point);
  /// workloads and job counts are evaluated here. Identical to
  /// scheduling_points(i) when fp_exact() is true.
  const std::vector<double>& scheduling_point_ends(std::size_t i) const;

  /// W_i evaluated at each bucket end of task i (== at each scheduling
  /// point when exact).
  const std::vector<double>& fp_point_workloads(std::size_t i) const;

  /// True iff every task's point set is the full Bini-Buttazzo schedP_i.
  /// When false, FP tests over the condensed pairs are safe sufficient
  /// tests (condensed-schedulable => schedulable, condensed minQ >= exact).
  bool fp_exact() const;

  /// Number of jobs of task j charged to W_i at each bucket end of task i:
  /// ceil(t/T_j) for j < i, 1 for j == i, 0 for lower-priority j
  /// (conservative for condensed sets, exact for full ones).
  std::vector<double> fp_point_jobs(std::size_t i, std::size_t j) const;

 private:
  void ensure_edf() const;
  void ensure_fp() const;

  TaskSet ts_;
  DlBoundOptions dl_opts_;
  FpPointOptions fp_opts_;
  double utilization_ = 0.0;

  /// Set, with release order, once the side's state below is built. The
  /// first reader to miss a flag builds that side under build_mu_, which
  /// guards both sides: unlike std::call_once, an uncontended lock and
  /// unlock make no system call.
  mutable sys::Mutex build_mu_;
  mutable std::atomic<bool> edf_ready_{false};
  mutable BoundedDeadlineSet dl_;
  mutable std::vector<double> edf_demand_;

  mutable std::atomic<bool> fp_ready_{false};
  mutable std::vector<BoundedSchedPoints> sched_points_;
  mutable std::vector<std::vector<double>> fp_workloads_;
  mutable bool fp_exact_ = true;
};

}  // namespace flexrt::rt
