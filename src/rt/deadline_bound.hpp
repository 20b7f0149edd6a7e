#pragma once

#include <cstddef>
#include <vector>

#include "rt/task_set.hpp"

namespace flexrt::rt {

/// Options bounding and condensing the EDF deadline set dlSet(T).
///
/// The full dlSet enumerates every absolute deadline d = D_i + k*T_i up to
/// the hyperperiod, which explodes for co-prime-ish period mixes (the
/// hyperperiod of 10^3 tasks with periods on a fine grid easily exceeds any
/// representable time). The bounded set applies two QPA-style reductions
/// (Zhang & Burns, "Schedulability Analysis for Real-Time Systems with EDF
/// Scheduling", IEEE TC 2009) adapted to the partition-supply setting:
///
///  1. Horizon truncation: deadlines are only enumerated up to
///     min(hyperperiod, explicit horizon, budget-derived horizon). The
///     analytic tail closure in tail_covered()/the minQ tail quantum covers
///     every t beyond it.
///  2. Coalescing: when the surviving points still exceed `max_points`,
///     adjacent deadlines are merged into buckets tested conservatively
///     (demand of the latest deadline in the bucket against supply at the
///     earliest), which keeps every downstream test a safe sufficient test.
/// Default |dlSet| point budget (DlBoundOptions::max_points). Named so the
/// adaptive-accuracy ladder (svc::AccuracyPolicy) and the provenance fields
/// it reports can reference the library default instead of a magic number.
inline constexpr std::size_t kDefaultDlPointBudget = 1u << 16;

struct DlBoundOptions {
  /// Explicit horizon; <= 0 means the hyperperiod. An explicit horizon is
  /// enumerated as given (the caller owns that cost) and then coalesced to
  /// the budget; the automatic one is pulled in to ~max_points events
  /// first, so memory stays O(max_points) on any period spread.
  double horizon = 0.0;
  /// Budget on |dlSet|: points surviving past it are coalesced into
  /// conservative buckets. 0 disables both reductions (full enumeration,
  /// the pre-QPA behavior; requires a finite hyperperiod).
  std::size_t max_points = kDefaultDlPointBudget;
};

/// Next rung of the adaptive-accuracy budget ladder (svc::AccuracyPolicy):
/// twice the point budget, saturating at `cap`. Growing the budget only
/// refines the condensed set (more buckets over a longer horizon), so
/// re-probing at the next rung never loses safety.
constexpr std::size_t next_budget_rung(std::size_t budget,
                                       std::size_t cap) noexcept {
  const std::size_t base = budget ? budget : 1;
  return base >= cap / 2 ? cap : base * 2;
}

/// The bounded/condensed deadline set plus the scalars the tail closure
/// needs. When `exact` is true, `times == ends ==` the full dlSet(T) and
/// every test over it is exact; otherwise tests over (times, ends) plus the
/// QPA tail closure form a safe over-approximation (schedulable on the
/// condensed set implies schedulable on the full one, never the reverse).
struct BoundedDeadlineSet {
  /// Test times, sorted ascending: the earliest deadline of each bucket
  /// (supply is evaluated here -- the conservative side).
  std::vector<double> times;
  /// Latest deadline of each bucket (demand is evaluated here). Left EMPTY
  /// when no coalescing happened, meaning "identical to times" -- the
  /// common exact case would otherwise carry the full set twice.
  std::vector<double> ends;
  /// Horizon actually covered by `times`/`ends`.
  double horizon = 0.0;
  /// Full horizon the exact analysis would need: the hyperperiod, or
  /// +infinity when it overflows / is not representable on the grid.
  double full_horizon = 0.0;
  /// True iff times cover the full horizon with one point per deadline.
  bool exact = true;
  /// U(T): total utilization.
  double utilization = 0.0;
  /// c = sum_i C_i (T_i - D_i) / T_i: the intercept of the demand-bound
  /// line, dbf(t) <= U t + c for all t >= 0 (constrained deadlines).
  double util_const = 0.0;

  /// The times demand is evaluated at -- the one place that decodes the
  /// empty-ends representation of `ends` above.
  const std::vector<double>& demand_times() const noexcept {
    return ends.empty() ? times : ends;
  }
};

/// Builds the bounded/condensed deadline set. Deterministic: depends only on
/// the task set and the options.
BoundedDeadlineSet bounded_deadline_set(const TaskSet& ts,
                                        const DlBoundOptions& opts = {});

/// QPA tail closure for a supply with linear floor Z(t) >= rate*(t - delay):
/// true iff U t + c <= rate*(t - delay) for every t >= horizon, i.e. rate >
/// utilization and, at the horizon, the demand line lies at or below the
/// floor to the per-point tolerance (leq_tol). Every deadline beyond the
/// horizon then passes the EDF test, so the points up to it plus this test
/// form a complete test. It compares at the horizon, not through the
/// crossing time L* = (c + rate*delay) / (rate - utilization): a G1 design
/// makes rate - utilization tight, and L*'s rounding alone can exceed the
/// tolerance.
bool tail_covered(double utilization, double util_const, double horizon,
                  double rate, double delay) noexcept;

}  // namespace flexrt::rt
