#include "hier/min_quantum.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "rt/demand.hpp"
#include "rt/sched_points.hpp"

namespace flexrt::hier {

double quantum_for_point(double t, double workload, double period) noexcept {
  // The positive root (sqrt(b^2 + 4PW) - b) / 2 subtracts two nearly equal
  // numbers when b = t - P >> sqrt(PW), and rounds a tiny quantum down to
  // 0. For b > 0 the conjugate form adds instead (Higham, Accuracy and
  // Stability of Numerical Algorithms, 2nd ed., 1.8).
  const double b = t - period;
  const double root = std::sqrt(b * b + 4.0 * period * workload);
  if (b > 0.0) return 2.0 * period * workload / (root + b);
  return (root - b) / 2.0;
}

namespace {

double min_quantum_fp(const rt::AnalysisContext& ctx, double period) {
  // On a condensed point set this pairs each bucket's end workload with
  // its start time: quantum_for_point is decreasing in t and increasing in
  // W, so the bucket's quantum dominates every point inside it and the
  // condensed minQ is a safe over-approximation (exact when fp_exact()).
  // No tail term -- schedP_i is bounded by D_i, unlike the EDF dlSet.
  double worst = 0.0;
  for (std::size_t i = 0; i < ctx.size(); ++i) {
    const std::vector<double>& points = ctx.scheduling_points(i);
    const std::vector<double>& workloads = ctx.fp_point_workloads(i);
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t k = 0; k < points.size(); ++k) {
      best = std::min(best, quantum_for_point(points[k], workloads[k], period));
    }
    worst = std::max(worst, best);
  }
  return worst;
}

double min_quantum_edf(const rt::AnalysisContext& ctx, double period) {
  // On a condensed set this pairs each bucket's worst demand with its
  // earliest time: quantum_for_point is decreasing in t and increasing in
  // W, so the bucket's quantum dominates every deadline inside it.
  const std::vector<double>& points = ctx.deadline_points();
  const std::vector<double>& demand = ctx.edf_demand_at_points();
  double worst = 0.0;
  for (std::size_t k = 0; k < points.size(); ++k) {
    worst = std::max(worst, quantum_for_point(points[k], demand[k], period));
  }
  if (!ctx.dl_exact()) {
    // QPA tail closure for the deadlines beyond the covered horizon H:
    // dbf(t) <= U t + c there, so the smallest quantum whose linear supply
    // (slope Q/P, delay P - Q) sits on the demand line at H *and* has slope
    // >= U (Q >= U P) covers every later deadline too.
    const double h = ctx.dl_horizon();
    const double line = ctx.utilization() * h + ctx.dl_util_const();
    worst = std::max({worst, quantum_for_point(h, line, period),
                      ctx.utilization() * period});
  }
  return worst;
}

}  // namespace

double min_quantum(const rt::AnalysisContext& ctx, Scheduler alg,
                   double period) {
  FLEXRT_REQUIRE(period > 0.0, "period must be > 0");
  if (ctx.empty()) return 0.0;
  return alg == Scheduler::FP ? min_quantum_fp(ctx, period)
                              : min_quantum_edf(ctx, period);
}

double min_quantum(const rt::TaskSet& ts, Scheduler alg, double period) {
  return min_quantum(rt::AnalysisContext(ts), alg, period);
}

double min_quantum_exact(const rt::AnalysisContext& ctx, Scheduler alg,
                         double period, double tolerance) {
  FLEXRT_REQUIRE(period > 0.0, "period must be > 0");
  if (ctx.empty()) return 0.0;
  // Feasibility is monotone in the usable quantum: a larger quantum yields a
  // pointwise larger SlotSupply, so bisection applies. The linear-bound
  // answer is an upper bound for the exact one. Every probe reuses the
  // cached test points; only the slot supply is evaluated fresh.
  double hi = std::min(period, min_quantum(ctx, alg, period));
  if (!schedulable(ctx, alg, SlotSupply(period, hi))) {
    // Linear answer exceeded the period: the exact test may still pass with
    // q <= P, or fail outright.
    hi = period;
    if (!schedulable(ctx, alg, SlotSupply(period, hi))) {
      return std::numeric_limits<double>::infinity();
    }
  }
  // Once no double lies strictly between lo and hi, the midpoint rounds to
  // one of them and the bracket stops shrinking, however large `tolerance`
  // leaves it: at a quantum of 1e8, adjacent doubles are 1.5e-8 apart. The
  // loop then stops after that update, returning the hi it has certified.
  // A loop that meets the tolerance never reaches that state, so it ends
  // as it always did, with the same bits.
  double lo = 0.0;
  while (hi - lo > tolerance) {
    const double mid = 0.5 * (lo + hi);
    const bool last = mid == lo || mid == hi;
    if (schedulable(ctx, alg, SlotSupply(period, mid))) {
      hi = mid;
    } else {
      lo = mid;
    }
    if (last) break;
  }
  return hi;
}

double min_quantum_exact(const rt::TaskSet& ts, Scheduler alg, double period,
                         double tolerance) {
  return min_quantum_exact(rt::AnalysisContext(ts), alg, period, tolerance);
}

}  // namespace flexrt::hier
