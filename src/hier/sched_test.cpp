#include "hier/sched_test.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

#include "common/math_util.hpp"
#include "rt/deadline_bound.hpp"

namespace flexrt::hier {

const char* to_string(Scheduler alg) noexcept {
  return alg == Scheduler::FP ? "FP" : "EDF";
}

bool fp_schedulable(const rt::AnalysisContext& ctx,
                    const SupplyFunction& supply) {
  // On a condensed point set, workloads[k] is W_i at the bucket's last
  // point while points[k] is its first -- the conservative pairing for an
  // EXISTS test (harder to pass), so a pass here implies a pass of the
  // full Bini-Buttazzo test. Exact when ctx.fp_exact().
  for (std::size_t i = 0; i < ctx.size(); ++i) {
    const std::vector<double>& points = ctx.scheduling_points(i);
    const std::vector<double>& workloads = ctx.fp_point_workloads(i);
    bool ok = false;
    for (std::size_t k = 0; k < points.size(); ++k) {
      if (leq_tol(workloads[k], supply.value(points[k]))) {
        ok = true;
        break;
      }
    }
    if (!ok) return false;
  }
  return true;
}

bool edf_schedulable(const rt::AnalysisContext& ctx,
                     const SupplyFunction& supply) {
  if (ctx.empty()) return true;
  if (ctx.utilization() > supply.rate() + 1e-12) return false;
  // On a condensed set, demand[k] is the demand at the bucket's latest
  // deadline while points[k] is its earliest one -- a conservative pairing,
  // so a pass here implies a pass of the full per-deadline test.
  const std::vector<double>& points = ctx.deadline_points();
  const std::vector<double>& demand = ctx.edf_demand_at_points();
  for (std::size_t k = 0; k < points.size(); ++k) {
    if (!leq_tol(demand[k], supply.value(points[k]))) return false;
  }
  if (!ctx.dl_exact()) {
    // QPA tail closure: every deadline beyond the covered horizon passes
    // automatically iff the demand line U t + c has dropped below the
    // supply's guaranteed linear floor rate*(t - floor_delay()) by then.
    if (!rt::tail_covered(ctx.utilization(), ctx.dl_util_const(),
                          ctx.dl_horizon(), supply.rate(),
                          supply.floor_delay())) {
      return false;
    }
  }
  return true;
}

bool schedulable(const rt::AnalysisContext& ctx, Scheduler alg,
                 const SupplyFunction& supply) {
  return alg == Scheduler::FP ? fp_schedulable(ctx, supply)
                              : edf_schedulable(ctx, supply);
}

namespace {

// Margins of edf_certificate; the derivation below says what each covers.
/// Relative slack on U and c in the demand line.
constexpr double kLineSlack = 1e-8;
/// The tolerance of the certificate's per-deadline test: leq_tol's 1e-9
/// less the rounding by which the context's demand sum may exceed its own.
constexpr double kDeadlineTol = 1e-9 - 2e-11;
/// Relative widening of the window in which a job's demand event counts at
/// a point: a few ulps, for a compiler that contracts the event time's
/// expression into a fused multiply-add in one place and not the other.
constexpr double kEventWindow = 1e-15;
/// Most deadlines the certificate tests. A set that needs more goes to the
/// context test, which pays about as much per deadline and cannot fail to
/// settle it.
constexpr double kMaxCertifiedDeadlines = 256.0;

/// Jobs of `t` the demand curve charges at point p, or one more where an
/// event lies within kEventWindow of p: the largest k + 1 with
/// rt::demand_event_time(t, k) <= p (1 + kEventWindow). Events advance by
/// T (1 - 1e-9) per job, so the estimate is off by at most one either way.
double charged_jobs(const rt::Task& t, double p) {
  const double reach = p + std::fabs(p) * kEventWindow;
  const double est =
      std::floor((reach - t.deadline + 1e-9 * t.period) /
                 (t.period * (1.0 - 1e-9)));
  auto k = static_cast<std::int64_t>(std::max(est, 0.0));
  while (k > 0 && rt::demand_event_time(t, k) > reach) --k;
  while (rt::demand_event_time(t, k + 1) <= reach) ++k;
  return rt::demand_event_time(t, k) <= reach ? static_cast<double>(k + 1)
                                              : 0.0;
}

}  // namespace

// Why a holding certificate implies edf_schedulable(ctx) on the context
// `ctx` = rt::AnalysisContext(ts) at the default budget B:
//
// Exactness. bounded_deadline_set's automatic horizon is
// min(H, B / sum(1/T_i)). With sum(H/T_i + 1) <= B the second term exceeds
// H by n / sum(1/T_i) >= H n / B, far more than its rounding, so the horizon
// is H itself. Task i adds fewer than H/T_i + 1 deadlines (D_i > 0), and the
// rounding of the enumeration and of the sum adds under 1e-6 in all, so an
// integer count stays <= B and no coalescing happens: the context's points
// are deadline_set(ts, H), and its test is exact.
//
// Points. deadline_set computes task i's deadlines by accumulation,
// d = D_i, d += T_i, while d <= H (1 + 1e-12), and merges near-equal ones
// into the first of each run, itself such a d: the merge only drops points.
// The scan below accumulates the same way, so every point p of the context
// is a deadline it reaches bit for bit, and it tests every one up to
// min(H (1 + 1e-12), cut).
//
// Tested points. At p the context charges job k of task j once
// rt::demand_event_time(j, k) <= p (the snap window of edf_demand_curve),
// and sums the charges one event at a time. charged_jobs counts the same
// events, and one more only where an event lies within a few ulps of p. So
// the tested demand is at least the context's, less the rounding of the
// context's longer sum (< 2e-11 relative over B events), and Z is read at p
// itself. A pass under leq_tol at 1e-9 - 2e-11 is then a pass of the
// context's leq_tol at 1e-9.
//
// The tail. The context charges job k of task j at p only if
// D_j + k T_j - 1e-9 (k+1) T_j <= p (plus its ulps), i.e. for
// k + 1 <= (p + T_j - D_j) / (T_j (1 - 1e-9)). With every D_j <= T_j its
// demand is therefore at most (U p + c) (1 + 1.02e-9) for
// c = sum C_j (T_j - D_j) / T_j >= 0. For p > cut =
// (c (1 + s) + rate * floor_delay) / (rate - U (1 + s)), s = kLineSlack,
// (U p + c)(1 + s) < rate (p - floor_delay) <= Z(p) by the floor every
// SupplyFunction guarantees, and s = 1e-8 leaves ~9e-9 of
// rate * (p - floor_delay) beyond the demand, the snap window and every
// rounding. So every point past cut passes, and U (1 + s) < rate passes the
// context's U <= rate + 1e-12.
//
// Hence a holding certificate means the context test answers "schedulable".
// A failing one proves nothing: the context may still pass the set.
EdfCertificate edf_certificate(const rt::TaskSet& ts,
                               const SupplyFunction& supply) {
  EdfCertificate out;
  const double rate = supply.rate();
  const double u_line = ts.utilization() * (1.0 + kLineSlack);
  if (!(u_line < rate)) return out;
  const double h = ts.hyperperiod_or_inf();
  if (!std::isfinite(h)) return out;
  double points = 0.0;
  double c = 0.0;
  for (const rt::Task& t : ts) {
    if (t.deadline > t.period) return out;
    points += h / t.period + 1.0;
    c += t.wcet * (t.period - t.deadline) / t.period;
  }
  if (points > static_cast<double>(rt::kDefaultDlPointBudget)) return out;
  const double cut = (c * (1.0 + kLineSlack) + rate * supply.floor_delay()) /
                     (rate - u_line);
  // deadline_set's bound at horizon H, and the cut-off.
  const double limit = std::min(h * (1.0 + 1e-12), cut);
  double count = 0.0;
  for (const rt::Task& t : ts) {
    if (t.deadline <= limit) {
      count += std::floor((limit - t.deadline) / t.period) + 1.0;
    }
  }
  if (count > kMaxCertifiedDeadlines) return out;

  const auto passes = [&](double p) {
    ++out.deadlines;
    double demand = 0.0;
    for (const rt::Task& t : ts) demand += charged_jobs(t, p) * t.wcet;
    return leq_tol(demand, supply.value(p), kDeadlineTol);
  };
  // First deadlines first: the supply's delay makes them the likeliest to
  // fail, so a set that will not certify is left early.
  for (const rt::Task& t : ts) {
    if (t.deadline <= limit && !passes(t.deadline)) return out;
  }
  for (const rt::Task& t : ts) {
    for (double d = t.deadline + t.period; d <= limit; d += t.period) {
      if (!passes(d)) return out;
    }
  }
  out.holds = true;
  return out;
}

bool schedulable(rt::TaskSet ts, Scheduler alg, const SupplyFunction& supply) {
  if (alg == Scheduler::EDF && edf_certificate(ts, supply).holds) return true;
  return schedulable(rt::AnalysisContext(std::move(ts)), alg, supply);
}

}  // namespace flexrt::hier
