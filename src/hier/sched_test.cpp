#include "hier/sched_test.hpp"

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

}  // namespace flexrt::hier
