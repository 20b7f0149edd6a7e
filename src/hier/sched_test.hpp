#pragma once

#include <cstddef>

#include "hier/supply.hpp"
#include "rt/analysis_context.hpp"

namespace flexrt::hier {

/// Local scheduling algorithm used inside a time partition.
enum class Scheduler {
  FP,   ///< fixed priorities; task set sorted by decreasing priority
  EDF,  ///< earliest deadline first
};

const char* to_string(Scheduler alg) noexcept;

// The library's schedulability tests. Test points and the demand/workload
// at them come from the AnalysisContext, so a probe only evaluates the
// supply: bisections over the supply (min_quantum_exact, sensitivity
// margins) stay cheap. The context's budgets bound the work; on condensed
// contexts (!dl_exact() / !fp_exact()) both are safe sufficient tests -- a
// condensed "schedulable" implies the exact verdict, never the reverse.

/// Paper Theorem 1 generalized to an arbitrary supply function:
/// task set T is FP-schedulable in a partition with supply Z if
///   for every task i, exists t in schedP_i with Z(t) >= W_i(t).
/// With Z = LinearSupply(alpha, delta) this is exactly Eq. (4). The context
/// must hold the set in priority order (rt::sort_rate_monotonic /
/// sort_deadline_monotonic).
bool fp_schedulable(const rt::AnalysisContext& ctx,
                    const SupplyFunction& supply);

/// Paper Theorem 2 generalized to an arbitrary supply function:
/// T is EDF-schedulable in the partition if U(T) <= rate and
///   for every t in dlSet(T), Z(t) >= W(t)   (W = demand bound, Eq. 9).
bool edf_schedulable(const rt::AnalysisContext& ctx,
                     const SupplyFunction& supply);

/// Dispatch on the scheduler enum.
bool schedulable(const rt::AnalysisContext& ctx, Scheduler alg,
                 const SupplyFunction& supply);

/// What edf_certificate found: whether it settled the set, and how many
/// deadlines it tested to do so (or before giving up).
struct EdfCertificate {
  bool holds = false;
  std::size_t deadlines = 0;
};

/// The demand-bound cut-off (Baruah, Rosier & Howell, Real-Time Systems
/// 2(4), 1990; the bound that closes the QPA tail in Zhang & Burns, IEEE TC
/// 58(9), 2009) for a set seen once. `holds` is true only when
///  1. a default-budget rt::AnalysisContext of the set would be exact:
///     a finite hyperperiod H, sum(H/T_i + 1) <= rt::kDefaultDlPointBudget
///     and every D_i <= T_i;
///  2. U < rate (with a relative margin);
///  3. every task deadline up to min(H, L) passes under a job count that
///     covers edf_demand_curve's snap window, where
///     L = (c + rate * floor_delay) / (rate - U) and
///     c = sum C_i (T_i - D_i) / T_i.
/// Past L the demand bound U t + c lies under the supply's linear floor,
/// so every deadline there passes too. `holds` therefore implies that
/// edf_schedulable on that context answers "schedulable"; false says
/// nothing. The derivation is next to the code.
EdfCertificate edf_certificate(const rt::TaskSet& ts,
                               const SupplyFunction& supply);

/// One-shot test of a task set asked once (a fault-sweep channel with its
/// recovery task, a baseline's dedicated processor): the verdict of
/// schedulable(rt::AnalysisContext(ts), alg, supply), which it builds only
/// when it must. Under EDF a holding edf_certificate answers "schedulable"
/// without the context; every other case runs the context test. FP always
/// runs it, so `ts` must then be in priority order.
bool schedulable(rt::TaskSet ts, Scheduler alg, const SupplyFunction& supply);

}  // namespace flexrt::hier
