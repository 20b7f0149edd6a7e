#pragma once

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

}  // namespace flexrt::hier
