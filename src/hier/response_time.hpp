#pragma once

#include <optional>

#include "hier/supply.hpp"
#include "rt/task_set.hpp"

namespace flexrt::hier {

/// Pseudo-inverse of a supply function: the smallest window length t such
/// that Z(t) >= demand. Delegates to SupplyFunction::inverse(), which is an
/// exact closed form for every shape shipped with the library; `tolerance`
/// only applies to a shape whose inverse refines to one. demand <= 0
/// yields 0.
double supply_inverse(const SupplyFunction& supply, double demand,
                      double tolerance = kInverseTolerance);

/// Worst-case response time of task `i` of an FP-scheduled partition served
/// by `supply`: the fixed point of
///
///   R = Z^{-1}( W_i(R) ),   W_i(t) = C_i + sum_{j<i} ceil(t/T_j) C_j,
///
/// starting from the critical instant (all tasks released together with the
/// supply at its worst). The iteration is monotone; it either converges or
/// exceeds the deadline, in which case nullopt is returned (task
/// unschedulable in this partition). The set must be sorted by decreasing
/// priority.
///
/// With supply = LinearSupply(1, 0) this reduces to classic RTA. The EDF
/// counterpart (Spuri's analysis under a supply function) is out of scope;
/// use edf_schedulable() for EDF feasibility.
std::optional<double> fp_response_time(const rt::TaskSet& ts, std::size_t i,
                                       const SupplyFunction& supply);

/// Response times of every task of the partition (nullopt entries for
/// unschedulable tasks).
std::vector<std::optional<double>> fp_response_times(
    const rt::TaskSet& ts, const SupplyFunction& supply);

}  // namespace flexrt::hier
