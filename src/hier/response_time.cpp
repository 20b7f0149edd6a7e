#include "hier/response_time.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/math_util.hpp"
#include "rt/demand.hpp"

namespace flexrt::hier {

double supply_inverse(const SupplyFunction& supply, double demand,
                      double tolerance) {
  FLEXRT_REQUIRE(tolerance > 0.0, "tolerance must be > 0");
  return supply.inverse(demand, tolerance);
}

std::optional<double> fp_response_time(const rt::TaskSet& ts, std::size_t i,
                                       const SupplyFunction& supply) {
  FLEXRT_REQUIRE(i < ts.size(), "task index out of range");
  const double deadline = ts[i].deadline;
  double r = supply.inverse(ts[i].wcet);
  // Monotone fixed-point iteration: W_i is a step function of R, so each
  // iterate only grows; convergence is reached when the workload stops
  // changing, divergence when R crosses the deadline. Each iterate costs
  // one closed-form inverse plus the O(i) workload sum.
  for (int guard = 0; guard < 10000; ++guard) {
    if (r > deadline * (1.0 + 1e-9)) return std::nullopt;
    const double next = supply.inverse(rt::fp_workload(ts, i, r));
    if (almost_equal(next, r, 1e-9, 1e-9)) return next;
    r = next;
  }
  return std::nullopt;  // pathological oscillation guard
}

std::vector<std::optional<double>> fp_response_times(
    const rt::TaskSet& ts, const SupplyFunction& supply) {
  std::vector<std::optional<double>> out;
  out.reserve(ts.size());
  for (std::size_t i = 0; i < ts.size(); ++i) {
    out.push_back(fp_response_time(ts, i, supply));
  }
  return out;
}

}  // namespace flexrt::hier
