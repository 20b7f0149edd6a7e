#include "core/integration.hpp"

#include <algorithm>

#include "core/analysis_engine.hpp"

namespace flexrt::core {

// One-shot fronts: each call builds a throwaway analysis::BatchEngine at
// the library-default budgets and asks it once, so the answers are the
// engine's bit for bit and no process-wide cache is consulted. Callers
// issuing many queries against one system should hold the engine (or an
// svc::AnalysisService for a fleet) themselves.

double auto_period_bound(const ModeTaskSystem& sys) {
  double max_deadline = 1.0;
  for (const rt::Mode mode : kAllModes) {
    for (const rt::TaskSet& ts : sys.partitions(mode)) {
      for (const rt::Task& t : ts) {
        max_deadline = std::max(max_deadline, t.deadline);
      }
    }
  }
  return 3.0 * max_deadline;
}

double mode_min_quantum(const ModeTaskSystem& sys, rt::Mode mode,
                        hier::Scheduler alg, double period,
                        bool use_exact_supply) {
  return analysis::BatchEngine(sys, alg).mode_min_quantum(mode, period,
                                                          use_exact_supply);
}

double feasibility_margin(const ModeTaskSystem& sys, hier::Scheduler alg,
                          double period, bool use_exact_supply) {
  return analysis::BatchEngine(sys, alg).feasibility_margin(period,
                                                            use_exact_supply);
}

std::vector<RegionSample> sample_region(const ModeTaskSystem& sys,
                                        hier::Scheduler alg,
                                        const SearchOptions& opts) {
  return analysis::BatchEngine(sys, alg).sample_region(opts);
}

double max_feasible_period(const ModeTaskSystem& sys, hier::Scheduler alg,
                           double o_tot, const SearchOptions& opts) {
  return analysis::BatchEngine(sys, alg).max_feasible_period(o_tot, opts);
}

OverheadLimit max_admissible_overhead(const ModeTaskSystem& sys,
                                      hier::Scheduler alg,
                                      const SearchOptions& opts) {
  return analysis::BatchEngine(sys, alg).max_admissible_overhead(opts);
}

SlackOptimum max_slack_period(const ModeTaskSystem& sys, hier::Scheduler alg,
                              double o_tot, const SearchOptions& opts) {
  return analysis::BatchEngine(sys, alg).max_slack_period(o_tot, opts);
}

}  // namespace flexrt::core
