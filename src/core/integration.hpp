#pragma once

#include <string>

#include "core/mode_system.hpp"

namespace flexrt::core {

// Options and answers of the questions analysis::BatchEngine answers about
// one system: the Eq. 15 period searches and the WCET sensitivity margins.

/// Options for the 1-D searches over the period P. The lhs curve is
/// continuous and piecewise smooth; searches sample a grid then refine by
/// bisection / local golden-section to `tolerance`.
struct SearchOptions {
  double p_min = 1e-3;      ///< smallest period considered
  double p_max = 0.0;       ///< largest period; <=0 means auto (3x max deadline)
  double grid_step = 1e-3;  ///< sampling step of the coarse scan
  double tolerance = 1e-7;  ///< refinement precision on P
  bool use_exact_supply = false;  ///< minQ against exact Z instead of Z'
};

/// One sample of the Figure-4 curve.
struct RegionSample {
  double period = 0.0;
  double margin = 0.0;  ///< lhs(period)
};

/// Maximum admissible total overhead and the period attaining it:
/// argmax_P lhs(P) (points 3 and 4 of Figure 4).
struct OverheadLimit {
  double period = 0.0;
  double max_overhead = 0.0;
};

/// Period maximizing the redistributable slack bandwidth
/// (lhs(P) - o_tot)/P over the feasible region: design goal G2.
struct SlackOptimum {
  double period = 0.0;
  double slack = 0.0;            ///< lhs(P*) - o_tot (time per period)
  double slack_bandwidth = 0.0;  ///< slack / P*
};

/// One row of a sensitivity report: how far one task's WCET can grow
/// before a finished design breaks.
struct TaskMargin {
  std::string name;
  rt::Mode mode = rt::Mode::NF;
  double wcet = 0.0;
  double scale_margin = 0.0;  ///< wcet_scale_margin of this task
};

/// Default automatic upper bound of the period search (3x the largest
/// deadline in the system; beyond that every mode's minQ grows ~linearly in
/// P and the margin only falls).
double auto_period_bound(const ModeTaskSystem& sys);

}  // namespace flexrt::core
