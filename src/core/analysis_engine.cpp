#include "core/analysis_engine.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <limits>
#include <utility>

#include "common/error.hpp"
#include "common/math_util.hpp"
#include "hier/min_quantum.hpp"
#include "rt/priority.hpp"

namespace flexrt::analysis {

using core::kAllModes;

/// Demand-side deltas of one WCET scaling probe against one partition:
/// everything that depends on the task set is precomputed, so testing a
/// candidate lambda is one pass over cached points evaluating only
///   base + (lambda - 1) * contrib  <=  Z(t).
struct BatchEngine::ScaledProbe {
  const Partition* part = nullptr;
  hier::LinearSupply supply;
  /// EDF: utilization added per unit of (lambda - 1).
  double u_delta = 0.0;
  /// EDF: demand-line intercept added per unit of (lambda - 1); feeds the
  /// QPA tail closure on condensed deadline sets.
  double c_delta = 0.0;
  /// EDF: scaled tasks' demand at each deadline point.
  std::vector<double> edf_contrib;
  /// FP: scaled tasks' share of W_i at each scheduling point, per task i.
  std::vector<std::vector<double>> fp_contrib;
};

namespace {

bool matches(const rt::Task& t, const std::string& name) {
  return name.empty() || t.name == name;
}

/// Shortest round-trip rendering, for error messages.
std::string shortest(double v) {
  std::array<char, 32> buf{};
  const auto res = std::to_chars(buf.data(), buf.data() + buf.size(), v);
  return std::string(buf.data(), res.ptr);
}

}  // namespace

BatchEngine::BatchEngine(const core::ModeTaskSystem& sys, hier::Scheduler alg,
                         const rt::DlBoundOptions& dl_opts,
                         const rt::FpPointOptions& fp_opts)
    : alg_(alg),
      dl_opts_(dl_opts),
      fp_opts_(fp_opts),
      auto_p_max_(core::auto_period_bound(sys)) {
  for (const rt::Mode mode : kAllModes) {
    for (const rt::TaskSet& ts : sys.partitions(mode)) {
      for (const rt::Task& t : ts) {
        task_rows_.push_back({t.name, mode, t.wcet, 0.0});
      }
      if (ts.empty()) continue;
      mode_used_[static_cast<std::size_t>(mode)] = true;
      rt::TaskSet ordered =
          alg == hier::Scheduler::FP ? rt::sort_deadline_monotonic(ts) : ts;
      parts_.push_back({mode, std::make_unique<rt::AnalysisContext>(
                                  std::move(ordered), dl_opts, fp_opts)});
    }
  }
}

bool BatchEngine::dl_exact() const {
  if (alg_ == hier::Scheduler::FP) return true;
  for (const Partition& part : parts_) {
    if (!part.ctx->dl_exact()) return false;
  }
  return true;
}

bool BatchEngine::fp_exact() const {
  if (alg_ != hier::Scheduler::FP) return true;
  for (const Partition& part : parts_) {
    if (!part.ctx->fp_exact()) return false;
  }
  return true;
}

core::SearchOptions BatchEngine::resolve(core::SearchOptions opts) const {
  if (opts.p_max <= 0.0) opts.p_max = auto_p_max_;
  FLEXRT_REQUIRE(opts.p_min > 0.0 && opts.p_min < opts.p_max,
                 "invalid period search range");
  FLEXRT_REQUIRE(opts.grid_step > 0.0, "grid step must be > 0");
  // The scans accumulate p -= grid_step (and p += grid_step) between p_min
  // and p_max. A step of at most half the spacing of doubles just below
  // p_max leaves some candidate where it is -- every one when smaller,
  // those with an even significand when exactly half -- and the scan would
  // never end; a larger step moves every smaller candidate, whose spacing
  // is no wider, and keeps sample_region's count below 2^54.
  const double spacing = opts.p_max - std::nextafter(opts.p_max, 0.0);
  if (!(opts.grid_step > 0.5 * spacing)) {
    throw ModelError("grid step " + shortest(opts.grid_step) +
                     " cannot move the period at p_max " +
                     shortest(opts.p_max) +
                     ": it must exceed half the spacing of doubles there (" +
                     shortest(spacing) + ")");
  }
  return opts;
}

double BatchEngine::mode_min_quantum(rt::Mode mode, double period,
                                     bool use_exact_supply) const {
  double worst = 0.0;
  for (const Partition& part : parts_) {
    if (part.mode != mode) continue;
    worst = std::max(
        worst, use_exact_supply
                   ? hier::min_quantum_exact(*part.ctx, alg_, period)
                   : hier::min_quantum(*part.ctx, alg_, period));
  }
  return worst;
}

double BatchEngine::feasibility_margin(double period,
                                       bool use_exact_supply) const {
  double worst[3] = {0.0, 0.0, 0.0};
  for (const Partition& part : parts_) {
    double& slot = worst[static_cast<std::size_t>(part.mode)];
    slot = std::max(
        slot, use_exact_supply
                  ? hier::min_quantum_exact(*part.ctx, alg_, period)
                  : hier::min_quantum(*part.ctx, alg_, period));
  }
  return period - worst[0] - worst[1] - worst[2];
}

std::vector<core::RegionSample> BatchEngine::sample_region(
    const core::SearchOptions& opts_in) const {
  const core::SearchOptions opts = resolve(opts_in);
  const auto n = static_cast<std::size_t>(
      std::ceil((opts.p_max - opts.p_min) / opts.grid_step));
  std::vector<core::RegionSample> out(n + 1);
  for (std::size_t i = 0; i <= n; ++i) {
    const double p = std::min(
        opts.p_max, opts.p_min + static_cast<double>(i) * opts.grid_step);
    out[i] = {p, feasibility_margin(p, opts.use_exact_supply)};
  }
  return out;
}

double BatchEngine::max_feasible_period(double o_tot,
                                        const core::SearchOptions& opts_in) const {
  const core::SearchOptions opts = resolve(opts_in);
  // Downward grid scan over the accumulated p -= grid_step candidates: the
  // first feasible candidate bounds the answer from below, its predecessor
  // from above.
  //
  // Certified skip: a slot (P + d, Q + d) supplies at least what (P, Q)
  // does, so minQ_k(P) <= minQ_k(P'') + (P - P'') for every used mode k
  // and P'' < P, and with K used modes
  //   lhs(P'') <= lhs(P) + (K - 1) (P - P'').
  // (The first step needs minQ_k(P'') <= P''; when it fails, lhs(P'') < 0
  // <= o_tot and P'' is infeasible anyway.) So after an infeasible
  // candidate with finite margin m, every P'' with
  // P - P'' < (o_tot - m - guard) / (K - 1) is infeasible too -- all of
  // them when K <= 1 -- and is stepped over without a probe. The guard
  // covers min_quantum_exact's bisection tolerance (once per mode), the
  // tolerance-snapped supply evaluation and the rounding of the margin
  // with three orders of magnitude to spare, so the first feasible
  // candidate and its predecessor are exactly those of the full scan.
  //
  // A stepped-over run is not walked one subtraction at a time:
  // walk_down_grid (common/math_util.hpp) finds its last candidate and the
  // next one in closed form, in time O(binades crossed), with the bits of
  // the accumulated sequence. A search costs its probes (tens) plus a few
  // binade crossings, whatever the number of grid candidates.
  const int used_modes = mode_used_[0] + mode_used_[1] + mode_used_[2];
  // Candidates at or below this one are below p_min.
  const double below_range = std::nextafter(opts.p_min, 0.0);
  double feasible = -1.0;
  double infeasible_above = opts.p_max;
  // Candidates above next_probe are proven infeasible.
  double next_probe = opts.p_max;
  double p = opts.p_max;
  while (p >= opts.p_min) {
    if (p > next_probe) {
      const GridCrossing run = walk_down_grid(
          p, opts.grid_step, std::max(next_probe, below_range));
      infeasible_above = run.last_above;
      p = run.first_at_or_below;
      continue;
    }
    const double margin = feasibility_margin(p, opts.use_exact_supply);
    if (margin >= o_tot) {
      feasible = p;
      break;
    }
    infeasible_above = p;
    const double guard = 1e3 * hier::kInverseTolerance * std::max(1.0, p);
    const double excess = o_tot - margin - guard;
    if (o_tot >= 0.0 && std::isfinite(margin) && excess > 0.0) {
      if (used_modes <= 1) break;
      next_probe = p - excess / (used_modes - 1);
    }
    p -= opts.grid_step;
  }
  if (feasible < 0.0) {
    throw InfeasibleError(
        "no feasible period found in the search range (O_tot too large?)");
  }
  // The refinement stops after an update whose midpoint was an end (no
  // double lies between them, as above 5e8 at the default tolerance),
  // returning the feasible lo; see hier::min_quantum_exact.
  double lo = feasible;
  double hi = infeasible_above;
  while (hi - lo > opts.tolerance) {
    const double mid = 0.5 * (lo + hi);
    const bool last = mid == lo || mid == hi;
    if (feasibility_margin(mid, opts.use_exact_supply) >= o_tot) {
      lo = mid;
    } else {
      hi = mid;
    }
    if (last) break;
  }
  return lo;
}

namespace {

/// Strict running argmax of f over the accumulated grid lo, lo + step, ...
/// <= hi: `best` moves only on a strictly larger value, so the earliest
/// candidate wins ties.
template <typename F>
void raise_max(double lo, double hi, double step, const F& f,
               core::RegionSample& best) {
  for (double p = lo; p <= hi; p += step) {
    const double v = f(p);
    if (v > best.margin) best = {p, v};
  }
}

/// argmax of f over the coarse grid p_min, p_min + grid_step, ... <= p_max.
template <typename F>
core::RegionSample coarse_max(const core::SearchOptions& opts, const F& f) {
  core::RegionSample best{opts.p_min, f(opts.p_min)};
  raise_max(opts.p_min + opts.grid_step, opts.p_max, opts.grid_step, f, best);
  return best;
}

/// Refines a coarse winner over a fine grid within two coarse steps of it.
template <typename F>
void refine_max(const core::SearchOptions& opts, const F& f,
                core::RegionSample& best) {
  raise_max(std::max(opts.p_min, best.period - 2.0 * opts.grid_step),
            std::min(opts.p_max, best.period + 2.0 * opts.grid_step),
            std::max(opts.tolerance, opts.grid_step * 1e-3), f, best);
}

}  // namespace

core::OverheadLimit BatchEngine::max_admissible_overhead(
    const core::SearchOptions& opts_in) const {
  const core::SearchOptions opts = resolve(opts_in);
  const auto margin = [&](double p) {
    return feasibility_margin(p, opts.use_exact_supply);
  };
  core::RegionSample best = coarse_max(opts, margin);
  refine_max(opts, margin, best);
  return {best.period, best.margin};
}

core::SlackOptimum BatchEngine::max_slack_period(
    double o_tot, const core::SearchOptions& opts_in) const {
  const core::SearchOptions opts = resolve(opts_in);
  const auto slack = [&](double p) {
    return (feasibility_margin(p, opts.use_exact_supply) - o_tot) / p;
  };
  core::RegionSample best = coarse_max(opts, slack);
  if (best.margin < 0.0) {
    throw InfeasibleError(
        "no feasible period in the search range: slack is negative "
        "everywhere");
  }
  refine_max(opts, slack, best);
  return {best.period, best.margin * best.period, best.margin};
}

bool BatchEngine::schedulable(rt::Mode mode,
                              const hier::SupplyFunction& supply) const {
  for (const Partition& part : parts_) {
    if (part.mode == mode && !hier::schedulable(*part.ctx, alg_, supply)) {
      return false;
    }
  }
  return true;
}

bool BatchEngine::verify(const core::ModeSchedule& schedule,
                         bool use_exact_supply) const {
  schedule.validate();
  for (const rt::Mode mode : kAllModes) {
    if (mode_used(mode) && schedule.slot(mode).usable <= 0.0) return false;
  }
  for (const rt::Mode mode : kAllModes) {
    if (!mode_used(mode)) continue;
    const bool ok = use_exact_supply
                        ? schedulable(mode, schedule.exact_supply(mode))
                        : schedulable(mode, schedule.supply(mode));
    if (!ok) return false;
  }
  return true;
}

double BatchEngine::margin_impl(const core::ModeSchedule& schedule,
                                const std::string& task_name,
                                double lambda_max, double tolerance,
                                bool base_feasible) const {
  FLEXRT_REQUIRE(lambda_max >= 1.0, "lambda_max must be >= 1");
  if (!base_feasible) return 1.0;

  // Deadline caps of the scaled tasks (a scale pushing C past D is
  // infeasible by definition) and the demand deltas per affected partition.
  std::vector<std::pair<double, double>> limits;  // (wcet, deadline)
  std::vector<ScaledProbe> probes;
  for (const Partition& part : parts_) {
    const rt::AnalysisContext& ctx = *part.ctx;
    bool any = false;
    for (const rt::Task& t : ctx.tasks()) {
      if (matches(t, task_name)) {
        limits.emplace_back(t.wcet, t.deadline);
        any = true;
      }
    }
    if (!any) continue;

    ScaledProbe probe{&part, schedule.supply(part.mode), 0.0, 0.0, {}, {}};
    if (alg_ == hier::Scheduler::EDF) {
      probe.edf_contrib.assign(ctx.deadline_points().size(), 0.0);
      for (std::size_t i = 0; i < ctx.size(); ++i) {
        const rt::Task& t = ctx.tasks()[i];
        if (!matches(t, task_name)) continue;
        probe.u_delta += t.utilization();
        probe.c_delta += t.wcet * (t.period - t.deadline) / t.period;
        const std::vector<double> jobs = ctx.edf_point_jobs(i);
        for (std::size_t k = 0; k < jobs.size(); ++k) {
          probe.edf_contrib[k] += jobs[k] * t.wcet;
        }
      }
    } else {
      probe.fp_contrib.resize(ctx.size());
      for (std::size_t i = 0; i < ctx.size(); ++i) {
        probe.fp_contrib[i].assign(ctx.scheduling_points(i).size(), 0.0);
        for (std::size_t j = 0; j <= i; ++j) {
          if (!matches(ctx.tasks()[j], task_name)) continue;
          const std::vector<double> jobs = ctx.fp_point_jobs(i, j);
          for (std::size_t k = 0; k < jobs.size(); ++k) {
            probe.fp_contrib[i][k] += jobs[k] * ctx.tasks()[j].wcet;
          }
        }
      }
    }
    probes.push_back(std::move(probe));
  }

  const auto probe_ok = [&](const ScaledProbe& p, double lambda) {
    const rt::AnalysisContext& ctx = *p.part->ctx;
    const double growth = lambda - 1.0;
    if (alg_ == hier::Scheduler::EDF) {
      if (ctx.utilization() + growth * p.u_delta > p.supply.rate() + 1e-12) {
        return false;
      }
      const std::vector<double>& points = ctx.deadline_points();
      const std::vector<double>& demand = ctx.edf_demand_at_points();
      for (std::size_t k = 0; k < points.size(); ++k) {
        if (!leq_tol(demand[k] + growth * p.edf_contrib[k],
                     p.supply.value(points[k]))) {
          return false;
        }
      }
      if (!ctx.dl_exact()) {
        // QPA tail closure with the scaled demand line: both U and c grow
        // linearly in (lambda - 1).
        if (!rt::tail_covered(ctx.utilization() + growth * p.u_delta,
                              ctx.dl_util_const() + growth * p.c_delta,
                              ctx.dl_horizon(), p.supply.rate(),
                              p.supply.floor_delay())) {
          return false;
        }
      }
      return true;
    }
    for (std::size_t i = 0; i < ctx.size(); ++i) {
      const std::vector<double>& points = ctx.scheduling_points(i);
      const std::vector<double>& workloads = ctx.fp_point_workloads(i);
      bool ok = false;
      for (std::size_t k = 0; k < points.size(); ++k) {
        if (leq_tol(workloads[k] + growth * p.fp_contrib[i][k],
                    p.supply.value(points[k]))) {
          ok = true;
          break;
        }
      }
      if (!ok) return false;
    }
    return true;
  };

  const auto feasible = [&](double lambda) {
    for (const auto& [wcet, deadline] : limits) {
      if (wcet * lambda > deadline * (1.0 + 1e-12)) return false;
    }
    for (const ScaledProbe& p : probes) {
      if (!probe_ok(p, lambda)) return false;
    }
    return true;
  };

  if (feasible(lambda_max)) return lambda_max;
  // Ends like max_feasible_period's refinement when no double lies
  // between lo and hi.
  double lo = 1.0, hi = lambda_max;
  while (hi - lo > tolerance) {
    const double mid = 0.5 * (lo + hi);
    const bool last = mid == lo || mid == hi;
    if (feasible(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
    if (last) break;
  }
  return lo;
}

double BatchEngine::wcet_scale_margin(const core::ModeSchedule& schedule,
                                      const std::string& task_name,
                                      double lambda_max,
                                      double tolerance) const {
  // An empty name would silently select the global (all-tasks) margin.
  FLEXRT_REQUIRE(!task_name.empty(), "task name must be non-empty");
  return margin_impl(schedule, task_name, lambda_max, tolerance,
                     verify(schedule));
}

std::vector<core::TaskMargin> BatchEngine::sensitivity_report(
    const core::ModeSchedule& schedule, double lambda_max) const {
  // The lambda = 1 feasibility of the *unscaled* system is shared by every
  // row: verify once, not once per task.
  const bool base_feasible = verify(schedule);
  std::vector<core::TaskMargin> out = task_rows_;
  for (core::TaskMargin& row : out) {
    // An empty name would silently select the global (all-tasks) margin;
    // reject it like wcet_scale_margin does.
    FLEXRT_REQUIRE(!row.name.empty(), "task name must be non-empty");
    row.scale_margin =
        margin_impl(schedule, row.name, lambda_max, 1e-4, base_feasible);
  }
  return out;
}

double BatchEngine::global_scale_margin(const core::ModeSchedule& schedule,
                                        double lambda_max,
                                        double tolerance) const {
  return margin_impl(schedule, "", lambda_max, tolerance, verify(schedule));
}

}  // namespace flexrt::analysis
