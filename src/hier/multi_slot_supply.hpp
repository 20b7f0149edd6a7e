#pragma once

#include <vector>

#include "hier/supply.hpp"

namespace flexrt::hier {

/// Supply of a mode that receives SEVERAL usable windows per period -- the
/// generalization the paper's §5 lists as future work ("the same
/// fault-tolerance service during more than one time quantum per period").
///
/// The windows [begin_i, end_i) are fixed positions inside a repeating frame
/// of length `period`. The worst-case supply in a window of length t is the
/// minimum over all start positions; for a periodic piecewise-linear
/// cumulative supply the minimum is attained starting at the end of one of
/// the usable windows, so value() only evaluates those candidates.
///
/// Splitting a mode's allocation into k spread-out windows keeps the rate
/// alpha but shrinks the service delay Delta (the longest no-supply gap),
/// which is exactly what short-deadline tasks need; experiment E12
/// quantifies the gain.
class MultiSlotSupply final : public SupplyFunction {
 public:
  struct Window {
    double begin = 0.0;
    double end = 0.0;
  };

  /// Windows must be disjoint, ordered, and contained in [0, period).
  MultiSlotSupply(double period, std::vector<Window> windows);

  double value(double t) const noexcept override;
  double rate() const noexcept override { return total_usable_ / period_; }
  /// Longest gap without supply (wrapping around the frame boundary).
  double delay() const noexcept override { return max_gap_; }

  /// Exact linear-floor delay max_t (t - value(t)/rate): with uneven gaps
  /// this exceeds max_gap_ (the floor must clear *every* plateau corner,
  /// not just the longest gap), so the base-class default of delay() would
  /// overstate the floor and break the QPA tail closure. Computed once at
  /// construction over the plateau-corner candidates.
  double floor_delay() const noexcept override { return floor_delay_; }

  /// Closed form (tolerance unused): value() is the minimum of the
  /// per-start cumulative curves over the candidate starts (each window
  /// end, plus 0), so its pseudo-inverse is the maximum over those starts
  /// of the inverted cumulative curve. For demands landing exactly on a
  /// plateau level (whole multiples of the frame budget) this returns the
  /// plateau edge, whose supply covers the demand within the library's
  /// 1e-9 leq_tol regime; the strict bisection can drift one gap
  /// later there on ulp noise (per-start curves differ by rounding). The
  /// bisection (legacy::inverse_by_bisection) is the property-test oracle.
  double inverse(double demand, double tolerance = kInverseTolerance) const override;

  double period() const noexcept { return period_; }
  std::size_t num_windows() const noexcept { return windows_.size(); }

  /// Cumulative supply delivered in [0, x) when the pattern starts at 0.
  double cumulative(double x) const noexcept;

  /// Smallest x with cumulative(x) >= target (0 for target <= 0).
  double cumulative_inverse(double target) const noexcept;

 private:
  double supplied_between(double from, double to) const noexcept;

  double period_;
  std::vector<Window> windows_;
  double total_usable_ = 0.0;
  double max_gap_ = 0.0;
  double floor_delay_ = 0.0;
};

/// Evenly spreads a total usable budget over `k` windows: window i of
/// length usable/k starting at i*period/k + offset. Helper for the design
/// layer and the ablation bench.
MultiSlotSupply evenly_split_supply(double period, double usable,
                                    std::size_t k, double offset = 0.0);

}  // namespace flexrt::hier
