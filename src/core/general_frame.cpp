#include "core/general_frame.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "core/analysis_engine.hpp"

namespace flexrt::core {

GeneralFrame::GeneralFrame(double period, std::vector<GeneralSlot> slots)
    : period_(period), slots_(std::move(slots)) {
  FLEXRT_REQUIRE(period_ > 0.0, "frame period must be > 0");
  FLEXRT_REQUIRE(!slots_.empty(), "frame needs at least one slot");
  double used = 0.0;
  for (const GeneralSlot& s : slots_) {
    FLEXRT_REQUIRE(s.usable >= 0.0 && s.overhead >= 0.0,
                   "slot lengths must be >= 0");
    used += s.total();
  }
  FLEXRT_REQUIRE(used <= period_ * (1.0 + 1e-9),
                 "slots exceed the frame period");
}

double GeneralFrame::slack() const noexcept {
  double used = 0.0;
  for (const GeneralSlot& s : slots_) used += s.total();
  return period_ - used;
}

double GeneralFrame::total_usable(rt::Mode mode) const noexcept {
  double sum = 0.0;
  for (const GeneralSlot& s : slots_) {
    if (s.mode == mode) sum += s.usable;
  }
  return sum;
}

double GeneralFrame::total_overhead() const noexcept {
  double sum = 0.0;
  for (const GeneralSlot& s : slots_) sum += s.overhead;
  return sum;
}

std::size_t GeneralFrame::visits(rt::Mode mode) const noexcept {
  std::size_t n = 0;
  for (const GeneralSlot& s : slots_) n += s.mode == mode;
  return n;
}

double GeneralFrame::slot_offset(std::size_t i) const noexcept {
  double off = 0.0;
  for (std::size_t j = 0; j < i && j < slots_.size(); ++j) {
    off += slots_[j].total();
  }
  return off;
}

hier::MultiSlotSupply GeneralFrame::supply(rt::Mode mode) const {
  std::vector<hier::MultiSlotSupply::Window> windows;
  double cursor = 0.0;
  for (const GeneralSlot& s : slots_) {
    if (s.mode == mode && s.usable > 0.0) {
      windows.push_back({cursor, cursor + s.usable});
    }
    cursor += s.total();
  }
  FLEXRT_REQUIRE(!windows.empty(),
                 std::string("mode ") + rt::to_string(mode) +
                     " has no usable window in the frame");
  return hier::MultiSlotSupply(period_, std::move(windows));
}

GeneralFrame GeneralFrame::from_schedule(const ModeSchedule& schedule) {
  schedule.validate();
  std::vector<GeneralSlot> slots;
  for (const rt::Mode mode : kAllModes) {
    const Slot& s = schedule.slot(mode);
    slots.push_back({mode, s.usable, s.overhead});
  }
  return GeneralFrame(schedule.period, std::move(slots));
}

bool verify_frame(const analysis::BatchEngine& engine,
                  const GeneralFrame& frame) {
  for (const rt::Mode mode : kAllModes) {
    if (!engine.mode_used(mode)) continue;
    if (frame.total_usable(mode) <= 0.0) return false;
    if (!engine.schedulable(mode, frame.supply(mode))) return false;
  }
  return true;
}

namespace {

/// Round-robin layout: visit j gives each mode budget[mode]/k followed by
/// its full switch-out overhead.
GeneralFrame layout(double period, const Overheads& overheads,
                    const std::array<double, 3>& budgets, std::size_t k) {
  std::vector<GeneralSlot> slots;
  slots.reserve(3 * k);
  for (std::size_t visit = 0; visit < k; ++visit) {
    for (const rt::Mode mode : kAllModes) {
      const double b = budgets[static_cast<std::size_t>(mode)];
      if (b <= 0.0) continue;
      slots.push_back(
          {mode, b / static_cast<double>(k), overheads.of(mode)});
    }
  }
  return GeneralFrame(period, std::move(slots));
}

}  // namespace

GeneralFrame interleave(const ModeSchedule& base, std::size_t k) {
  FLEXRT_REQUIRE(k >= 1, "need at least one visit per mode");
  std::vector<GeneralSlot> slots;
  slots.reserve(3 * k);
  for (std::size_t visit = 0; visit < k; ++visit) {
    for (const rt::Mode mode : kAllModes) {
      const Slot& s = base.slot(mode);
      if (s.usable <= 0.0 && s.overhead <= 0.0) continue;
      slots.push_back(
          {mode, s.usable / static_cast<double>(k), s.overhead});
    }
  }
  return GeneralFrame(base.period, std::move(slots));
}

GeneralFrame solve_interleaved(const ModeTaskSystem& sys, hier::Scheduler alg,
                               const Overheads& overheads, double period,
                               std::size_t k) {
  FLEXRT_REQUIRE(k >= 1, "need at least one visit per mode");
  FLEXRT_REQUIRE(period > 0.0, "period must be > 0");
  const double overhead_budget =
      static_cast<double>(k) * overheads.total();
  if (overhead_budget >= period) {
    throw InfeasibleError("k switch-out overheads already fill the period");
  }

  // Budgets start at the bandwidth lower bound and are refined by
  // coordinate-descent bisection: modes interact only through window
  // positions, so a few sweeps settle the assignment.
  std::array<double, 3> budgets{};
  for (const rt::Mode mode : kAllModes) {
    budgets[static_cast<std::size_t>(mode)] =
        sys.mode_tasks(mode).empty() ? 0.0
                                     : sys.required_bandwidth(mode) * period;
  }
  const auto capacity_left = [&](rt::Mode mode) {
    double others = 0.0;
    for (const rt::Mode m : kAllModes) {
      if (m != mode) others += budgets[static_cast<std::size_t>(m)];
    }
    return period - overhead_budget - others;
  };
  // One engine for every probe: the contexts are built once, and each
  // bisection step only evaluates the candidate frame's supply.
  const analysis::BatchEngine engine(sys, alg);
  const auto mode_feasible = [&](rt::Mode mode) {
    return engine.schedulable(
        mode, layout(period, overheads, budgets, k).supply(mode));
  };

  for (int sweep = 0; sweep < 4; ++sweep) {
    for (const rt::Mode mode : kAllModes) {
      const std::size_t mi = static_cast<std::size_t>(mode);
      if (sys.mode_tasks(mode).empty()) continue;
      double lo = sys.required_bandwidth(mode) * period;
      double hi = capacity_left(mode);
      if (hi < lo) throw InfeasibleError("mode budgets exceed the period");
      budgets[mi] = hi;
      if (!mode_feasible(mode)) {
        throw InfeasibleError(
            "mode " + std::string(rt::to_string(mode)) +
            " unschedulable even with all remaining capacity");
      }
      while (hi - lo > 1e-6 * period) {
        const double mid = 0.5 * (lo + hi);
        budgets[mi] = mid;
        if (mode_feasible(mode)) {
          hi = mid;
        } else {
          lo = mid;
        }
      }
      budgets[mi] = hi;
    }
  }

  const GeneralFrame frame = layout(period, overheads, budgets, k);
  if (!verify_frame(engine, frame)) {
    throw InfeasibleError(
        "coordinate descent did not converge to a feasible frame");
  }
  return frame;
}

}  // namespace flexrt::core
