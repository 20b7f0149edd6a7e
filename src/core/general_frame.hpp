#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/mode_system.hpp"
#include "core/schedule.hpp"
#include "hier/multi_slot_supply.hpp"
#include "hier/sched_test.hpp"

namespace flexrt::analysis {
class BatchEngine;
}  // namespace flexrt::analysis

namespace flexrt::core {

/// One visit of a mode within a generalized frame: usable time followed by
/// the switch-out overhead, like core::Slot but allowed to repeat.
struct GeneralSlot {
  rt::Mode mode = rt::Mode::FT;
  double usable = 0.0;
  double overhead = 0.0;

  double total() const noexcept { return usable + overhead; }
};

/// A mode-switching frame where each mode may be served by SEVERAL slots
/// per period, in any order -- the paper's §5 future-work generalization
/// ("the same fault-tolerance service during more than one time quantum per
/// period", and, by giving the slots of different modes any order,
/// "different fault-tolerance services during the same time quantum per
/// period" patterns as well).
///
/// Visiting a mode k times per period keeps its bandwidth but divides its
/// service delay roughly by k, at the price of k switch-out overheads
/// instead of one. solve_interleaved() searches that trade-off.
class GeneralFrame {
 public:
  /// Slots are laid out back-to-back from time 0; the remainder of the
  /// period is slack at the end. Throws when the slots overflow the period.
  GeneralFrame(double period, std::vector<GeneralSlot> slots);

  double period() const noexcept { return period_; }
  std::span<const GeneralSlot> slots() const noexcept { return slots_; }

  double slack() const noexcept;
  double total_usable(rt::Mode mode) const noexcept;
  double total_overhead() const noexcept;
  std::size_t visits(rt::Mode mode) const noexcept;

  /// Start offset of slot `i` within the frame.
  double slot_offset(std::size_t i) const noexcept;

  /// Exact supply the mode receives from its windows at their actual
  /// positions in the frame.
  hier::MultiSlotSupply supply(rt::Mode mode) const;

  /// The equivalent single-slot frame of a classic ModeSchedule.
  static GeneralFrame from_schedule(const ModeSchedule& schedule);

 private:
  double period_;
  std::vector<GeneralSlot> slots_;
};

/// Checks every channel of every used mode of the engine's system against
/// the mode's multi-slot supply (analysis::BatchEngine::schedulable, so the
/// engine's condensation budgets bound the work).
bool verify_frame(const analysis::BatchEngine& engine,
                  const GeneralFrame& frame);

/// Splits each mode's slot of `base` into `k` equal visits, interleaved
/// round-robin (FT FS NF FT FS NF ...). Every visit pays the full
/// switch-out overhead of its mode. Throws when the extra overhead
/// overflows the period.
GeneralFrame interleave(const ModeSchedule& base, std::size_t k);

/// Searches for the smallest per-mode budgets such that the interleaved
/// frame (k visits per mode, round-robin) is schedulable at the given
/// period: coordinate-descent bisection on one mode's budget at a time with
/// a final verify_frame() pass. Throws InfeasibleError when no feasible
/// budget assignment is found.
GeneralFrame solve_interleaved(const ModeTaskSystem& sys, hier::Scheduler alg,
                               const Overheads& overheads, double period,
                               std::size_t k);

}  // namespace flexrt::core
