#pragma once

#include <iosfwd>

#include "core/mode_system.hpp"
#include "hier/supply.hpp"

namespace flexrt::core {

/// One slot of the mode-switching frame: usable time Q~_k followed by the
/// switch-out overhead O_k (paper Fig. 2); the slot occupies Q_k = Q~_k + O_k.
struct Slot {
  double usable = 0.0;    ///< Q~_k, time delivered to the mode's tasks
  double overhead = 0.0;  ///< O_k, charged at the end of the slot

  double total() const noexcept { return usable + overhead; }
};

/// A fully specified mode-switching frame: period P and the three slots in
/// their fixed order FT, FS, NF. Any time left over
/// (P - Q_FT - Q_FS - Q_NF) is *slack*: bandwidth that can be redistributed
/// to any mode at run time (design goal G2 maximizes it).
struct ModeSchedule {
  double period = 0.0;
  Slot ft;
  Slot fs;
  Slot nf;

  const Slot& slot(rt::Mode mode) const noexcept;
  Slot& slot(rt::Mode mode) noexcept;

  /// Unallocated time per period.
  double slack() const noexcept {
    return period - ft.total() - fs.total() - nf.total();
  }

  /// slack() / period: the redistributable bandwidth of Table 2.
  double slack_bandwidth() const noexcept { return slack() / period; }

  /// Bandwidth allocated to a mode, Q~_k / P (Table 2 "alloc. util").
  double allocated_bandwidth(rt::Mode mode) const noexcept {
    return slot(mode).usable / period;
  }

  /// Fraction of the timeline spent switching, O_tot / P.
  double overhead_bandwidth() const noexcept {
    return (ft.overhead + fs.overhead + nf.overhead) / period;
  }

  /// Linear supply bound of a mode: alpha = Q~/P, delta = P - Q~ (Eq. 2/3).
  hier::LinearSupply supply(rt::Mode mode) const;

  /// Exact slot supply of a mode (Lemma 1).
  hier::SlotSupply exact_supply(rt::Mode mode) const;

  /// Start offset of the mode's slot within the frame (FT at 0, FS after
  /// the whole FT slot, NF after FS; slack sits at the end of the frame).
  double slot_offset(rt::Mode mode) const noexcept;

  /// Throws ModelError unless P > 0, all slots fit (slack >= -eps) and each
  /// usable length is non-negative.
  void validate() const;
};

/// Human-readable one-schedule summary (period, slots, bandwidths).
std::ostream& operator<<(std::ostream& os, const ModeSchedule& schedule);

}  // namespace flexrt::core
