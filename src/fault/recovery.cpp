#include "fault/recovery.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "rt/priority.hpp"

namespace flexrt::fault {

double recovery_gap(const FaultModel& model) noexcept {
  if (model.rate <= 0.0) return std::numeric_limits<double>::infinity();
  return std::max(model.min_separation, 1.0 / model.rate);
}

std::optional<rt::Task> recovery_task(const rt::TaskSet& channel, double gap) {
  FLEXRT_REQUIRE(gap > 0.0, "recovery gap must be > 0");
  if (channel.empty() || std::isinf(gap)) return std::nullopt;
  double max_wcet = 0.0;
  for (const rt::Task& t : channel) max_wcet = std::max(max_wcet, t.wcet);
  FLEXRT_REQUIRE(gap >= max_wcet,
                 "recovery gap shorter than the channel's largest WCET");
  rt::Task rec;
  rec.name = "_recovery";
  rec.wcet = max_wcet;
  rec.period = gap;
  rec.deadline = gap;  // implicit: done before the next fault can strike
  rec.mode = rt::Mode::FS;
  return rec;
}

bool fs_schedulable(const rt::TaskSet& channel, hier::Scheduler alg,
                    const hier::SupplyFunction& supply, double gap) {
  if (channel.empty()) return true;
  if (gap <= 0.0) return false;  // degenerate model: faults arbitrarily close
  if (!std::isinf(gap)) {
    // Faults closer than one full re-execution: recovery can never finish
    // before the next strike, so the channel loses results unboundedly.
    for (const rt::Task& t : channel) {
      if (t.wcet > gap) return false;
    }
  }
  rt::TaskSet with_recovery = channel;
  if (const std::optional<rt::Task> rec = recovery_task(channel, gap)) {
    with_recovery.add(*rec);
  }
  if (alg == hier::Scheduler::FP) {
    with_recovery = rt::sort_deadline_monotonic(with_recovery);
  }
  // The one-shot test: under EDF the demand-bound certificate settles most
  // channels from a few deadlines; the rest, and FP, run on a
  // default-budget context, whose condensation keeps a gap co-prime with
  // the task periods (gap = 1/rate rarely divides anything) from
  // exploding the hyperperiod enumeration.
  return hier::schedulable(std::move(with_recovery), alg, supply);
}

bool fs_schedulable_dedicated(const rt::TaskSet& channel, hier::Scheduler alg,
                              double gap) {
  return fs_schedulable(channel, alg, hier::LinearSupply(1.0, 0.0), gap);
}

double corruption_exposure(double rate, double nf_utilization) noexcept {
  if (rate <= 0.0) return 0.0;
  return rate * nf_utilization / 4.0;
}

}  // namespace flexrt::fault
