#pragma once

#include <array>
#include <cstddef>
#include <optional>

#include "hier/sched_test.hpp"
#include "part/bin_packing.hpp"
#include "rt/task_set.hpp"

namespace flexrt::baseline {

/// The classic software alternative to lock-step replication, cited by the
/// paper as [11, 17] (Caccamo & Buttazzo; Mossé, Melhem & Ghosh): the four
/// cores run independently (no checker), and every task that needs fault
/// protection gets a *backup copy* statically assigned to a different
/// processor. We model active backups (both copies always execute), the
/// conservative variant whose guarantee holds with zero reaction latency;
/// fault detection is assumed to come from an acceptance test at the end of
/// each copy — a weaker detector than the paper's hardware checker, which is
/// exactly the trade-off experiment E8 quantifies.
struct PBSystem {
  /// Per-processor task sets after assignment (copies included).
  std::array<rt::TaskSet, 4> processors;
  /// Load added by backup copies (sum of protected tasks' utilizations).
  double replication_overhead = 0.0;
};

/// Assigns primaries and backups with the given packing heuristic; a backup
/// never shares its primary's processor. Tasks requiring FT or FS get one
/// backup; NF tasks get none. Returns nullopt when the doubled load cannot
/// be placed (some processor would exceed unit utilization).
std::optional<PBSystem> build_primary_backup(const rt::TaskSet& all_tasks,
                                             const part::PackOptions& pack =
                                                 {});

/// dedicated_schedulable (static_config.hpp) on every processor of the PB
/// system.
bool pb_schedulable(const PBSystem& system, hier::Scheduler alg);

/// Convenience: build + test in one call (false when placement fails).
///
/// Fault-rate independence (relied on by svc::FaultSweepRequest): because
/// the backups are *active* -- both copies always execute -- a single
/// transient fault striking either copy's core is masked by the surviving
/// copy without any re-execution, so the PB verdict carries no recovery
/// demand and does not move with the fault rate. The price is paid up
/// front: the doubled load (replication_overhead) must be schedulable at
/// all times, faults or not. NF tasks get no backup and corrupt exactly as
/// on the flexible platform.
bool try_primary_backup(const rt::TaskSet& all_tasks, hier::Scheduler alg,
                        const part::PackOptions& pack = {});

}  // namespace flexrt::baseline
