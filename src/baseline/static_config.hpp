#pragma once

#include <optional>
#include <vector>

#include "hier/sched_test.hpp"
#include "part/bin_packing.hpp"
#include "rt/task_set.hpp"

namespace flexrt::baseline {

/// The non-reconfigurable platforms the paper's introduction argues
/// against: the checker is wired into one configuration for the whole
/// lifetime, so the platform's protection level must satisfy the most
/// demanding task it hosts.
enum class StaticConfig {
  /// All four cores permanently in redundant lock-step: every task enjoys
  /// FT protection, but the whole application shares ONE channel of unit
  /// capacity.
  AllFT,
  /// Two permanent fail-silent couples: FS and NF tasks can run (two
  /// channels), FT tasks cannot be hosted at all.
  AllFS,
  /// Four permanent independent cores: maximum capacity, but only NF tasks
  /// get their requirement met.
  AllNF,
};

const char* to_string(StaticConfig config) noexcept;

/// Protection level a static configuration grants to every hosted task.
rt::Mode provided_mode(StaticConfig config) noexcept;

/// True when the configuration can host tasks with the given requirement
/// (FT protection satisfies FS and NF requirements, FS satisfies NF).
bool satisfies(StaticConfig config, rt::Mode required) noexcept;

/// Dedicated-processor schedulability of one channel, the test both
/// baselines run: Theorem 1 (deadline-monotonic) or 2 under
/// hier::LinearSupply(1, 0), through the one-shot
/// hier::schedulable(rt::TaskSet, ...). Under EDF its certificate settles
/// an implicit-deadline channel with U < 1 and a small hyperperiod from
/// no deadline at all (the cut-off L = c / (1 - U) is 0); otherwise it is
/// the verdict of a default-budget rt::AnalysisContext, so a channel over
/// the budgets gets the conservative (sufficient) verdict.
bool dedicated_schedulable(const rt::TaskSet& ts, hier::Scheduler alg);

/// Result of a static-configuration admission attempt.
struct StaticResult {
  bool mode_feasible = false;   ///< every task's mode requirement satisfied
  bool schedulable = false;     ///< and the partitioned set meets deadlines
};

/// The per-channel partition a static configuration would host: checks
/// every task's mode requirement against the configuration, then packs onto
/// the configuration's channels. nullopt when a requirement is unsatisfied
/// or the packing fails. Exposed so fault-aware admission
/// (svc::FaultSweepRequest) can re-test each channel with the fault model's
/// recovery demand appended (fault::fs_schedulable_dedicated) instead of
/// the plain dedicated test.
std::optional<std::vector<rt::TaskSet>> static_partition(
    const rt::TaskSet& all_tasks, StaticConfig config,
    const part::PackOptions& pack = {});

/// Tries to host the whole application on a static configuration:
/// checks mode compatibility, packs the tasks onto the configuration's
/// channels (static_partition above), and runs the dedicated-processor
/// schedulability test per channel (the static platform has no
/// time-partitioning, so each channel is a plain uniprocessor). Baseline
/// for experiment E7.
StaticResult try_static(const rt::TaskSet& all_tasks, StaticConfig config,
                        hier::Scheduler alg,
                        const part::PackOptions& pack = {});

}  // namespace flexrt::baseline
