#pragma once

#include <cstddef>

#include "core/design.hpp"
#include "hier/sched_test.hpp"
#include "svc/analysis_service.hpp"
#include "svc/jsonl.hpp"

namespace flexrt::svc {

/// The JSONL row renderers for every typed request's report rows. These
/// used to live inside the flexrt_design tool; they are library code now so
/// the tool's offline subcommands and the flexrtd wire protocol
/// (net::proto) render through one code path -- the remote-vs-offline
/// byte-identity CI check pins that both front-ends really do share it.
///
/// `with_wall` selects whether the provenance block carries wall_ms. Wire
/// rows and journaled rows are always wall-free (deterministic bytes);
/// stdout rows keep wall_ms unless the user passes --no-wall.

/// "solve" row: design answer + provenance, or the error alone.
JsonRow solve_row(const SolveResult& r, hier::Scheduler alg,
                  core::DesignGoal goal, bool with_wall);

/// "sweep_sample" row: one (period, margin) grid point.
JsonRow sweep_sample_row(const RegionSweepResult& r, hier::Scheduler alg,
                         const core::RegionSample& s);

/// "sweep" row: the per-entry terminal summary (sample count or error).
JsonRow sweep_summary_row(const RegionSweepResult& r, hier::Scheduler alg,
                          bool with_wall);

/// "verify" row: schedulability verdict of an explicit schedule +
/// provenance, or the error alone.
JsonRow verify_row(const VerifyResult& r, hier::Scheduler alg, double period,
                   bool with_wall);

/// "min_quantum" row: per-mode minimum quanta + Eq. 15 margin at `period`
/// + provenance, or the error alone.
JsonRow min_quantum_row(const MinQuantumResult& r, hier::Scheduler alg,
                        double period, bool with_wall);

/// "fault_point" row: one swept rate's per-class verdicts (+ baselines).
JsonRow fault_point_row(const FaultSweepResult& r, const FaultRatePoint& p,
                        hier::Scheduler alg, bool with_baselines);

/// "fault_sweep" row: the per-entry terminal summary. Always wall-free:
/// fault-sweep reports are fleet reports and byte-identity across buffered,
/// streamed and journaled runs requires deterministic rows.
JsonRow fault_sweep_summary_row(const FaultSweepResult& r,
                                hier::Scheduler alg);

}  // namespace flexrt::svc
