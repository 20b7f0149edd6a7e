#pragma once

#include <optional>

#include "fault/fault_model.hpp"
#include "hier/sched_test.hpp"
#include "rt/task_set.hpp"

namespace flexrt::fault {

/// Analytic recovery-demand model behind svc::FaultSweepRequest: what a
/// transient fault *costs* each task class in schedulable time.
///
/// The paper's single-transient-fault assumption (§2.1) is that the soft
/// error rate statistically guarantees enough separation between faults for
/// the platform to recover; FaultModel models that guarantee with a hard
/// minimum separation. The schedulability side of the same assumption is the
/// classic fault-tolerant analysis move (Pandya & Malek; Burns/Davis): in
/// any window of length t at most ceil(t / gap) faults occur, where `gap`
/// is the guaranteed inter-fault separation, and each fault costs at most
/// one re-execution of the largest job it can hit. Per class:
///
///  - FT: the 4-way lock-step channel *masks* the fault -- the majority
///    out-votes the corrupted core, no re-execution, no extra demand.
///  - FS: the 2-way lock-step channel *detects* the fault and silences the
///    output; recovering the lost result means re-executing the affected
///    job. That re-execution is the recovery demand modeled here.
///  - NF: the fault is neither masked nor detected -- the corrupted output
///    reaches the bus. No recovery is possible, so the timing analysis is
///    unchanged; what degrades is output integrity (corruption_exposure).

/// Guaranteed inter-fault separation the analysis may assume for `model`:
/// the statistical separation 1/rate of the Poisson arrivals, floored by
/// the model's hard min_separation (the generator enforces the floor, the
/// rate guarantees the rest "statistically" in the paper's sense). +inf
/// when rate <= 0 (no faults, no recovery demand).
double recovery_gap(const FaultModel& model) noexcept;

/// The sporadic recovery task of one fail-silent channel: a fault may force
/// re-execution of any of the channel's jobs, so the conservative demand is
/// one job of the largest WCET every `gap` time units, with an implicit
/// deadline (the recovery must complete before the next fault can strike --
/// the standard fault-interference term of the Pandya-Malek/Burns-Davis
/// analyses, here materialized as a task so the unmodified Eq. 12-14 tests
/// absorb it). nullopt when the channel is empty or gap is +inf -- no
/// recovery demand to add. Requires gap > 0 and gap >= the channel's
/// largest WCET (a smaller gap cannot fit one recovery between faults;
/// fs_schedulable reports such channels unschedulable outright).
std::optional<rt::Task> recovery_task(const rt::TaskSet& channel, double gap);

/// Fault-aware schedulability of one fail-silent channel under `supply`:
/// the channel's tasks plus its recovery task, re-sorted deadline-monotonic
/// under FP so the recovery demand takes the priority its gap earns. Each
/// (channel, rate) set is seen once, so the test is the one-shot
/// hier::schedulable(rt::TaskSet, ...): under EDF its demand-bound
/// certificate answers "schedulable" from the deadlines before the cut-off
/// L (often none), and every other case runs on a default-budget
/// rt::AnalysisContext, so a recovery period co-prime with the task
/// periods (gap = 1/rate rarely divides anything) cannot blow up the
/// deadline-set enumeration: condensed answers stay safe
/// over-approximations, exactly like every other probe in the library. The
/// verdict is the context test's either way.
/// A non-positive gap (degenerate model) is unschedulable by definition
/// unless the channel is empty.
bool fs_schedulable(const rt::TaskSet& channel, hier::Scheduler alg,
                    const hier::SupplyFunction& supply, double gap);

/// Dedicated-processor variant (unit-rate supply, zero delay) for the
/// static-FS baseline: each permanent fail-silent couple is a plain
/// uniprocessor, but detection still means re-execution, so the recovery
/// demand applies there too.
bool fs_schedulable_dedicated(const rt::TaskSet& channel, hier::Scheduler alg,
                              double gap);

/// Expected corrupting faults per time unit when unprotected (NF) load of
/// total utilization `nf_utilization` runs on the platform's four cores: a
/// fault strikes one core uniformly at random (FaultModel), and it corrupts
/// an output only if that core is executing NF work at that instant, which
/// happens a U_NF / 4 fraction of the time. The integrity half of the NF
/// verdict -- timing is unaffected, outputs are not.
double corruption_exposure(double rate, double nf_utilization) noexcept;

}  // namespace flexrt::fault
