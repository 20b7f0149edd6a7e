#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "common/sim_time.hpp"
#include "core/mode_system.hpp"
#include "core/schedule.hpp"
#include "fault/fault_model.hpp"
#include "hier/sched_test.hpp"
#include "sim/frame.hpp"
#include "sim/job.hpp"
#include "sim/metrics.hpp"
#include "sim/supply_recorder.hpp"
#include "sim/trace.hpp"

namespace flexrt::sim {

/// When the checker learns about a fault on a fail-silent channel.
enum class DetectionPolicy : std::uint8_t {
  /// The checker compares every bus access, so a divergence is caught
  /// essentially immediately: the running job is aborted at the fault
  /// instant and the channel is blocked until its next usable window
  /// (models the paper's "access blocked, error signal raised").
  Immediate,
  /// Comparison only at job outputs: the corrupted job runs to completion,
  /// its output is blocked there (silenced), the channel is not blocked.
  AtOutput,
};

/// Everything configurable about a run.
struct SimOptions {
  double horizon = 1000.0;  ///< simulated time units
  hier::Scheduler scheduler = hier::Scheduler::EDF;  ///< in-slot scheduler
  fault::FaultModel faults;        ///< rate 0 = fault-free run
  DetectionPolicy detection = DetectionPolicy::Immediate;
  std::uint64_t seed = 42;
  /// Extra sporadic inter-arrival delay, uniform in [0, sporadic_jitter]
  /// added to the minimum separation T (0 = strictly periodic releases).
  double sporadic_jitter = 0.0;
  /// Record per-mode delivered-service intervals for supply-bound checks
  /// (costs memory proportional to frames simulated).
  bool record_supply = false;
  /// Abort jobs at their deadline instead of letting them finish late.
  bool kill_on_miss = false;
  /// Record up to this many trace events (0 = tracing off).
  std::size_t trace_capacity = 0;
};

/// Discrete-event simulator of the reconfigurable 4-core lock-step platform
/// (paper §2.4) executing a partitioned application under a mode-switching
/// frame. Time is integer ticks; runs are deterministic for a given seed.
class Simulator {
 public:
  /// The schedule must pass ModeSchedule::validate (slots fit in the
  /// period); schedulability is *not* required — unschedulable inputs
  /// simply produce deadline misses, which is what experiment E5 measures.
  Simulator(const core::ModeTaskSystem& system,
            const core::ModeSchedule& schedule, const SimOptions& options);

  /// Same, but under a generalized multi-visit frame (paper §5 extension).
  Simulator(const core::ModeTaskSystem& system,
            const core::GeneralFrame& frame, const SimOptions& options);

  /// Runs to the horizon and returns the collected metrics.
  SimResult run();

  /// Delivered-service recorder of a mode (valid after run() when
  /// record_supply was set).
  const SupplyRecorder& supply(rt::Mode mode) const noexcept {
    return supply_[static_cast<std::size_t>(mode)];
  }

  /// Event trace (non-empty only when options.trace_capacity > 0).
  const Trace& trace() const noexcept { return trace_; }

 private:
  // --- static model ------------------------------------------------------
  struct SimTask {
    rt::Task task;
    rt::Mode mode;
    std::size_t channel;   ///< global channel id
    std::size_t priority;  ///< FP priority inside the channel (0 = highest)
    Ticks wcet;
    Ticks period;
    Ticks deadline;
  };
  struct Channel {
    rt::Mode mode;
    std::size_t index_in_mode;
    std::vector<std::size_t> ready;  ///< indices into jobs_
    std::optional<std::size_t> running;
    std::uint64_t version = 0;  ///< bumped on every dispatch change
    bool active = false;        ///< inside its usable window
    Ticks blocked_until = 0;    ///< fail-silent recovery block
  };

  enum class EventKind : std::uint8_t {
    FrameStart = 0,
    Completion = 1,
    WindowEnd = 2,
    WindowStart = 3,
    Release = 4,
    Fault = 5,
    DeadlineCheck = 6,
  };
  struct Event {
    Ticks time;
    EventKind kind;
    std::uint64_t seq;
    std::uint64_t a = 0;  ///< task / channel / core / job index
    std::uint64_t b = 0;  ///< version guard for completions
    bool operator>(const Event& o) const noexcept {
      if (time != o.time) return time > o.time;
      if (kind != o.kind) return kind > o.kind;
      return seq > o.seq;
    }
  };

  // --- engine ------------------------------------------------------------
  void push(Ticks time, EventKind kind, std::uint64_t a, std::uint64_t b = 0);
  void on_frame_start(Ticks now);
  void on_window_start(Ticks now, rt::Mode mode);
  void on_window_end(Ticks now, rt::Mode mode);
  void on_release(Ticks now, std::size_t task_id);
  void on_completion(Ticks now, std::size_t job_idx, std::uint64_t version);
  void on_fault(Ticks now, platform::CoreId core);
  void on_deadline(Ticks now, std::size_t job_idx);
  void dispatch(Ticks now, std::size_t channel_id);
  void checkpoint_running(Ticks now, Channel& ch);
  void finish_job(Ticks now, std::size_t job_idx);
  void silence_job(Ticks now, std::size_t job_idx);
  std::optional<std::size_t> pick_best(const Channel& ch) const;

  Simulator(const core::ModeTaskSystem& system, FrameLayout frame,
            const SimOptions& options);

  SimOptions options_;
  FrameLayout frame_;
  std::vector<SimTask> tasks_;
  std::vector<Channel> channels_;
  std::array<std::size_t, 3> first_channel_{};  ///< per-mode base channel id
  std::vector<Job> jobs_;
  std::vector<Event> heap_;
  std::uint64_t seq_ = 0;
  Ticks horizon_ = 0;
  Rng rng_;
  SimResult result_;
  Trace trace_;
  std::array<SupplyRecorder, 3> supply_{};
  std::array<Ticks, 3> window_open_since_{};  ///< for supply recording
};

/// Convenience wrapper: simulate `system` under `schedule` and report.
SimResult simulate(const core::ModeTaskSystem& system,
                   const core::ModeSchedule& schedule,
                   const SimOptions& options);

/// Convenience wrapper for generalized frames.
SimResult simulate(const core::ModeTaskSystem& system,
                   const core::GeneralFrame& frame, const SimOptions& options);

}  // namespace flexrt::sim
