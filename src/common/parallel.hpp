#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <exception>
#include <functional>
#include <map>
#include <optional>
#include <type_traits>
#include <utility>

#include "common/annotations.hpp"

namespace flexrt::par {

/// Monotonic wall-clock stopwatch, started at construction. The one timing
/// primitive shared by the executor's per-entry wall_ms provenance and the
/// svc::Deadline checks between accuracy-ladder rungs, so "elapsed" means
/// the same clock everywhere a deadline is compared against a measurement.
class StopWatch {
 public:
  StopWatch() noexcept : t0_(std::chrono::steady_clock::now()) {}

  double elapsed_ms() const noexcept {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point t0_;
};

/// Number of worker threads backing parallel_for (>= 1). Resolved once per
/// process: the FLEXRT_THREADS environment variable when set to a positive
/// integer, otherwise std::thread::hardware_concurrency().
std::size_t thread_count() noexcept;

/// Runs fn(i) for every i in [0, n) across a process-wide persistent thread
/// pool and blocks until all iterations finished. Iterations are handed out
/// in index-chunks via an atomic cursor, so the load balances even when
/// iteration costs are skewed (e.g. period probes near the feasibility
/// boundary converge slower).
///
/// Semantics:
///  - fn must be safe to call concurrently from different threads; writes
///    should go to disjoint slots (the canonical pattern is a preallocated
///    results vector indexed by i, which keeps output order deterministic).
///  - The first exception thrown by any iteration is rethrown to the caller
///    after the loop drains; remaining iterations may or may not run.
///  - Calls from inside a pool worker (nested parallelism) and loops too
///    small to amortize the handoff run serially inline -- callers never
///    need to special-case either.
///
/// This is the fleet runner: svc runs one fleet entry per iteration and
/// core::run_study one trial. The analysis engine's own scans are serial
/// (one period probe costs far less than a handoff), so a loop body never
/// nests a second level of parallelism.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

/// Reorder window for ordered_stream when the caller passes 0: wide enough
/// to keep every worker busy, small enough that peak buffering stays a
/// constant multiple of the thread count rather than the loop size.
std::size_t default_stream_window() noexcept;

/// Ordered streaming loop: computes make(i) for every i in [0, n) across
/// the parallel_for pool and delivers each result to emit(i, value) in
/// strict index order, buffering at most `window` out-of-order results
/// (window 0 = default_stream_window()). This is the bounded-memory
/// counterpart of the preallocated-results-vector pattern: peak buffering
/// is O(window), not O(n).
///
/// How the bound is enforced without deadlock: indices are handed out one
/// at a time through an atomic ticket (so issue order == index order), and
/// a worker blocks before computing index i until i < next_emit + window.
/// The head index (next_emit) is always held by a worker that is past the
/// gate, so the stream always progresses for any window >= 1.
///
/// emit runs under the stream lock: exactly one emission at a time, in
/// order -- safe to write an ostream from. An exception thrown by make(i)
/// drops that index from the stream and is rethrown (first one wins) after
/// the loop drains; exceptions from emit propagate the same way. A make(i)
/// that merely *stalls* (finite delay) never wedges the gate: entries past
/// i + window wait, buffering stays <= window, and the stream resumes the
/// moment the stalled entry completes -- the fault-injection executor tests
/// pin this down. (Callers that must never lose an entry to an exception --
/// svc::AnalysisService -- catch inside make and return an error-valued
/// result instead.)
///
/// Returns the reorder buffer's high-water mark (<= window), the number
/// the stream_fleet bench row reports against the fleet size.
template <typename Make, typename Emit>
std::size_t ordered_stream(std::size_t n, std::size_t window, Make&& make,
                           Emit&& emit) {
  using Value = std::invoke_result_t<Make&, std::size_t>;
  if (window == 0) window = default_stream_window();
  struct Slot {
    std::optional<Value> value;
    std::exception_ptr error;
  };
  // The reassembly state lives in one struct so every member carries an
  // explicit GUARDED_BY contract on the stream mutex -- the thread-safety
  // analysis then proves no worker touches the buffer or the emission
  // cursor outside the critical sections below.
  struct State {
    sys::Mutex mu;
    sys::CondVar gate;
    std::map<std::size_t, Slot> pending GUARDED_BY(mu);
    std::size_t next_emit GUARDED_BY(mu) = 0;
    std::size_t high_water GUARDED_BY(mu) = 0;
    std::exception_ptr first_error GUARDED_BY(mu);
  };
  State st;
  std::atomic<std::size_t> ticket{0};
  parallel_for(n, [&](std::size_t) {
    const std::size_t i = ticket.fetch_add(1, std::memory_order_relaxed);
    {
      sys::MutexLock lock(st.mu);
      while (i >= st.next_emit + window) st.gate.wait(st.mu);
    }
    Slot slot;
    try {
      slot.value.emplace(make(i));
    } catch (...) {
      // The slot must still complete -- a lost ticket would stall the
      // stream head and deadlock the gated workers behind it.
      slot.error = std::current_exception();
    }
    sys::MutexLock lock(st.mu);
    st.pending.emplace(i, std::move(slot));
    st.high_water = std::max(st.high_water, st.pending.size());
    while (!st.pending.empty() && st.pending.begin()->first == st.next_emit) {
      auto node = st.pending.extract(st.pending.begin());
      ++st.next_emit;
      if (node.mapped().error) {
        if (!st.first_error) st.first_error = node.mapped().error;
      } else if (!st.first_error) {
        try {
          emit(st.next_emit - 1, std::move(*node.mapped().value));
        } catch (...) {
          st.first_error = std::current_exception();
        }
      }
    }
    st.gate.notify_all();
  });
  // parallel_for has drained every worker: this thread is the only one
  // left, but the contract is on the members, so read them under the lock.
  sys::MutexLock lock(st.mu);
  if (st.first_error) std::rethrow_exception(st.first_error);
  return st.high_water;
}

}  // namespace flexrt::par
