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
#include <vector>

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

/// Workers per parallel_for loop, caller included (>= 1). Resolved once per
/// process: the FLEXRT_THREADS environment variable when set to a positive
/// integer, otherwise std::thread::hardware_concurrency().
std::size_t thread_count() noexcept;

/// Runs fn(i) for every i in [0, n) and blocks until all iterations
/// finished. The loop owns its workers: the calling thread plus up to
/// min(thread_count(), n) - 1 helper threads, started for this loop only
/// when they pay for themselves. Iterations are handed out in index chunks
/// via an atomic cursor, so the load balances even when iteration costs are
/// skewed (e.g. period probes near the feasibility boundary converge
/// slower).
///
/// Semantics:
///  - fn must be safe to call concurrently from different threads; writes
///    should go to disjoint slots (the canonical pattern is a preallocated
///    results vector indexed by i, which keeps output order deterministic).
///  - Cost-aware start: the caller runs the first iterations itself, in
///    index order, timing them. After 2, 4, 8, ... of them it starts
///    helpers only once (a) it has itself spent what starting one costs,
///    (b) the iterations since its last look cost more each than waking a
///    thread -- the price of every hand-off between workers that queue on
///    shared state, such as ordered_stream's lock -- and (c) every worker's
///    share of the rest, projected at that cost, exceeds one start.
///    Iteration 0 only counts towards (a): it pays the loop's one-time
///    costs. Both costs are figures the loops measure as they go (from
///    creating a helper to its first instruction, and the part of that
///    spent creating it), averaged over the helpers started so far; they
///    grow on a busy host. A loop too cheap to split never creates a
///    thread, and a generated study emits its first rows before any thread
///    exists.
///  - Finish by count, not by join: the caller returns as soon as every
///    claimed iteration has finished. Helpers are detached; one that starts
///    after the cursor ran out never calls fn, releases its slot and exits,
///    so the caller never waits on a helper that the scheduler has not yet
///    run.
///  - The first exception thrown by any iteration is rethrown to the caller
///    once every claimed iteration has finished; remaining iterations may
///    or may not run.
///  - Helpers are bounded process-wide: concurrent loops together run at
///    most thread_count() - 1 of them, each holding a slot of one atomic
///    count from its start to its end. A loop that finds the count at the
///    cap (or cannot start a thread) runs with the helpers it got, down to
///    the caller alone. No loop ever waits for another, so a stalled loop
///    (a session whose client stopped reading) holds up only itself and
///    the helpers it took.
///  - Calls with thread_count() == 1, with n < 2, or from inside a loop's
///    worker (nested parallelism) run serially inline -- callers never need
///    to special-case them.
///
/// This is the fleet runner: svc runs one fleet entry per iteration, and
/// the bench studies one trial or system. The analysis engine's own scans
/// are serial (one period probe costs far less than a thread start), so a
/// loop body never nests a second level of parallelism.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

/// Reorder window for ordered_stream when the caller passes 0: wide enough
/// to keep every worker busy, small enough that peak buffering stays a
/// constant multiple of the thread count rather than the loop size.
std::size_t default_stream_window() noexcept;

/// Ordered streaming loop: computes make(i) for every i in [0, n) on
/// parallel_for's workers and delivers each result to emit(i, value) in
/// strict index order, buffering at most `window` results that are
/// computed but not yet emitted (window 0 = default_stream_window()). This
/// is the bounded-memory counterpart of the preallocated-results-vector
/// pattern: peak buffering is O(window), not O(n).
///
/// How the bound is enforced without deadlock: indices are handed out one
/// at a time through an atomic ticket (so issue order == index order), and
/// a worker blocks before computing index i until i < emitted + window,
/// where `emitted` counts the results emit has returned from. The head
/// index is always held by a worker past the gate, or sits ready for the
/// emitter, so the stream always progresses for any window >= 1.
///
/// emit runs outside the stream lock, one emitter at a time: the worker
/// that finishes the head index while no one is emitting becomes the
/// emitter. It takes every ready result in order under the lock, emits them
/// with the lock released, and repeats until the next index is not ready.
/// Workers that finish meanwhile only file their result under the lock and
/// take their next ticket, so none queues behind a render or a journal
/// write(). Emission stays serialized and in order -- safe to write an
/// ostream from -- and index 0 is emitted as soon as it finishes. An
/// exception thrown by make(i) drops that index from the stream and is
/// rethrown (first one wins) after the loop drains; so is one thrown by
/// emit, and no later result is emitted after either. A make(i) that
/// merely *stalls* (finite delay) never wedges the gate: entries past
/// i + window wait, buffering stays <= window, and the stream resumes the
/// moment the stalled entry completes -- the fault-injection executor tests
/// pin this down. (Callers that must never lose an entry to an exception --
/// svc::AnalysisService -- catch inside make and return an error-valued
/// result instead.)
///
/// Returns the high-water mark of computed-but-unemitted results
/// (<= window), the number the stream_fleet bench row reports against the
/// fleet size.
template <typename Make, typename Emit>
std::size_t ordered_stream(std::size_t n, std::size_t window, Make&& make,
                           Emit&& emit) {
  using Value = std::invoke_result_t<Make&, std::size_t>;
  if (window == 0) window = default_stream_window();
  struct Slot {
    std::optional<Value> value;
    std::exception_ptr error;
  };
  using Pending = std::map<std::size_t, Slot>;
  // The reassembly state lives in one struct so every member carries an
  // explicit GUARDED_BY contract on the stream mutex -- the thread-safety
  // analysis then proves no worker touches the buffer or the emission
  // cursors outside the critical sections below.
  struct State {
    sys::Mutex mu;
    sys::CondVar gate;
    Pending pending GUARDED_BY(mu);
    std::size_t next_emit GUARDED_BY(mu) = 0;  ///< next index to take
    std::size_t emitted GUARDED_BY(mu) = 0;    ///< indices emit is done with
    bool emitting GUARDED_BY(mu) = false;      ///< an emitter is active
    std::size_t high_water GUARDED_BY(mu) = 0;
    std::exception_ptr first_error GUARDED_BY(mu);
  };
  State st;
  std::atomic<std::size_t> ticket{0};
  parallel_for(n, [&](std::size_t) {
    const std::size_t i = ticket.fetch_add(1, std::memory_order_relaxed);
    {
      sys::MutexLock lock(st.mu);
      while (i >= st.emitted + window) st.gate.wait(st.mu);
    }
    Slot slot;
    try {
      slot.value.emplace(make(i));
    } catch (...) {
      // The slot must still complete -- a lost ticket would stall the
      // stream head and deadlock the gated workers behind it.
      slot.error = std::current_exception();
    }
    {
      sys::MutexLock lock(st.mu);
      st.pending.emplace(i, std::move(slot));
      st.high_water = std::max(st.high_water,
                               st.next_emit - st.emitted + st.pending.size());
      if (st.emitting) return;  // the active emitter takes this result
      st.emitting = true;
    }
    // This worker is the emitter until it finds the next index not ready:
    // each round takes the ready run under the lock and emits it without.
    std::vector<typename Pending::node_type> ready;
    std::size_t done = 0;  // the previous round's results
    std::exception_ptr error;
    for (;;) {
      {
        sys::MutexLock lock(st.mu);
        if (!st.first_error) st.first_error = error;
        if (done != 0) {
          st.emitted += done;
          st.gate.notify_all();
        }
        while (!st.pending.empty() &&
               st.pending.begin()->first == st.next_emit) {
          ready.push_back(st.pending.extract(st.pending.begin()));
          ++st.next_emit;
        }
        done = ready.size();
        if (done == 0) {
          st.emitting = false;
          return;
        }
        error = st.first_error;
      }
      for (auto& node : ready) {
        if (!error) error = node.mapped().error;
        if (error) break;
        try {
          emit(node.key(), std::move(*node.mapped().value));
        } catch (...) {
          error = std::current_exception();
        }
      }
      ready.clear();
    }
  });
  // Every iteration has finished (a helper still alive never calls the
  // body), but the contract is on the members, so read them under the lock.
  sys::MutexLock lock(st.mu);
  if (st.first_error) std::rethrow_exception(st.first_error);
  return st.high_water;
}

}  // namespace flexrt::par
