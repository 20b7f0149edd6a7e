#include "common/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <memory>
#include <thread>

#include "common/annotations.hpp"

namespace flexrt::par {
namespace {

using Clock = std::chrono::steady_clock;

thread_local bool t_inside_loop = false;

/// Helper threads alive across every loop in the process. A loop reserves a
/// slot here before it starts a helper, so concurrent loops together never
/// run more than thread_count() - 1 helpers beside their callers.
std::atomic<std::size_t> g_live_helpers{0};

/// What starting a helper costs, in nanoseconds, averaged over the helpers
/// started so far: `g_start_ns` from just before the caller creates the
/// thread to the helper's first instruction, `g_create_ns` the part the
/// caller spends creating it. The rest is the scheduler waking the thread
/// -- up to a time slice on a busy host. Until a helper has been measured
/// they hold a quiet host's figures. Updates race benignly: a lost sample
/// only slows the average.
std::atomic<std::int64_t> g_start_ns{50'000};
std::atomic<std::int64_t> g_create_ns{25'000};

std::size_t resolve_thread_count() noexcept {
  if (const char* env = std::getenv("FLEXRT_THREADS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v >= 1) return static_cast<std::size_t>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

bool reserve_helper() noexcept {
  const std::size_t cap = thread_count() - 1;
  std::size_t live = g_live_helpers.load();
  while (live < cap) {
    if (g_live_helpers.compare_exchange_weak(live, live + 1)) return true;
  }
  return false;
}

/// Moves a running average a quarter of the way towards one new sample.
void note(std::atomic<std::int64_t>& average, Clock::duration took) noexcept {
  const std::int64_t ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(took).count();
  const std::int64_t old = average.load(std::memory_order_relaxed);
  average.store(std::max<std::int64_t>(1, old + (ns - old) / 4),
                std::memory_order_relaxed);
}

/// Helpers worth starting `spent_ns` into a loop with `remaining`
/// iterations to go, when the latest iterations cost `mean_ns` each. None
/// until
///  - the caller has itself spent one helper start on the loop, so a start
///    never costs more than the work already done;
///  - an iteration costs more than waking a thread: iterations pass between
///    workers through shared state (ordered_stream takes one lock per
///    result), and once workers queue on it every hand-off costs a wake-up,
///    so cheaper iterations run slower shared than alone;
///  - the rest, projected at `mean_ns`, is worth two starts.
/// Past that, as many as leave every worker, caller included, a share
/// larger than one start.
std::size_t helpers_worth(double spent_ns, double mean_ns,
                          std::size_t remaining) noexcept {
  const double start_ns =
      static_cast<double>(g_start_ns.load(std::memory_order_relaxed));
  const double wake_ns =
      start_ns -
      static_cast<double>(g_create_ns.load(std::memory_order_relaxed));
  const double shares = mean_ns * static_cast<double>(remaining) / start_ns;
  if (spent_ns < start_ns || mean_ns < wake_ns || !(shares >= 2.0)) return 0;
  const auto by_cost = static_cast<std::size_t>(
      std::min(shares, static_cast<double>(remaining)));
  return std::min({thread_count() - 1, remaining - 1, by_cost - 1});
}

/// Marks the calling thread as inside a loop for the guard's lifetime, so
/// parallel_for calls from the body run inline.
class InsideLoop {
 public:
  InsideLoop() noexcept { t_inside_loop = true; }
  ~InsideLoop() { t_inside_loop = false; }
  InsideLoop(const InsideLoop&) = delete;
  InsideLoop& operator=(const InsideLoop&) = delete;
};

/// The shared part of one parallel_for call: the caller and its helpers
/// claim index chunks from one atomic cursor, and the caller returns once
/// `finished` counts every index -- each claimed chunk adds its length when
/// it ends, thrown or not. Helpers own the state jointly with the caller
/// (shared_ptr), so one that starts after the cursor ran out touches
/// nothing else: it never calls `fn`, which lives only as long as the
/// caller's frame.
struct Loop {
  Loop(std::size_t n_, std::size_t first, std::size_t chunk_,
       const std::function<void(std::size_t)>& fn_)
      : n(n_), chunk(chunk_), fn(&fn_), cursor(first), finished(first) {}

  const std::size_t n;
  const std::size_t chunk;
  const std::function<void(std::size_t)>* const fn;
  std::atomic<std::size_t> cursor;
  std::atomic<std::size_t> finished;
  sys::Mutex mu{};
  sys::CondVar all_finished{};
  std::exception_ptr first_error GUARDED_BY(mu) = nullptr;

  void work() {
    for (;;) {
      const std::size_t begin =
          cursor.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= n) return;
      const std::size_t end = std::min(n, begin + chunk);
      try {
        for (std::size_t i = begin; i < end; ++i) (*fn)(i);
      } catch (...) {
        sys::MutexLock lock(mu);
        if (!first_error) first_error = std::current_exception();
      }
      if (finished.fetch_add(end - begin) + (end - begin) == n) {
        sys::MutexLock lock(mu);
        all_finished.notify_all();
      }
    }
  }

  /// Blocks until every index has finished, then rethrows the first error.
  void finish() {
    sys::MutexLock lock(mu);
    while (finished.load() < n) all_finished.wait(mu);
    if (first_error) std::rethrow_exception(first_error);
  }
};

/// Runs iterations [first, n) on the caller and up to `helpers` detached
/// helper threads; returns once every one has finished.
void run_with_helpers(std::size_t first, std::size_t n, std::size_t helpers,
                      const std::function<void(std::size_t)>& fn) {
  const std::size_t chunk =
      std::max<std::size_t>(1, (n - first) / (8 * (helpers + 1)));
  const auto loop = std::make_shared<Loop>(n, first, chunk, fn);
  for (std::size_t h = 0; h < helpers && reserve_helper(); ++h) {
    try {
      const Clock::time_point asked = Clock::now();
      std::thread([loop, asked] {
        note(g_start_ns, Clock::now() - asked);
        t_inside_loop = true;
        loop->work();
        g_live_helpers.fetch_sub(1);
      }).detach();
      note(g_create_ns, Clock::now() - asked);
    } catch (...) {
      // Out of threads or memory: the loop finishes with what it has.
      g_live_helpers.fetch_sub(1);
      break;
    }
  }
  loop->work();
  loop->finish();
}

}  // namespace

std::size_t thread_count() noexcept {
  static const std::size_t count = resolve_thread_count();
  return count;
}

std::size_t default_stream_window() noexcept {
  // 4 slots per worker: enough slack that a worker finishing early is not
  // gated on the stream head, while keeping peak buffering a small constant
  // multiple of the thread count.
  return std::max<std::size_t>(8, 4 * thread_count());
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (thread_count() == 1 || n < 2 || t_inside_loop) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // The caller runs the loop's head alone and times it. At 2, 4, 8, ...
  // finished iterations it asks whether sharing the rest pays for the
  // helpers it takes, judging by the iterations since its last look:
  // iteration 0 alone pays the loop's one-time costs (lazy symbol binding,
  // cold caches, a file's first write) and would overstate the rest.
  const InsideLoop inside;
  const Clock::time_point t0 = Clock::now();
  fn(0);
  Clock::time_point last = Clock::now();
  for (std::size_t i = 1, check = 2; i < n;) {
    fn(i);
    if (++i != check || i == n) continue;
    const Clock::time_point now = Clock::now();
    const std::size_t since_last = check / 2;
    const double spent_ns =
        std::chrono::duration<double, std::nano>(now - t0).count();
    const double mean_ns =
        std::chrono::duration<double, std::nano>(now - last).count() /
        static_cast<double>(since_last);
    check *= 2;
    last = now;
    if (const std::size_t helpers = helpers_worth(spent_ns, mean_ns, n - i)) {
      run_with_helpers(i, n, helpers, fn);
      return;
    }
  }
}

}  // namespace flexrt::par
