#include "common/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <thread>
#include <vector>

#include "common/annotations.hpp"

namespace flexrt::par {
namespace {

thread_local bool t_inside_loop = false;

/// Helper threads alive across every loop in the process. A loop reserves a
/// slot here before it starts a helper, so concurrent loops together never
/// run more than thread_count() - 1 helpers beside their callers.
std::atomic<std::size_t> g_live_helpers{0};

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

/// One parallel_for call: its caller and helpers claim index chunks from
/// one atomic cursor. The first-error slot lives beside its mutex, the same
/// shape as ordered_stream's State.
struct Loop {
  const std::size_t n;
  const std::size_t chunk;
  const std::function<void(std::size_t)>& fn;
  std::atomic<std::size_t> cursor{0};
  sys::Mutex mu{};
  std::exception_ptr first_error GUARDED_BY(mu) = nullptr;

  void work() {
    // Nested calls from the body run inline. No worker enters here inside a
    // loop already: such a caller runs inline, a helper is a fresh thread.
    t_inside_loop = true;
    for (;;) {
      const std::size_t begin =
          cursor.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= n) break;
      const std::size_t end = std::min(n, begin + chunk);
      try {
        for (std::size_t i = begin; i < end; ++i) fn(i);
      } catch (...) {
        sys::MutexLock lock(mu);
        if (!first_error) first_error = std::current_exception();
      }
    }
    t_inside_loop = false;
  }
};

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
  const std::size_t workers = std::min(thread_count(), n);
  Loop loop{n, std::max<std::size_t>(1, n / (8 * workers)), fn};
  {
    std::vector<std::jthread> helpers;
    helpers.reserve(workers - 1);
    while (helpers.size() + 1 < workers && reserve_helper()) {
      try {
        helpers.emplace_back([&loop] {
          loop.work();
          g_live_helpers.fetch_sub(1);
        });
      } catch (...) {
        // Out of threads or memory: the loop finishes with what it has.
        g_live_helpers.fetch_sub(1);
        break;
      }
    }
    loop.work();
  }  // the helpers join here
  sys::MutexLock lock(loop.mu);
  if (loop.first_error) std::rethrow_exception(loop.first_error);
}

}  // namespace flexrt::par
