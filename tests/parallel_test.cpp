#include "common/parallel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <latch>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace flexrt::par {
namespace {

using namespace std::chrono_literals;

TEST(ParallelFor, ThreadCountIsAtLeastOne) {
  EXPECT_GE(thread_count(), 1u);
}

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  for (const std::size_t n : {0u, 1u, 2u, 7u, 100u, 10000u}) {
    std::vector<std::atomic<int>> hits(n);
    parallel_for(n, [&](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " of " << n;
    }
  }
}

TEST(ParallelFor, ResultsLandInDisjointSlotsDeterministically) {
  const std::size_t n = 1000;
  std::vector<double> out(n, 0.0);
  parallel_for(n, [&](std::size_t i) {
    out[i] = static_cast<double>(i) * 0.5;
  });
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_DOUBLE_EQ(out[i], static_cast<double>(i) * 0.5);
  }
}

TEST(ParallelFor, PropagatesTheFirstException) {
  EXPECT_THROW(
      parallel_for(64,
                   [](std::size_t i) {
                     if (i == 13) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
  // The pool survives a throwing loop and runs subsequent loops normally.
  std::atomic<int> count{0};
  parallel_for(64, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 64);
}

TEST(ParallelFor, NestedCallsRunSeriallyWithoutDeadlock) {
  std::atomic<int> total{0};
  parallel_for(8, [&](std::size_t) {
    parallel_for(8, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 64);
}

// --- concurrent loops -----------------------------------------------------

/// Polls `flag` until it is set (true) or `limit` has passed (false).
bool wait_for(const std::atomic<bool>& flag, std::chrono::milliseconds limit) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (!flag.load()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(1ms);
  }
  return true;
}

TEST(Parallel, ConcurrentLoopsDoNotWaitForEachOther) {
  // A's first emit stands in for a session writing to a client that has
  // stopped reading: it blocks until B's loop has returned, for at most
  // 10 s. B must finish while A's loop is stalled, not wait behind it.
  std::atomic<bool> a_emitting{false};
  std::atomic<bool> b_returned{false};
  bool waited = false;  // emits run one at a time, under the stream lock
  bool a_saw_b = false;
  std::thread a([&] {
    ordered_stream(
        8, 0, [](std::size_t i) { return i; },
        [&](std::size_t, std::size_t) {
          a_emitting.store(true);
          if (!waited) {
            waited = true;
            a_saw_b = wait_for(b_returned, 10s);
          }
        });
  });
  EXPECT_TRUE(wait_for(a_emitting, 10s));
  std::atomic<int> b_count{0};
  parallel_for(8, [&](std::size_t) { b_count.fetch_add(1); });
  b_returned.store(true);
  a.join();
  EXPECT_EQ(b_count.load(), 8);
  EXPECT_TRUE(a_saw_b) << "B's loop waited for A's stalled loop to finish";
}

thread_local bool t_loop_caller = false;

TEST(Parallel, HelpersStayWithinTheProcessBound) {
  // Four loops at once, every body slow enough for them to overlap: the
  // threads other than the four callers that run bodies at the same time
  // never outnumber thread_count() - 1.
  constexpr std::size_t kLoops = 4;
  constexpr std::size_t kN = 64;
  std::vector<std::vector<std::atomic<int>>> hits(kLoops);
  for (auto& h : hits) h = std::vector<std::atomic<int>>(kN);
  std::atomic<std::size_t> helpers_inside{0};
  std::atomic<std::size_t> peak{0};
  std::latch start(kLoops);
  std::vector<std::thread> callers;
  for (std::size_t l = 0; l < kLoops; ++l) {
    callers.emplace_back([&, l] {
      t_loop_caller = true;
      start.arrive_and_wait();
      parallel_for(kN, [&](std::size_t i) {
        hits[l][i].fetch_add(1);
        if (t_loop_caller) {
          std::this_thread::sleep_for(1ms);
          return;
        }
        const std::size_t now = helpers_inside.fetch_add(1) + 1;
        std::size_t seen = peak.load();
        while (seen < now && !peak.compare_exchange_weak(seen, now)) {
        }
        std::this_thread::sleep_for(1ms);
        helpers_inside.fetch_sub(1);
      });
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_LE(peak.load(), thread_count() - 1);
  for (std::size_t l = 0; l < kLoops; ++l) {
    for (std::size_t i = 0; i < kN; ++i) {
      EXPECT_EQ(hits[l][i].load(), 1) << "loop " << l << " index " << i;
    }
  }
}

// --- cost-aware start -----------------------------------------------------

TEST(Parallel, TinyLoopRunsOnTheCaller) {
  // 256 trivial iterations cost far less than starting one thread, so the
  // loop starts none: every index runs on the calling thread.
  std::vector<std::thread::id> ran(256);
  parallel_for(ran.size(),
               [&](std::size_t i) { ran[i] = std::this_thread::get_id(); });
  for (std::size_t i = 0; i < ran.size(); ++i) {
    EXPECT_EQ(ran[i], std::this_thread::get_id()) << "index " << i;
  }
}

TEST(Parallel, HeavyLoopStillUsesHelpers) {
  if (thread_count() == 1) GTEST_SKIP() << "one worker per loop";
  // 64 iterations of ~1 ms of busy work: far more than a thread start.
  std::vector<std::thread::id> ran(64);
  parallel_for(ran.size(), [&](std::size_t i) {
    const auto until = std::chrono::steady_clock::now() + 1ms;
    while (std::chrono::steady_clock::now() < until) {
    }
    ran[i] = std::this_thread::get_id();
  });
  std::vector<std::thread::id> ids = ran;
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  EXPECT_GT(ids.size(), 1u) << "a 64 ms loop ran on one thread";
}

TEST(Parallel, LateHelpersNeverTouchAFinishedLoop) {
  // 10^4 back-to-back loops, tiny ones and ones whose slow first
  // iterations start helpers that the caller then outruns: those helpers
  // start after their loop returned, its body and everything it captured
  // gone, and must leave both alone (the sanitizer builds check it). Every
  // index runs once, and each stream emits in order.
  for (std::size_t k = 0; k < 10000; ++k) {
    const std::size_t n = 1 + k % 64;
    const bool slow_head = k % 32 == 0;
    const auto head = [&](std::size_t i) {
      if (slow_head && i < 2) std::this_thread::sleep_for(1ms);
    };
    std::vector<int> hits(n, 0);
    if (k % 2 == 0) {
      parallel_for(n, [&](std::size_t i) {
        head(i);
        ++hits[i];
      });
    } else {
      std::size_t next = 0;
      ordered_stream(
          n, 0,
          [&](std::size_t i) {
            head(i);
            return i;
          },
          [&](std::size_t i, std::size_t v) {
            EXPECT_EQ(i, next);
            EXPECT_EQ(v, i);
            ++next;
            ++hits[i];
          });
      ASSERT_EQ(next, n) << "loop " << k;
    }
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i], 1) << "loop " << k << " index " << i;
    }
  }
}

// --- ordered_stream -------------------------------------------------------

TEST(OrderedStream, EmitsEveryIndexInOrder) {
  for (const std::size_t n : {0u, 1u, 2u, 100u, 5000u}) {
    std::vector<std::size_t> order;
    order.reserve(n);
    const std::size_t peak = ordered_stream(
        n, /*window=*/0, [](std::size_t i) { return i * 3; },
        [&](std::size_t i, std::size_t v) {
          EXPECT_EQ(v, i * 3);
          order.push_back(i);
        });
    ASSERT_EQ(order.size(), n);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(order[i], i);
    EXPECT_LE(peak, default_stream_window());
  }
}

TEST(OrderedStream, PeakBufferingRespectsTheWindow) {
  // Skewed per-item cost (early indices are the slowest) maximizes
  // out-of-order completion; the reorder buffer must still never hold
  // more than `window` results.
  const std::size_t n = 2000;
  for (const std::size_t window : {1u, 2u, 7u, 64u}) {
    std::size_t emitted = 0;
    const std::size_t peak = ordered_stream(
        n, window,
        [&](std::size_t i) {
          if (i < 4) {  // slow head
            volatile double x = 0.0;
            for (int k = 0; k < 200000; ++k) x = x + 1.0;
          }
          return i;
        },
        [&](std::size_t i, std::size_t v) {
          EXPECT_EQ(i, emitted);
          EXPECT_EQ(v, i);
          ++emitted;
        });
    EXPECT_EQ(emitted, n);
    EXPECT_LE(peak, window);
    EXPECT_GE(peak, 1u);
  }
}

TEST(OrderedStream, SinkSeesOneCallAtATime) {
  // One emitter at a time, even outside the stream lock: concurrent sink
  // entries would interleave rows in an ostream-backed sink. Slow emits
  // over cheap entries give every other worker the chance to try.
  for (const bool slow : {false, true}) {
    std::atomic<int> inside{0};
    std::atomic<bool> overlapped{false};
    std::size_t emitted = 0;
    ordered_stream(
        500, slow ? 0 : 4, [](std::size_t i) { return i; },
        [&](std::size_t i, std::size_t) {
          if (inside.fetch_add(1) != 0) overlapped = true;
          if (slow && i % 16 == 0) std::this_thread::sleep_for(100us);
          ++emitted;
          inside.fetch_sub(1);
        });
    EXPECT_FALSE(overlapped.load()) << (slow ? "slow" : "fast") << " emits";
    EXPECT_EQ(emitted, 500u);
  }
}

TEST(OrderedStream, WindowOfOneSerializesTheWholeStream) {
  // window=1 is the degenerate gate: a worker may not start index i until
  // i-1 has been emitted, so make and emit strictly alternate and nothing
  // is ever buffered out of order. The journaled runner leans on this
  // being correct (it is the tightest resume-friendly configuration).
  const std::size_t n = 300;
  std::atomic<std::size_t> started{0};
  std::size_t emitted = 0;
  const std::size_t peak = ordered_stream(
      n, /*window=*/1,
      [&](std::size_t i) {
        // With window 1 the gate admits exactly one in-flight index: by
        // the time i starts, every j < i has been emitted.
        EXPECT_EQ(started.fetch_add(1), i);
        return i;
      },
      [&](std::size_t i, std::size_t v) {
        EXPECT_EQ(i, emitted);
        EXPECT_EQ(v, i);
        ++emitted;
      });
  EXPECT_EQ(emitted, n);
  EXPECT_LE(peak, 1u);
}

TEST(OrderedStream, ExceptionAtTheFinalIndexStillDrains) {
  // The last ticket is the edge case: nothing queues behind it to nudge
  // the gate, so a throw there must still wake the drain and rethrow
  // after every earlier index emitted.
  for (const std::size_t window : {1u, 4u, 0u}) {
    const std::size_t n = 64;
    std::size_t emitted = 0;
    EXPECT_THROW(ordered_stream(
                     n, window,
                     [&](std::size_t i) {
                       if (i == n - 1) throw std::runtime_error("last");
                       return i;
                     },
                     [&](std::size_t i, std::size_t) {
                       EXPECT_EQ(i, emitted);
                       ++emitted;
                     }),
                 std::runtime_error);
    EXPECT_EQ(emitted, n - 1);
  }
}

TEST(OrderedStream, SingleEntryStream) {
  // A one-entry fleet (one task file, one trial) exercises every boundary
  // at once: first index == last index == stream head.
  for (const std::size_t window : {1u, 0u}) {
    std::size_t emitted = 0;
    const std::size_t peak = ordered_stream(
        1, window, [](std::size_t i) { return i + 7; },
        [&](std::size_t i, std::size_t v) {
          EXPECT_EQ(i, 0u);
          EXPECT_EQ(v, 7u);
          ++emitted;
        });
    EXPECT_EQ(emitted, 1u);
    EXPECT_LE(peak, 1u);
  }
  // ... and the failing single entry: rethrown, zero emissions, no hang.
  std::size_t emitted = 0;
  EXPECT_THROW(
      ordered_stream(
          1, 1, [](std::size_t) -> int { throw std::runtime_error("only"); },
          [&](std::size_t, int) { ++emitted; }),
      std::runtime_error);
  EXPECT_EQ(emitted, 0u);
}

TEST(OrderedStream, PropagatesTheFirstExceptionWithoutDeadlock) {
  std::size_t emitted = 0;
  EXPECT_THROW(ordered_stream(
                   256, 4,
                   [](std::size_t i) {
                     if (i == 40) throw std::runtime_error("boom");
                     return i;
                   },
                   [&](std::size_t, std::size_t) { ++emitted; }),
               std::runtime_error);
  // Everything ahead of the failing index still streamed in order.
  EXPECT_GE(emitted, 40u);
  // The pool is healthy afterwards.
  std::size_t count = 0;
  ordered_stream(
      64, 0, [](std::size_t i) { return i; },
      [&](std::size_t, std::size_t) { ++count; });
  EXPECT_EQ(count, 64u);
}

TEST(OrderedStream, ThrowingEmitEndsTheStreamWithItsError) {
  for (const std::size_t window : {1u, 4u, 0u}) {
    std::vector<std::size_t> seen;
    try {
      ordered_stream(
          200, window, [](std::size_t i) { return i; },
          [&](std::size_t i, std::size_t) {
            seen.push_back(i);
            if (i == 17) throw std::runtime_error("emit 17");
          });
      ADD_FAILURE() << "the stream returned";
    } catch (const std::runtime_error& err) {
      EXPECT_STREQ(err.what(), "emit 17");
    }
    // Every index before the throw, the throwing one, and nothing after.
    ASSERT_EQ(seen.size(), 18u) << "window " << window;
    for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], i);
  }
}

TEST(OrderedStream, SlowEmitDoesNotStallTheOtherWorkers) {
  // While one worker emits a slow row, the others must go on computing the
  // entries the window admits. Had emit held the stream lock, each of them
  // would finish at most one entry and then queue behind it: at most
  // thread_count() - 1 entries during the emit.
  const std::size_t threads = thread_count();
  if (threads < 2) GTEST_SKIP() << "needs a second worker";
  const std::size_t window = 2 * threads + 8;
  const std::size_t slow = 32;  // late enough for the loop to start helpers
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> in_slow_emit{false};
  std::atomic<bool> helper_before_slow{false};
  std::atomic<std::size_t> made_during{0};
  ordered_stream(
      slow + window + 8, window,
      [&](std::size_t i) {
        std::this_thread::sleep_for(2ms);  // worth starting helpers for
        if (in_slow_emit.load()) {
          made_during.fetch_add(1);
        } else if (i < slow && std::this_thread::get_id() != caller) {
          helper_before_slow = true;
        }
        return i;
      },
      [&](std::size_t i, std::size_t) {
        if (i != slow) return;
        in_slow_emit = true;
        // Wait for the other workers, or give up after 5 s.
        for (int k = 0; k < 5000 && made_during.load() < threads; ++k) {
          std::this_thread::sleep_for(1ms);
        }
        in_slow_emit = false;
      });
  if (!helper_before_slow.load()) {
    GTEST_SKIP() << "the loop started no helper before the slow emit";
  }
  EXPECT_GE(made_during.load(), threads);
}

}  // namespace
}  // namespace flexrt::par
