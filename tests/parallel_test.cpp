#include "common/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace flexrt::par {
namespace {

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
  // Emission is serialized under the stream lock: concurrent sink entries
  // would interleave rows in an ostream-backed sink.
  std::atomic<int> inside{0};
  bool overlapped = false;
  ordered_stream(
      500, 4, [](std::size_t i) { return i; },
      [&](std::size_t, std::size_t) {
        if (inside.fetch_add(1) != 0) overlapped = true;
        inside.fetch_sub(1);
      });
  EXPECT_FALSE(overlapped);
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

}  // namespace
}  // namespace flexrt::par
