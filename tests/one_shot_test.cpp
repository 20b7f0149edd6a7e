// The one-shot EDF test, hier::schedulable(rt::TaskSet, ...): its verdict
// must be the context test's, hier::schedulable(rt::AnalysisContext(ts),
// ...), on every set -- the demand-bound certificate may only answer
// "schedulable" where the context test does. A property test over
// fault-sweep-shaped channels, and hand-built cases at the edges the
// certificate's margins cover: the snap window of the demand curve, the
// merge of near-equal deadlines, the cut-off L and the point budget.
#include "hier/sched_test.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "rt/analysis_context.hpp"
#include "rt/deadline_bound.hpp"
#include "rt/task_set.hpp"

namespace flexrt::hier {
namespace {

struct Tally {
  std::size_t cases = 0;
  std::size_t certified = 0;
  std::size_t deadlines = 0;
  std::size_t schedulable = 0;
};

/// One case: the one-shot verdict against the context test's, and the
/// certificate never holding where the context test says no.
void check(const rt::TaskSet& ts, const SupplyFunction& supply, Tally& tally,
           const std::string& what) {
  const EdfCertificate cert = edf_certificate(ts, supply);
  const bool one_shot = schedulable(rt::TaskSet(ts), Scheduler::EDF, supply);
  const bool context =
      schedulable(rt::AnalysisContext(ts), Scheduler::EDF, supply);
  ++tally.cases;
  tally.certified += cert.holds ? 1 : 0;
  tally.deadlines += cert.deadlines;
  tally.schedulable += context ? 1 : 0;
  ASSERT_EQ(one_shot, context) << what;
  ASSERT_TRUE(!cert.holds || context) << what;
}

rt::Task task(double c, double t, double d) {
  return rt::make_task("t", c, t, d, rt::Mode::FS);
}

// --- the property test ------------------------------------------------------

constexpr double kMenu[] = {2, 3, 4, 5, 6, 8, 10, 12, 15, 20, 24, 30, 40, 60};

/// D > T has no kind here: rt::validate rejects such a task (pinned in
/// task_test.cpp), so no set that reaches the certificate has one. Tight
/// deadlines, D = C, give the largest intercept c.
enum class Deadlines { Implicit, Constrained, Tight };

/// An FS channel of 1-5 tasks from the study's kind of period menu.
rt::TaskSet channel(Rng& rng, Deadlines kind, double utilization) {
  const auto n = static_cast<std::size_t>(rng.uniform_int(1, 5));
  std::vector<double> weight(n);
  double sum = 0.0;
  for (double& w : weight) sum += (w = rng.uniform(0.1, 1.0));
  rt::TaskSet ts;
  for (std::size_t i = 0; i < n; ++i) {
    const double t = kMenu[rng.uniform_int(0, std::size(kMenu) - 1)];
    const double c = t * utilization * weight[i] / sum;
    double d = t;
    if (kind == Deadlines::Constrained) {
      d = std::max(c, t * rng.uniform(0.3, 1.0));
    } else if (kind == Deadlines::Tight) {
      d = c;
    }
    ts.add(task(c, t, d));
  }
  return ts;
}

/// A recovery gap in [1, 1e4]: mostly the short round gaps of a fault sweep
/// at high rates, then the long ones of low rates, integers co-prime with
/// the menu's periods, and 1/rate for arbitrary rates, which lie off the
/// 1e-6 grid and have no finite hyperperiod. The rarer kinds cost the
/// context test thousands of deadlines each.
double gap(Rng& rng, std::size_t k) {
  const auto pick = [&rng](const auto& menu) {
    return menu[rng.uniform_int(0, std::size(menu) - 1)];
  };
  constexpr double kShort[] = {1,  2,  3,  4,  5,  6,  8,  10,  12,
                               15, 20, 24, 30, 40, 50, 60, 100, 120};
  constexpr double kLong[] = {200, 500, 1000, 2000, 5000, 10000};
  constexpr double kCoprime[] = {7, 11, 13, 49, 77, 91, 121, 143, 169, 343};
  if (k % 2003 == 0) return 1.0 / rng.log_uniform(1e-4, 1.0);
  if (k % 401 == 0) return pick(kCoprime);
  if (k % 47 == 0) return pick(kLong);
  return pick(kShort);
}

TEST(OneShotEdf, AgreesWithTheContextTestOnEveryVerdict) {
  Rng rng(0x0E5D7);
  Tally tally;
  constexpr std::size_t kCases = 100000;
  for (std::size_t k = 0; k < kCases; ++k) {
    const auto kind = static_cast<Deadlines>(k % 3);
    rt::TaskSet ts = channel(rng, kind, rng.uniform(0.05, 0.8));
    // The recovery task of fault::recovery_task: the largest WCET every
    // gap, with an implicit deadline.
    const double g = gap(rng, k);
    double max_wcet = 0.0;
    for (const rt::Task& t : ts) max_wcet = std::max(max_wcet, t.wcet);
    if (g >= max_wcet) ts.add(task(max_wcet, g, g));
    const double u = ts.utilization();
    double first = ts[0].deadline;
    for (const rt::Task& t : ts) first = std::min(first, t.deadline);
    // Supplies near the demand: a rate from just above U (where the cut-off
    // L runs far out) to four times it, and a delay up to the first
    // deadline.
    const double rate = std::min(1.0, u * rng.log_uniform(1.0 + 1e-6, 4.0));
    const double x = rng.uniform01();
    const double delay = first * x * x;
    const std::string what = "case " + std::to_string(k);
    switch (k % 5) {
      case 0:
        check(ts, LinearSupply(1.0, 0.0), tally, what + " dedicated");
        break;
      case 1:
        check(ts, LinearSupply(rate, delay), tally, what + " linear");
        break;
      case 2: {
        // The largest delay the context passes at this rate, as a G1 design
        // leaves it, then nudged by a few parts in 1e9 either way: the
        // verdicts at the edge of the tolerance.
        const rt::AnalysisContext ctx(ts);
        double tight = std::numeric_limits<double>::infinity();
        for (std::size_t i = 0; i < ctx.deadline_points().size(); ++i) {
          tight = std::min(tight, ctx.deadline_points()[i] -
                                      ctx.edf_demand_at_points()[i] / rate);
        }
        constexpr double kNudge[] = {-1e-8, -2e-9, -1e-9, -1e-10, -1e-12, 0.0,
                                     1e-12, 1e-10, 1e-9,  2e-9,   1e-8};
        if (ctx.dl_exact() && tight > 0.0) {
          const double nudge = kNudge[rng.uniform_int(0, std::size(kNudge) - 1)];
          check(ts, LinearSupply(rate, tight * (1.0 + nudge)), tally,
                what + " tight linear");
        } else {
          check(ts, LinearSupply(rate, delay), tally, what + " linear");
        }
        break;
      }
      default: {
        // A slot of the rate whose delay P - Q is `delay`.
        const double period = delay / (1.0 - rate);
        if (period > 0.0 && std::isfinite(period)) {
          check(ts, SlotSupply(period, period * rate), tally, what + " slot");
        } else {
          check(ts, LinearSupply(rate, delay), tally, what + " linear");
        }
        break;
      }
    }
    if (HasFatalFailure()) return;
  }
  std::printf("[ one-shot ] %zu cases, 0 mismatches: %.1f%% certified, "
              "%.1f%% schedulable, %.2f deadlines tested per case\n",
              tally.cases,
              100.0 * static_cast<double>(tally.certified) /
                  static_cast<double>(tally.cases),
              100.0 * static_cast<double>(tally.schedulable) /
                  static_cast<double>(tally.cases),
              static_cast<double>(tally.deadlines) /
                  static_cast<double>(tally.cases));
  EXPECT_GE(tally.cases, kCases);
  // The certificate must carry its weight, and must not answer everything.
  EXPECT_GT(tally.certified, tally.cases / 4);
  EXPECT_LT(tally.certified, tally.schedulable);
}

// --- hand-built edges -------------------------------------------------------

// The snap window: the demand curve counts a job whose deadline lies within
// 1e-9 (k+1) T after a point, so at A's deadline the context charges B's
// job, due 5e-10 (relative) later. Every real deadline passes, the context
// test fails at A's, and so must the one-shot test.
TEST(OneShotEdf, SnapWindowJobsAreCharged) {
  const double d_a = 1e7;
  const double c_a = 1e6;
  const double d_b = d_a * (1.0 + 5e-10);
  rt::TaskSet ts;
  ts.add(task(c_a, d_a, d_a));
  ts.add(task(5e-3, 2.0 * d_a, d_b));  // H = 2 d_a: the certificate scans
  Tally tally;
  for (const double delay : {d_a - c_a, d_a - c_a - 1e-2, d_a - c_a - 1.0}) {
    const LinearSupply supply(1.0, delay);
    check(ts, supply, tally, "delay " + std::to_string(delay));
  }
  // Z(d_a) = c_a exactly: the real test passes and the context test does
  // not, and neither does the certificate.
  const LinearSupply tight(1.0, d_a - c_a);
  EXPECT_FALSE(schedulable(rt::TaskSet(ts), Scheduler::EDF, tight));
  EXPECT_FALSE(edf_certificate(ts, tight).holds);
}

// The merge: deadline_set keeps the first of deadlines within 1e-12 of each
// other, so the context charges both jobs at the earlier one. Supplies from
// just under to just over the demand there get the context's verdict.
TEST(OneShotEdf, MergedDeadlinesGetTheContextVerdict) {
  const double d_a = 100.0;
  const double d_b = d_a * (1.0 + 5e-13);
  rt::TaskSet ts;
  ts.add(task(10.0, d_a, d_a));
  ts.add(task(10.0, d_b, d_b));
  Tally tally;
  // Z(d_a) = (d_a - delay) against a demand of 20 at the merged point.
  for (const double rel : {-1e-6, -1e-8, -1e-9, -1e-10, 0.0, 1e-10, 1e-9,
                           1e-8, 1e-6}) {
    const LinearSupply supply(1.0, d_a - 20.0 * (1.0 + rel));
    check(ts, supply, tally, "relative slack " + std::to_string(rel));
  }
  EXPECT_GT(tally.certified, 0u);
  EXPECT_LT(tally.certified, tally.cases);
}

// The cut-off: for one task the demand-bound line U t + c meets the demand
// at every deadline, so a supply with Z(D) = C (1 + s) puts L at D itself
// (s = 0), just past it or just short of it. Each gets the context's
// verdict, and the certificate tests D whenever L does not clear it.
TEST(OneShotEdf, DeadlinesAtTheCutOff) {
  rt::TaskSet one;
  one.add(task(1.0, 10.0, 5.0));
  const double rate = 0.5;
  Tally tally;
  for (const double s : {-1e-6, -1e-9, 0.0, 1e-9, 1e-6}) {
    // Z(5) = rate (5 - delay) = 1 + s.
    const LinearSupply supply(rate, 5.0 - (1.0 + s) / rate);
    check(one, supply, tally, "Z(D) = C (1 + " + std::to_string(s) + ")");
  }
  // Equality at L, as a G1 design leaves its critical deadline, passes
  // under the tolerance both tests use.
  const LinearSupply at_l(rate, 5.0 - 1.0 / rate);
  EXPECT_TRUE(edf_certificate(one, at_l).holds);
  EXPECT_EQ(tally.certified, 3u);
  // A deficit of 0.99e-9 passes only the context's full 1e-9 tolerance:
  // the certificate leaves it to the context, which says yes.
  const LinearSupply in_tolerance(rate, 5.0 - (1.0 - 0.99e-9) / rate);
  EXPECT_FALSE(edf_certificate(one, in_tolerance).holds);
  EXPECT_TRUE(schedulable(rt::TaskSet(one), Scheduler::EDF, in_tolerance));

  // A set with room to spare: certified from the deadlines before L alone.
  rt::TaskSet three;
  three.add(task(1.0, 4.0, 4.0));
  three.add(task(1.0, 6.0, 6.0));
  three.add(task(2.0, 10.0, 10.0));
  const LinearSupply roomy(0.9, 2.0);  // L = 0.9 * 2 / (0.9 - U) ~ 6.4
  const EdfCertificate cert = edf_certificate(three, roomy);
  EXPECT_TRUE(cert.holds);
  EXPECT_EQ(cert.deadlines, 2u);  // 4 and 6, of 31 up to H = 60
  check(three, roomy, tally, "roomy");
}

// The point budget: sum(H/T_i + 1) just under, at and over
// rt::kDefaultDlPointBudget. At or under, the context is exact and the
// certificate may answer; over, it leaves the set to the context.
TEST(OneShotEdf, DeadlineCountsAroundTheBudget) {
  const auto budget = static_cast<double>(rt::kDefaultDlPointBudget);
  Tally tally;
  // Two tasks, periods 1 and H: sum(H/T_i + 1) = H + 3.
  for (const double h : {budget - 4.0, budget - 3.0, budget - 2.0,
                         budget + 1.0}) {
    rt::TaskSet ts;
    ts.add(task(0.5, 1.0, 1.0));
    ts.add(task(h / 4.0, h, h));
    for (const double delay : {0.0, 0.4}) {
      const LinearSupply supply(1.0, delay);
      check(ts, supply, tally, "H " + std::to_string(h));
      const bool within = h + 3.0 <= budget;
      if (!within) {
        EXPECT_FALSE(edf_certificate(ts, supply).holds) << "H " << h;
      }
    }
  }
  // Certified at and under the budget, under both supplies.
  EXPECT_EQ(tally.certified, 4u);
}

}  // namespace
}  // namespace flexrt::hier
