// Executor hardening under injected failures: a throwing probe becomes an
// error row for exactly its entry (any exception type, never an escape into
// the pool), a stalling probe is cut by the per-request Deadline into the
// best completed rung's conservative answer (degraded=true, gap=null, value
// bit-for-bit equal to the fixed-policy probe at that budget), and a
// streamed run under injection emits every entry exactly once, in order,
// byte-identical to a serial solve_one loop over the fleet.
#include <gtest/gtest.h>

#include <chrono>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/paper_example.hpp"
#include "core/study_runner.hpp"
#include "gen/taskset_gen.hpp"
#include "svc/analysis_service.hpp"
#include "svc/study_report.hpp"

namespace flexrt::svc {
namespace {

using hier::Scheduler;

/// A five-entry fleet of identical solvable systems: any error row can only
/// come from the injected fault, never from the workload.
class InjectedFleet : public ::testing::Test {
 protected:
  InjectedFleet() {
    core::StudyOptions study;
    study.trials = 5;
    study.base_seed = 0x5EED;
    service_.add_fleet(study, [](std::size_t, Rng&) {
      return std::optional<core::ModeTaskSystem>(core::paper_example());
    });
  }

  SolveRequest solve_request() const {
    SolveRequest req;
    req.overheads = {0.02, 0.02, 0.02};
    req.goal = core::DesignGoal::MaxSlackBandwidth;
    return req;
  }

  AnalysisService service_;
};

TEST_F(InjectedFleet, ThrowingProbeBecomesAnErrorRowOnlyForItsEntry) {
  service_.set_probe_hook([](std::size_t entry, std::size_t) {
    if (entry == 2) throw std::runtime_error("injected probe failure");
  });
  const std::vector<SolveResult> rs = service_.run(solve_request());
  ASSERT_EQ(rs.size(), 5u);
  for (std::size_t i = 0; i < rs.size(); ++i) {
    EXPECT_EQ(rs[i].system, i);  // no lost or duplicated entry
    if (i == 2) {
      EXPECT_EQ(rs[i].error, "injected probe failure");
      EXPECT_FALSE(rs[i].feasible);
    } else {
      EXPECT_TRUE(rs[i].ok()) << rs[i].error;
      EXPECT_TRUE(rs[i].feasible);
    }
  }
}

TEST_F(InjectedFleet, NonStandardExceptionsAreCaughtAsUnknown) {
  // Even `throw 42;` must become an error row: the catch-all is what keeps
  // a stray library exception from wedging the pool or killing the run.
  service_.set_probe_hook([](std::size_t entry, std::size_t) {
    if (entry == 4) throw 42;
  });
  const std::vector<SolveResult> rs = service_.run(solve_request());
  ASSERT_EQ(rs.size(), 5u);
  EXPECT_EQ(rs[4].error, "unknown exception");
  for (std::size_t i = 0; i < 4; ++i) EXPECT_TRUE(rs[i].ok());
}

TEST_F(InjectedFleet, ClearingTheHookRestoresNormalExecution) {
  service_.set_probe_hook(
      [](std::size_t, std::size_t) { throw std::runtime_error("always"); });
  for (const SolveResult& r : service_.run(solve_request())) {
    EXPECT_EQ(r.error, "always");
  }
  service_.set_probe_hook(nullptr);
  for (const SolveResult& r : service_.run(solve_request())) {
    EXPECT_TRUE(r.ok()) << r.error;
  }
}

TEST_F(InjectedFleet, StreamedRunUnderInjectionMatchesBufferedByteForByte) {
  // The ordered gate must neither lose nor duplicate the failing entry: the
  // streamed sequence renders to exactly the bytes of a serial solve_one
  // loop (code the pool never touches), error row included, in entry
  // order.
  const SolveRequest req = solve_request();
  service_.set_probe_hook([](std::size_t entry, std::size_t) {
    if (entry == 1) throw std::runtime_error("injected probe failure");
  });

  std::vector<std::string> buffered;
  for (std::size_t i = 0; i < service_.size(); ++i) {
    buffered.push_back(study_trial_row(service_.solve_one(i, req), req.alg,
                                       req.goal));
  }

  std::vector<std::string> streamed;
  std::vector<std::size_t> order;
  const StreamStats stats =
      service_.run(req, [&](const SolveResult& r) {
        order.push_back(r.system);
        streamed.push_back(study_trial_row(r, req.alg, req.goal));
      });

  EXPECT_EQ(stats.emitted, 5u);
  ASSERT_EQ(order.size(), 5u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
  EXPECT_EQ(streamed, buffered);
}

/// The deadline tests run on a hyperperiod-hostile set whose adaptive
/// ladders genuinely climb (same construction as the svc service tests):
/// without a deadline the tol<0 ladder deterministically walks every rung
/// to the cap, so any early stop is attributable to the Deadline alone.
class DeadlineOnStressSet : public ::testing::Test {
 protected:
  DeadlineOnStressSet() {
    gen::StressParams sp;
    sp.num_tasks = 200;
    sp.total_utilization = 0.5;
    Rng rng(0xABCDEF);
    service_.add_system(core::ModeTaskSystem({}, {}, {gen::generate_stress_set(sp, rng)}),
                        "stress");
  }
  AnalysisService service_;
};

TEST_F(DeadlineOnStressSet, DeadlineDegradesToTheBestCompletedRung) {
  // An already-elapsed deadline stops the tol<0 ladder right after its
  // first (unconditional) rung: degraded=true, gap=null, and the answer is
  // bit-for-bit the fixed-policy probe at that rung's budget -- the
  // documented graceful-degradation contract.
  const double period = 0.4;
  const std::size_t first_rung = 1u << 6;
  const AccuracyPolicy racing =
      AccuracyPolicy::adaptive(/*tol=*/-1.0, first_rung, 1u << 14)
          .with_deadline(1e-6);
  const MinQuantumResult degraded = service_.min_quantum_one(
      0, {Scheduler::EDF, period, false, racing});
  ASSERT_TRUE(degraded.ok()) << degraded.error;
  EXPECT_TRUE(degraded.prov.degraded);
  EXPECT_FALSE(degraded.prov.gap.has_value());
  EXPECT_EQ(degraded.prov.probes, 1u);
  EXPECT_EQ(degraded.prov.budget, first_rung);

  const MinQuantumResult fixed = service_.min_quantum_one(
      0, {Scheduler::EDF, period, false, AccuracyPolicy::fixed(first_rung)});
  EXPECT_FALSE(fixed.prov.degraded);  // finished on its own, just coarse
  for (std::size_t m = 0; m < core::kAllModes.size(); ++m) {
    EXPECT_EQ(degraded.mode_quantum[m], fixed.mode_quantum[m]);
  }
  EXPECT_EQ(degraded.margin, fixed.margin);

  // Graceful means conservative: the degraded quanta over-approximate what
  // the full ladder would have refined them down to.
  const MinQuantumResult full = service_.min_quantum_one(
      0, {Scheduler::EDF, period, false, AccuracyPolicy::fixed(1u << 14)});
  for (std::size_t m = 0; m < core::kAllModes.size(); ++m) {
    EXPECT_GE(degraded.mode_quantum[m], full.mode_quantum[m]);
  }
}

TEST_F(DeadlineOnStressSet, StalledProbeIsCutAfterOneRoundNotAfterTheCap) {
  // A probe stalling 50 ms per round against a 5 ms deadline: the ladder
  // must stop after the first rung instead of stalling through all
  // remaining rungs of the 2^20 cap -- the no-hang half of the contract.
  service_.set_probe_hook([](std::size_t, std::size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  });
  const MinQuantumResult r = service_.min_quantum_one(
      0, {Scheduler::EDF, 0.4, false,
          AccuracyPolicy::adaptive(/*tol=*/-1.0, 1u << 6, 1u << 20)
              .with_deadline(5.0)});
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_TRUE(r.prov.degraded);
  EXPECT_EQ(r.prov.probes, 1u);
  EXPECT_EQ(r.prov.budget, std::size_t{1} << 6);
  EXPECT_GE(r.prov.wall_ms, 5.0);  // it did wait out the stalled round
}

TEST_F(DeadlineOnStressSet, FixedPoliciesNeverDegrade) {
  // Deadlines govern adaptive ladders only: a fixed policy is one probe,
  // there is no earlier rung to fall back to.
  const AccuracyPolicy fixed_with_deadline =
      AccuracyPolicy::fixed(1u << 8).with_deadline(1e-6);
  const MinQuantumResult r = service_.min_quantum_one(
      0, {Scheduler::EDF, 0.4, false, fixed_with_deadline});
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.prov.degraded);
  const MinQuantumResult plain = service_.min_quantum_one(
      0, {Scheduler::EDF, 0.4, false, AccuracyPolicy::fixed(1u << 8)});
  for (std::size_t m = 0; m < core::kAllModes.size(); ++m) {
    EXPECT_EQ(r.mode_quantum[m], plain.mode_quantum[m]);
  }
}

TEST_F(DeadlineOnStressSet, VerifyLadderHonoursTheDeadlineToo) {
  // verify() hand-rolls its escalation ladder (it climbs only while the
  // condensed verdict is "no"), so it needs its own degradation proof: an
  // unschedulable schedule would climb to the cap, an elapsed deadline
  // must cut it to a conservative condensed "no" instead.
  const double period = 0.4;
  const MinQuantumResult q = service_.min_quantum_one(
      0, {Scheduler::EDF, period, false, AccuracyPolicy::fixed(1u << 14)});
  core::ModeSchedule schedule;
  schedule.period = period;
  schedule.nf = {q.mode_quantum[2] * 0.5, 0.0};  // far below minQ: a true no
  const VerifyResult r = service_.verify_one(
      0, {Scheduler::EDF, schedule, false,
          AccuracyPolicy::adaptive(1e-4, 1u << 6, 1u << 16)
              .with_deadline(1e-6)});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.prov.degraded);
  EXPECT_FALSE(r.schedulable);  // conservative: degraded never says "yes"
  EXPECT_LT(r.prov.budget, std::size_t{1} << 16);
}

}  // namespace
}  // namespace flexrt::svc
