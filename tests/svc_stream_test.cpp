// Streaming fleet execution: the sink sees exactly the result sequence of
// a serial *_one loop over the fleet (entry order; the reference never
// touches the pool), the JSONL transport is byte-identical across serial /
// streamed / merged-shard-stream paths, peak buffering respects the
// reorder window, and a shard file truncated by a mid-stream kill is
// rejected by the merge helpers deterministically.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "core/paper_example.hpp"
#include "core/study_runner.hpp"
#include "gen/taskset_gen.hpp"
#include "svc/analysis_service.hpp"
#include "svc/jsonl.hpp"
#include "svc/study_report.hpp"

namespace flexrt::svc {
namespace {

using hier::Scheduler;
using namespace std::chrono_literals;

/// A deterministic 9-entry fleet with one unpackable trial, the shape the
/// study subcommand streams: packed rows, a "packing failed" row, and
/// byte-stable provenance.
AnalysisService::SystemFactory test_factory() {
  return [](std::size_t t, Rng&) -> std::optional<core::ModeTaskSystem> {
    if (t == 4) return std::nullopt;  // unpackable trial mid-fleet
    return core::paper_example();
  };
}

core::StudyOptions whole_study() {
  core::StudyOptions study;
  study.trials = 9;
  study.base_seed = 0xBEEF;
  return study;
}

SolveRequest solve_request() {
  return {Scheduler::EDF,
          {0.01, 0.01, 0.01},
          core::DesignGoal::MinOverheadBandwidth,
          {},
          {}};
}

/// Renders one fleet's study report (rows + summary) through the streaming
/// path into a string -- what `flexrt_design study --jsonl --stream` pipes
/// to a file, minus the process around it.
std::string streamed_report(const AnalysisService& service,
                            const SolveRequest& req, bool with_summary,
                            StreamStats* stats_out = nullptr) {
  std::ostringstream os;
  JsonlWriter out(os);
  StudyAggregate agg;
  const StreamStats stats = service.run(req, [&](const SolveResult& r) {
    const std::string row =
        study_trial_row(r, req.alg, core::DesignGoal::MinOverheadBandwidth);
    out.write(row);
    agg.add(row);
  });
  if (with_summary) out.write(agg.summary_row());
  if (stats_out) *stats_out = stats;
  return os.str();
}

TEST(SvcStream, SinkSeesTheBufferedSequenceExactly) {
  AnalysisService service;
  service.add_fleet(whole_study(), test_factory());
  const SolveRequest req = solve_request();
  std::vector<SolveResult> want;
  for (std::size_t i = 0; i < service.size(); ++i) {
    want.push_back(service.solve_one(i, req));
  }

  std::vector<SolveResult> got;
  const StreamStats stats =
      service.run(req, [&](const SolveResult& r) { got.push_back(r); });
  EXPECT_EQ(stats.emitted, want.size());
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].system, i);
    EXPECT_EQ(got[i].name, want[i].name);
    EXPECT_EQ(got[i].trial, want[i].trial);
    EXPECT_EQ(got[i].error, want[i].error);
    EXPECT_EQ(got[i].feasible, want[i].feasible);
    if (want[i].feasible) {
      EXPECT_EQ(got[i].design.schedule.period, want[i].design.schedule.period);
      EXPECT_EQ(got[i].design.schedule.ft.usable,
                want[i].design.schedule.ft.usable);
    }
    EXPECT_EQ(got[i].prov.budget, want[i].prov.budget);
    EXPECT_EQ(got[i].prov.dl_exact, want[i].prov.dl_exact);
  }
}

TEST(SvcStream, EveryRequestTypeStreamsInEntryOrder) {
  AnalysisService service;
  service.add_fleet(whole_study(), test_factory());
  // Each request type streams every entry once, in entry order, matching
  // a serial run_one loop over the fleet (same entry, name and error).
  const auto expect_ordered = [&](const auto& req) {
    std::vector<decltype(service.run_one(0, req))> want;
    for (std::size_t i = 0; i < service.size(); ++i) {
      want.push_back(service.run_one(i, req));
    }
    std::size_t next = 0;
    const StreamStats stats = service.run(req, [&](const auto& r) {
      ASSERT_LT(next, want.size());
      EXPECT_EQ(r.system, next);
      EXPECT_EQ(r.name, want[next].name);
      EXPECT_EQ(r.error, want[next].error);
      ++next;
    });
    EXPECT_EQ(stats.emitted, service.size());
    EXPECT_EQ(next, service.size());
  };

  expect_ordered(MinQuantumRequest{Scheduler::EDF, 1.0, false, {}});

  core::SearchOptions opts;
  opts.p_min = 0.5;
  opts.p_max = 1.5;
  opts.grid_step = 0.5;
  expect_ordered(RegionSweepRequest{Scheduler::EDF, opts, {}});

  const core::Design d = core::solve_design(
      analysis::BatchEngine(core::paper_example(), Scheduler::EDF),
      {0.0, 0.0, 0.0}, core::DesignGoal::MaxSlackBandwidth);

  expect_ordered(VerifyRequest{Scheduler::EDF, d.schedule, false, {}});

  FaultSweepRequest freq;
  freq.rates = {0.0, 0.1};
  expect_ordered(freq);
}

TEST(SvcStream, StreamedBytesEqualBufferedBytes) {
  AnalysisService service;
  service.add_fleet(whole_study(), test_factory());
  const SolveRequest req = solve_request();

  // Serial report: rows from a solve_one loop over the fleet (no pool, no
  // reorder buffer), summary from the aggregate.
  std::ostringstream buffered;
  {
    JsonlWriter out(buffered);
    StudyAggregate agg;
    for (std::size_t i = 0; i < service.size(); ++i) {
      const SolveResult r = service.solve_one(i, req);
      const std::string row =
          study_trial_row(r, req.alg, core::DesignGoal::MinOverheadBandwidth);
      out.write(row);
      agg.add(row);
    }
    out.write(agg.summary_row());
  }

  const std::string streamed = streamed_report(service, req, true);
  EXPECT_EQ(streamed, buffered.str());
}

TEST(SvcStream, MergedShardStreamsEqualTheUnshardedStream) {
  const SolveRequest req = solve_request();
  AnalysisService whole;
  whole.add_fleet(whole_study(), test_factory());
  const std::string want = streamed_report(whole, req, true);

  // Stream each shard separately (rows only, like `study --shard k/N`),
  // then merge with the exact helpers cmd_merge runs.
  std::vector<std::string> rows;
  for (std::size_t k = 0; k < 3; ++k) {
    AnalysisService part;
    core::StudyOptions shard = whole_study();
    shard.shard = {k, 3};
    part.add_fleet(shard, test_factory());
    std::istringstream in(streamed_report(part, req, false));
    collect_study_rows(in, "shard" + std::to_string(k), rows);
  }
  sort_study_rows(rows);
  std::ostringstream merged;
  JsonlWriter out(merged);
  StudyAggregate agg;
  for (const std::string& row : rows) {
    out.write(row);
    agg.add(row);
  }
  out.write(agg.summary_row());
  EXPECT_EQ(merged.str(), want);
}

TEST(SvcStream, PeakBufferingIsBoundedByTheWindow) {
  AnalysisService service;
  core::StudyOptions study;
  study.trials = 64;
  service.add_fleet(study, [](std::size_t, Rng&) {
    return std::optional<core::ModeTaskSystem>(core::paper_example());
  });
  for (const std::size_t window : {1u, 3u, 16u}) {
    std::size_t emitted = 0;
    const StreamStats stats = service.run(
        MinQuantumRequest{Scheduler::EDF, 1.0, false, {}},
        [&](const MinQuantumResult&) { ++emitted; }, window);
    EXPECT_EQ(emitted, 64u);
    EXPECT_EQ(stats.window, window);
    EXPECT_LE(stats.max_buffered, window);
    EXPECT_GE(stats.max_buffered, 1u);
  }
}

TEST(SvcStream, FirstRowArrivesBeforeTheLastTrialIsGenerated) {
  // The last trial's generator waits, for at most 10 s, until the sink has
  // seen entry 0: a runner that generates the whole fleet before it runs
  // any entry times out here.
  constexpr std::size_t kTrials = 64;
  std::atomic<bool> saw_first{false};
  std::atomic<bool> timed_out{false};
  core::StudyOptions study;
  study.trials = kTrials;
  AnalysisService service;
  service.add_fleet(
      study, [&](std::size_t t, Rng&) -> std::optional<core::ModeTaskSystem> {
        if (t == kTrials - 1) {
          const auto limit = std::chrono::steady_clock::now() + 10s;
          while (!saw_first.load()) {
            if (std::chrono::steady_clock::now() >= limit) {
              timed_out.store(true);
              break;
            }
            std::this_thread::sleep_for(1ms);
          }
        }
        return core::paper_example();
      });
  std::size_t emitted = 0;
  service.run(MinQuantumRequest{Scheduler::EDF, 1.0, false, {}},
              [&](const MinQuantumResult& r) {
                if (r.system == 0) saw_first.store(true);
                ++emitted;
              });
  EXPECT_FALSE(timed_out.load())
      << "the last trial was generated before the first row was emitted";
  EXPECT_EQ(emitted, kTrials);
}

// --- kill-mid-stream: truncated shard files -------------------------------

TEST(SvcStream, TruncatedShardFileIsRejectedDeterministically) {
  AnalysisService service;
  service.add_fleet(whole_study(), test_factory());
  const std::string report =
      streamed_report(service, solve_request(), /*with_summary=*/false);

  // A complete report collects cleanly.
  {
    std::vector<std::string> rows;
    std::istringstream in(report);
    collect_study_rows(in, "whole", rows);
    EXPECT_EQ(rows.size(), 9u);
  }

  // Chop the file mid-last-row at several depths -- whatever instant the
  // writer was killed, the partial tail must be detected, not merged.
  // (Losing only the final '\n' leaves a complete row, which is fine;
  // chops of >= 2 cut into the row itself.)
  for (const std::size_t chop : {2u, 5u, 20u}) {
    ASSERT_GT(report.size(), chop + 1);
    std::istringstream in(report.substr(0, report.size() - chop));
    std::vector<std::string> rows;
    EXPECT_THROW(collect_study_rows(in, "partial", rows), ModelError)
        << "chop " << chop;
  }
}

TEST(SvcStream, DuplicateShardRowsAreRejected) {
  AnalysisService service;
  service.add_fleet(whole_study(), test_factory());
  const std::string report =
      streamed_report(service, solve_request(), /*with_summary=*/false);
  std::vector<std::string> rows;
  std::istringstream a(report), b(report);
  collect_study_rows(a, "a", rows);
  collect_study_rows(b, "b", rows);
  EXPECT_THROW(sort_study_rows(rows), ModelError);
}

TEST(SvcStream, MissingTrialsAreRejected) {
  // A shard killed cleanly *between* two row flushes leaves only complete
  // lines -- no truncation to detect -- but the merged trial ids then have
  // a hole, which the sort/contiguity check must reject.
  AnalysisService service;
  service.add_fleet(whole_study(), test_factory());
  const std::string report =
      streamed_report(service, solve_request(), /*with_summary=*/false);
  std::vector<std::string> rows;
  std::istringstream in(report);
  collect_study_rows(in, "whole", rows);
  ASSERT_EQ(rows.size(), 9u);

  std::vector<std::string> holed = rows;
  holed.erase(holed.begin() + 3);  // lose trial 3 (a row-boundary kill)
  EXPECT_THROW(sort_study_rows(holed), ModelError);

  std::vector<std::string> intact = rows;
  sort_study_rows(intact);  // the complete set still merges
  EXPECT_EQ(intact.size(), 9u);
}

}  // namespace
}  // namespace flexrt::svc
