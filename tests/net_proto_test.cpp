// The flexrtd wire protocol, driven over plain stringstreams: data rows
// are byte-identical to the direct svc render (the offline --jsonl
// --no-wall report), the study path reproduces the offline study report,
// hostile input (unknown commands, malformed flags, truncated add blocks,
// oversized lines) turns into `error` status lines without killing the
// session, and the framing helpers (read_line, parse_status_line) honor
// their caps and grammar exactly.
#include <gtest/gtest.h>

#include <cstdio>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/design.hpp"
#include "core/study_runner.hpp"
#include "gen/taskset_gen.hpp"
#include "io/task_io.hpp"
#include "net/proto.hpp"
#include "svc/analysis_service.hpp"
#include "svc/jsonl.hpp"
#include "svc/memo_cache.hpp"
#include "svc/rows.hpp"
#include "svc/study_report.hpp"

namespace flexrt::net::proto {
namespace {

using hier::Scheduler;

/// The paper's Table-1 application in task-file form -- the same text as
/// examples/paper_example.txt, embedded so the test needs no file paths.
constexpr const char* kPaperTasks =
    "tau1   1  6  NF 0\n"
    "tau2   1  8  NF 1\n"
    "tau3   1 12  NF 1\n"
    "tau4   2 10  NF 2\n"
    "tau5   6 24  NF 3\n"
    "tau6   1 10  FS 0\n"
    "tau7   1 15  FS 0\n"
    "tau8   2 20  FS 0\n"
    "tau9   1  4  FS 1\n"
    "tau10  1 12  FT 0\n"
    "tau11  1 15  FT 0\n"
    "tau12  1 20  FT 0\n"
    "tau13  2 30  FT 0\n";

/// `add <name>` block for kPaperTasks.
std::string add_block(const std::string& name) {
  return "add " + name + "\n" + kPaperTasks + ".\n";
}

struct SessionOutput {
  std::string bytes;  ///< everything the session wrote
  int rc = 0;         ///< Session::run's return (max per-command rc)
};

/// Runs one scripted session over stringstreams -- the transport the unit
/// tests substitute for the daemon's socket streams.
SessionOutput run_script(const std::string& script,
                         std::size_t max_line = kMaxLineBytes) {
  std::istringstream in(script);
  std::ostringstream out;
  Session session(out, max_line);
  const int rc = session.run(in);
  return {out.str(), rc};
}

std::vector<std::string> lines_of(const std::string& bytes) {
  std::vector<std::string> lines;
  std::istringstream in(bytes);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

/// The JSONL data rows of a session transcript (status lines stripped).
std::string data_rows(const std::string& bytes) {
  std::string rows;
  for (const std::string& line : lines_of(bytes)) {
    if (!line.empty() && line[0] == '{') {
      rows += line;
      rows += '\n';
    }
  }
  return rows;
}

/// The parsed status lines of a session transcript, in order.
std::vector<WireStatus> statuses(const std::string& bytes) {
  std::vector<WireStatus> out;
  for (const std::string& line : lines_of(bytes)) {
    if (const auto st = parse_status_line(line)) out.push_back(*st);
  }
  return out;
}

void add_paper_system(svc::AnalysisService& service,
                      const std::string& name) {
  io::ParsedSystem parsed = io::parse_mode_task_system_string(kPaperTasks);
  service.add_system(std::move(parsed.system), name);
}

// --- framing helpers ------------------------------------------------------

TEST(NetProtoFraming, ReadLineSplitsStripsAndTerminates) {
  std::istringstream in("first\r\nsecond\nunterminated tail");
  bool truncated = true;
  EXPECT_EQ(read_line(in, 64, &truncated), "first");  // CR stripped
  EXPECT_FALSE(truncated);
  EXPECT_EQ(read_line(in, 64, &truncated), "second");
  // stdin-style tolerance: a final line without '\n' is still a line.
  EXPECT_EQ(read_line(in, 64, &truncated), "unterminated tail");
  EXPECT_EQ(read_line(in, 64, &truncated), std::nullopt);
}

TEST(NetProtoFraming, ReadLineConsumesOversizedLinesWithoutStoringThem) {
  const std::string huge(100, 'x');
  std::istringstream in(huge + "\nnext\n");
  bool truncated = false;
  const auto first = read_line(in, 16, &truncated);
  ASSERT_TRUE(first.has_value());
  EXPECT_TRUE(truncated);
  EXPECT_EQ(first->size(), 16u) << "bytes past the cap must be dropped";
  // Framing survives: the next line comes through whole and untruncated.
  EXPECT_EQ(read_line(in, 16, &truncated), "next");
  EXPECT_FALSE(truncated);
}

TEST(NetProtoFraming, ParseStatusLineGrammar) {
  const auto ok = parse_status_line("ok rc=0 fleet=3");
  ASSERT_TRUE(ok.has_value());
  EXPECT_FALSE(ok->failed);
  EXPECT_EQ(ok->rc, 0);

  const auto rc3 = parse_status_line("ok rc=3");
  ASSERT_TRUE(rc3.has_value());
  EXPECT_EQ(rc3->rc, 3);

  const auto err = parse_status_line("error boom: bad flag");
  ASSERT_TRUE(err.has_value());
  EXPECT_TRUE(err->failed);
  EXPECT_EQ(err->rc, 2);
  EXPECT_EQ(err->message, "boom: bad flag");

  // Data rows and near-misses are not status lines.
  EXPECT_EQ(parse_status_line("{\"kind\":\"solve\"}"), std::nullopt);
  EXPECT_EQ(parse_status_line("okay rc=0"), std::nullopt);
  EXPECT_EQ(parse_status_line("ok rc=x"), std::nullopt);
  EXPECT_EQ(parse_status_line("errors ahead"), std::nullopt);
}

// --- data-row byte parity -------------------------------------------------

TEST(NetProto, SolveRowsMatchDirectSvcRender) {
  const SessionOutput got = run_script(add_block("sys0") + "solve\nquit\n");
  EXPECT_EQ(got.rc, 0);

  svc::AnalysisService service;
  add_paper_system(service, "sys0");
  std::ostringstream os;
  svc::JsonlWriter out(os);
  const svc::SolveRequest req{Scheduler::EDF,
                              {0.0, 0.0, 0.0},
                              core::DesignGoal::MinOverheadBandwidth,
                              {},
                              svc::AccuracyPolicy::fixed(0)};
  service.run(req, [&](const svc::SolveResult& r) {
    ASSERT_TRUE(r.ok());
    out.write(svc::solve_row(r, req.alg, req.goal, /*with_wall=*/false));
  });

  EXPECT_EQ(data_rows(got.bytes), os.str());
  const std::vector<WireStatus> st = statuses(got.bytes);
  ASSERT_EQ(st.size(), 3u);  // add, solve, quit
  for (const WireStatus& s : st) {
    EXPECT_FALSE(s.failed);
    EXPECT_EQ(s.rc, 0);
  }
}

TEST(NetProto, MinqAndVerifyRowsMatchDirectSvcRender) {
  const SessionOutput got = run_script(
      add_block("sys0") +
      "minq --period 1\n"
      "verify --period 1 --quanta 0.25,0.3,0.25\n"
      "quit\n");
  EXPECT_EQ(got.rc, 1) << "the tight schedule is unschedulable -> rc 1";

  svc::AnalysisService service;
  add_paper_system(service, "sys0");
  std::ostringstream os;
  svc::JsonlWriter out(os);
  const svc::AccuracyPolicy accuracy = svc::AccuracyPolicy::fixed(0);
  service.run(svc::MinQuantumRequest{Scheduler::EDF, 1.0, false, accuracy},
              [&](const svc::MinQuantumResult& r) {
                ASSERT_TRUE(r.ok());
                out.write(svc::min_quantum_row(r, Scheduler::EDF, 1.0,
                                               /*with_wall=*/false));
              });
  core::ModeSchedule schedule;
  schedule.period = 1.0;
  schedule.ft = {0.25, 0.0};
  schedule.fs = {0.3, 0.0};
  schedule.nf = {0.25, 0.0};
  service.run(svc::VerifyRequest{Scheduler::EDF, schedule, false, accuracy},
              [&](const svc::VerifyResult& r) {
                ASSERT_TRUE(r.ok());
                out.write(svc::verify_row(r, Scheduler::EDF, 1.0,
                                          /*with_wall=*/false));
              });

  EXPECT_EQ(data_rows(got.bytes), os.str());
}

TEST(NetProto, SweepRowsMatchDirectSvcRender) {
  const SessionOutput got = run_script(
      add_block("sys0") + "sweep --p-min 0.5 --p-max 1.0 --step 0.25\nquit\n");
  EXPECT_EQ(got.rc, 0);

  svc::AnalysisService service;
  add_paper_system(service, "sys0");
  std::ostringstream os;
  svc::JsonlWriter out(os);
  core::SearchOptions search;
  search.p_min = 0.5;
  search.p_max = 1.0;
  search.grid_step = 0.25;
  service.run(
      svc::RegionSweepRequest{Scheduler::EDF, search,
                              svc::AccuracyPolicy::fixed(0)},
      [&](const svc::RegionSweepResult& r) {
        ASSERT_TRUE(r.ok());
        for (const core::RegionSample& s : r.samples) {
          out.write(svc::sweep_sample_row(r, Scheduler::EDF, s));
        }
        out.write(svc::sweep_summary_row(r, Scheduler::EDF,
                                         /*with_wall=*/false));
      });

  EXPECT_EQ(data_rows(got.bytes), os.str());
}

TEST(NetProto, GenFleetStudyMatchesOfflineStudyReport) {
  const SessionOutput got =
      run_script("gen-fleet --trials 4 --seed 7\nsolve --study\nquit\n");
  EXPECT_EQ(got.rc, 0);

  // The offline `study` subcommand's exact pipeline: generated fleet,
  // paper overheads split evenly, the study search grid, trial rows plus
  // the aggregate summary.
  core::StudyOptions study;
  study.trials = 4;
  study.base_seed = 7;
  svc::AnalysisService service;
  service.add_fleet(study,
                    [](std::size_t, Rng& rng) { return gen::study_system(rng); });
  core::SearchOptions search;
  search.grid_step = 5e-3;
  search.p_max = 10.0;
  const svc::SolveRequest req{Scheduler::EDF,
                              {0.05 / 3, 0.05 / 3, 0.05 / 3},
                              core::DesignGoal::MinOverheadBandwidth,
                              search,
                              svc::AccuracyPolicy::fixed(0)};
  std::ostringstream os;
  svc::JsonlWriter out(os);
  svc::StudyAggregate agg;
  service.run(req, [&](const svc::SolveResult& r) {
    const std::string row = svc::study_trial_row(r, req.alg, req.goal);
    out.write(row);
    agg.add(row);
  });
  out.write(agg.summary_row());

  EXPECT_EQ(data_rows(got.bytes), os.str());
}

TEST(NetProto, ShardedStudyEmitsRowsOnlyAndShardsPartitionTheFleet) {
  const SessionOutput whole =
      run_script("gen-fleet --trials 4 --seed 7\nsolve --study\nquit\n");
  std::string sharded;
  for (const char* shard : {"1/2", "2/2"}) {
    const SessionOutput part = run_script(
        std::string("gen-fleet --trials 4 --seed 7 --shard ") + shard +
        "\nsolve --study\nquit\n");
    EXPECT_EQ(part.rc, 0);
    const std::string rows = data_rows(part.bytes);
    EXPECT_EQ(rows.find("\"kind\":\"study_summary\""), std::string::npos)
        << "shards must not emit the fleet-level summary";
    sharded += rows;
  }
  // The concatenated shard rows are exactly the unsharded trial rows.
  std::string whole_trials;
  for (const std::string& line : lines_of(data_rows(whole.bytes))) {
    if (line.find("\"kind\":\"study_trial\"") != std::string::npos) {
      whole_trials += line;
      whole_trials += '\n';
    }
  }
  EXPECT_EQ(sharded, whole_trials);
}

// A generated fleet is whatever gen-fleet built, empty included: a shard
// that owns no trial streams nothing and succeeds, and a 0-trial study
// reports the offline `study --trials 0 --jsonl` summary.
TEST(NetProto, EmptyGeneratedFleetsRunLikeTheOfflineStudy) {
  for (const char* cmd : {"solve --study", "fault-sweep"}) {
    const SessionOutput shard = run_script(
        std::string("gen-fleet --trials 1 --shard 2/2\n") + cmd + "\nquit\n");
    EXPECT_EQ(shard.rc, 0) << cmd;
    EXPECT_EQ(data_rows(shard.bytes), "") << cmd;
    EXPECT_NE(shard.bytes.find("\nok rc=0\nok rc=0 bye\n"), std::string::npos)
        << cmd << ": " << shard.bytes;
  }

  const SessionOutput none =
      run_script("gen-fleet --trials 0\nsolve --study\nquit\n");
  EXPECT_EQ(none.rc, 0);
  EXPECT_EQ(data_rows(none.bytes), svc::StudyAggregate{}.summary_row() + "\n");
  EXPECT_NE(none.bytes.find("\"trials\":0"), std::string::npos);

  // `drop` forgets the built fleet: the empty-fleet error is back.
  const SessionOutput dropped =
      run_script("gen-fleet --trials 0\ndrop\nsolve --study\nquit\n");
  EXPECT_EQ(dropped.rc, 2);
}

// A failed sweep entry renders its error summary row and exits 1 on the
// wire, exactly as offline stdout and the journal do.
TEST(NetProto, FailedSweepEntryIsAnErrorRowWithRcOne) {
  const SessionOutput got =
      run_script(add_block("sys0") + "sweep --step 0\nquit\n");
  EXPECT_EQ(got.rc, 1);

  svc::AnalysisService service;
  add_paper_system(service, "sys0");
  core::SearchOptions search;
  search.p_min = 0.05;
  search.p_max = 3.5;
  search.grid_step = 0.0;
  const svc::RegionSweepResult r = service.region_sweep_one(
      0, {Scheduler::EDF, search, svc::AccuracyPolicy::fixed(0)});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(data_rows(got.bytes),
            svc::sweep_summary_row(r, Scheduler::EDF, /*with_wall=*/false)
                    .str() +
                "\n");
  EXPECT_NE(got.bytes.find("}\nok rc=1\n"), std::string::npos) << got.bytes;
}

// solve, minq and verify treat a failed entry as sweep does: its error row,
// the rest of the fleet, rc 1. Trial 28 of seed 5 does not pack.
TEST(NetProto, FailedSolveMinqVerifyEntriesAreErrorRowsAndTheFleetFinishes) {
  for (const char* cmd : {"solve", "minq --period 1.5",
                          "verify --period 1.5 --quanta 0.3,0.3,0.6"}) {
    const SessionOutput got = run_script(
        std::string("gen-fleet --trials 30 --seed 5\n") + cmd + "\nquit\n");
    EXPECT_EQ(got.rc, 1) << cmd;
    const std::vector<std::string> rows = lines_of(data_rows(got.bytes));
    ASSERT_EQ(rows.size(), 30u) << cmd << ": " << got.bytes;
    for (std::size_t t = 0; t < rows.size(); ++t) {
      EXPECT_EQ(svc::json_string_field(rows[t], "name").value_or(""),
                "trial" + std::to_string(t))
          << cmd;
      EXPECT_EQ(svc::json_string_field(rows[t], "error").has_value(), t == 28)
          << cmd << ": " << rows[t];
    }
    // No analysis ran, so the error ends the row: no provenance follows.
    EXPECT_TRUE(rows[28].ends_with(",\"error\":\"packing failed\"}"))
        << cmd << ": " << rows[28];
    EXPECT_NE(got.bytes.find("}\nok rc=1\n"), std::string::npos) << got.bytes;
  }
}

// A bisection whose tolerance lies below the spacing of doubles at its
// answer still ends: the exact minimum quantum of tasks written in
// nanoseconds (~2.5e7 here, where doubles lie 3.7e-9 apart) gets its row
// instead of spinning the session thread.
TEST(NetProto, ExactMinqAtNanosecondUnitsGetsItsRow) {
  const SessionOutput got = run_script(
      "add ns\nt1 1e8 4e8 FT 0\nt2 1e8 4e8 FS 0\nt3 1e8 4e8 NF 0\n.\n"
      "minq --period 1e8 --exact-supply\nquit\n");
  EXPECT_EQ(got.rc, 0);
  const std::vector<std::string> rows = lines_of(data_rows(got.bytes));
  ASSERT_EQ(rows.size(), 1u) << got.bytes;
  EXPECT_EQ(svc::json_string_field(rows[0], "kind").value_or(""),
            "min_quantum");
  EXPECT_FALSE(svc::json_string_field(rows[0], "error").has_value());
}

// --- wire-only surface ----------------------------------------------------

TEST(NetProto, OfflineOutputFlagsAreAcceptedAsNoOps) {
  const SessionOutput plain = run_script(add_block("s") + "solve\nquit\n");
  const SessionOutput flagged = run_script(
      add_block("s") + "solve --jsonl --stream --no-wall\nquit\n");
  EXPECT_EQ(flagged.rc, 0);
  EXPECT_EQ(data_rows(flagged.bytes), data_rows(plain.bytes))
      << "--jsonl/--stream/--no-wall describe what the wire always does";
}

TEST(NetProto, StatusAndDropManageTheFleet) {
  const SessionOutput got = run_script(add_block("a") + add_block("b") +
                                       "status\ndrop\nstatus\nquit\n");
  EXPECT_EQ(got.rc, 0);
  const std::string rows = data_rows(got.bytes);
  EXPECT_NE(rows.find("\"fleet\":2"), std::string::npos);
  EXPECT_NE(rows.find("\"fleet\":0"), std::string::npos);
  EXPECT_NE(rows.find("\"generated\":false"), std::string::npos);
  // gen-fleet works again after drop: the fleet really was reset.
  const SessionOutput regen = run_script(
      add_block("a") + "drop\ngen-fleet --trials 2\nstatus\nquit\n");
  EXPECT_EQ(regen.rc, 0);
  EXPECT_NE(data_rows(regen.bytes).find("\"generated\":true"),
            std::string::npos);
}

TEST(NetProto, StatusMemoRendersTheCacheCounters) {
  // Plain status stays byte-stable (no memo fields: the counters are
  // process-wide and would differ between otherwise identical sessions);
  // status --memo opts into the six memo_* fields.
  const SessionOutput plain = run_script("status\nquit\n");
  EXPECT_EQ(plain.rc, 0);
  EXPECT_EQ(data_rows(plain.bytes).find("memo_"), std::string::npos);

  const SessionOutput memo = run_script("status --memo\nquit\n");
  EXPECT_EQ(memo.rc, 0);
  const std::string rows = data_rows(memo.bytes);
  for (const char* field :
       {"\"memo_enabled\":", "\"memo_hits\":", "\"memo_misses\":",
        "\"memo_evictions\":", "\"memo_entries\":", "\"memo_bytes\":"}) {
    EXPECT_NE(rows.find(field), std::string::npos) << field;
  }
}

TEST(NetProto, StatusMemoCountsASolveAndItsRepeat) {
  svc::global_memo().set_enabled(true);
  svc::global_memo().clear();
  // Two identical solves in one session: the second is a memo hit, and
  // status --memo shows at least one hit and one insertion's worth of
  // bytes. (Counters are >=, not ==: the memo is process-wide.)
  const SessionOutput got = run_script(add_block("s") +
                                       "solve\nsolve\nstatus --memo\nquit\n");
  EXPECT_EQ(got.rc, 0);
  const std::string rows = data_rows(got.bytes);
  EXPECT_NE(rows.find("\"memo_enabled\":true"), std::string::npos);
  EXPECT_EQ(rows.find("\"memo_hits\":0,"), std::string::npos)
      << "the repeated solve must have hit";
  EXPECT_EQ(rows.find("\"memo_bytes\":0}"), std::string::npos);
  svc::global_memo().clear();
}

// One daemon, two sessions: session A verifies the solved Table 2(b)
// design, session B a schedule whose q_FS is less than 1e-9 short of it.
// B's question is not A's, so B must get the cold verdict (unschedulable),
// not A's answer from the process-wide memo.
TEST(NetProto, NearMissVerifyInASecondSessionGetsTheColdVerdict) {
  svc::global_memo().set_enabled(true);
  svc::global_memo().clear();
  const double o = 0.05 / 3;
  const core::Design d = core::solve_design(
      analysis::BatchEngine(
          io::parse_mode_task_system_string(kPaperTasks).system,
          Scheduler::EDF),
      {o, o, o}, core::DesignGoal::MinOverheadBandwidth);
  const auto verify = [&](double q_fs) {
    char cmd[160];
    std::snprintf(cmd, sizeof cmd,
                  "verify --period %.17g --quanta %.17g,%.17g,%.17g\n",
                  d.schedule.period, d.schedule.ft.usable, q_fs,
                  d.schedule.nf.usable);
    return run_script(add_block("paper") + cmd + "quit\n");
  };
  const SessionOutput a = verify(d.schedule.fs.usable);
  EXPECT_EQ(a.rc, 0);
  EXPECT_NE(data_rows(a.bytes).find("\"schedulable\":true"),
            std::string::npos);

  const SessionOutput b = verify(1.28136290551);
  EXPECT_EQ(b.rc, 1);
  EXPECT_NE(data_rows(b.bytes).find("\"schedulable\":false"),
            std::string::npos);
  EXPECT_NE(b.bytes.find("ok rc=1\n"), std::string::npos);
  svc::global_memo().clear();
}

TEST(NetProto, StatusRejectsUnknownFlags) {
  const SessionOutput got = run_script("status --bogus\nquit\n");
  const std::vector<WireStatus> st = statuses(got.bytes);
  ASSERT_GE(st.size(), 1u);
  EXPECT_TRUE(st[0].failed);
  EXPECT_NE(st[0].message.find("status"), std::string::npos);
}

// --- hostile input --------------------------------------------------------

TEST(NetProto, HostileCommandsErrorWithoutKillingTheSession) {
  const std::vector<std::string> bad = {
      "frobnicate",                  // unknown command
      "study",                       // the wire spells it `solve --study`
      "solve",                       // empty fleet
      "solve --budget xyz",          // malformed value
      "solve --wat",                 // unknown flag
      "solve tasks.txt",             // bare token: no file paths on the wire
      "solve --csv",                 // offline-only output format
      "solve --simulate 10",         // offline-only human-report flag
      "solve --trials 3",            // fleet flags belong to gen-fleet
      "sweep --output f.jsonl",      // offline-only journal flag
      "solve --study",               // study needs a generated fleet
      "minq --period 0",             // domain validation
      "verify --period 1",           // missing --quanta
      "gen-fleet --shard 0/2",       // malformed shard spec (1-based)
  };
  // fault::FaultModel's domain: rates and separations are finite and >= 0.
  // Sent with a fleet in place, so the error is the flag's own.
  const std::vector<std::string> bad_with_fleet = {
      "fault-sweep --rates -1",   "fault-sweep --rates nan",
      "fault-sweep --rates 0,inf", "fault-sweep --min-sep -1",
      "fault-sweep --min-sep nan",
  };
  std::string script;
  for (const std::string& cmd : bad) script += cmd + "\n";
  script += add_block("sys0");
  for (const std::string& cmd : bad_with_fleet) script += cmd + "\n";
  // Grid steps that cannot move the period (one ulp of 1e17 is 16, of the
  // automatic 3e17 64): a sweep and a solve are each their error row with
  // rc 1 -- never a hang or a truncated sweep.
  script += "sweep --p-max 1e17 --step 1e-3\n";
  script += "drop\nadd far\nt1 1 4 FT 0\nt2 1 4 FS 0\nt3 1 1e17 NF 0\n.\n";
  script += "solve\ndrop\n" + add_block("sys0");
  script += "solve\nquit\n";

  const SessionOutput got = run_script(script);
  EXPECT_EQ(got.rc, 2) << "errors dominate the session rc";
  const std::vector<WireStatus> st = statuses(got.bytes);
  // errors + add + errors + sweep + drop + add + solve + drop + add +
  // solve + quit
  ASSERT_EQ(st.size(), bad.size() + bad_with_fleet.size() + 9);
  for (std::size_t i = 0; i < bad.size(); ++i) {
    EXPECT_TRUE(st[i].failed) << "'" << bad[i] << "' must fail";
    EXPECT_FALSE(st[i].message.empty());
  }
  EXPECT_FALSE(st[bad.size()].failed) << "add";
  for (std::size_t i = 0; i < bad_with_fleet.size(); ++i) {
    const WireStatus& s = st[bad.size() + 1 + i];
    EXPECT_TRUE(s.failed) << "'" << bad_with_fleet[i] << "' must fail";
    const std::string flag =
        bad_with_fleet[i].substr(12, bad_with_fleet[i].find(' ', 12) - 12);
    EXPECT_NE(s.message.find(flag), std::string::npos)
        << s.message << " must name " << flag;
  }
  const std::size_t grid = bad.size() + 1 + bad_with_fleet.size();
  EXPECT_FALSE(st[grid].failed) << "sweep reports through its error row";
  EXPECT_EQ(st[grid].rc, 1);
  const WireStatus& far_solve = st[grid + 3];
  EXPECT_FALSE(far_solve.failed) << "solve reports through its error row";
  EXPECT_EQ(far_solve.rc, 1);
  // The session survived it all: the trailing solve still streams rows,
  // and no fault-sweep or sweep sample row slipped out.
  EXPECT_FALSE(st[st.size() - 2].failed);
  const std::string rows = data_rows(got.bytes);
  EXPECT_NE(rows.find("\"kind\":\"solve\""), std::string::npos);
  EXPECT_EQ(rows.find("fault_"), std::string::npos);
  EXPECT_EQ(rows.find("sweep_sample"), std::string::npos);
  EXPECT_NE(rows.find("\"error\":\"grid step 0.001 cannot move the period "
                      "at p_max 1e+17"),
            std::string::npos)
      << rows;
  EXPECT_NE(rows.find("{\"kind\":\"solve\",\"name\":\"far\",\"alg\":\"EDF\","
                      "\"goal\":\"min-overhead-bandwidth\",\"error\":\"grid "
                      "step 0.001 cannot move the period at p_max 3e+17"),
            std::string::npos)
      << rows;
}

// A triple flag's whole token must parse: trailing junk after the third
// number, or a fourth number, is an error line, not a truncated value.
TEST(NetProto, TripleFlagsRejectTrailingInput) {
  for (const std::string cmd :
       {"solve --overhead 0.01,0.01,0.01oops",
        "verify --period 3 --quanta 0.5,0.5,0.5,9"}) {
    const SessionOutput got =
        run_script(add_block("sys0") + cmd + "\nquit\n");
    EXPECT_EQ(got.rc, 2) << cmd;
    const std::vector<WireStatus> st = statuses(got.bytes);
    ASSERT_EQ(st.size(), 3u) << cmd;  // add, the command, quit
    EXPECT_TRUE(st[1].failed) << cmd;
    EXPECT_EQ(data_rows(got.bytes), "") << cmd << ": no rows on error";
  }
}

TEST(NetProto, GenFleetRefusesToMixWithAddedSystems) {
  const SessionOutput got =
      run_script(add_block("sys0") + "gen-fleet --trials 2\nquit\n");
  EXPECT_EQ(got.rc, 2);
  const std::vector<WireStatus> st = statuses(got.bytes);
  ASSERT_EQ(st.size(), 3u);
  EXPECT_TRUE(st[1].failed);
  EXPECT_NE(st[1].message.find("drop"), std::string::npos);
}

TEST(NetProto, AddWithoutTerminatorErrors) {
  // Stream ends mid-block: no terminating '.', so the add must fail --
  // and never hang waiting for more input.
  const SessionOutput got = run_script("add broken\ntau1 1 6 NF 0\n");
  EXPECT_EQ(got.rc, 2);
  const std::vector<WireStatus> st = statuses(got.bytes);
  ASSERT_EQ(st.size(), 1u);
  EXPECT_TRUE(st[0].failed);
  EXPECT_NE(st[0].message.find("terminating"), std::string::npos);
}

TEST(NetProto, AddWithAnOutOfRangeDeadlineNamesTheLineAndToken) {
  const SessionOutput got = run_script(
      "add bad\na 1 5 1e999 FT\nb 1 6 FS\n.\nstatus\n" + add_block("sys0") +
      "solve\nquit\n");
  EXPECT_EQ(got.rc, 2);
  const std::vector<WireStatus> st = statuses(got.bytes);
  ASSERT_EQ(st.size(), 5u);  // add, status, add, solve, quit
  EXPECT_TRUE(st[0].failed);
  EXPECT_EQ(st[0].message, "task file line 1: bad deadline '1e999'");
  EXPECT_FALSE(st[1].failed);
  EXPECT_NE(data_rows(got.bytes).find("\"fleet\":0"), std::string::npos)
      << "the failed add leaves the fleet empty";
  for (std::size_t i = 2; i < st.size(); ++i) EXPECT_FALSE(st[i].failed);
  EXPECT_NE(data_rows(got.bytes).find("\"kind\":\"solve\""),
            std::string::npos);
}

// A count never wraps: std::stoull reads "-1" as 2^64 - 1, so a negative
// --trials would hold the session generating trials, and a negative
// --budget would read as the largest budget.
TEST(NetProto, NegativeCountsAreErrors) {
  const SessionOutput got = run_script(
      "gen-fleet --trials -1\nstatus\n" + add_block("sys0") +
      "minq --period 2 --budget -1\nstatus\nquit\n");
  EXPECT_EQ(got.rc, 2);
  const std::vector<WireStatus> st = statuses(got.bytes);
  ASSERT_EQ(st.size(), 6u);  // gen-fleet, status, add, minq, status, quit
  EXPECT_TRUE(st[0].failed);
  EXPECT_EQ(st[0].message, "--trials: bad count '-1'");
  EXPECT_FALSE(st[1].failed);
  EXPECT_FALSE(st[2].failed);
  EXPECT_TRUE(st[3].failed);
  EXPECT_EQ(st[3].message, "--budget: bad count '-1'");
  EXPECT_FALSE(st[4].failed);
  EXPECT_EQ(data_rows(got.bytes).find("min_quantum"), std::string::npos);
}

TEST(NetProto, AddWithUnparsableTasksErrors) {
  const SessionOutput got =
      run_script("add junk\nthis is not a task line\n.\nstatus\nquit\n");
  EXPECT_EQ(got.rc, 2);
  // The failed add leaves the fleet empty and the session alive.
  EXPECT_NE(data_rows(got.bytes).find("\"fleet\":0"), std::string::npos);
}

TEST(NetProto, OversizedLinesAreRejectedButFramingSurvives) {
  const std::string huge(200, 'x');
  const SessionOutput got =
      run_script(huge + "\nstatus\nquit\n", /*max_line=*/64);
  EXPECT_EQ(got.rc, 2);
  const std::vector<WireStatus> st = statuses(got.bytes);
  ASSERT_EQ(st.size(), 3u);
  EXPECT_TRUE(st[0].failed);
  EXPECT_NE(st[0].message.find("exceeds"), std::string::npos);
  EXPECT_FALSE(st[1].failed) << "status must work after the oversized line";
  EXPECT_FALSE(st[2].failed);
}

TEST(NetProto, BlankLinesAreKeepAliveNoOps) {
  const SessionOutput got = run_script("\n\n   \nstatus\nquit\n");
  EXPECT_EQ(got.rc, 0);
  EXPECT_EQ(statuses(got.bytes).size(), 2u) << "blank lines emit nothing";
}

TEST(NetProto, VerifyUnschedulableIsRcOneNotError) {
  const SessionOutput got = run_script(
      add_block("sys0") +
      "verify --period 1 --quanta 0.01,0.01,0.01\nquit\n");
  EXPECT_EQ(got.rc, 1);
  const std::vector<WireStatus> st = statuses(got.bytes);
  ASSERT_EQ(st.size(), 3u);
  EXPECT_FALSE(st[1].failed) << "unschedulable is a verdict, not an error";
  EXPECT_EQ(st[1].rc, 1);
}

}  // namespace
}  // namespace flexrt::net::proto
