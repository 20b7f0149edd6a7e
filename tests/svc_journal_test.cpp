// Crash-safe journaled fleet execution: a journaled run's committed file is
// byte-identical to the streamed report, resume from any chop of the
// partial journal (terminal-row boundaries, torn lines, complete-looking
// unterminated lines, post-epilogue crashes) reproduces those bytes
// exactly while recomputing only the missing entries, a failed entry runs
// once and becomes its plain error row without losing the fleet -- and a
// child process SIGKILLed mid-study at several chop depths resumes to the
// uninterrupted bytes.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/annotations.hpp"
#include "common/error.hpp"
#include "common/fs.hpp"
#include "core/paper_example.hpp"
#include "core/study_runner.hpp"
#include "svc/analysis_service.hpp"
#include "svc/journal.hpp"
#include "svc/jsonl.hpp"
#include "svc/study_report.hpp"

namespace flexrt::svc {
namespace {

using hier::Scheduler;

/// The svc_stream_test fleet: 9 deterministic entries, trial 4 unpackable.
AnalysisService::SystemFactory test_factory() {
  return [](std::size_t t, Rng&) -> std::optional<core::ModeTaskSystem> {
    if (t == 4) return std::nullopt;
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

bool is_trial_row(std::string_view row) {
  return json_string_field(row, "kind").value_or("") == "study_trial";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << "cannot open " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void write_file(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(static_cast<bool>(out)) << "cannot write " << path;
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "flexrt_journal_" + name + "." +
         std::to_string(::getpid());
}

void remove_journal(const std::string& path) {
  fs::remove_file(path);
  fs::remove_file(path + ".partial");
}

/// Drives run_journaled exactly as `flexrt_design study --output` does:
/// study_trial rows per entry, the aggregate summary as the epilogue.
/// `executed` collects the entries that ran, in the order the pool's
/// workers reached them (run_journaled orders the rows, not the runs).
JournalStats journaled_study(const std::string& path,
                             const AnalysisService& service,
                             const SolveRequest& req,
                             const JournalOptions& opts,
                             std::vector<std::size_t>* executed = nullptr) {
  Journal journal(path);
  StudyAggregate agg;
  sys::Mutex executed_mu;
  return run_journaled(
      journal, service.size(), opts, is_trial_row,
      [&](std::string_view row) {
        if (is_trial_row(row)) agg.add(row);
      },
      [&](std::size_t i) {
        if (executed) {
          sys::MutexLock lock(executed_mu);
          executed->push_back(i);
        }
        return service.solve_one(i, req);
      },
      [&](const SolveResult& r) {
        const std::string row = study_trial_row(r, req.alg, req.goal);
        agg.add(row);
        return row + "\n";
      },
      [&agg] { return agg.summary_row() + "\n"; });
}

/// The uninterrupted reference: the streamed stdout report (rows +
/// summary), which journaled runs must match byte for byte.
std::string streamed_reference(const AnalysisService& service,
                               const SolveRequest& req) {
  std::ostringstream os;
  JsonlWriter out(os);
  StudyAggregate agg;
  service.run(req, [&](const SolveResult& r) {
    const std::string row = study_trial_row(r, req.alg, req.goal);
    out.write(row);
    agg.add(row);
  });
  out.write(agg.summary_row());
  return os.str();
}

// --- byte identity and resume ---------------------------------------------

TEST(Journal, CommittedRunMatchesTheStreamedReport) {
  AnalysisService service;
  service.add_fleet(whole_study(), test_factory());
  const SolveRequest req = solve_request();
  const std::string path = temp_path("bytes");
  remove_journal(path);

  const JournalStats stats =
      journaled_study(path, service, req, JournalOptions{});
  EXPECT_EQ(stats.entries, 9u);
  EXPECT_EQ(stats.executed, 9u);
  EXPECT_EQ(stats.replayed, 0u);
  EXPECT_EQ(read_file(path), streamed_reference(service, req));
  // Commit consumed the scratch journal.
  EXPECT_FALSE(fs::file_size(path + ".partial").has_value());
  remove_journal(path);
}

TEST(Journal, ResumeFromAnyChopIsByteIdentical) {
  AnalysisService service;
  service.add_fleet(whole_study(), test_factory());
  const SolveRequest req = solve_request();
  const std::string ref_path = temp_path("chop_ref");
  remove_journal(ref_path);
  journaled_study(ref_path, service, req, JournalOptions{});
  const std::string ref = read_file(ref_path);
  remove_journal(ref_path);
  ASSERT_GT(ref.size(), 0u);

  // Chop the journal at a stride of offsets (plus the first/last byte):
  // terminal-row boundaries, mid-row tears, and cuts that leave a
  // complete-looking but unterminated line all resume to the same bytes.
  std::vector<std::size_t> cuts = {0, 1, ref.size() - 1};
  for (std::size_t at = 131; at < ref.size(); at += 131) cuts.push_back(at);
  JournalOptions resume_opts;
  resume_opts.resume = true;
  const std::string path = temp_path("chop");
  for (const std::size_t cut : cuts) {
    remove_journal(path);
    write_file(path + ".partial", std::string_view(ref).substr(0, cut));
    const JournalStats stats =
        journaled_study(path, service, req, resume_opts);
    EXPECT_EQ(read_file(path), ref) << "cut at byte " << cut;
    EXPECT_EQ(stats.replayed + stats.executed, 9u) << "cut at byte " << cut;
  }
  remove_journal(path);
}

TEST(Journal, UnterminatedFinalLineIsDiscardedEvenWhenComplete) {
  AnalysisService service;
  service.add_fleet(whole_study(), test_factory());
  const SolveRequest req = solve_request();
  const std::string ref_path = temp_path("torn_ref");
  remove_journal(ref_path);
  journaled_study(ref_path, service, req, JournalOptions{});
  const std::string ref = read_file(ref_path);
  remove_journal(ref_path);

  // Cut exactly before the third row's newline: the last line scans as a
  // complete {...} row, but without its terminator it could be a prefix of
  // a row whose tail was lost -- recovery must drop it, and determinism
  // re-emits it byte-identically.
  std::size_t nl = 0;
  for (int i = 0; i < 3; ++i) nl = ref.find('\n', nl + 1);
  const std::string path = temp_path("torn");
  remove_journal(path);
  write_file(path + ".partial", std::string_view(ref).substr(0, nl));

  Journal journal(path);
  std::size_t replayed = 0;
  const Journal::Recovery rec = journal.recover(
      is_trial_row, [&](std::string_view) { ++replayed; });
  EXPECT_FALSE(rec.committed);
  EXPECT_EQ(rec.completed, 2u) << "row without '\\n' must not count";
  EXPECT_EQ(replayed, 2u);
  remove_journal(path);
}

TEST(Journal, CrashAfterEpilogueBeforeRenameReemitsTheSummary) {
  AnalysisService service;
  service.add_fleet(whole_study(), test_factory());
  const SolveRequest req = solve_request();
  const std::string ref_path = temp_path("epi_ref");
  remove_journal(ref_path);
  journaled_study(ref_path, service, req, JournalOptions{});
  const std::string ref = read_file(ref_path);
  remove_journal(ref_path);

  // The deadliest near-miss: every row including the summary hit the disk,
  // only the rename was lost. The summary is not entry-terminal, so resume
  // truncates it, recomputes the aggregate from the replayed rows, and
  // appends it again -- no double summary, no missing summary.
  const std::string path = temp_path("epi");
  remove_journal(path);
  write_file(path + ".partial", ref);
  JournalOptions resume_opts;
  resume_opts.resume = true;
  const JournalStats stats = journaled_study(path, service, req, resume_opts);
  EXPECT_EQ(stats.replayed, 9u);
  EXPECT_EQ(stats.executed, 0u);
  EXPECT_FALSE(stats.already_complete);
  EXPECT_EQ(read_file(path), ref);
  remove_journal(path);
}

TEST(Journal, ResumeSkipsCompletedEntriesAndCommittedOutputIsANoOp) {
  AnalysisService service;
  service.add_fleet(whole_study(), test_factory());
  const SolveRequest req = solve_request();
  const std::string ref_path = temp_path("skip_ref");
  remove_journal(ref_path);
  journaled_study(ref_path, service, req, JournalOptions{});
  const std::string ref = read_file(ref_path);
  remove_journal(ref_path);

  // Chop at the 3rd terminal-row boundary: exactly entries [0, 3) survive.
  std::size_t nl = std::string::npos;
  for (int i = 0; i < 3; ++i) nl = ref.find('\n', nl + 1);
  const std::string path = temp_path("skip");
  remove_journal(path);
  write_file(path + ".partial", std::string_view(ref).substr(0, nl + 1));

  JournalOptions resume_opts;
  resume_opts.resume = true;
  std::vector<std::size_t> executed;
  const JournalStats stats =
      journaled_study(path, service, req, resume_opts, &executed);
  EXPECT_EQ(stats.replayed, 3u);
  EXPECT_EQ(stats.executed, 6u);
  std::sort(executed.begin(), executed.end());
  EXPECT_EQ(executed, (std::vector<std::size_t>{3, 4, 5, 6, 7, 8}));
  EXPECT_EQ(read_file(path), ref);

  // Resuming the committed output replays, recomputes nothing, and leaves
  // the bytes alone.
  executed.clear();
  const JournalStats again =
      journaled_study(path, service, req, resume_opts, &executed);
  EXPECT_TRUE(again.already_complete);
  EXPECT_EQ(again.replayed, 9u);
  EXPECT_EQ(again.executed, 0u);
  EXPECT_TRUE(executed.empty());
  EXPECT_EQ(read_file(path), ref);
  remove_journal(path);
}

TEST(Journal, ResumingADifferentRunIsRejected) {
  AnalysisService service;
  service.add_fleet(whole_study(), test_factory());
  const SolveRequest req = solve_request();
  const std::string big_path = temp_path("mismatch_ref");
  remove_journal(big_path);
  journaled_study(big_path, service, req, JournalOptions{});
  const std::string big = read_file(big_path);
  remove_journal(big_path);

  // A 9-entry journal against a 2-entry fleet: the guard must fire before
  // anything is truncated or recomputed.
  AnalysisService small;
  core::StudyOptions two = whole_study();
  two.trials = 2;
  small.add_fleet(two, test_factory());
  const std::string path = temp_path("mismatch");
  remove_journal(path);
  write_file(path + ".partial", big);
  JournalOptions resume_opts;
  resume_opts.resume = true;
  EXPECT_THROW(journaled_study(path, small, req, resume_opts), Error);
  remove_journal(path);
}

TEST(Journal, CountTerminalRowsIgnoresTornTails) {
  const std::string text =
      "{\"kind\":\"study_trial\",\"trial\":0}\n"
      "{\"kind\":\"study_summary\"}\n"
      "{\"kind\":\"study_trial\",\"trial\":1}\n"
      "{\"kind\":\"study_trial\",\"tri";  // torn: no newline
  EXPECT_EQ(count_terminal_rows(text, is_trial_row), 2u);
  EXPECT_EQ(count_terminal_rows("", is_trial_row), 0u);
}

TEST(Journal, GeneratorExceptionLeavesAResumablePartial) {
  // A generator that throws fails the journaled run with its exception:
  // the rows of earlier entries are already in the .partial, no final file
  // appears, and a resume completes the run to the uninterrupted bytes,
  // generating only the entries it executes.
  const std::string path = temp_path("generator_throw");
  remove_journal(path);
  const SolveRequest req = solve_request();
  {
    AnalysisService failing;
    failing.add_fleet(whole_study(), [](std::size_t t, Rng& rng) {
      if (t == 6) throw std::runtime_error("generator failed at trial 6");
      return test_factory()(t, rng);
    });
    try {
      journaled_study(path, failing, req, {});
      ADD_FAILURE() << "the journaled run returned";
    } catch (const std::runtime_error& err) {
      EXPECT_STREQ(err.what(), "generator failed at trial 6");
    }
  }
  EXPECT_FALSE(std::ifstream(path).good()) << "a failed run committed";
  EXPECT_EQ(count_terminal_rows(read_file(path + ".partial"), is_trial_row),
            6u);

  std::atomic<std::size_t> generated{0};
  AnalysisService service;
  service.add_fleet(whole_study(), [&](std::size_t t, Rng& rng) {
    generated.fetch_add(1);
    return test_factory()(t, rng);
  });
  JournalOptions resume;
  resume.resume = true;
  const JournalStats stats = journaled_study(path, service, req, resume);
  EXPECT_EQ(stats.replayed, 6u);
  EXPECT_EQ(stats.executed, 3u);
  EXPECT_EQ(generated.load(), 3u);
  AnalysisService reference;
  reference.add_fleet(whole_study(), test_factory());
  EXPECT_EQ(read_file(path), streamed_reference(reference, req));
  remove_journal(path);
}

// --- failed entries ------------------------------------------------------

TEST(Journal, FailedEntriesArePlainErrorRows) {
  // A failed entry is computed once and journaled as its error row: no
  // second execution, no retry provenance, the bytes of the streamed
  // report. Trial 2 fails in its analysis, trial 4 in its packing.
  AnalysisService service;
  service.add_fleet(whole_study(), test_factory());
  std::atomic<std::size_t> faults{0};
  service.set_probe_hook([&](std::size_t entry, std::size_t) {
    if (entry == 2) {
      faults.fetch_add(1);
      throw ModelError("injected fault");
    }
  });
  const SolveRequest req = solve_request();
  const std::string path = temp_path("errors");
  remove_journal(path);
  const JournalStats stats =
      journaled_study(path, service, req, JournalOptions{});
  EXPECT_EQ(faults.load(), 1u) << "a failed entry runs once";
  EXPECT_EQ(stats.executed, 9u);

  const std::string report = read_file(path);
  std::istringstream in(report);
  std::string line;
  std::vector<double> error_trials;
  while (std::getline(in, line)) {
    if (!json_string_field(line, "error")) continue;
    error_trials.push_back(json_number_field(line, "trial").value_or(-1));
    EXPECT_EQ(line.find("\"attempts\""), std::string::npos) << line;
    EXPECT_EQ(line.find("\"quarantined\""), std::string::npos) << line;
  }
  EXPECT_EQ(error_trials, (std::vector<double>{2.0, 4.0}));
  EXPECT_NE(report.find("injected fault"), std::string::npos);
  EXPECT_EQ(report, streamed_reference(service, req));
  remove_journal(path);
}

// --- JsonlWriter stream-state check ---------------------------------------

TEST(JsonlWriter, ThrowsWhenTheStreamGoesBad) {
  // An unopened ofstream fails every write: the writer must surface the
  // failure at the failing row, naming the stream, instead of silently
  // dropping the report.
  std::ofstream dead;
  JsonlWriter out(dead, /*flush_per_row=*/false, "report.jsonl");
  try {
    out.write("{\"kind\":\"probe\"}");
    FAIL() << "write on a bad stream must throw";
  } catch (const ModelError& e) {
    EXPECT_NE(std::string(e.what()).find("report.jsonl"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("after 0 rows"), std::string::npos);
  }
  EXPECT_EQ(out.rows_written(), 0u);
}

// --- SIGKILL crash injection ----------------------------------------------

/// Child half of the crash harness: runs a slow-paced journaled study and
/// is SIGKILLed by the parent somewhere mid-stream. Skips (instead of
/// running a pointless study) unless the parent's environment is present.
TEST(JournalCrashChild, Run) {
  const char* out = std::getenv("FLEXRT_JOURNAL_CHILD_OUT");
  if (!out) GTEST_SKIP() << "not under the crash harness";
  AnalysisService service;
  service.add_fleet(whole_study(), test_factory());
  // ~40ms per entry paces the journal so the parent can aim its kill at a
  // specific chop depth.
  service.set_probe_hook([](std::size_t, std::size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
  });
  JournalOptions opts;
  opts.fsync_per_entry = true;
  journaled_study(out, service, solve_request(), opts);
}

TEST(JournalCrash, KillMidStudyThenResumeByteIdentical) {
  // Reference bytes from an uninterrupted in-process run.
  AnalysisService service;
  service.add_fleet(whole_study(), test_factory());
  const SolveRequest req = solve_request();
  const std::string ref = streamed_reference(service, req);

  for (const std::size_t depth : {2u, 5u, 8u}) {
    const std::string path = temp_path("kill" + std::to_string(depth));
    remove_journal(path);

    // Child: re-exec this binary filtered to the paced child test, single
    // worker thread so the journal grows one entry at a time. fork+exec
    // (not bare fork): par::thread_count() reads FLEXRT_THREADS once per
    // process, so only a fresh image sees the child's value.
    ::setenv("FLEXRT_JOURNAL_CHILD_OUT", path.c_str(), 1);
    ::setenv("FLEXRT_THREADS", "1", 1);
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      ::execl("/proc/self/exe", "flexrt_tests",
              "--gtest_filter=JournalCrashChild.Run",
              static_cast<char*>(nullptr));
      ::_exit(127);  // exec failed
    }
    ::unsetenv("FLEXRT_JOURNAL_CHILD_OUT");
    ::unsetenv("FLEXRT_THREADS");

    // Kill the instant the partial journal holds `depth` completed
    // entries. The poll may observe a torn tail -- that is the point.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    bool reached = false;
    while (std::chrono::steady_clock::now() < deadline) {
      std::ifstream in(path + ".partial", std::ios::binary);
      if (in) {
        std::ostringstream os;
        os << in.rdbuf();
        if (count_terminal_rows(os.str(), is_trial_row) >= depth) {
          reached = true;
          break;
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ::kill(pid, SIGKILL);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(reached) << "child never reached chop depth " << depth;
    ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
        << "child finished before the kill landed; depth " << depth
        << " is not mid-stream";
    ASSERT_FALSE(fs::file_size(path).has_value())
        << "a killed run must never have published the final file";

    // Resume in-process and demand the uninterrupted bytes.
    JournalOptions resume_opts;
    resume_opts.resume = true;
    const JournalStats stats =
        journaled_study(path, service, req, resume_opts);
    EXPECT_FALSE(stats.already_complete);
    EXPECT_GE(stats.replayed, depth);
    EXPECT_LT(stats.replayed, 9u) << "kill landed too late to test resume";
    EXPECT_EQ(read_file(path), ref) << "chop depth " << depth;
    remove_journal(path);
  }
}

// --- cooperative interrupts (SIGINT/SIGTERM -> exit 4) --------------------

TEST(JournalInterrupt, StopFlagFinishesInFlightEntryAndLeavesResumablePartial) {
  AnalysisService service;
  service.add_fleet(whole_study(), test_factory());
  const SolveRequest req = solve_request();
  const std::string ref = streamed_reference(service, req);
  const std::string path = temp_path("interrupt");

  // Raise the stop flag from inside entry 3's run_one -- the deterministic
  // stand-in for a SIGTERM landing mid-entry. The entry must still finish
  // and be journaled; the run reports interrupted instead of committing.
  std::atomic<bool> stop{false};
  {
    Journal journal(path);
    StudyAggregate agg;
    JournalOptions opts;
    opts.stop = &stop;
    // One entry in flight at a time. With a wider window the memo-hit
    // entries finish in microseconds, and the other workers can start
    // every remaining entry before entry 3 raises the flag.
    opts.window = 1;
    const JournalStats stats = run_journaled(
        journal, service.size(), opts, is_trial_row,
        [&](std::string_view row) {
          if (is_trial_row(row)) agg.add(row);
        },
        [&](std::size_t i) {
          if (i == 3) stop.store(true);
          return service.solve_one(i, req);
        },
        [&](const SolveResult& r) {
          const std::string row = study_trial_row(r, req.alg, req.goal);
          agg.add(row);
          return row + "\n";
        },
        [&agg] { return agg.summary_row() + "\n"; });
    EXPECT_TRUE(stats.interrupted);
    EXPECT_LT(stats.executed, 9u) << "the stop must cut the fleet short";
  }
  ASSERT_FALSE(fs::file_size(path).has_value())
      << "an interrupted run must not publish the committed file";
  ASSERT_TRUE(fs::file_size(path + ".partial").has_value())
      << "the durable prefix lives in the .partial";

  // Clearing the flag and resuming produces the uninterrupted bytes.
  stop.store(false);
  JournalOptions resume_opts;
  resume_opts.resume = true;
  resume_opts.stop = &stop;
  const JournalStats stats = journaled_study(path, service, req, resume_opts);
  EXPECT_FALSE(stats.interrupted);
  EXPECT_GT(stats.replayed, 0u);
  EXPECT_EQ(read_file(path), ref);
  remove_journal(path);
}

TEST(JournalInterrupt, PreRaisedStopInterruptsBeforeAnyWork) {
  AnalysisService service;
  service.add_fleet(whole_study(), test_factory());
  const std::string path = temp_path("interrupt_pre");
  std::atomic<bool> stop{true};
  JournalOptions opts;
  opts.stop = &stop;
  std::vector<std::size_t> executed;
  const JournalStats stats =
      journaled_study(path, service, solve_request(), opts, &executed);
  EXPECT_TRUE(stats.interrupted);
  EXPECT_TRUE(executed.empty()) << "no entry may start under a raised flag";
  remove_journal(path);
}

}  // namespace
}  // namespace flexrt::svc
