#pragma once

#include <array>
#include <cstddef>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/design.hpp"
#include "core/integration.hpp"
#include "core/study_runner.hpp"
#include "hier/sched_test.hpp"
#include "svc/analysis_service.hpp"
#include "svc/journal.hpp"

namespace flexrt::net::proto {

/// The flexrtd wire protocol: a line-oriented command language over any
/// iostream pair -- a socket in the daemon, stringstreams in the unit
/// tests. One tested contract serves every front-end (the MAGPIE
/// cmd_api pattern): the offline flexrt_design subcommands, the resident
/// daemon, and the `flexrt_design remote` client all parse flags with the
/// same CommonOpts machinery and render rows with the same svc/rows
/// renderers, so their reports are byte-identical by construction (and
/// CI-diffed to stay that way).
///
/// Framing (all lines '\n'-terminated, CRLF tolerated):
///
///   client -> server: one command per line,
///       add <name>            followed by task-file lines, ended by "."
///       gen-fleet [--trials N] [--seed S] [--shard k/N]
///       solve  [--study] [common flags]
///       minq   --period P [--exact-supply] [common flags]
///       sweep  [--p-min P] [--p-max P] [--step dP] [common flags]
///       verify --period P --quanta a,b,c [--exact-supply] [common flags]
///       fault-sweep [--rates r1,r2,..] [--min-sep S] [--no-baselines]
///                   [--exact-supply] [common flags]
///       drop | status [--memo] | quit
///
///   server -> client: zero or more JSONL data rows (lines starting with
///       '{', byte-identical to the offline subcommand's --jsonl --no-wall
///       report), then exactly one status line:
///       ok rc=<N> [key=value ...]     command done, offline exit code N
///       error <message>               command failed (offline exit code 2);
///                                     the session stays usable
///
/// Wire rows are always JSONL and always wall-free: remote reports must be
/// deterministic so clients, tests and CI can byte-diff them against the
/// offline tool. --jsonl/--stream/--no-wall are therefore accepted as
/// no-ops; --csv and the journal flags are rejected (they are offline
/// concerns). Sessions are independent: each owns its fleet, while all of
/// them share the process-wide par::parallel_for pool. Results stream to
/// the client in entry order through the same svc ResultSink /
/// par::ordered_stream path as --stream, so per-client memory stays
/// bounded by the reorder window, not the fleet size.

/// Hard cap on one wire line. Longer lines are consumed to their newline
/// (framing survives) but reported truncated, and the command is rejected
/// -- a hostile client cannot balloon session memory.
inline constexpr std::size_t kMaxLineBytes = std::size_t{1} << 16;

/// Hard cap on the task lines of one `add` block.
inline constexpr std::size_t kMaxAddLines = std::size_t{1} << 20;

/// Strict numeric flag values: the whole token must parse, so typos like
/// "--budget 64k" or "--adaptive xyz" are input errors (offline exit 2 /
/// wire `error`), not silently truncated values.
double parse_num(const char* flag, const std::string& v);
std::size_t parse_size(const char* flag, const std::string& v);

/// "a,b,c" -> exactly three strict numbers (parse_num_list); anything
/// else -- a bad token, trailing junk, two or four values -- throws
/// naming the flag.
std::array<double, 3> parse_triple(const char* flag, const std::string& spec);

/// Comma-separated strict numbers ("0,0.01,0.1"); every token must parse
/// (parse_num), so a malformed list throws naming the flag.
std::vector<double> parse_num_list(const char* flag, const std::string& spec);

/// Re-exposes tokenized arguments in the argc/argv shape the shared flag
/// parsers (parse_common_flag, core::parse_study_flag) consume.
struct ArgVec {
  explicit ArgVec(const std::vector<std::string>& args) : owned(args) {
    for (std::string& s : owned) ptrs.push_back(s.data());
  }
  int argc() const { return static_cast<int>(ptrs.size()); }
  char** argv() { return ptrs.data(); }
  std::vector<std::string> owned;
  std::vector<char*> ptrs;
};

/// Flags shared by every analysis request -- one parser for the offline
/// subcommands, the wire protocol, and the remote client, so the three
/// fronts cannot drift. The accuracy knobs are kept as raw fields so
/// --budget/--budget-cap/--adaptive compose in any flag order; accuracy()
/// assembles the policy after parsing.
struct CommonOpts {
  std::vector<std::string> files;
  hier::Scheduler alg = hier::Scheduler::EDF;
  core::DesignGoal goal = core::DesignGoal::MinOverheadBandwidth;
  core::Overheads overheads{0.0, 0.0, 0.0};
  double adaptive_tol = -1.0;  ///< >= 0: adaptive accuracy requested
  std::size_t budget = 0;      ///< fixed budget / ladder seed; 0 = default
  std::size_t budget_cap = 0;  ///< adaptive ladder cap; 0 = default
  double deadline_ms = 0.0;    ///< per-entry wall budget; > 0 activates
  bool jsonl = false;
  bool csv = false;
  bool stream = false;  ///< stream rows as entries finish (study, sweep)
  bool no_wall = false;  ///< omit wall_ms from JSONL rows (deterministic
                         ///< output -- what the wire always does)
  std::string output;   ///< journaled run target file ("" = stdout report)
  bool resume = false;  ///< recover an interrupted journal before running
  std::size_t retries = 0;  ///< extra executions per failing entry
  bool fsync = false;       ///< fsync the journal after every entry

  svc::AccuracyPolicy accuracy() const {
    svc::AccuracyPolicy p;
    if (adaptive_tol < 0.0) {
      p = svc::AccuracyPolicy::fixed(budget);
    } else {
      p = svc::AccuracyPolicy::adaptive(adaptive_tol);
      if (budget) p.initial_points = budget;
      if (budget_cap) p.max_points = budget_cap;
    }
    if (deadline_ms > 0.0) p = p.with_deadline(deadline_ms);
    return p;
  }

  bool journaled() const noexcept { return !output.empty(); }

  /// The journal knobs require --output; true when the combination parses.
  /// Journaled reports are JSONL by construction, so --output implies
  /// --jsonl (checked by the caller after parsing, hence non-const).
  bool finish_journal_flags() {
    if (!journaled()) return !resume && retries == 0 && !fsync;
    jsonl = true;
    return true;
  }

  svc::JournalOptions journal_options() const {
    svc::JournalOptions jopts;
    jopts.resume = resume;
    jopts.fsync_per_entry = fsync;
    jopts.retry.max_attempts = retries + 1;
    return jopts;
  }
};

/// Consumes one shared flag at argv[i]; returns -1 when the flag did not
/// match, 0 on success, 2 on a malformed value.
int parse_common_flag(CommonOpts& o, int argc, char** argv, int& i);

/// Splits a command line into whitespace-separated tokens.
std::vector<std::string> split_tokens(const std::string& line);

/// Reads one '\n'-terminated line (CR stripped), consuming but not storing
/// bytes past `max_bytes` and reporting the overflow via *truncated.
/// Returns nullopt on end-of-stream with nothing read. A final unterminated
/// line is returned as-is (stdin-style tolerance; the socket framing always
/// terminates lines).
std::optional<std::string> read_line(std::istream& in, std::size_t max_bytes,
                                     bool* truncated);

/// A parsed server status line: `ok rc=<N> ...` or `error <message>`.
/// Returns nullopt for anything else (i.e. a data row).
struct WireStatus {
  bool failed = false;  ///< true for `error` lines
  int rc = 0;           ///< offline exit code (2 for `error` lines)
  std::string message;  ///< the `error` line's text
};
std::optional<WireStatus> parse_status_line(const std::string& line);

/// One protocol session: owns a per-client fleet (svc::AnalysisService),
/// executes commands read from an istream, and writes data rows plus
/// status lines to an ostream. Transport-agnostic by construction -- the
/// unit tests drive it over stringstreams, the server over socket streams.
class Session {
 public:
  explicit Session(std::ostream& out, std::size_t max_line = kMaxLineBytes);
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Reads and executes commands until `quit`, end-of-stream, or a dead
  /// output stream. Returns the maximum per-command rc seen (0 when every
  /// command succeeded) -- the session-level exit code `remote` reports.
  int run(std::istream& in);

  /// Executes one already-read command line (an `add` block's body lines
  /// are read from `in`). Returns the command's rc and sets `quit` on the
  /// quit command. Never throws: failures become `error` status lines.
  int handle_line(const std::string& line, std::istream& in, bool& quit);

  std::size_t fleet_size() const noexcept;

 private:
  int dispatch(const std::vector<std::string>& tokens, std::istream& in,
               bool& quit);
  int cmd_add(const std::vector<std::string>& args, std::istream& in);
  int cmd_gen_fleet(const std::vector<std::string>& args);
  int cmd_solve(const std::vector<std::string>& args);
  int cmd_minq(const std::vector<std::string>& args);
  int cmd_sweep(const std::vector<std::string>& args);
  int cmd_verify(const std::vector<std::string>& args);
  int cmd_fault_sweep(const std::vector<std::string>& args);
  int cmd_status(const std::vector<std::string>& args);

  void require_fleet() const;
  void ok_line(int rc, const std::string& extras = {});
  void error_line(const std::string& message);

  std::ostream& out_;
  std::size_t max_line_;
  std::unique_ptr<svc::AnalysisService> service_;
  bool generated_ = false;     ///< fleet came from gen-fleet (pure)
  core::StudyOptions study_{};  ///< the gen-fleet options (when generated_)
};

}  // namespace flexrt::net::proto
