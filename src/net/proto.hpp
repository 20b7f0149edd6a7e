#pragma once

#include <array>
#include <cstddef>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "core/design.hpp"
#include "core/integration.hpp"
#include "core/study_runner.hpp"
#include "hier/sched_test.hpp"
#include "svc/analysis_service.hpp"
#include "svc/study_report.hpp"

namespace flexrt::net::proto {

/// The flexrtd wire protocol and the analysis command layer every front
/// end shares. The six analysis commands -- solve, minq, sweep, verify,
/// fault-sweep and study -- are defined once, in the command table behind
/// parse_command: each entry holds the flags the command takes beyond
/// CommonOpts, its defaults, the typed svc request it builds, the JSONL rows
/// one fleet entry renders (Rows) and its exit-code rule. The offline
/// flexrt_design subcommands, the resident daemon's Session and the
/// `flexrt_design remote` client all parse and render through that table,
/// so their reports are byte-identical by construction (and CI-diffed to
/// stay that way).
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
/// no-ops; --csv, the journal flags and solve's human-report flags are
/// rejected (they are offline concerns). `solve --study` is the wire
/// spelling of the study command. Sessions are independent: each owns its
/// fleet, while all of them share the process-wide par::parallel_for pool.
/// Results stream to the client in entry order through
/// svc::AnalysisService::run (par::ordered_stream), the one fleet path
/// every front end uses, so per-client memory stays bounded by the reorder
/// window, not the fleet size.

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
/// `base` 0 takes any C base ("0x5EED" seeds).
std::size_t parse_size(const char* flag, const std::string& v, int base = 10);

/// "a,b,c" -> exactly three strict numbers (parse_num_list); anything
/// else -- a bad token, trailing junk, two or four values -- throws
/// naming the flag.
std::array<double, 3> parse_triple(const char* flag, const std::string& spec);

/// Comma-separated strict numbers ("0,0.01,0.1"); every token must parse
/// (parse_num), so a malformed list throws naming the flag.
std::vector<double> parse_num_list(const char* flag, const std::string& spec);

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
  bool stream = false;  ///< flush each JSONL row as it is written
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
};

// --- the analysis command table --------------------------------------------

enum class CommandId { Solve, Minq, Sweep, Verify, FaultSweep, Study };

/// Where a command line comes from. Offline: file operands, fleet flags and
/// the offline-only output flags. Remote: files and fleet flags (which
/// `remote` turns into `add`/`gen-fleet`), but nothing offline-only. Wire:
/// flags only -- the session owns the fleet.
enum class Front { Offline, Remote, Wire };

/// The typed request of a parsed command (study builds a SolveRequest).
using Request = std::variant<svc::SolveRequest, svc::MinQuantumRequest,
                             svc::RegionSweepRequest, svc::VerifyRequest,
                             svc::FaultSweepRequest>;

struct Invocation;

/// One command-line flag: where it may appear and what it sets.
struct Flag {
  enum Kind {
    Forward,  ///< request flag: every front; `remote` forwards it
    Fleet,    ///< --trials/--seed/--shard: offline and remote (gen-fleet)
    Offline,  ///< output and journal flags: offline only
    Report,   ///< solve's human-report flags: offline, not with --jsonl
  };
  const char* name;
  Kind kind;
  bool valued;
  void (*apply)(Invocation& inv, const char* name, const std::string& value);
};

/// One analysis command, defined once for every front end.
struct Command {
  CommandId id;
  const char* name;      ///< offline and `remote` subcommand
  const char* wire;      ///< the wire command line that runs it
  const char* terminal;  ///< kind of the row that closes each entry
  bool journal;          ///< takes --output/--resume/--retries/--fsync
  /// Exit-code rule, read off each terminal row: `verdict` false exits 1,
  /// and so does an error row when `error_rows` (a failed solve, minq or
  /// verify entry stops the command instead; study rows are data). A
  /// quarantined row of a journaled run exits 3.
  const char* verdict;  ///< "feasible", "schedulable", or nullptr
  bool error_rows;
  std::vector<Flag> flags;     ///< beyond the common ones
  Request request;             ///< the request's defaults
  core::Overheads overheads;   ///< the --overhead default
  void (*check)(const Invocation& inv);  ///< required flags, or nullptr
};

/// One parsed analysis command line.
struct Invocation {
  const Command* command = nullptr;
  CommonOpts common;
  core::StudyOptions study;  ///< the generated fleet (when generated)
  bool generated = false;    ///< the fleet is a generated trial study
  Request request;
  std::vector<std::string> given;      ///< every flag seen, in order
  std::vector<std::string> wire_args;  ///< the Forward flags, with values
  // solve's human report (offline, non-JSONL)
  bool sensitivity = false;
  bool response_times = false;
  double simulate_horizon = 0.0;
  double fault_rate = 0.0;
  std::size_t trace = 0;

  bool has(std::string_view flag) const;  ///< `flag` was given

  /// Binds a generated fleet: its study options, and (fault-sweep) the
  /// study search grid. The Session calls it for gen-fleet fleets;
  /// parse_command for offline --trials.
  void use_generated(const core::StudyOptions& s);
};

/// The table entry named `name` (offline/remote spelling); nullptr when
/// `name` is not an analysis command.
const Command* find_command(std::string_view name);

/// Parses `name args...` through the command table. Throws ModelError
/// naming the command or flag it rejects: an unknown command or flag, a
/// malformed or missing value, a flag the front does not take, or a
/// missing required flag or fleet.
Invocation parse_command(const std::string& name,
                         const std::vector<std::string>& args, Front front);

/// Renders a command's fleet entries as JSONL rows and folds the exit code
/// they imply: the one row and rc path of every output -- the wire, offline
/// stdout and the journal, and underneath the human printers. Entries must
/// arrive in entry order.
class Rows {
 public:
  Rows(const Invocation& inv, bool with_wall)
      : inv_(inv), with_wall_(with_wall) {}

  /// One entry's rows, terminal row last; folded into rc() (and, for
  /// study, the summary aggregate). A failed solve, minq or verify entry
  /// throws ModelError: those commands stop (exit 2, wire `error`). A
  /// failed sweep, fault-sweep or study entry renders its error row.
  std::vector<std::string> entry(const svc::SolveResult& r);
  std::vector<std::string> entry(const svc::MinQuantumResult& r);
  std::vector<std::string> entry(const svc::RegionSweepResult& r);
  std::vector<std::string> entry(const svc::VerifyResult& r);
  std::vector<std::string> entry(const svc::FaultSweepResult& r);

  /// True when `row` closes an entry (the command's terminal kind).
  bool terminal(std::string_view row) const;
  /// Folds one terminal row into rc() -- a fresh one, or one a resumed
  /// journal replays -- by the command's exit-code rule.
  void fold(std::string_view row);
  /// The row after the last entry: an unsharded study's summary.
  std::optional<std::string> summary() const;
  /// The study_trial rows folded so far (study only).
  const svc::StudyAggregate& aggregate() const noexcept { return agg_; }
  int rc() const noexcept { return rc_; }

 private:
  std::vector<std::string> close(std::vector<std::string> rows);

  const Invocation& inv_;
  bool with_wall_;
  int rc_ = 0;
  svc::StudyAggregate agg_;
};

/// Runs the invocation's request over the fleet, handing each result to
/// `fn` in entry order (svc::AnalysisService::run).
template <typename Fn>
svc::StreamStats for_each_entry(const Invocation& inv,
                                const svc::AnalysisService& service, Fn&& fn) {
  return std::visit([&](const auto& req) { return service.run(req, fn); },
                    inv.request);
}

/// Runs the invocation and writes its JSONL rows (plus an unsharded study's
/// summary) to `out`; returns the command's exit code. The wire and offline
/// --jsonl output both run through here.
int write_rows(const Invocation& inv, const svc::AnalysisService& service,
               std::ostream& out, bool with_wall, bool flush_per_row);

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

 private:
  int dispatch(const std::vector<std::string>& tokens, std::istream& in,
               bool& quit);
  int cmd_add(const std::vector<std::string>& args, std::istream& in);
  int cmd_gen_fleet(const std::vector<std::string>& args);
  int cmd_analysis(const std::string& name, std::vector<std::string> args);
  int cmd_status(const std::vector<std::string>& args);

  void ok_line(int rc, const std::string& extras = {});
  void error_line(std::string message);

  std::ostream& out_;
  std::size_t max_line_;
  std::unique_ptr<svc::AnalysisService> service_;
  bool generated_ = false;     ///< fleet came from gen-fleet (pure)
  core::StudyOptions study_{};  ///< the gen-fleet options (when generated_)
};

}  // namespace flexrt::net::proto
