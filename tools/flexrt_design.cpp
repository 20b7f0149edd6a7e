// flexrt_design -- command-line front of the multi-system analysis service.
//
// The tool is subcommand-shaped around svc::AnalysisService: every
// subcommand loads (or generates) a *fleet* of systems, issues one typed
// request across it, and reports answers together with their provenance
// (dl_exact, budget, probes, gap, wall_ms). With --jsonl the report is
// machine-readable JSON-lines (schema in tools/README.md), which is what
// makes sharded study outputs mergeable.
//
// Usage:
//   flexrt_design solve  <taskfile>... [--alg edf|rm]
//                        [--goal min-overhead|max-slack]
//                        [--overhead O_FT,O_FS,O_NF] [--adaptive TOL]
//                        [--budget N] [--budget-cap N] [--jsonl] [--csv]
//                        [--sensitivity] [--response-times]
//                        [--simulate HORIZON] [--fault-rate R] [--trace N]
//   flexrt_design sweep  <taskfile>... [--alg edf|rm] [--p-min P] [--p-max P]
//                        [--step dP] [--adaptive TOL] [--budget N]
//                        [--jsonl] [--csv] [--stream]
//   flexrt_design verify <taskfile>... --period P --quanta Q_FT,Q_FS,Q_NF
//                        [--overhead O_FT,O_FS,O_NF] [--alg edf|rm]
//                        [--exact-supply] [--adaptive TOL] [--budget N]
//                        [--jsonl]
//   flexrt_design study  [--trials N] [--seed S] [--shard k/N]
//                        [--alg edf|rm] [--goal g] [--overhead a,b,c]
//                        [--adaptive TOL] [--budget N] [--jsonl] [--csv]
//                        [--stream]
//   flexrt_design fault-sweep <taskfile>... | --trials N [--seed S]
//                        [--shard k/N] [--rates R1,R2,...] [--min-sep S]
//                        [--no-baselines] [--exact-supply] [--alg edf|rm]
//                        [--goal g] [--overhead a,b,c] [--adaptive TOL]
//                        [--budget N] [--jsonl] [--csv] [--stream]
//   flexrt_design merge  <report.jsonl>...
//   flexrt_design remote <addr> <subcommand> [args...]
//   flexrt_design help | --help
//
// Every analysis subcommand also takes --deadline MS: a per-entry wall-time
// budget; an adaptive ladder that runs out of time degrades gracefully to
// the last completed rung's conservative answer (provenance degraded=true,
// gap=null) instead of erroring or running on. --no-wall drops the
// nondeterministic wall_ms provenance field from JSONL rows, making reports
// byte-reproducible (and byte-comparable to `remote` output, which is
// always wall-free).
//
// remote: run a subcommand on a flexrtd daemon (tools/flexrtd.cpp) instead
// of in-process -- task files are uploaded with the wire `add` command,
// generated studies are decomposed into `gen-fleet` + `solve --study`, and
// the daemon's JSONL rows stream to stdout byte-identical to the offline
// subcommand with --jsonl --no-wall (CI diffs them). <addr> is a unix
// socket path, host:port, or port.
//
// --stream (study, sweep, fault-sweep): emit each entry's rows as soon as
// its analysis finishes, through the service's ordered reassembly buffer --
// the output is byte-identical to the buffered path while peak memory stays
// bounded by the reorder window instead of the fleet size.
//
// --output FILE (study, sweep, fault-sweep; implies --jsonl): crash-safe
// journaled run through svc::run_journaled. Rows append to FILE.partial
// (whole entries at a time, --fsync upgrades each to a durable write) and
// FILE appears only via the final atomic rename, so it is either absent or
// complete. --resume recovers the completed prefix of an interrupted
// journal and computes only the remaining entries -- the resumed FILE is
// byte-identical to an uninterrupted run. --retries N re-executes failing
// entries up to N extra times on a deterministic backoff schedule; entries
// still failing are quarantined as error rows (provenance carries the
// attempt count) and the run exits 3. `merge --output FILE` publishes the
// merged report through the same atomic temp-file + rename path.
//
// Legacy compatibility: `flexrt_design <taskfile> ...` (no subcommand) is
// routed to `solve`.
//
// Exit status: 0 on success, 1 on infeasible design / failed verify /
// simulated misses / error rows, 2 on usage or input errors, 3 when a
// journaled run holds quarantined entries, 4 when SIGINT/SIGTERM
// interrupted a journaled run (the fsynced .partial journal resumes with
// --resume).
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <csignal>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/fs.hpp"
#include "common/signals.hpp"
#include "common/table.hpp"
#include "core/design.hpp"
#include "core/study_runner.hpp"
#include "gen/taskset_gen.hpp"
#include "hier/response_time.hpp"
#include "io/task_io.hpp"
#include "net/proto.hpp"
#include "net/server.hpp"
#include "rt/priority.hpp"
#include "sim/simulator.hpp"
#include "svc/analysis_service.hpp"
#include "svc/journal.hpp"
#include "svc/jsonl.hpp"
#include "svc/memo_cache.hpp"
#include "svc/rows.hpp"
#include "svc/study_report.hpp"

using namespace flexrt;

namespace {

// Flag parsing and JSONL row rendering are shared with the wire protocol
// (net/proto, svc/rows): the offline subcommands, the flexrtd daemon and
// `remote` cannot drift apart because they run the same code.
using net::proto::ArgVec;
using net::proto::CommonOpts;
using net::proto::parse_common_flag;
using net::proto::parse_num;
using net::proto::parse_num_list;
using net::proto::parse_size;
using net::proto::parse_triple;

void usage_text(std::ostream& os) {
  os << "usage: flexrt_design <subcommand> ...\n"
         "  solve  <taskfile>... [--alg edf|rm] [--goal min-overhead|max-slack]\n"
         "         [--overhead O_FT,O_FS,O_NF] [--adaptive TOL] [--budget N]\n"
         "         [--budget-cap N] [--jsonl] [--csv] [--sensitivity]\n"
         "         [--response-times] [--simulate HORIZON] [--fault-rate R]\n"
         "         [--trace N]\n"
         "  sweep  <taskfile>... [--alg edf|rm] [--p-min P] [--p-max P]\n"
         "         [--step dP] [--adaptive TOL] [--budget N] [--jsonl] [--csv]\n"
         "         [--stream]\n"
         "  verify <taskfile>... --period P --quanta Q_FT,Q_FS,Q_NF\n"
         "         [--overhead O_FT,O_FS,O_NF] [--alg edf|rm] [--exact-supply]\n"
         "         [--adaptive TOL] [--budget N] [--jsonl]\n"
         "  study  [--trials N] [--seed S] [--shard k/N] [--alg edf|rm]\n"
         "         [--goal g] [--overhead a,b,c] [--adaptive TOL] [--budget N]\n"
         "         [--jsonl] [--csv] [--stream]\n"
         "  fault-sweep <taskfile>... | --trials N [--seed S] [--shard k/N]\n"
         "         [--rates R1,R2,...] [--min-sep S] [--no-baselines]\n"
         "         [--exact-supply] [--alg edf|rm] [--goal g]\n"
         "         [--overhead a,b,c] [--adaptive TOL] [--budget N] [--jsonl]\n"
         "         [--csv] [--stream]\n"
         "  merge  <report.jsonl>... [--output FILE]\n"
         "  remote <addr> solve|sweep|verify|minq|fault-sweep|study|status\n"
         "         [args...]   run on a flexrtd daemon (addr = socket path,\n"
         "         host:port, or port); rows stream back byte-identical to\n"
         "         the offline subcommand with --jsonl --no-wall\n"
         "  help | --help      print this text to stdout and exit 0\n"
         "common: --deadline MS  per-entry wall budget (adaptive ladders\n"
         "        degrade to the last finished rung when it expires)\n"
         "        --no-wall      omit wall_ms from JSONL rows (deterministic,\n"
         "        byte-comparable reports)\n"
         "        --no-memo      disable the process-wide answer memo (every\n"
         "        entry recomputes; repeats stop being lookups)\n"
         "        --memo-bytes N cap the answer memo at N bytes (default\n"
         "        "
      << (svc::MemoCache::kDefaultCapacityBytes >> 20)
      << " MiB; least-recently-used entries evict)\n"
         "journal (study, sweep, fault-sweep; implies --jsonl):\n"
         "        --output FILE  crash-safe journaled run: rows append to\n"
         "                       FILE.partial, FILE appears by atomic rename\n"
         "        --resume       recover FILE.partial's completed prefix and\n"
         "                       compute only the remaining entries\n"
         "        --retries N    extra executions for failing entries on a\n"
         "                       deterministic backoff; exhausted entries are\n"
         "                       quarantined as error rows (exit 3)\n"
         "        --fsync        fsync the journal after every entry\n"
         "SIGINT/SIGTERM during a journaled run: the in-flight entry\n"
         "finishes and is journaled, the .partial is fsynced, exit 4;\n"
         "finish later with --resume\n";
}

int usage() {
  usage_text(std::cerr);
  return 2;
}

int cmd_help() {
  usage_text(std::cout);
  return 0;
}

/// Exit code contributed by one journal row (rendered or replayed): 3 for
/// a quarantined entry, 1 for an error row, else 0 -- max-combined across
/// the run so quarantine outranks plain errors. Study rows are exempt from
/// the error bump: an unpackable trial is study data (exit 0, matching the
/// buffered study path), not a failure.
int journal_row_rc(std::string_view row, bool errors_are_failures) {
  if (svc::json_bool_field(row, "quarantined").value_or(false)) return 3;
  if (!errors_are_failures) return 0;
  if (svc::json_string_field(row, "error")) return 1;
  if (!svc::json_bool_field(row, "feasible").value_or(true)) return 1;
  return 0;
}

/// One journaled run's closing status line -- stderr, so the report file
/// owns stdout-equivalent bytes and scripts can still parse the journal.
void journal_note(const svc::JournalStats& stats, const std::string& path) {
  std::cerr << "journal: " << path << ": " << stats.entries << " entries ("
            << stats.replayed << " replayed, " << stats.executed
            << " executed, " << stats.retried << " retried, "
            << stats.quarantined << " quarantined)"
            << (stats.already_complete ? " -- already complete" : "") << "\n";
}

/// Journal knobs plus the cooperative stop flag: every journaled run is
/// signal-aware -- SIGINT/SIGTERM finishes the in-flight entry, fsyncs the
/// .partial journal, and exits 4 (see finish_journaled).
svc::JournalOptions signal_aware_journal_options(const CommonOpts& common) {
  sys::install_stop_signals();
  svc::JournalOptions jopts = common.journal_options();
  jopts.stop = &sys::stop_requested();
  return jopts;
}

/// Closing note + exit code of a journaled run: the run's own rc, or the
/// documented interrupt code 4 when a stop signal cut it short (completed
/// entries are durable; --resume finishes the run byte-identically).
int finish_journaled(const svc::JournalStats& stats, const std::string& path,
                     int rc) {
  journal_note(stats, path);
  if (!stats.interrupted) return rc;
  const int sig = sys::stop_signal();
  std::cerr << "journal: interrupted by "
            << (sig == SIGTERM  ? "SIGTERM"
                : sig == SIGINT ? "SIGINT"
                                : "stop request")
            << " -- completed entries are durable in " << path
            << ".partial; finish with --resume\n";
  return 4;
}

/// Loads every file as one fleet entry (parse + channel packing).
void load_fleet(svc::AnalysisService& service,
                const std::vector<std::string>& files) {
  for (const std::string& file : files) {
    std::ifstream in(file);
    if (!in) throw ModelError("cannot open " + file);
    service.add_system(io::parse_mode_task_system(in).system, file);
  }
}

std::string provenance_note(const svc::Provenance& p) {
  std::ostringstream os;
  // fp_budget > 0 marks an FP request, whose budget knob condenses the
  // per-task scheduling points rather than the dlSet.
  if (p.fp_budget > 0) {
    os << (p.fp_exact ? "exact schedP" : "condensed schedP");
  } else {
    os << (p.dl_exact ? "exact dlSet" : "condensed dlSet");
  }
  os << ", budget " << p.budget << ", " << p.probes
     << (p.probes == 1 ? " probe" : " probes");
  if (p.gap && !(p.dl_exact && p.fp_exact)) os << ", gap <= " << *p.gap;
  return os.str();
}

// Study row rendering and aggregation live in svc/study_report.hpp so the
// streaming byte-identity tests drive the exact code the tool runs.

// --- solve ----------------------------------------------------------------

struct SolveOpts {
  CommonOpts common;
  double simulate_horizon = 0.0;
  double fault_rate = 0.0;
  std::size_t trace = 0;
  bool sensitivity = false;
  bool response_times = false;
};

int print_solve_human(const svc::AnalysisService& service, std::size_t i,
                      const svc::SolveResult& r, const SolveOpts& args) {
  const core::ModeTaskSystem& sys = service.system(i);
  std::cout << r.name << ": " << sys.num_tasks() << " tasks (FT "
            << sys.mode_tasks(rt::Mode::FT).size() << ", FS "
            << sys.mode_tasks(rt::Mode::FS).size() << ", NF "
            << sys.mode_tasks(rt::Mode::NF).size() << ")\n";
  if (!r.feasible) {
    std::cout << "infeasible: " << r.infeasible << "\n";
    return 1;
  }
  const core::Design& d = r.design;
  std::cout << "design (" << to_string(args.common.alg) << ", "
            << to_string(args.common.goal) << "): " << d.schedule << "\n"
            << "accuracy: " << provenance_note(r.prov) << "\n";

  Table t({"mode", "quantum", "overhead", "alloc_bw", "required_bw"});
  for (const rt::Mode mode : core::kAllModes) {
    t.row()
        .cell(rt::to_string(mode))
        .cell(d.schedule.slot(mode).usable, 4)
        .cell(d.schedule.slot(mode).overhead, 4)
        .cell(d.schedule.allocated_bandwidth(mode), 4)
        .cell(sys.required_bandwidth(mode), 4);
  }
  args.common.csv ? t.print_csv(std::cout) : t.print(std::cout);

  if (args.sensitivity) {
    std::cout << "\nsensitivity (max WCET scale keeping the design "
                 "feasible, cap 16x):\n";
    svc::SensitivityRequest req;
    req.alg = args.common.alg;
    req.schedule = d.schedule;
    req.accuracy = args.common.accuracy();
    const svc::SensitivityResult s = service.sensitivity_one(i, req);
    Table st({"task", "mode", "wcet", "scale_margin"});
    for (const core::TaskMargin& m : s.margins) {
      st.row()
          .cell(m.name)
          .cell(rt::to_string(m.mode))
          .cell(m.wcet, 3)
          .cell(m.scale_margin, 3);
    }
    args.common.csv ? st.print_csv(std::cout) : st.print(std::cout);
    std::cout << "global simultaneous scale margin: "
              << format_fixed(s.global_margin, 3) << "\n";
  }

  if (args.response_times) {
    if (args.common.alg != hier::Scheduler::FP) {
      std::cout << "\n(response-time bounds are available for FP only; "
                   "rerun with --alg rm)\n";
    } else {
      std::cout << "\nworst-case response-time bounds (exact slot supply):\n";
      Table rtb({"task", "mode", "deadline", "response_bound"});
      for (const rt::Mode mode : core::kAllModes) {
        for (const rt::TaskSet& raw : sys.partitions(mode)) {
          if (raw.empty()) continue;
          const rt::TaskSet ordered = rt::sort_deadline_monotonic(raw);
          const auto bounds =
              hier::fp_response_times(ordered, d.schedule.exact_supply(mode));
          for (std::size_t k = 0; k < ordered.size(); ++k) {
            rtb.row()
                .cell(ordered[k].name)
                .cell(rt::to_string(mode))
                .cell(ordered[k].deadline, 3);
            if (bounds[k]) {
              rtb.cell(*bounds[k], 3);
            } else {
              rtb.cell("miss");
            }
          }
        }
      }
      args.common.csv ? rtb.print_csv(std::cout) : rtb.print(std::cout);
    }
  }

  if (args.simulate_horizon > 0.0) {
    sim::SimOptions opt;
    opt.horizon = args.simulate_horizon;
    opt.scheduler = args.common.alg;
    opt.faults = {args.fault_rate, 2.0};
    opt.trace_capacity = args.trace;
    sim::Simulator simulator(sys, d.schedule, opt);
    const sim::SimResult res = simulator.run();
    std::cout << "\nsimulated " << args.simulate_horizon << " units: "
              << res.total_misses() << " misses, " << res.faults.injected
              << " faults (" << res.faults.masked << " masked, "
              << res.faults.silenced << " silenced, " << res.faults.corrupting
              << " corrupting)\n";
    if (args.trace > 0) {
      std::cout << "--- trace ---\n";
      simulator.trace().print(std::cout);
    }
    if (res.total_misses() > 0) return 1;
  }
  return 0;
}

int cmd_solve(const std::vector<std::string>& argv_rest) {
  SolveOpts args;
  ArgVec av(argv_rest);
  const int argc = av.argc();
  char** raw = av.argv();
  for (int i = 0; i < argc; ++i) {
    const std::string a = raw[i];
    const int common = parse_common_flag(args.common, argc, raw, i);
    if (common == 0) continue;
    if (common == 2) return usage();
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? raw[++i] : nullptr;
    };
    if (a == "--simulate") {
      const char* v = next();
      if (!v) return usage();
      args.simulate_horizon = parse_num("--simulate", v);
    } else if (a == "--fault-rate") {
      const char* v = next();
      if (!v) return usage();
      args.fault_rate = parse_num("--fault-rate", v);
    } else if (a == "--trace") {
      const char* v = next();
      if (!v) return usage();
      args.trace = parse_size("--trace", v);
    } else if (a == "--sensitivity") {
      args.sensitivity = true;
    } else if (a == "--response-times") {
      args.response_times = true;
    } else if (!a.empty() && a[0] != '-') {
      args.common.files.push_back(a);
    } else {
      return usage();
    }
  }
  if (args.common.files.empty()) return usage();
  // solve has no journal path: one-shot fleets report to stdout.
  if (args.common.journaled() || !args.common.finish_journal_flags()) {
    return usage();
  }

  svc::AnalysisService service;
  load_fleet(service, args.common.files);
  svc::SolveRequest req{args.common.alg, args.common.overheads,
                        args.common.goal, {}, args.common.accuracy()};
  const std::vector<svc::SolveResult> results = service.solve(req);

  int rc = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const svc::SolveResult& r = results[i];
    if (!r.ok()) throw ModelError(r.error);
    if (args.common.jsonl) {
      std::cout << svc::solve_row(r, args.common.alg, args.common.goal,
                                  /*with_wall=*/!args.common.no_wall)
                       .str()
                << "\n";
      if (!r.feasible) rc = std::max(rc, 1);
    } else {
      if (i) std::cout << "\n";
      rc = std::max(rc, print_solve_human(service, i, r, args));
    }
  }
  return rc;
}

// --- sweep ----------------------------------------------------------------

/// One entry's complete journal block: sample rows (ok entries only) then
/// the terminal sweep row, wall-free (resume byte-identity needs
/// deterministic rows). Error/quarantined entries journal as a lone
/// terminal error row -- the fleet carries on.
std::string sweep_block(const svc::RegionSweepResult& r, hier::Scheduler alg) {
  std::string out;
  if (r.ok()) {
    for (const core::RegionSample& s : r.samples) {
      out += svc::sweep_sample_row(r, alg, s).str();
      out += '\n';
    }
  }
  out += svc::sweep_summary_row(r, alg, /*with_wall=*/false).str();
  out += '\n';
  return out;
}

int cmd_sweep(const std::vector<std::string>& argv_rest) {
  CommonOpts common;
  core::SearchOptions search;
  search.p_min = 0.05;
  search.p_max = 3.5;
  search.grid_step = 0.05;
  ArgVec av(argv_rest);
  const int argc = av.argc();
  char** raw = av.argv();
  for (int i = 0; i < argc; ++i) {
    const std::string a = raw[i];
    const int c = parse_common_flag(common, argc, raw, i);
    if (c == 0) continue;
    if (c == 2) return usage();
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? raw[++i] : nullptr;
    };
    if (a == "--p-min") {
      const char* v = next();
      if (!v) return usage();
      search.p_min = parse_num("--p-min", v);
    } else if (a == "--p-max") {
      const char* v = next();
      if (!v) return usage();
      search.p_max = parse_num("--p-max", v);
    } else if (a == "--step") {
      const char* v = next();
      if (!v) return usage();
      search.grid_step = parse_num("--step", v);
    } else if (!a.empty() && a[0] != '-') {
      common.files.push_back(a);
    } else {
      return usage();
    }
  }
  if (common.files.empty() || !common.finish_journal_flags()) return usage();

  svc::AnalysisService service;
  load_fleet(service, common.files);
  const svc::RegionSweepRequest req{common.alg, search, common.accuracy()};

  if (common.journaled()) {
    svc::Journal journal(common.output);
    int rc = 0;
    const auto terminal = [](std::string_view row) {
      return svc::json_string_field(row, "kind").value_or("") == "sweep";
    };
    const svc::JournalStats stats = svc::run_journaled(
        journal, service.size(), signal_aware_journal_options(common),
        terminal,
        [&](std::string_view row) {
          rc = std::max(rc, journal_row_rc(row, /*errors_are_failures=*/true));
        },
        [&](std::size_t i) { return service.region_sweep_one(i, req); },
        [&](const svc::RegionSweepResult& r) {
          if (r.prov.quarantined) {
            rc = std::max(rc, 3);
          } else if (!r.ok()) {
            rc = std::max(rc, 1);
          }
          return sweep_block(r, common.alg);
        });
    return finish_journaled(stats, common.output, rc);
  }

  // Streamed runs flush whole rows so a killed sweep leaves at most one
  // partial final line; buffered runs keep normal ostream buffering.
  svc::JsonlWriter out(std::cout, /*flush_per_row=*/common.stream);
  const auto print_result = [&](const svc::RegionSweepResult& r) {
    if (!r.ok()) throw ModelError(r.error);
    if (common.jsonl) {
      for (const core::RegionSample& s : r.samples) {
        out.write(svc::sweep_sample_row(r, common.alg, s));
      }
      out.write(svc::sweep_summary_row(r, common.alg,
                                       /*with_wall=*/!common.no_wall));
    } else {
      std::cout << r.name << ": lhs(P) over [" << search.p_min << ", "
                << search.p_max << "], " << to_string(common.alg) << " ("
                << provenance_note(r.prov) << ")\n";
      Table t({"P", "margin"});
      for (const core::RegionSample& s : r.samples) {
        t.row().cell(s.period, 3).cell(s.margin, 4);
      }
      common.csv ? t.print_csv(std::cout) : t.print(std::cout);
    }
  };

  if (common.stream) {
    // Each entry's rows go out as its sweep finishes; the reassembly
    // buffer keeps the file order identical to the buffered path.
    service.region_sweep(req, print_result);
    return 0;
  }
  for (const svc::RegionSweepResult& r : service.region_sweep(req)) {
    print_result(r);
  }
  return 0;
}

// --- verify ---------------------------------------------------------------

int cmd_verify(const std::vector<std::string>& argv_rest) {
  CommonOpts common;
  double period = 0.0;
  std::array<double, 3> quanta{};
  bool have_quanta = false;
  bool exact_supply = false;
  ArgVec av(argv_rest);
  const int argc = av.argc();
  char** raw = av.argv();
  for (int i = 0; i < argc; ++i) {
    const std::string a = raw[i];
    const int c = parse_common_flag(common, argc, raw, i);
    if (c == 0) continue;
    if (c == 2) return usage();
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? raw[++i] : nullptr;
    };
    if (a == "--period") {
      const char* v = next();
      if (!v) return usage();
      period = parse_num("--period", v);
    } else if (a == "--quanta") {
      const char* v = next();
      if (!v) return usage();
      quanta = parse_triple("--quanta", v);
      have_quanta = true;
    } else if (a == "--exact-supply") {
      exact_supply = true;
    } else if (!a.empty() && a[0] != '-') {
      common.files.push_back(a);
    } else {
      return usage();
    }
  }
  if (common.files.empty() || period <= 0.0 || !have_quanta) return usage();
  if (common.journaled() || !common.finish_journal_flags()) return usage();

  core::ModeSchedule schedule;
  schedule.period = period;
  schedule.ft = {quanta[0], common.overheads.ft};
  schedule.fs = {quanta[1], common.overheads.fs};
  schedule.nf = {quanta[2], common.overheads.nf};

  svc::AnalysisService service;
  load_fleet(service, common.files);
  const std::vector<svc::VerifyResult> results =
      service.verify({common.alg, schedule, exact_supply, common.accuracy()});

  int rc = 0;
  for (const svc::VerifyResult& r : results) {
    if (!r.ok()) throw ModelError(r.error);
    if (common.jsonl) {
      std::cout << svc::verify_row(r, common.alg, period,
                                   /*with_wall=*/!common.no_wall)
                       .str()
                << "\n";
    } else {
      std::cout << r.name << ": "
                << (r.schedulable ? "schedulable" : "NOT schedulable") << " ("
                << provenance_note(r.prov) << ")\n";
    }
    if (!r.schedulable) rc = 1;
  }
  return rc;
}

// --- fault-sweep ----------------------------------------------------------

std::string fault_sweep_block(const svc::FaultSweepResult& r,
                              hier::Scheduler alg, bool with_baselines) {
  std::string out;
  if (r.ok()) {
    for (const svc::FaultRatePoint& p : r.points) {
      out += svc::fault_point_row(r, p, alg, with_baselines).str();
      out += '\n';
    }
  }
  out += svc::fault_sweep_summary_row(r, alg).str();
  out += '\n';
  return out;
}

int cmd_fault_sweep(const std::vector<std::string>& argv_rest) {
  CommonOpts common;
  common.overheads = {0.05 / 3, 0.05 / 3, 0.05 / 3};  // paper's O_tot = 0.05
  core::StudyOptions study;
  study.trials = 0;  // 0 = no generated fleet (task files expected)
  svc::FaultSweepRequest req;
  req.rates = {0.0, 1e-3, 1e-2, 0.1, 1.0};
  ArgVec av(argv_rest);
  const int argc = av.argc();
  char** raw = av.argv();
  for (int i = 0; i < argc; ++i) {
    const std::string a = raw[i];
    const int c = parse_common_flag(common, argc, raw, i);
    if (c == 0) continue;
    if (c == 2) return usage();
    if (core::parse_study_flag(study, argc, raw, i)) continue;
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? raw[++i] : nullptr;
    };
    if (a == "--rates") {
      const char* v = next();
      if (!v) return usage();
      req.rates = parse_num_list("--rates", v);
    } else if (a == "--min-sep") {
      const char* v = next();
      if (!v) return usage();
      req.min_separation = parse_num("--min-sep", v);
    } else if (a == "--no-baselines") {
      req.with_baselines = false;
    } else if (a == "--exact-supply") {
      req.use_exact_supply = true;
    } else if (!a.empty() && a[0] != '-') {
      common.files.push_back(a);
    } else {
      return usage();
    }
  }
  if (common.files.empty() == (study.trials == 0)) {
    return usage();  // exactly one fleet source: task files xor --trials
  }
  if (!common.finish_journal_flags()) return usage();

  svc::AnalysisService service;
  if (study.trials > 0) {
    service.add_fleet(study, [](std::size_t, Rng& rng) {
      return gen::study_system(rng);
    });
    req.search.grid_step = 5e-3;  // cmd_study's generated-fleet search grid
    req.search.p_max = 10.0;
  } else {
    load_fleet(service, common.files);
  }
  req.alg = common.alg;
  req.overheads = common.overheads;
  req.goal = common.goal;
  req.accuracy = common.accuracy();

  if (common.journaled()) {
    svc::Journal journal(common.output);
    int rc = 0;
    const auto terminal = [](std::string_view row) {
      return svc::json_string_field(row, "kind").value_or("") == "fault_sweep";
    };
    const svc::JournalStats stats = svc::run_journaled(
        journal, service.size(), signal_aware_journal_options(common),
        terminal,
        [&](std::string_view row) {
          rc = std::max(rc, journal_row_rc(row, /*errors_are_failures=*/true));
        },
        [&](std::size_t i) { return service.fault_sweep_one(i, req); },
        [&](const svc::FaultSweepResult& r) {
          if (r.prov.quarantined) {
            rc = std::max(rc, 3);
          } else if (!r.ok() || !r.feasible) {
            rc = std::max(rc, 1);
          }
          return fault_sweep_block(r, common.alg, req.with_baselines);
        });
    return finish_journaled(stats, common.output, rc);
  }

  svc::JsonlWriter out(std::cout, /*flush_per_row=*/common.stream);
  int rc = 0;
  const auto print_result = [&](const svc::FaultSweepResult& r) {
    if (common.jsonl) {
      if (!r.ok()) {
        // Error entries emit their one summary row only: a partially
        // computed points vector must not masquerade as sweep output.
        out.write(svc::fault_sweep_summary_row(r, common.alg));
        rc = std::max(rc, 1);
        return;
      }
      for (const svc::FaultRatePoint& p : r.points) {
        out.write(svc::fault_point_row(r, p, common.alg, req.with_baselines));
      }
      if (!r.feasible) rc = std::max(rc, 1);
      out.write(svc::fault_sweep_summary_row(r, common.alg));
      return;
    }
    if (!r.ok()) {
      std::cout << r.name << ": error: " << r.error << "\n";
      rc = std::max(rc, 1);
      return;
    }
    if (!r.feasible) {
      std::cout << r.name << ": infeasible: " << r.infeasible << "\n";
      rc = std::max(rc, 1);
      return;
    }
    std::cout << r.name << ": nominal design P = " << r.schedule.period
              << " (" << to_string(common.alg) << ", "
              << provenance_note(r.prov) << ")\n";
    std::vector<std::string> head = {"rate", "recovery_gap", "ft_ok",
                                     "fs_ok", "nf_ok", "nf_exposure"};
    if (req.with_baselines) {
      head.insert(head.end(),
                  {"pb_ok", "static_ft_ok", "static_fs_ok", "static_nf_ok"});
    }
    Table t(head);
    const auto mark = [](bool ok) { return ok ? "yes" : "NO"; };
    for (const svc::FaultRatePoint& p : r.points) {
      t.row().cell(p.rate, 4);
      if (std::isinf(p.recovery_gap)) {
        t.cell("inf");
      } else {
        t.cell(p.recovery_gap, 3);
      }
      t.cell(mark(p.ft_ok))
          .cell(mark(p.fs_ok))
          .cell(mark(p.nf_ok))
          .cell(p.nf_exposure, 6);
      if (req.with_baselines) {
        t.cell(mark(p.pb_ok))
            .cell(mark(p.static_ft_ok))
            .cell(mark(p.static_fs_ok))
            .cell(mark(p.static_nf_ok));
      }
    }
    common.csv ? t.print_csv(std::cout) : t.print(std::cout);
  };

  if (common.stream) {
    service.fault_sweep(req, print_result);
    return rc;
  }
  for (const svc::FaultSweepResult& r : service.fault_sweep(req)) {
    print_result(r);
  }
  return rc;
}

// --- study / merge --------------------------------------------------------

int cmd_study(const std::vector<std::string>& argv_rest) {
  CommonOpts common;
  common.overheads = {0.05 / 3, 0.05 / 3, 0.05 / 3};  // paper's O_tot = 0.05
  core::StudyOptions study;
  study.trials = 100;
  study.base_seed = 0x5EED;
  ArgVec av(argv_rest);
  const int argc = av.argc();
  char** raw = av.argv();
  for (int i = 0; i < argc; ++i) {
    const int c = parse_common_flag(common, argc, raw, i);
    if (c == 0) continue;
    if (c == 2) return usage();
    if (core::parse_study_flag(study, argc, raw, i)) continue;
    return usage();
  }
  if (!common.finish_journal_flags()) return usage();

  svc::AnalysisService service;
  service.add_fleet(study, [](std::size_t, Rng& rng) {
    return gen::study_system(rng);
  });

  core::SearchOptions search;
  search.grid_step = 5e-3;
  search.p_max = 10.0;
  const svc::SolveRequest req{common.alg, common.overheads, common.goal,
                              search, common.accuracy()};

  if (common.journaled()) {
    svc::Journal journal(common.output);
    svc::StudyAggregate agg;
    int rc = 0;
    const auto terminal = [](std::string_view row) {
      return svc::json_string_field(row, "kind").value_or("") == "study_trial";
    };
    // An unsharded journal carries the summary row as its epilogue --
    // deliberately non-terminal, so a crash after it but before the rename
    // truncates it away on resume and the recomputed aggregate re-emits it.
    std::function<std::string()> epilogue;
    if (study.shard.count == 1) {
      epilogue = [&agg] { return agg.summary_row() + "\n"; };
    }
    const svc::JournalStats stats = svc::run_journaled(
        journal, service.size(), signal_aware_journal_options(common),
        terminal,
        [&](std::string_view row) {
          if (svc::json_string_field(row, "kind").value_or("") !=
              "study_trial") {
            return;  // a committed file's summary row: not a trial
          }
          agg.add(row);
          rc = std::max(rc, journal_row_rc(row, /*errors_are_failures=*/false));
        },
        [&](std::size_t i) { return service.solve_one(i, req); },
        [&](const svc::SolveResult& r) {
          const std::string row =
              svc::study_trial_row(r, common.alg, common.goal);
          agg.add(row);
          if (r.prov.quarantined) rc = std::max(rc, 3);
          return row + "\n";
        },
        epilogue);
    return finish_journaled(stats, common.output, rc);
  }

  if (common.jsonl) {
    // Rows and summary are identical whether buffered or streamed: the
    // streaming sink renders/aggregates each row in entry order, and the
    // buffered path funnels through the same sink. Shards emit rows only;
    // the merged/unsharded report owns the summary. Per-row flushing is
    // reserved for --stream (kill-safety); buffered runs stay buffered.
    svc::JsonlWriter out(std::cout, /*flush_per_row=*/common.stream);
    svc::StudyAggregate agg;
    const auto sink = [&](const svc::SolveResult& r) {
      const std::string row = svc::study_trial_row(r, common.alg, common.goal);
      out.write(row);
      agg.add(row);
    };
    if (common.stream) {
      service.solve(req, sink);
    } else {
      for (const svc::SolveResult& r : service.solve(req)) sink(r);
    }
    if (study.shard.count == 1) out.write(agg.summary_row());
    return 0;
  }

  std::size_t done = 0, packed = 0, feasible = 0;
  double sum_period = 0.0, sum_slack = 0.0;
  const auto tally = [&](const svc::SolveResult& r) {
    ++done;
    packed += r.ok() ? 1 : 0;
    if (r.ok() && r.feasible) {
      ++feasible;
      sum_period += r.design.schedule.period;
      sum_slack += r.design.schedule.slack_bandwidth();
    }
  };
  if (common.stream) {
    service.solve(req, tally);  // aggregates only: bounded memory
  } else {
    for (const svc::SolveResult& r : service.solve(req)) tally(r);
  }

  std::cout << "study: " << done << " of " << study.trials
            << " trials (shard " << study.shard.index + 1 << "/"
            << study.shard.count << ", seed 0x" << std::hex << study.base_seed
            << std::dec << "), " << to_string(common.alg) << ", "
            << to_string(common.goal) << ", O_tot "
            << common.overheads.total() << "\n\n";
  Table t({"trials", "packed", "feasible", "sum_period", "mean_period",
           "sum_slack_bw"});
  t.row()
      .cell(done)
      .cell(packed)
      .cell(feasible)
      .cell(sum_period, 3)
      .cell(feasible ? sum_period / static_cast<double>(feasible) : 0.0, 3)
      .cell(sum_slack, 3);
  common.csv ? t.print_csv(std::cout) : t.print(std::cout);
  return 0;
}

int cmd_merge(const std::vector<std::string>& argv_rest) {
  std::vector<std::string> files;
  std::string output;
  for (std::size_t i = 0; i < argv_rest.size(); ++i) {
    if (argv_rest[i] == "--output") {
      if (i + 1 >= argv_rest.size() || argv_rest[i + 1].empty()) {
        return usage();
      }
      output = argv_rest[++i];
    } else if (!argv_rest[i].empty() && argv_rest[i][0] != '-') {
      files.push_back(argv_rest[i]);
    } else {
      return usage();
    }
  }
  if (files.empty()) return usage();
  std::vector<std::string> rows;
  for (const std::string& file : files) {
    std::ifstream in(file);
    if (!in) throw ModelError("cannot open " + file);
    // Throws on a truncated row -- a shard killed mid-stream must fail the
    // merge loudly (exit 2), not silently drop its tail trials.
    svc::collect_study_rows(in, file, rows);
  }
  svc::sort_study_rows(rows);  // throws on duplicate trials

  if (!output.empty()) {
    // Same atomic publish discipline as journaled runs: the merged report
    // is staged whole in <output>.partial and appears only via the final
    // rename, so a killed merge never leaves a half-written report that a
    // later merge (or plot script) would trust.
    std::string text;
    svc::StudyAggregate agg;
    for (const std::string& row : rows) {
      text += row;
      text += '\n';
      agg.add(row);
    }
    text += agg.summary_row();
    text += '\n';
    svc::Journal journal(output);
    journal.start_fresh();
    journal.append(text);
    journal.commit();
    return 0;
  }

  svc::JsonlWriter out(std::cout);
  svc::StudyAggregate agg;
  for (const std::string& row : rows) {
    out.write(row);
    agg.add(row);
  }
  out.write(agg.summary_row());
  return 0;
}

// --- remote ---------------------------------------------------------------

/// Sends one wire command (possibly with a multi-line `add` payload) and
/// pumps the reply: data rows go to stdout verbatim, the status line ends
/// the exchange and yields the command's offline exit code. Throws on an
/// `error` status or a dropped connection.
int wire_exchange(net::FdStream& io, const std::string& payload) {
  io << payload << std::flush;
  if (!io) throw ModelError("remote: connection lost while sending");
  for (;;) {
    const std::optional<std::string> line =
        net::proto::read_line(io, net::proto::kMaxLineBytes, nullptr);
    if (!line) throw ModelError("remote: server closed the connection");
    const std::optional<net::proto::WireStatus> st =
        net::proto::parse_status_line(*line);
    if (!st) {
      std::cout << *line << "\n";
      continue;
    }
    if (st->failed) throw ModelError("remote: server: " + st->message);
    return st->rc;
  }
}

/// One task file as a wire `add` block: the file path doubles as the wire
/// name, so remote rows carry the same "name" field as offline rows.
std::string add_payload(const std::string& file) {
  std::ifstream in(file);
  if (!in) throw ModelError("cannot open " + file);
  std::ostringstream body;
  body << in.rdbuf();
  std::string text = body.str();
  if (!text.empty() && text.back() != '\n') text += '\n';
  return "add " + file + "\n" + text + ".\n";
}

int cmd_remote(const std::vector<std::string>& rest) {
  if (rest.size() < 2) return usage();
  const std::string& addr = rest[0];
  const std::string& sub = rest[1];
  static const char* kSubs[] = {"solve", "sweep",       "verify", "minq",
                                "study", "fault-sweep", "status"};
  if (std::find_if(std::begin(kSubs), std::end(kSubs), [&](const char* s) {
        return sub == s;
      }) == std::end(kSubs)) {
    return usage();
  }
  const std::vector<std::string> args(rest.begin() + 2, rest.end());
  for (const std::string& a : args) {
    for (const char* f :
         {"--csv", "--output", "--resume", "--retries", "--fsync"}) {
      if (a == f) {
        throw ModelError("remote: " + a +
                         " is offline-only (wire reports are plain JSONL)");
      }
    }
  }

  // Split the arguments three ways: study flags (become the wire gen-fleet
  // command), bare tokens (task files, uploaded via `add`), and everything
  // else (forwarded verbatim to the wire request).
  core::StudyOptions study;
  study.trials = 0;  // 0 = no generated fleet requested
  std::vector<std::string> files, fwd;
  {
    ArgVec av(args);
    const int argc = av.argc();
    char** raw = av.argv();
    for (int i = 0; i < argc; ++i) {
      if (core::parse_study_flag(study, argc, raw, i)) continue;
      const std::string a = raw[i];
      if (!a.empty() && a[0] != '-') {
        files.push_back(a);
        continue;
      }
      fwd.push_back(a);
      static const char* kValued[] = {
          "--alg",    "--goal",  "--overhead", "--adaptive", "--budget",
          "--budget-cap", "--deadline", "--period", "--quanta", "--p-min",
          "--p-max",  "--step",  "--rates",    "--min-sep"};
      for (const char* f : kValued) {
        if (a == f && i + 1 < argc) {
          fwd.push_back(raw[++i]);
          break;
        }
      }
    }
  }
  const bool study_cmd = (sub == "study");
  const bool gen_mode = study_cmd || study.trials > 0;
  if (study_cmd && study.trials == 0) study.trials = 100;  // study default
  if (gen_mode && !files.empty()) {
    throw ModelError("remote " + sub +
                     ": task files and --trials are mutually exclusive");
  }
  if (!gen_mode && files.empty() && sub != "status") {
    throw ModelError("remote " + sub + ": no task files given");
  }

  const int fd = net::dial(addr);
  struct FdCloser {
    int fd;
    ~FdCloser() { ::close(fd); }
  } closer{fd};
  net::FdStream io(fd);

  if (gen_mode) {
    std::ostringstream gen;
    gen << "gen-fleet --trials " << study.trials << " --seed "
        << study.base_seed;
    if (study.shard.count > 1) {
      gen << " --shard " << study.shard.index + 1 << "/" << study.shard.count;
    }
    wire_exchange(io, gen.str() + "\n");
  } else {
    for (const std::string& f : files) wire_exchange(io, add_payload(f));
  }

  std::string cmd = study_cmd ? "solve --study" : sub;
  for (const std::string& a : fwd) {
    cmd += ' ';
    cmd += a;
  }
  const int rc = wire_exchange(io, cmd + "\n");
  wire_exchange(io, "quit\n");
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  try {
    // Process-level memo knobs, accepted at any argv position: they
    // configure the process-wide content-addressed answer cache
    // (svc::MemoCache), not one request, so they are stripped before
    // subcommand dispatch instead of living in CommonOpts.
    std::vector<std::string> all;
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (a == "--no-memo") {
        svc::global_memo().set_enabled(false);
        continue;
      }
      if (a == "--memo-bytes") {
        if (i + 1 >= argc) return usage();
        svc::global_memo().set_capacity_bytes(
            parse_size("--memo-bytes", argv[++i]));
        continue;
      }
      all.push_back(a);
    }
    if (all.empty()) return usage();
    const std::string cmd = all[0];
    std::vector<std::string> rest(all.begin() + 1, all.end());
    if (cmd == "solve") return cmd_solve(rest);
    if (cmd == "sweep") return cmd_sweep(rest);
    if (cmd == "verify") return cmd_verify(rest);
    if (cmd == "study") return cmd_study(rest);
    if (cmd == "fault-sweep") return cmd_fault_sweep(rest);
    if (cmd == "merge") return cmd_merge(rest);
    if (cmd == "remote") return cmd_remote(rest);
    if (cmd == "help" || cmd == "--help" || cmd == "-h") return cmd_help();
    // Legacy form: flexrt_design [flags...] <taskfile> [flags...] == solve
    // (the pre-subcommand CLI accepted the file at any position, so flags
    // before the file must keep working too).
    return cmd_solve(all);
  } catch (const InfeasibleError& e) {
    std::cerr << "infeasible: " << e.what() << "\n";
    return 1;
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
