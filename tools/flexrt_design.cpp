// flexrt_design -- command-line front of the multi-system analysis service.
//
// The tool is subcommand-shaped around svc::AnalysisService: every analysis
// subcommand loads (or generates) a *fleet* of systems, issues one typed
// request across it, and reports answers together with their provenance
// (dl_exact, budget, probes, gap, wall_ms). The six analysis subcommands --
// solve, minq, sweep, verify, fault-sweep and study -- are the command
// table of net/proto: their flags, defaults, requests, JSONL rows and exit
// codes are defined there once, shared with the flexrtd wire protocol and
// the `remote` client. This file adds what is offline-only: the fleet from
// task files or --trials, and the three outputs an entry's rows go to --
// JSONL on stdout (--jsonl, schema in tools/README.md), the crash-safe
// journal (--output), or the human/CSV printers.
//
// Usage:
//   flexrt_design solve  <fleet> [--goal min-overhead|max-slack]
//                        [--overhead O_FT,O_FS,O_NF] [--sensitivity]
//                        [--response-times] [--simulate HORIZON]
//                        [--fault-rate R] [--trace N]
//   flexrt_design minq   <fleet> --period P [--exact-supply]
//   flexrt_design sweep  <fleet> [--p-min P] [--p-max P] [--step dP]
//   flexrt_design verify <fleet> --period P --quanta Q_FT,Q_FS,Q_NF
//                        [--overhead O_FT,O_FS,O_NF] [--exact-supply]
//   flexrt_design study  [--trials N] [--seed S] [--shard k/N] [--goal g]
//                        [--overhead a,b,c]
//   flexrt_design fault-sweep <fleet> [--rates R1,R2,...] [--min-sep S]
//                        [--no-baselines] [--exact-supply] [--goal g]
//                        [--overhead a,b,c]
//   flexrt_design merge  <report.jsonl>... [--output FILE]
//   flexrt_design remote <addr> <subcommand> [args...]
//   flexrt_design help | --help
//
// <fleet> is one or more task files, or a generated study: --trials N
// [--seed S] [--shard k/N] (study's fleet is always generated, 100 trials
// by default). Every analysis subcommand also takes --alg edf|rm, the
// accuracy knobs --adaptive TOL, --budget N, --budget-cap N and --deadline
// MS (a per-entry wall-time budget; an adaptive ladder that runs out of
// time degrades gracefully to the last completed rung's conservative
// answer), and the output flags --jsonl, --csv, --stream and --no-wall
// (drop the nondeterministic wall_ms from JSONL rows, making reports
// byte-reproducible and byte-comparable to `remote` output, which is
// always wall-free). solve's report flags print into the human report and
// are rejected with --jsonl. A malformed or misplaced flag prints
// "error: <message naming the flag>" and exits 2.
//
// remote: run a subcommand on a flexrtd daemon (tools/flexrtd.cpp) instead
// of in-process -- task files are uploaded with the wire `add` command,
// generated fleets become `gen-fleet`, and the daemon's JSONL rows stream
// to stdout byte-identical to the offline subcommand with --jsonl
// --no-wall (CI diffs them). <addr> is a unix socket path, host:port, or
// port.
//
// Every run streams its entries through the service's ordered reassembly
// buffer, so rows leave in entry order while peak memory stays bounded by
// the reorder window instead of the fleet size; --stream additionally
// flushes each JSONL row as it is written.
//
// --output FILE (study, sweep, fault-sweep; implies --jsonl): crash-safe
// journaled run through svc::run_journaled. Rows append to FILE.partial
// (whole entries at a time, --fsync upgrades each to a durable write) and
// FILE appears only via the final atomic rename, so it is either absent or
// complete. --resume recovers the completed prefix of an interrupted
// journal and computes only the remaining entries -- the resumed FILE is
// byte-identical to an uninterrupted run. A failed entry is journaled once,
// as its error row. `merge --output FILE` publishes the merged report
// through the same atomic temp-file + rename path.
//
// Legacy compatibility: `flexrt_design <taskfile> ...` (no subcommand) is
// routed to `solve`.
//
// Exit status: 0 on success, 1 on infeasible design / failed verify /
// simulated misses / error rows, 2 on usage or input errors, 4 when
// SIGINT/SIGTERM interrupted a journaled run (the fsynced .partial journal
// resumes with --resume). 3 is unused.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <csignal>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/signals.hpp"
#include "common/table.hpp"
#include "core/design.hpp"
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
#include "svc/study_report.hpp"

using namespace flexrt;

namespace {

// The analysis commands are net/proto's command table: the offline
// subcommands, the flexrtd daemon and `remote` cannot drift apart because
// they parse and render through the same code.
namespace proto = net::proto;
using proto::CommonOpts;

void usage_text(std::ostream& os) {
  os << "usage: flexrt_design <subcommand> ...\n"
         "  solve  <fleet> [--goal min-overhead|max-slack]\n"
         "         [--overhead O_FT,O_FS,O_NF] [--sensitivity] [--response-times]\n"
         "         [--simulate HORIZON] [--fault-rate R] [--trace N]\n"
         "         (the report flags print into the human report: not with\n"
         "         --jsonl)\n"
         "  minq   <fleet> --period P [--exact-supply]\n"
         "  sweep  <fleet> [--p-min P] [--p-max P] [--step dP]\n"
         "  verify <fleet> --period P --quanta Q_FT,Q_FS,Q_NF\n"
         "         [--overhead O_FT,O_FS,O_NF] [--exact-supply]\n"
         "  study  [--trials N] [--seed S] [--shard k/N] [--goal g]\n"
         "         [--overhead a,b,c]\n"
         "  fault-sweep <fleet> [--rates R1,R2,...] [--min-sep S]\n"
         "         [--no-baselines] [--exact-supply] [--goal g]\n"
         "         [--overhead a,b,c]\n"
         "  merge  <report.jsonl>... [--output FILE]\n"
         "  remote <addr> solve|minq|sweep|verify|fault-sweep|study|status\n"
         "         [args...]   run on a flexrtd daemon (addr = socket path,\n"
         "         host:port, or port); rows stream back byte-identical to\n"
         "         the offline subcommand with --jsonl --no-wall\n"
         "  help | --help      print this text to stdout and exit 0\n"
         "fleet: <taskfile>... or --trials N [--seed S] [--shard k/N]\n"
         "common: --alg edf|rm   --adaptive TOL   --budget N   --budget-cap N\n"
         "        --deadline MS  per-entry wall budget (adaptive ladders\n"
         "        degrade to the last finished rung when it expires)\n"
         "        --jsonl  --csv  --stream (flush each JSONL row)\n"
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
         "        --fsync        fsync the journal after every entry\n"
         "SIGINT/SIGTERM during a journaled run: the in-flight entry\n"
         "finishes and is journaled, the .partial is fsynced, exit 4;\n"
         "finish later with --resume\n"
         "a malformed or misplaced flag prints \"error: <message naming the\n"
         "flag>\" and exits 2\n";
}

int usage() {
  usage_text(std::cerr);
  return 2;
}

int cmd_help() {
  usage_text(std::cout);
  return 0;
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

// --- the human/CSV report ---------------------------------------------------

/// The offline human/CSV report, one printer per command. Rows and exit
/// codes come from the command table (proto::Rows); the report adds only
/// solve's simulated deadline misses (rc() 1). A failed entry of any
/// command prints `name: error: <why>` and the report goes on, as the JSONL
/// report renders its error row; the fleet then exits 1.
class HumanReport {
 public:
  HumanReport(const proto::Invocation& inv, const svc::AnalysisService& service)
      : inv_(inv), common_(inv.common), service_(service) {}

  void print(const svc::SolveResult& r) {
    if (inv_.command->id == proto::CommandId::Study) return;  // finish()
    if (r.system) std::cout << "\n";
    if (failed(r)) return;
    print_solve(r);
  }

  void print(const svc::MinQuantumResult& r) {
    if (failed(r)) return;
    std::cout << r.name << ": P = "
              << std::get<svc::MinQuantumRequest>(inv_.request).period
              << ": minQ FT " << format_fixed(r.mode_quantum[0], 4) << ", FS "
              << format_fixed(r.mode_quantum[1], 4) << ", NF "
              << format_fixed(r.mode_quantum[2], 4) << ", margin "
              << format_fixed(r.margin, 4) << " (" << provenance_note(r.prov)
              << ")\n";
  }

  void print(const svc::RegionSweepResult& r) {
    if (failed(r)) return;
    const core::SearchOptions& search =
        std::get<svc::RegionSweepRequest>(inv_.request).search;
    std::cout << r.name << ": lhs(P) over [" << search.p_min << ", "
              << search.p_max << "], " << to_string(common_.alg) << " ("
              << provenance_note(r.prov) << ")\n";
    Table t({"P", "margin"});
    for (const core::RegionSample& s : r.samples) {
      t.row().cell(s.period, 3).cell(s.margin, 4);
    }
    table(t);
  }

  void print(const svc::VerifyResult& r) {
    if (failed(r)) return;
    std::cout << r.name << ": "
              << (r.schedulable ? "schedulable" : "NOT schedulable") << " ("
              << provenance_note(r.prov) << ")\n";
  }

  void print(const svc::FaultSweepResult& r) {
    if (failed(r)) return;
    if (!r.feasible) {
      std::cout << r.name << ": infeasible: " << r.infeasible << "\n";
      return;
    }
    const bool baselines =
        std::get<svc::FaultSweepRequest>(inv_.request).with_baselines;
    std::cout << r.name << ": nominal design P = " << r.schedule.period
              << " (" << to_string(common_.alg) << ", "
              << provenance_note(r.prov) << ")\n";
    std::vector<std::string> head = {"rate", "recovery_gap", "ft_ok",
                                     "fs_ok", "nf_ok", "nf_exposure"};
    if (baselines) {
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
      if (baselines) {
        t.cell(mark(p.pb_ok))
            .cell(mark(p.static_ft_ok))
            .cell(mark(p.static_fs_ok))
            .cell(mark(p.static_nf_ok));
      }
    }
    table(t);
  }

  int rc() const noexcept { return misses_ ? 1 : 0; }

  /// The study's aggregate table, after the last entry.
  void finish(const svc::StudyAggregate& agg) const {
    if (inv_.command->id != proto::CommandId::Study) return;
    const core::StudyOptions& study = inv_.study;
    std::cout << "study: " << agg.trials() << " of " << study.trials
              << " trials (shard " << study.shard.index + 1 << "/"
              << study.shard.count << ", seed 0x" << std::hex
              << study.base_seed << std::dec << "), "
              << to_string(common_.alg) << ", " << to_string(common_.goal)
              << ", O_tot " << common_.overheads.total() << "\n\n";
    Table t({"trials", "packed", "feasible", "sum_period", "mean_period",
             "sum_slack_bw"});
    t.row()
        .cell(agg.trials())
        .cell(agg.packed())
        .cell(agg.feasible())
        .cell(agg.sum_period(), 3)
        .cell(agg.feasible()
                  ? agg.sum_period() / static_cast<double>(agg.feasible())
                  : 0.0,
              3)
        .cell(agg.sum_slack_bw(), 3);
    table(t);
  }

 private:
  /// Prints a failed entry's one line; true when `r` failed.
  static bool failed(const svc::ResultBase& r) {
    if (r.ok()) return false;
    std::cout << r.name << ": error: " << r.error << "\n";
    return true;
  }

  void table(const Table& t) const {
    common_.csv ? t.print_csv(std::cout) : t.print(std::cout);
  }

  void print_solve(const svc::SolveResult& r) {
    const core::ModeTaskSystem& sys = service_.system(r.system);
    std::cout << r.name << ": " << sys.num_tasks() << " tasks (FT "
              << sys.mode_tasks(rt::Mode::FT).size() << ", FS "
              << sys.mode_tasks(rt::Mode::FS).size() << ", NF "
              << sys.mode_tasks(rt::Mode::NF).size() << ")\n";
    if (!r.feasible) {
      std::cout << "infeasible: " << r.infeasible << "\n";
      return;
    }
    const core::Design& d = r.design;
    std::cout << "design (" << to_string(common_.alg) << ", "
              << to_string(common_.goal) << "): " << d.schedule << "\n"
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
    table(t);

    if (inv_.sensitivity) {
      std::cout << "\nsensitivity (max WCET scale keeping the design "
                   "feasible, cap 16x):\n";
      // The engine the design's final rung probed: the margins of the
      // design's own budget.
      const std::shared_ptr<const analysis::BatchEngine> engine =
          service_.engine_ptr(r.system, common_.alg, r.prov.budget);
      Table st({"task", "mode", "wcet", "scale_margin"});
      for (const core::TaskMargin& m : engine->sensitivity_report(d.schedule)) {
        st.row()
            .cell(m.name)
            .cell(rt::to_string(m.mode))
            .cell(m.wcet, 3)
            .cell(m.scale_margin, 3);
      }
      table(st);
      std::cout << "global simultaneous scale margin: "
                << format_fixed(engine->global_scale_margin(d.schedule), 3)
                << "\n";
    }

    if (inv_.response_times) {
      if (common_.alg != hier::Scheduler::FP) {
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
        table(rtb);
      }
    }

    if (inv_.simulate_horizon > 0.0) {
      sim::SimOptions opt;
      opt.horizon = inv_.simulate_horizon;
      opt.scheduler = common_.alg;
      opt.faults = {inv_.fault_rate, 2.0};
      opt.trace_capacity = inv_.trace;
      sim::Simulator simulator(sys, d.schedule, opt);
      const sim::SimResult res = simulator.run();
      std::cout << "\nsimulated " << inv_.simulate_horizon << " units: "
                << res.total_misses() << " misses, " << res.faults.injected
                << " faults (" << res.faults.masked << " masked, "
                << res.faults.silenced << " silenced, "
                << res.faults.corrupting << " corrupting)\n";
      if (inv_.trace > 0) {
        std::cout << "--- trace ---\n";
        simulator.trace().print(std::cout);
      }
      if (res.total_misses() > 0) misses_ = true;
    }
  }

  const proto::Invocation& inv_;
  const CommonOpts& common_;
  const svc::AnalysisService& service_;
  bool misses_ = false;  ///< a --simulate run missed deadlines
};

// --- the analysis driver ------------------------------------------------------

/// A journaled run: each entry's wall-free rows append to the journal as one
/// block (its terminal row last), a resume replays the completed prefix into
/// the exit code and study aggregate, and an unsharded study's summary is
/// the epilogue -- deliberately non-terminal, so a crash after it but
/// before the rename truncates it away on resume and the recomputed
/// aggregate re-emits it. Every journaled run is signal-aware: SIGINT or
/// SIGTERM finishes the in-flight entry, fsyncs the .partial journal and
/// exits 4 (completed entries are durable; --resume finishes the run
/// byte-identically). The closing note goes to stderr, so the report file
/// owns stdout-equivalent bytes.
int run_journal(const proto::Invocation& inv,
                const svc::AnalysisService& service) {
  const CommonOpts& o = inv.common;
  sys::install_stop_signals();
  svc::JournalOptions jopts;
  jopts.resume = o.resume;
  jopts.fsync_per_entry = o.fsync;
  jopts.stop = &sys::stop_requested();
  svc::Journal journal(o.output);
  proto::Rows rows(inv, /*with_wall=*/false);
  const svc::JournalStats stats = std::visit(
      [&](const auto& req) {
        return svc::run_journaled(
            journal, service.size(), jopts,
            [&](std::string_view row) { return rows.terminal(row); },
            [&](std::string_view row) {
              if (rows.terminal(row)) rows.fold(row);
            },
            [&](std::size_t i) { return service.run_one(i, req); },
            [&](const auto& r) { return rows.entry(r); },
            [&] {
              const std::optional<std::string> s = rows.summary();
              return s ? *s + "\n" : std::string();
            });
      },
      inv.request);
  std::cerr << "journal: " << o.output << ": " << stats.entries
            << " entries (" << stats.replayed << " replayed, "
            << stats.executed << " executed)"
            << (stats.already_complete ? " -- already complete" : "") << "\n";
  if (!stats.interrupted) return rows.rc();
  const int sig = sys::stop_signal();
  std::cerr << "journal: interrupted by "
            << (sig == SIGTERM  ? "SIGTERM"
                : sig == SIGINT ? "SIGINT"
                                : "stop request")
            << " -- completed entries are durable in " << o.output
            << ".partial; finish with --resume\n";
  return 4;
}

/// One analysis subcommand: parse it through the command table, build the
/// fleet from task files or --trials, and hand each entry to one of three
/// outputs -- the journal, JSONL on stdout, or the human/CSV report.
int cmd_analysis(const std::string& name,
                 const std::vector<std::string>& args) {
  const proto::Invocation inv =
      proto::parse_command(name, args, proto::Front::Offline);
  svc::AnalysisService service;
  if (inv.generated) {
    service.add_fleet(inv.study, [](std::size_t, Rng& rng) {
      return gen::study_system(rng);
    });
  } else {
    for (const std::string& file : inv.common.files) {
      std::ifstream in(file);
      if (!in) throw ModelError("cannot open " + file);
      service.add_system(io::parse_mode_task_system(in).system, file);
    }
  }
  if (inv.common.journaled()) return run_journal(inv, service);
  if (inv.common.jsonl) {
    return proto::write_rows(inv, service, std::cout, !inv.common.no_wall,
                             inv.common.stream);
  }
  proto::Rows rows(inv, /*with_wall=*/false);
  HumanReport human(inv, service);
  proto::for_each_entry(inv, service, [&](const auto& r) {
    rows.entry(r);  // the command's failure and exit-code rule
    human.print(r);
  });
  human.finish(rows.aggregate());
  return std::max(human.rc(), rows.rc());
}

// --- merge ----------------------------------------------------------------

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
  const std::vector<std::string> args(rest.begin() + 2, rest.end());

  // The wire lines to send: the fleet (task files as `add` blocks, a
  // generated fleet as `gen-fleet`), then the command with its forwarded
  // request flags. `status` reports on the fresh session as given.
  std::vector<std::string> lines;
  std::string cmd = sub;
  if (sub == "status") {
    for (const std::string& a : args) cmd += ' ' + a;
  } else {
    const proto::Invocation inv =
        proto::parse_command(sub, args, proto::Front::Remote);
    if (inv.generated) {
      std::ostringstream gen;
      gen << "gen-fleet --trials " << inv.study.trials << " --seed "
          << inv.study.base_seed;
      if (inv.study.shard.count > 1) {
        gen << " --shard " << inv.study.shard.index + 1 << "/"
            << inv.study.shard.count;
      }
      lines.push_back(gen.str() + "\n");
    } else {
      for (const std::string& f : inv.common.files) {
        lines.push_back(add_payload(f));
      }
    }
    cmd = inv.command->wire;
    for (const std::string& a : inv.wire_args) cmd += ' ' + a;
  }
  lines.push_back(cmd + "\n");

  const int fd = net::dial(addr);
  struct FdCloser {
    int fd;
    ~FdCloser() { ::close(fd); }
  } closer{fd};
  net::FdStream io(fd);
  int rc = 0;
  for (const std::string& line : lines) rc = wire_exchange(io, line);
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
            proto::parse_size("--memo-bytes", argv[++i]));
        continue;
      }
      all.push_back(a);
    }
    if (all.empty()) return usage();
    const std::string cmd = all[0];
    std::vector<std::string> rest(all.begin() + 1, all.end());
    if (proto::find_command(cmd)) return cmd_analysis(cmd, rest);
    if (cmd == "merge") return cmd_merge(rest);
    if (cmd == "remote") return cmd_remote(rest);
    if (cmd == "help" || cmd == "--help" || cmd == "-h") return cmd_help();
    // Legacy form: flexrt_design [flags...] <taskfile> [flags...] == solve
    // (the pre-subcommand CLI accepted the file at any position, so flags
    // before the file must keep working too).
    return cmd_analysis("solve", all);
  } catch (const InfeasibleError& e) {
    std::cerr << "infeasible: " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
