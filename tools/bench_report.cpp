// bench_report -- times the hot analysis kernels (new batched engine vs the
// frozen pre-refactor kernels from bench/legacy_kernels.hpp) and emits a
// JSON report. CI archives the file as BENCH_micro.json so the speedup
// trajectory stays visible across PRs.
//
// Usage: bench_report [output.json | --help]. Exit 0 when the report is
// written, 1 when a measurement throws, 2 on a usage error or an
// unwritable output.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "core/analysis_engine.hpp"
#include "core/design.hpp"
#include "core/integration.hpp"
#include "core/paper_example.hpp"
#include "core/study_runner.hpp"
#include "fault/fault_model.hpp"
#include "fault/recovery.hpp"
#include "gen/taskset_gen.hpp"
#include "hier/min_quantum.hpp"
#include "io/task_io.hpp"
#include "legacy_kernels.hpp"
#include "rt/analysis_context.hpp"
#include "rt/deadline_bound.hpp"
#include "rt/demand.hpp"
#include "rt/priority.hpp"
#include "common/fs.hpp"
#include "net/proto.hpp"
#include "net/server.hpp"
#include "stress_workloads.hpp"
#include "svc/analysis_service.hpp"
#include "svc/journal.hpp"
#include "svc/jsonl.hpp"
#include "svc/memo_cache.hpp"
#include "svc/rows.hpp"

#include <unistd.h>

#include <cstdlib>

namespace {

using namespace flexrt;
using Clock = std::chrono::steady_clock;

volatile double g_sink = 0.0;  // defeats dead-code elimination

/// ns per call, measured over enough repetitions to fill ~100 ms.
double time_ns(const std::function<double()>& fn) {
  g_sink = fn();  // warm caches (and the lazy AnalysisContext state)
  std::size_t reps = 1;
  for (;;) {
    const auto start = Clock::now();
    for (std::size_t i = 0; i < reps; ++i) g_sink = fn();
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (elapsed >= 0.1 || reps >= (1u << 24)) {
      return elapsed * 1e9 / static_cast<double>(reps);
    }
    reps *= elapsed < 1e-3 ? 64 : 2;
  }
}

/// Rounds of a fleet row too short or too noisy to time once: the row
/// reports their median.
constexpr int kFleetRounds = 5;

double median(std::vector<double> v) {
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

/// Builds every entry of a generated fleet now, so that the rows time the
/// requests and not the generation that add_fleet leaves to first use.
void materialize(const svc::AnalysisService& service) {
  for (std::size_t i = 0; i < service.size(); ++i) {
    (void)service.has_system(i);
  }
}

struct Row {
  std::string name;
  double legacy_ns = 0.0;
  double engine_ns = 0.0;
};

/// examples/paper_example.txt: the paper's 13 tasks, pinned to channels.
constexpr const char* kPaperTaskFile =
    "# The paper's Table-1 application (13 tasks) with the manual partition\n"
    "# given in the text -- the task-file twin of core::paper_example().\n"
    "# Format: name C T [D] mode [channel]   (see tools/README.md)\n"
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

constexpr const char* kUsage =
    "usage: bench_report [output.json]   (default: BENCH_micro.json)\n";

/// The report's temporary files, named after the output path.
std::string daemon_tasks_path(const std::string& out_path) {
  return out_path + ".daemon_bench.tasks";
}
std::string daemon_socket_path(const std::string& out_path) {
  // net::dial reads an address without '/' as host:port.
  const std::string dir =
      out_path.find('/') == std::string::npos ? "./" : "";
  return dir + out_path + ".daemon_bench.sock";
}

int run(const std::string& out_path, const std::string& argv0) {
  // Every row below except memo_hit measures compute, not lookups; the
  // process-wide answer memo would turn their repeat runs into cache hits
  // and time the wrong thing. The memo_hit block re-enables it.
  svc::global_memo().set_enabled(false);

  const core::ModeTaskSystem& sys = core::paper_example();
  const analysis::BatchEngine engine(sys, hier::Scheduler::EDF);
  const core::ModeSchedule schedule =
      core::solve_design(engine, {0.02, 0.02, 0.02},
                         core::DesignGoal::MaxSlackBandwidth)
          .schedule;

  Rng rng(1246);
  gen::GenParams gp;
  gp.num_tasks = 12;
  gp.total_utilization = 0.6;
  gp.ft_fraction = 0.0;
  gp.fs_fraction = 0.0;
  const rt::TaskSet ts12 =
      rt::sort_rate_monotonic(gen::generate_task_set(gp, rng));
  const rt::AnalysisContext ctx12(ts12);

  const hier::SlotSupply slot(2.0, 0.75);

  std::vector<Row> rows;
  rows.push_back({"min_quantum_edf_n12",
                  time_ns([&] {
                    return legacy::min_quantum(ts12, hier::Scheduler::EDF, 2.0);
                  }),
                  time_ns([&] {
                    return hier::min_quantum(ctx12, hier::Scheduler::EDF, 2.0);
                  })});
  rows.push_back({"min_quantum_fp_n12",
                  time_ns([&] {
                    return legacy::min_quantum(ts12, hier::Scheduler::FP, 2.0);
                  }),
                  time_ns([&] {
                    return hier::min_quantum(ctx12, hier::Scheduler::FP, 2.0);
                  })});
  rows.push_back({"feasibility_margin_paper",
                  time_ns([&] {
                    return legacy::feasibility_margin(
                        sys, hier::Scheduler::EDF, 2.0);
                  }),
                  time_ns([&] { return engine.feasibility_margin(2.0); })});
  rows.push_back({"supply_inverse_slot",
                  time_ns([&] {
                    double acc = 0.0;
                    for (int d = 1; d <= 16; ++d) {
                      acc += legacy::inverse_by_bisection(slot, 0.33 * d);
                    }
                    return acc;
                  }),
                  time_ns([&] {
                    double acc = 0.0;
                    for (int d = 1; d <= 16; ++d) acc += slot.inverse(0.33 * d);
                    return acc;
                  })});
  rows.push_back(
      {"sensitivity_report_paper",
       time_ns([&] {
         return legacy::sensitivity_report(sys, schedule,
                                           hier::Scheduler::EDF)
             .back()
             .scale_margin;
       }),
       time_ns([&] {
         return engine.sensitivity_report(schedule).back().scale_margin;
       })});
  {
    core::SearchOptions opts;
    opts.grid_step = 1e-2;
    opts.p_max = 6.0;
    rows.push_back({"sample_region_paper",
                    time_ns([&] {
                      double acc = 0.0;
                      for (double p = opts.p_min; p <= opts.p_max;
                           p += opts.grid_step) {
                        acc += engine.feasibility_margin(p);
                      }
                      return acc;
                    }),
                    time_ns([&] {
                      return engine.sample_region(opts).back().margin;
                    })});
  }
  {
    // Design goal G1 on the default grid (p_max 3 x the largest deadline,
    // step 1e-3). Legacy: the full downward scan -- every accumulated
    // candidate probed -- then the same bisection; engine: the certified
    // skip, its skipped runs walked in closed form.
    constexpr double kOverhead = 0.05;
    rows.push_back(
        {"max_feasible_period_paper",
         time_ns([&] {
           const core::SearchOptions opts;
           double hi = core::auto_period_bound(sys);
           double lo = -1.0;
           for (double p = hi; p >= opts.p_min; p -= opts.grid_step) {
             if (engine.feasibility_margin(p) >= kOverhead) {
               lo = p;
               break;
             }
             hi = p;
           }
           while (hi - lo > opts.tolerance) {
             const double mid = 0.5 * (lo + hi);
             if (engine.feasibility_margin(mid) >= kOverhead) {
               lo = mid;
             } else {
               hi = mid;
             }
           }
           return lo;
         }),
         time_ns([&] { return engine.max_feasible_period(kOverhead); })});
  }

  // --- one-shot FS-recovery checks: the fault sweep's per-rate channel test -
  // The five default fault rates (gaps inf, 1000, 100, 10, 1) under each
  // system's designed linear FS supply, over the FS channels of 64 seeded
  // study systems. Legacy is the context-built test the sweep ran before
  // the certificate (a default-budget rt::AnalysisContext of the channel
  // and its recovery task); engine is fault::fs_schedulable, whose EDF
  // certificate settles most checks from a few deadlines. Both must give
  // every verdict alike before either is timed.
  {
    struct Check {
      rt::TaskSet channel;
      hier::LinearSupply supply;
      double gap;
    };
    std::vector<Check> checks;
    Rng sys_rng(0xFA017);
    for (int drawn = 0; drawn < 64;) {
      const std::optional<core::ModeTaskSystem> fs_sys =
          gen::study_system(sys_rng);
      if (!fs_sys) continue;
      ++drawn;
      const analysis::BatchEngine fs_engine(*fs_sys, hier::Scheduler::EDF);
      core::ModeSchedule designed;
      try {
        designed = core::solve_design(fs_engine, {},
                                      core::DesignGoal::MinOverheadBandwidth)
                       .schedule;
      } catch (const InfeasibleError&) {
        continue;
      }
      for (const rt::TaskSet& channel : fs_sys->partitions(rt::Mode::FS)) {
        if (channel.empty()) continue;
        for (const double rate : {0.0, 1e-3, 1e-2, 0.1, 1.0}) {
          checks.push_back({channel, designed.supply(rt::Mode::FS),
                            fault::recovery_gap({rate, 1.0})});
        }
      }
    }
    const auto context_built = [](const Check& c) {
      for (const rt::Task& t : c.channel) {
        if (t.wcet > c.gap) return false;
      }
      rt::TaskSet with_recovery = c.channel;
      if (const auto rec = fault::recovery_task(c.channel, c.gap)) {
        with_recovery.add(*rec);
      }
      const rt::AnalysisContext ctx(std::move(with_recovery));
      return hier::schedulable(ctx, hier::Scheduler::EDF, c.supply);
    };
    const auto one_shot = [](const Check& c) {
      return fault::fs_schedulable(c.channel, hier::Scheduler::EDF, c.supply,
                                   c.gap);
    };
    for (const Check& c : checks) {
      FLEXRT_REQUIRE(context_built(c) == one_shot(c),
                     "fs_recovery_checks: the two tests disagree");
    }
    const auto count = [&](const auto& test) {
      double yes = 0.0;
      for (const Check& c : checks) yes += test(c) ? 1.0 : 0.0;
      return yes;
    };
    rows.push_back({"fs_recovery_checks",
                    time_ns([&] { return count(context_built); }),
                    time_ns([&] { return count(one_shot); })});
  }

  // --- text: the wire sweep's rows and the paper's task file --------------
  // Legacy is the frozen string-per-field renderer and istringstream/stod
  // parser (bench/legacy_kernels.hpp); the bytes and the parsed system must
  // match before either side is timed.
  {
    svc::AnalysisService service;
    service.add_system(core::paper_example(), "paper");
    const net::proto::Invocation sweep_cmd =
        net::proto::parse_command("sweep", {}, net::proto::Front::Wire);
    const auto& req = std::get<svc::RegionSweepRequest>(sweep_cmd.request);
    const svc::RegionSweepResult sweep = service.region_sweep_one(0, req);
    const std::string alg = hier::to_string(req.alg);
    const auto legacy_render = [&] {
      std::ostringstream out;
      std::size_t n = 0;
      for (const core::RegionSample& smp : sweep.samples) {
        legacy::JsonRow row;
        row.field("kind", "sweep_sample")
            .field("name", sweep.name)
            .field("alg", alg)
            .field("period", smp.period)
            .field("margin", smp.margin);
        legacy::jsonl_write(out, row.str(), false, n++);
      }
      const svc::Provenance& prov = sweep.prov;
      legacy::JsonRow row;
      row.field("kind", "sweep")
          .field("name", sweep.name)
          .field("alg", alg)
          .field("samples", sweep.samples.size())
          .field("dl_exact", prov.dl_exact)
          .field("fp_exact", prov.fp_exact)
          .field("budget", prov.budget)
          .field("fp_budget", prov.fp_budget)
          .field("probes", prov.probes);
      if (prov.gap) {
        row.field("gap", *prov.gap);
      } else {
        row.null_field("gap");
      }
      row.field("degraded", prov.degraded);
      legacy::jsonl_write(out, row.str(), false, n);
      return out.str();
    };
    // The wire's render path: Rows::entry's block, written with one call.
    const auto library_render = [&] {
      std::ostringstream out;
      net::proto::Rows entry_rows(sweep_cmd, /*with_wall=*/false);
      svc::JsonlWriter(out).write_rows(entry_rows.entry(sweep));
      return out.str();
    };
    FLEXRT_REQUIRE(sweep.samples.size() == 70 &&
                       legacy_render() == library_render(),
                   "render_sweep_rows_paper: the renderers disagree");
    rows.push_back({"render_sweep_rows_paper",
                    time_ns([&] {
                      return static_cast<double>(legacy_render().size());
                    }),
                    time_ns([&] {
                      return static_cast<double>(library_render().size());
                    })});

    const auto task_count = [](const io::ParsedSystem& p) {
      double n = 0.0;
      for (const rt::Mode mode : core::kAllModes) {
        for (const rt::TaskSet& part : p.system.partitions(mode)) {
          n += static_cast<double>(part.size());
        }
      }
      return n;
    };
    FLEXRT_REQUIRE(
        task_count(legacy::parse_mode_task_system_string(kPaperTaskFile)) ==
                13.0 &&
            task_count(io::parse_mode_task_system_string(kPaperTaskFile)) ==
                13.0,
        "parse_tasks_paper: the parsers disagree");
    rows.push_back(
        {"parse_tasks_paper",
         time_ns([&] {
           return task_count(
               legacy::parse_mode_task_system_string(kPaperTaskFile));
         }),
         time_ns([&] {
           return task_count(io::parse_mode_task_system_string(kPaperTaskFile));
         })});
  }

  // --- large-n stress rows: the QPA-condensed dlSet at n = 1000 -----------
  {
    // Hyperperiod-hostile set: the full dlSet enumeration is intractable
    // (co-prime-ish periods), so "legacy" here is the per-point O(n*points)
    // demand kernel over the same condensed points -- the tightest baseline
    // that still finishes -- vs the cached event-sweep context probe.
    const rt::TaskSet stress = benchws::stress_set(1000);
    const rt::AnalysisContext sctx(stress);
    const std::vector<double>& spoints = sctx.deadline_points();
    rows.push_back({"stress_minq_edf_n1000",
                    time_ns([&] {
                      double worst = 0.0;
                      for (const double t : spoints) {
                        worst = std::max(
                            worst, hier::quantum_for_point(
                                       t, rt::edf_demand(stress, t), 2.0));
                      }
                      return worst;
                    }),
                    time_ns([&] {
                      return hier::min_quantum(sctx, hier::Scheduler::EDF,
                                               2.0);
                    })});

    // FP twin: the full Bini-Buttazzo point sets are astronomically large
    // on the hostile draw, so "legacy" is the per-point O(n) fp_workload
    // kernel over the same condensed points (the tightest baseline that
    // still finishes) vs the cached context probe.
    const rt::TaskSet stress_fp = benchws::stress_set_fp(1000);
    const rt::AnalysisContext fctx(stress_fp);
    rows.push_back(
        {"stress_minq_fp_n1000",
         time_ns([&] {
           double worst = 0.0;
           for (std::size_t i = 0; i < fctx.size(); ++i) {
             const std::vector<double>& pts = fctx.scheduling_points(i);
             const std::vector<double>& ends = fctx.scheduling_point_ends(i);
             double best = std::numeric_limits<double>::infinity();
             for (std::size_t k = 0; k < pts.size(); ++k) {
               best = std::min(
                   best, hier::quantum_for_point(
                             pts[k], rt::fp_workload(stress_fp, i, ends[k]),
                             2.0));
             }
             worst = std::max(worst, best);
           }
           return worst;
         }),
         time_ns([&] {
           return hier::min_quantum(fctx, hier::Scheduler::FP, 2.0);
         })});

    // Tractable twin (divisor-friendly period menu, hyperperiod 120): the
    // real pre-refactor path runs, so the ratio is a true before/after.
    const rt::TaskSet big = benchws::tractable_big_set(1000);
    const rt::AnalysisContext bctx(big);
    rows.push_back({"minq_edf_menu_n1000",
                    time_ns([&] {
                      return legacy::min_quantum(big, hier::Scheduler::EDF,
                                                 2.0);
                    }),
                    time_ns([&] {
                      return hier::min_quantum(bctx, hier::Scheduler::EDF,
                                               2.0);
                    })});
  }

  // --- streaming fleet execution: peak result buffering vs fleet size -----
  // The service's one fleet path reassembles results through a bounded
  // reorder window, so peak buffered rows is O(window), while the
  // reference -- a serial min_quantum_one loop collecting a vector -- holds
  // the whole fleet. Rows (not ns) are the headline here: this is the
  // memory bound that makes 10^5+-trial studies feasible.
  std::size_t fleet_entries = 0, fleet_window = 0, fleet_peak = 0;
  double fleet_buffered_ms = 0.0, fleet_streamed_ms = 0.0;
  {
    svc::AnalysisService service;
    core::StudyOptions study;
    study.trials = 256;
    service.add_fleet(study,
                      [](std::size_t, Rng& fleet_rng) { return gen::study_system(fleet_rng); });
    fleet_entries = service.size();
    materialize(service);
    const svc::MinQuantumRequest req{hier::Scheduler::EDF, 1.0, false, {}};
    // A warm-up run. A one-pass service keeps no engine, so both timed
    // paths build each entry's engine again.
    (void)service.run(req);
    const auto t0 = Clock::now();
    std::vector<svc::MinQuantumResult> buffered;
    for (std::size_t i = 0; i < service.size(); ++i) {
      buffered.push_back(service.min_quantum_one(i, req));
    }
    const auto t1 = Clock::now();
    double sink_acc = 0.0;
    const svc::StreamStats stats = service.run(
        req, [&](const svc::MinQuantumResult& r) { sink_acc += r.margin; });
    const auto t2 = Clock::now();
    g_sink = sink_acc + buffered.back().margin;
    fleet_window = stats.window;
    fleet_peak = stats.max_buffered;
    fleet_buffered_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    fleet_streamed_ms = std::chrono::duration<double, std::milli>(t2 - t1).count();
  }

  // --- a generated fault sweep through the fleet path ----------------------
  // 48 trials of the default fault-sweep request (a nominal design, then
  // the five default rates' recovery checks and the baselines per entry),
  // streamed through AnalysisService::run. CI compares it at one thread
  // and at the default width. Each run builds its engines again (a
  // one-pass service keeps none); the row is the median of kFleetRounds.
  std::size_t fault_entries = 0;
  double fault_streamed_ms = 0.0;
  {
    svc::AnalysisService service;
    core::StudyOptions study;
    study.trials = 48;
    service.add_fleet(study, [](std::size_t, Rng& fleet_rng) {
      return gen::study_system(fleet_rng);
    });
    fault_entries = service.size();
    materialize(service);
    svc::FaultSweepRequest req;
    req.rates = {0.0, 1e-3, 1e-2, 0.1, 1.0};
    (void)service.run(req);  // warm-up
    std::vector<double> rounds;
    for (int round = 0; round < kFleetRounds; ++round) {
      std::size_t ok = 0;
      const auto t0 = Clock::now();
      service.run(req, [&](const svc::FaultSweepResult& r) {
        ok += r.ok() ? 1 : 0;
      });
      rounds.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - t0)
              .count());
      g_sink = static_cast<double>(ok);
    }
    fault_streamed_ms = median(rounds);
  }

  // --- journaled fleet execution: the durability tax over the raw stream --
  // Same fleet shape as stream_fleet, but every row goes through the
  // crash-safe journal (append + atomic rename; the fsync variant upgrades
  // each entry to a durable write). The delta against streamed_ms above is
  // what --output costs; the fsync column is what --fsync adds on top.
  // Every run ends in the commit's fsync and rename, whose cost swings by
  // tens of milliseconds with the disk, so journal_ms is the median of
  // kFleetRounds runs, each on a fresh journal.
  std::size_t journal_entries = 0;
  double journal_ms = 0.0, journal_fsync_ms = 0.0;
  {
    svc::AnalysisService service;
    core::StudyOptions study;
    study.trials = 256;
    service.add_fleet(study,
                      [](std::size_t, Rng& fleet_rng) { return gen::study_system(fleet_rng); });
    journal_entries = service.size();
    materialize(service);
    const svc::MinQuantumRequest req{hier::Scheduler::EDF, 1.0, false, {}};
    // A warm-up run; as in stream_fleet, every timed run builds each
    // entry's engine again.
    (void)service.run(req);
    const std::string path = out_path + ".journal_bench.jsonl";
    const auto timed_run = [&](bool fsync_per_entry) {
      svc::Journal journal(path);
      svc::JournalOptions opts;
      opts.fsync_per_entry = fsync_per_entry;
      const auto t0 = Clock::now();
      svc::run_journaled(
          journal, service.size(), opts,
          [](std::string_view) { return true; },  // one row per entry
          {}, [&](std::size_t i) { return service.min_quantum_one(i, req); },
          [&](const svc::MinQuantumResult& r) {
            svc::JsonRow row;
            row.field("kind", "min_quantum")
                .field("name", r.name)
                .field("margin", r.margin);
            return row.str() + "\n";
          });
      const auto t1 = Clock::now();
      fs::remove_file(path);
      return std::chrono::duration<double, std::milli>(t1 - t0).count();
    };
    std::vector<double> rounds;
    for (int round = 0; round < kFleetRounds; ++round) {
      rounds.push_back(timed_run(false));
    }
    journal_ms = median(rounds);
    journal_fsync_ms = timed_run(true);
  }

  // --- daemon round-trip: process-per-request vs a warm resident session --
  // Cold = exec the offline tool once per request (what a shell loop or a
  // notebook pays today: shell, process start, parse -- every
  // time). Warm = the same solve over one persistent flexrtd session on a
  // unix socket. The workload is deliberately small so the row measures the
  // per-request fixed costs the daemon amortizes, not the solve itself
  // (kernel timings live in the rows above).
  double cold_ms = 0.0, warm_ms = 0.0;
  std::size_t cold_runs = 0, warm_runs = 0;
  {
    static constexpr const char* kTasks =
        "a 1 6 NF 0\nb 1 12 FS 0\nc 1 15 FT 0\n";
    const std::string task_path = daemon_tasks_path(out_path);
    if (std::FILE* f = std::fopen(task_path.c_str(), "w")) {
      std::fputs(kTasks, f);
      std::fclose(f);
    }
    // The offline tool sits next to this binary; FLEXRT_DESIGN_BIN is the
    // override for out-of-tree runs.
    std::string tool = "./flexrt_design";
    if (const char* env = std::getenv("FLEXRT_DESIGN_BIN")) {
      tool = env;
    } else {
      const std::string& self = argv0;
      const std::size_t slash = self.rfind('/');
      if (slash != std::string::npos) {
        tool = self.substr(0, slash) + "/flexrt_design";
      }
    }
    const std::string cold_cmd =
        tool + " solve --jsonl --no-wall " + task_path + " > /dev/null";
    if (std::system(cold_cmd.c_str()) == 0) {  // smoke once, then time
      cold_runs = 5;
      const auto t0 = Clock::now();
      for (std::size_t i = 0; i < cold_runs; ++i) {
        (void)std::system(cold_cmd.c_str());
      }
      cold_ms = std::chrono::duration<double, std::milli>(Clock::now() - t0)
                    .count() /
                static_cast<double>(cold_runs);
    } else {
      std::fprintf(stderr, "bench_report: %s not runnable, cold_process_ms=0\n",
                   tool.c_str());
    }

    const std::string sock = daemon_socket_path(out_path);
    net::ServerOptions sopts;
    sopts.socket_path = sock;
    net::Server server(sopts);
    server.start();
    const int fd = net::dial(sock);
    {
      net::FdStream io(fd);
      const auto request = [&](const std::string& cmd) {
        io << cmd << std::flush;
        bool truncated = false;
        while (const auto line = net::proto::read_line(
                   io, net::proto::kMaxLineBytes, &truncated)) {
          if (net::proto::parse_status_line(*line)) break;
        }
      };
      request("add bench\n" + std::string(kTasks) + ".\n");
      request("solve\n");  // warm the session's engine cache
      warm_runs = 50;
      const auto t0 = Clock::now();
      for (std::size_t i = 0; i < warm_runs; ++i) request("solve\n");
      warm_ms = std::chrono::duration<double, std::milli>(Clock::now() - t0)
                    .count() /
                static_cast<double>(warm_runs);
      request("quit\n");
    }
    ::close(fd);
    server.stop();
    fs::remove_file(task_path);
  }

  // --- content-addressed answer memo: cold fleet vs a warm repeat --------
  // Cold = first full 256-entry run (analyses execute and their answers are
  // stored under the exact (system, request) key). Warm = the identical
  // request repeated: every entry's inputs are bit-identical, so it resolves
  // by memo lookup instead of an adaptive ladder. Both are sub-millisecond
  // fleet loops, so each is the median of kFleetRounds rounds, every round
  // from a cleared memo. The wall-free
  // JSONL renderings of both runs must be byte-identical in every round
  // (cache_hit only ever renders next to wall_ms), which is what
  // bytes_identical certifies.
  std::size_t memo_entries = 0;
  double memo_cold_ms = 0.0, memo_warm_ms = 0.0;
  std::size_t memo_hits = 0;
  bool memo_bytes_identical = true;
  {
    svc::global_memo().set_enabled(true);
    core::StudyOptions study;
    study.trials = 256;
    // An adaptive ladder is the realistic cold cost (several budget
    // rungs per entry); the warm lookup is the same either way.
    const svc::MinQuantumRequest req{hier::Scheduler::EDF, 1.0, false,
                                     svc::AccuracyPolicy::adaptive(1e-6)};
    const auto render = [&](const std::vector<svc::MinQuantumResult>& rs) {
      std::string text;
      for (const svc::MinQuantumResult& r : rs) {
        text += svc::min_quantum_row(r, req.alg, req.period, false).str();
        text += '\n';
      }
      return text;
    };
    std::vector<double> cold_rounds, warm_rounds;
    for (int round = 0; round < kFleetRounds; ++round) {
      // A fresh service per round: cold includes the engine builds.
      svc::AnalysisService service;
      service.add_fleet(study, [](std::size_t, Rng& fleet_rng) {
        return gen::study_system(fleet_rng);
      });
      memo_entries = service.size();
      materialize(service);
      svc::global_memo().clear();
      const auto t0 = Clock::now();
      const auto cold = service.run(req);
      const auto t1 = Clock::now();
      const auto warm = service.run(req);
      const auto t2 = Clock::now();
      cold_rounds.push_back(
          std::chrono::duration<double, std::milli>(t1 - t0).count());
      warm_rounds.push_back(
          std::chrono::duration<double, std::milli>(t2 - t1).count());
      memo_hits = static_cast<std::size_t>(svc::global_memo().stats().hits);
      memo_bytes_identical =
          memo_bytes_identical && render(cold) == render(warm);
    }
    memo_cold_ms = median(cold_rounds);
    memo_warm_ms = median(warm_rounds);
    svc::global_memo().set_enabled(false);
    svc::global_memo().clear();
  }

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 2;
  }
  std::fprintf(out, "{\n  \"schema\": \"flexrt-bench-micro/1\",\n");
  std::fprintf(out,
               "  \"stream_fleet\": {\"entries\": %zu, \"buffered_rows\": %zu, "
               "\"stream_window\": %zu, \"stream_peak_rows\": %zu, "
               "\"buffered_ms\": %.2f, \"streamed_ms\": %.2f},\n",
               fleet_entries, fleet_entries, fleet_window, fleet_peak,
               fleet_buffered_ms, fleet_streamed_ms);
  std::fprintf(out,
               "  \"journal_fleet\": {\"entries\": %zu, \"journal_ms\": %.2f, "
               "\"journal_fsync_ms\": %.2f},\n",
               journal_entries, journal_ms, journal_fsync_ms);
  std::fprintf(out,
               "  \"fault_fleet\": {\"entries\": %zu, \"streamed_ms\": %.2f},\n",
               fault_entries, fault_streamed_ms);
  std::fprintf(out,
               "  \"daemon_roundtrip\": {\"cold_runs\": %zu, "
               "\"cold_process_ms\": %.2f, \"warm_runs\": %zu, "
               "\"warm_request_ms\": %.2f, \"speedup\": %.2f},\n",
               cold_runs, cold_ms, warm_runs, warm_ms,
               warm_ms > 0.0 ? cold_ms / warm_ms : 0.0);
  std::fprintf(out,
               "  \"memo_hit\": {\"entries\": %zu, \"cold_ms\": %.2f, "
               "\"warm_ms\": %.2f, \"speedup\": %.2f, \"hits\": %zu, "
               "\"bytes_identical\": %s},\n",
               memo_entries, memo_cold_ms, memo_warm_ms,
               memo_warm_ms > 0.0 ? memo_cold_ms / memo_warm_ms : 0.0,
               memo_hits, memo_bytes_identical ? "true" : "false");
  std::fprintf(out, "  \"threads\": %zu,\n  \"kernels\": [\n",
               par::thread_count());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"legacy_ns\": %.1f, "
                 "\"engine_ns\": %.1f, \"speedup\": %.2f}%s\n",
                 r.name.c_str(), r.legacy_ns, r.engine_ns,
                 r.legacy_ns / r.engine_ns, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);

  for (const Row& r : rows) {
    std::printf("%-28s legacy %10.0f ns   engine %10.0f ns   %6.2fx\n",
                r.name.c_str(), r.legacy_ns, r.engine_ns,
                r.legacy_ns / r.engine_ns);
  }
  std::printf(
      "stream_fleet                 %zu entries: serial buffered %zu rows, "
      "streamed "
      "peak %zu rows (window %zu); %.1f ms vs %.1f ms\n",
      fleet_entries, fleet_entries, fleet_peak, fleet_window,
      fleet_buffered_ms, fleet_streamed_ms);
  std::printf(
      "journal_fleet                %zu entries: journaled %.1f ms, "
      "fsync-per-entry %.1f ms\n",
      journal_entries, journal_ms, journal_fsync_ms);
  std::printf("fault_fleet                  %zu entries: streamed %.1f ms\n",
              fault_entries, fault_streamed_ms);
  std::printf(
      "daemon_roundtrip             cold %8.1f ms/solve (exec, %zu runs)   "
      "warm %8.2f ms/solve (resident, %zu runs)   %6.1fx\n",
      cold_ms, cold_runs, warm_ms, warm_runs,
      warm_ms > 0.0 ? cold_ms / warm_ms : 0.0);
  std::printf(
      "memo_hit                     %zu entries: cold %8.1f ms   warm "
      "%8.2f ms   %6.1fx   (%zu hits, wall-free rows %s)\n",
      memo_entries, memo_cold_ms, memo_warm_ms,
      memo_warm_ms > 0.0 ? memo_cold_ms / memo_warm_ms : 0.0, memo_hits,
      memo_bytes_identical ? "byte-identical" : "DIFFER");
  std::printf("report written to %s\n", out_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_micro.json";
  if (argc > 1) {
    const std::string arg = argv[1];
    if (arg == "--help" || arg == "-h") {
      std::fputs(kUsage, stdout);
      return 0;
    }
    if (arg.starts_with("-") || argc > 2) {
      const char* bad = arg.starts_with("-") ? argv[1] : argv[2];
      std::fprintf(stderr, "bench_report: unexpected argument '%s'\n%s", bad,
                   kUsage);
      return 2;
    }
    out_path = arg;
  }
  try {
    return run(out_path, argv[0]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_report: %s\n", e.what());
    std::remove(daemon_tasks_path(out_path).c_str());
    std::remove(daemon_socket_path(out_path).c_str());
    return 1;
  }
}
