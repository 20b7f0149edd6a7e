// Traced in-process replay: the workload's seeded request stream driven
// straight through each layer's public entry point, in the order the
// daemon or the CLI would call them, with a span around every call.
// Spans are recorded only here (never inside the library), kept in memory
// and written when the replay ends; run.py turns them into per-layer self
// times. The same replay runs once untraced first, so the cost of the
// spans themselves is measured too.
#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "core/design.hpp"
#include "core/study_runner.hpp"
#include "gen/taskset_gen.hpp"
#include "io/task_io.hpp"
#include "net/proto.hpp"
#include "perfbench.hpp"
#include "svc/analysis_service.hpp"
#include "svc/journal.hpp"
#include "svc/jsonl.hpp"
#include "svc/memo_cache.hpp"
#include "svc/rows.hpp"
#include "svc/study_report.hpp"

namespace perfbench {

using namespace flexrt;

namespace {

struct Span {
  std::string name;
  std::uint64_t id = 0, parent = 0, req = 0;
  std::int64_t start_ns = 0, end_ns = 0;
};

/// In-memory span store; disabled, every Scope is a no-op.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}
  bool enabled() const { return enabled_; }
  std::uint64_t next_id() { return ++ids_; }
  std::int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - t0_).count();
  }
  void record(Span s) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(s));
  }
  void write(std::ostream& os) const {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Span& s : spans_) {
      os << s.name << '\t' << s.id << '\t' << s.parent << '\t' << s.req << '\t'
         << s.start_ns << '\t' << s.end_ns << '\n';
    }
  }

 private:
  bool enabled_;
  Clock::time_point t0_;
  std::atomic<std::uint64_t> ids_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span: opened at construction, recorded at destruction.
class Scope {
 public:
  Scope(Tracer& t, const char* name, std::uint64_t parent, std::uint64_t req)
      : t_(t) {
    if (!t_.enabled()) return;
    s_.name = name;
    s_.id = t_.next_id();
    s_.parent = parent;
    s_.req = req;
    s_.start_ns = t_.ns(Clock::now());
  }
  ~Scope() {
    if (!t_.enabled()) return;
    s_.end_ns = t_.ns(Clock::now());
    t_.record(std::move(s_));
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  std::uint64_t id() const { return s_.id; }

 private:
  Tracer& t_;
  Span s_;
};

/// Counters the self times are divided by (and the ratio layers).
struct Counters {
  std::uint64_t tasks_parsed = 0, systems_added = 0, margin_probes = 0,
                ladder_runs = 0, ladder_rounds = 0, ladder_exact = 0,
                rows = 0, row_bytes = 0, entries_journaled = 0,
                peak_rows = 0, engine_builds = 0, draws = 0,
                pack_failures = 0, ops = 0;
  std::mutex mu;
  void add_service(const svc::AnalysisService& s) {
    const auto st = s.engine_cache_stats();
    engine_builds += st.entries + st.evictions;
  }
  /// Called from the pool's workers inside journaled runs.
  void ladder(const svc::ResultBase& r) {
    if (!r.ok() || r.prov.cache_hit) return;
    std::lock_guard<std::mutex> lock(mu);
    ++ladder_runs;
    ladder_rounds += r.prov.probes;
    ladder_exact += (r.prov.dl_exact && r.prov.fp_exact) ? 1 : 0;
  }
};

constexpr core::Overheads kStudyOverheads{0.05 / 3, 0.05 / 3, 0.05 / 3};
constexpr int kMarginProbes = 64;

struct Replay {
  Tracer& tr;
  Counters& c;
  std::string dir;
  std::uint64_t req = 0;

  template <typename Fn>
  void render(std::uint64_t parent, Fn&& fn) {
    Scope s(tr, "svc.render", parent, req);
    std::vector<std::string> rows;
    fn(rows);
    for (const std::string& r : rows) {
      ++c.rows;
      c.row_bytes += r.size() + 1;
    }
  }

  std::string session_cmd(net::proto::Session& session, std::ostringstream& out,
                          const char* span, const std::string& line,
                          const std::string& body, std::uint64_t parent) {
    out.str("");
    std::istringstream in(body);
    bool quit = false;
    {
      Scope s(tr, span, parent, req);
      session.handle_line(line, in, quit);
    }
    return out.str();
  }

  /// One light cycle: parse -> add_system -> engine -> core probes ->
  /// *_one -> rows -> run_journaled -> Session::handle_line.
  void light(const Cycle& cyc, net::proto::Session& session,
             std::ostringstream& session_out) {
    ++req;
    ++c.ops;
    Scope root(tr, "request", 0, req);
    const std::uint64_t p = root.id();
    const hier::Scheduler alg = hier::Scheduler::EDF;
    const core::DesignGoal goal = core::DesignGoal::MinOverheadBandwidth;

    io::ParsedSystem parsed;
    {
      Scope s(tr, "io.parse", p, req);
      parsed = io::parse_mode_task_system_string(cyc.text);
    }
    c.tasks_parsed += cyc.tasks;
    svc::AnalysisService service;
    {
      Scope s(tr, "svc.add_system", p, req);
      service.add_system(std::move(parsed.system), cyc.name);
    }
    ++c.systems_added;

    std::shared_ptr<const analysis::BatchEngine> engine;
    {
      // Construction plus the first probe, which materializes the caches.
      Scope s(tr, "svc.engine_build", p, req);
      engine = service.engine_ptr(0, alg);
      (void)engine->feasibility_margin(1.0);
    }
    core::Design design;
    {
      Scope s(tr, "core.solve", p, req);
      design = core::solve_design(*engine, kStudyOverheads, goal);
    }
    {
      Scope s(tr, "core.margin", p, req);
      for (int k = 0; k < kMarginProbes; ++k) {
        (void)engine->feasibility_margin(design.schedule.period);
      }
    }
    c.margin_probes += kMarginProbes;
    core::SearchOptions sweep_grid;
    sweep_grid.p_min = 0.05;
    sweep_grid.p_max = 3.5;
    sweep_grid.grid_step = 0.05;
    {
      Scope s(tr, "core.sweep", p, req);
      (void)engine->sample_region(sweep_grid);
    }

    const svc::SolveRequest sreq{alg, kStudyOverheads, goal, {}, {}};
    svc::SolveResult solved;
    {
      Scope s(tr, "svc.solve_one", p, req);
      solved = service.solve_one(0, sreq);
    }
    c.ladder(solved);
    {
      Scope s(tr, "svc.memo_hit", p, req);
      (void)service.solve_one(0, sreq);
    }
    const double period = solved.design.schedule.period;
    const svc::MinQuantumRequest mreq{alg, period, false, {}};
    svc::MinQuantumResult mq;
    {
      Scope s(tr, "svc.min_quantum_one", p, req);
      mq = service.min_quantum_one(0, mreq);
    }
    c.ladder(mq);
    core::ModeSchedule schedule = solved.design.schedule;
    svc::VerifyResult vr;
    {
      Scope s(tr, "svc.verify_one", p, req);
      vr = service.verify_one(0, svc::VerifyRequest{alg, schedule, false, {}});
    }
    c.ladder(vr);
    svc::RegionSweepResult sw;
    {
      Scope s(tr, "svc.region_sweep_one", p, req);
      sw = service.region_sweep_one(0, svc::RegionSweepRequest{alg, sweep_grid, {}});
    }
    c.ladder(sw);
    svc::FaultSweepRequest freq;
    freq.rates = {0.0, 1e-3, 1e-2, 0.1, 1.0};
    freq.overheads = kStudyOverheads;
    svc::FaultSweepResult fr;
    {
      Scope s(tr, "svc.fault_sweep_one", p, req);
      fr = service.fault_sweep_one(0, freq);
    }
    c.ladder(fr);
    render(p, [&](std::vector<std::string>& rows) {
      rows.push_back(svc::solve_row(solved, alg, goal, false).str());
      rows.push_back(svc::min_quantum_row(mq, alg, period, false).str());
      rows.push_back(svc::verify_row(vr, alg, period, false).str());
      for (const core::RegionSample& smp : sw.samples) {
        rows.push_back(svc::sweep_sample_row(sw, alg, smp).str());
      }
      rows.push_back(svc::sweep_summary_row(sw, alg, false).str());
    });
    journal(p, 1,
            [&](std::size_t i, std::uint64_t jp) {
              Scope s(tr, "svc.journal_entry", jp, req);
              return service.solve_one(i, sreq);
            },
            [&](const svc::SolveResult& r) {
              return svc::solve_row(r, alg, goal, false).str() + "\n";
            },
            "solve", {});
    c.add_service(service);

    // The same cycle through the wire protocol's session, in-process.
    const std::string ov = overhead_flag();
    session_cmd(session, session_out, "net.add", "add " + cyc.name,
                cyc.text + ".\n", p);
    const std::string reply = session_cmd(session, session_out, "net.solve",
                                          "solve --overhead " + ov, {}, p);
    const std::string P = number_text(reply, "period");
    session_cmd(session, session_out, "net.minq", "minq --period " + P, {}, p);
    session_cmd(session, session_out, "net.verify",
                "verify --period " + P + " --quanta " +
                    number_text(reply, "q_ft") + "," +
                    number_text(reply, "q_fs") + "," +
                    number_text(reply, "q_nf") + " --overhead " + ov,
                {}, p);
    session_cmd(session, session_out, "net.sweep", "sweep", {}, p);
    session_cmd(session, session_out, "net.status", "status", {}, p);
    session_cmd(session, session_out, "net.drop", "drop", {}, p);
  }

  /// run_journaled over `n` entries; run_one/render spans are children of
  /// the journal span and overlap on the pool's workers.
  template <typename RunOne, typename Render>
  void journal(std::uint64_t parent, std::size_t n, RunOne&& run_one, Render&& render_one, const std::string& kind,
               std::function<std::string()> epilogue) {
    const std::string path = dir + "/trace_journal.jsonl";
    svc::Journal j(path);
    Scope s(tr, "svc.journal", parent, req);
    const std::uint64_t jp = s.id();
    const svc::JournalStats st = svc::run_journaled(
        j, n, svc::JournalOptions{},
        [kind](std::string_view row) {
          return svc::json_string_field(row, "kind").value_or("") == kind;
        },
        {},
        [&](std::size_t i) { return run_one(i, jp); },
        [&](const auto& r) {
          Scope rs(tr, "svc.render", jp, req);
          std::string block = render_one(r);
          for (char ch : block) c.rows += ch == '\n' ? 1 : 0;
          c.row_bytes += block.size();
          return block;
        },
        epilogue);
    c.entries_journaled += n;
    c.peak_rows = std::max<std::uint64_t>(c.peak_rows, st.max_buffered);
  }

  /// One generated-fleet op: a CLI study or fault-sweep invocation.
  void fleet(const std::string& sub, hier::Scheduler alg, std::uint64_t seed,
             std::size_t trials, net::proto::Session& session,
             std::ostringstream& session_out) {
    ++req;
    ++c.ops;
    Scope root(tr, "request", 0, req);
    const std::uint64_t p = root.id();
    const core::DesignGoal goal = core::DesignGoal::MinOverheadBandwidth;
    core::StudyOptions study;
    study.trials = trials;
    study.base_seed = seed;
    svc::AnalysisService service;
    {
      Scope s(tr, "svc.add_system", p, req);
      const std::uint64_t sp = s.id();
      service.add_fleet(study, [&](std::size_t, Rng& rng) {
        Scope g(tr, "gen.system", sp, req);
        std::optional<core::ModeTaskSystem> sys = gen::study_system(rng);
        ++c.draws;
        c.pack_failures += sys ? 0 : 1;
        return sys;
      });
    }
    c.systems_added += trials;

    // Layer probes on the first entries with a system: the CLI parses no
    // task text here, so io is timed on their rendered task lines.
    core::SearchOptions search;
    search.grid_step = 5e-3;
    search.p_max = 10.0;
    for (std::size_t i = 0, probed = 0; i < service.size() && probed < 4; ++i) {
      if (!service.has_system(i)) continue;
      ++probed;
      const std::string text = system_text(service.system(i));
      {
        Scope s(tr, "io.parse", p, req);
        (void)io::parse_mode_task_system_string(text);
      }
      c.tasks_parsed += service.system(i).num_tasks();
      std::shared_ptr<const analysis::BatchEngine> engine;
      {
        Scope s(tr, "svc.engine_build", p, req);
        engine = service.engine_ptr(i, alg);
        (void)engine->feasibility_margin(1.0);
      }
      double period = 1.0;
      try {
        Scope s(tr, "core.solve", p, req);
        period = core::solve_design(*engine, kStudyOverheads, goal, search)
                     .schedule.period;
      } catch (const InfeasibleError&) {
      }
      {
        Scope s(tr, "core.margin", p, req);
        for (int k = 0; k < kMarginProbes; ++k) {
          (void)engine->feasibility_margin(period);
        }
      }
      c.margin_probes += kMarginProbes;
      {
        Scope s(tr, "core.sweep", p, req);
        core::SearchOptions grid;
        grid.p_min = 0.05;
        grid.p_max = 3.5;
        grid.grid_step = 0.05;
        (void)engine->sample_region(grid);
      }
    }

    const svc::SolveRequest sreq{alg, kStudyOverheads, goal, search, {}};
    svc::FaultSweepRequest freq;
    freq.rates = {0.0, 1e-3, 1e-2, 0.1, 1.0};
    freq.overheads = kStudyOverheads;
    freq.alg = alg;
    freq.search = search;
    if (sub == "fault-sweep") {
      journal(p, service.size(),
              [&](std::size_t i, std::uint64_t jp) {
                Scope s(tr, "svc.fault_sweep_one", jp, req);
                svc::FaultSweepResult r = service.fault_sweep_one(i, freq);
                c.ladder(r);
                return r;
              },
              [&](const svc::FaultSweepResult& r) {
                std::string out;
                if (r.ok()) {
                  for (const svc::FaultRatePoint& pt : r.points) {
                    out += svc::fault_point_row(r, pt, alg, true).str() + "\n";
                  }
                }
                return out + svc::fault_sweep_summary_row(r, alg).str() + "\n";
              },
              "fault_sweep", {});
    } else {
      svc::StudyAggregate agg;
      journal(p, service.size(),
              [&](std::size_t i, std::uint64_t jp) {
                Scope s(tr, "svc.solve_one", jp, req);
                svc::SolveResult r = service.solve_one(i, sreq);
                c.ladder(r);
                return r;
              },
              [&](const svc::SolveResult& r) {
                const std::string row = svc::study_trial_row(r, alg, goal);
                agg.add(row);
                return row + "\n";
              },
              "study_trial", [&agg] { return agg.summary_row() + "\n"; });
    }
    // The request the journal just answered, again: a memo hit.
    for (std::size_t i = 0; i < service.size(); ++i) {
      if (!service.has_system(i)) continue;
      Scope s(tr, "svc.memo_hit", p, req);
      if (sub == "fault-sweep") {
        (void)service.fault_sweep_one(i, freq);
      } else {
        (void)service.solve_one(i, sreq);
      }
      break;
    }
    c.add_service(service);
    session_cmd(session, session_out, "net.status", "status", {}, p);
  }
};

std::vector<std::string> split_ws(const std::string& line) {
  std::istringstream in(line);
  std::vector<std::string> out;
  for (std::string t; in >> t;) out.push_back(t);
  return out;
}

/// One full replay pass; returns its wall time in ms.
double pass(const std::string& workload, std::uint64_t seed, std::size_t ops,
            const std::vector<std::string>& plan, const std::string& dir,
            Tracer& tr, Counters& c) {
  Replay r{tr, c, dir};
  std::ostringstream session_out;
  net::proto::Session session(session_out);

  // Streams are drawn before the clock starts.
  std::vector<Cycle> cycles;
  if (workload != "study_batch") {
    const std::size_t clients = 3;
    std::vector<LightStream> streams;
    for (std::size_t k = 0; k < clients; ++k) streams.emplace_back(seed, k, clients);
    for (std::size_t j = 0; cycles.size() < ops; ++j) {
      cycles.push_back(streams[j % clients].next());
    }
  }
  const Clock::time_point t0 = Clock::now();
  if (workload == "study_batch") {
    for (const std::string& line : plan) {
      const std::vector<std::string> f = split_ws(line);
      if (f.size() != 4) continue;
      r.fleet(f[0], f[1] == "rm" ? hier::Scheduler::FP : hier::Scheduler::EDF,
              std::strtoull(f[2].c_str(), nullptr, 10),
              std::strtoull(f[3].c_str(), nullptr, 10), session, session_out);
    }
  } else {
    for (const Cycle& cyc : cycles) {
      if (!cyc.resubmit) {
        // The generator draws behind this system (gen layer).
        const std::uint64_t gen_req = r.req + 1;
        (void)corpus_system(seed, cyc.system,
                            [&](Clock::time_point a, Clock::time_point b, bool ok) {
                              ++c.draws;
                              c.pack_failures += ok ? 0 : 1;
                              if (!tr.enabled()) return;
                              Span s;
                              s.name = "gen.system";
                              s.id = tr.next_id();
                              s.req = gen_req;
                              s.start_ns = tr.ns(a);
                              s.end_ns = tr.ns(b);
                              tr.record(std::move(s));
                            });
      }
      r.light(cyc, session, session_out);
    }
  }
  return ms_between(t0, Clock::now());
}

void write_counters(svc::JsonRow& row, const Counters& c) {
  row.field("tasks_parsed", c.tasks_parsed)
      .field("systems_added", c.systems_added)
      .field("margin_probes", c.margin_probes)
      .field("ladder_runs", c.ladder_runs)
      .field("ladder_rounds", c.ladder_rounds)
      .field("ladder_exact", c.ladder_exact)
      .field("rows", c.rows)
      .field("row_bytes", c.row_bytes)
      .field("entries_journaled", c.entries_journaled)
      .field("peak_rows", c.peak_rows)
      .field("engine_builds", c.engine_builds)
      .field("draws", c.draws)
      .field("pack_failures", c.pack_failures)
      .field("ops", c.ops);
}

}  // namespace

int run_trace(const std::map<std::string, std::string>& opts) {
  const std::string workload = opts.at("workload");
  const std::uint64_t seed = std::strtoull(opts.at("seed").c_str(), nullptr, 10);
  const std::size_t ops = std::strtoull(opts.at("ops").c_str(), nullptr, 10);
  const std::string dir = opts.at("dir");
  std::vector<std::string> plan;
  if (opts.count("plan")) {
    std::ifstream in(opts.at("plan"));
    for (std::string line; std::getline(in, line);) plan.push_back(line);
  }

  // Untraced, traced, untraced again, each from a cold memo: the traced
  // pass against the mean of the two around it is the spans' own cost,
  // with warm-up and drift split evenly between the sides.
  Tracer off(false);
  Counters off_counts;
  double untraced_ms = pass(workload, seed, ops, plan, dir, off, off_counts);
  svc::global_memo().clear();
  Tracer on(true);
  Counters counts;
  const double traced_ms = pass(workload, seed, ops, plan, dir, on, counts);
  const svc::MemoStats memo = svc::global_memo().stats();
  svc::global_memo().clear();
  Counters again;
  untraced_ms = (untraced_ms + pass(workload, seed, ops, plan, dir, off, again)) / 2;

  std::ofstream spans(opts.at("spans"));
  on.write(spans);
  svc::JsonRow row;
  row.field("untraced_ms", untraced_ms).field("traced_ms", traced_ms);
  write_counters(row, counts);
  row.field("memo_hits", memo.hits)
      .field("memo_misses", memo.misses)
      .field("memo_insertions", memo.insertions)
      .field("memo_evictions", memo.evictions)
      .field("memo_bytes", memo.bytes);
  std::ofstream(opts.at("out")) << row.str() << "\n";
  return 0;
}

}  // namespace perfbench
