// E5 -- analysis-vs-simulation validation (extension experiment).
//
// Solves designs for the Table-1 system and simulates them, then shrinks
// the usable quanta to a fraction f of their analytical minimum and reports
// deadline misses per 1000 time units: f >= 1 must be miss-free, and misses
// must appear as f drops below 1.
//
// Usage: sim_validation [--csv] [--horizon T]
#include <cstring>
#include <iostream>
#include <string>

#include "bench_args.hpp"
#include "common/table.hpp"
#include "core/analysis_engine.hpp"
#include "core/design.hpp"
#include "core/paper_example.hpp"
#include "sim/simulator.hpp"

using namespace flexrt;

int main(int argc, char** argv) {
  bool csv = false;
  double horizon = 5000.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--csv") == 0) csv = true;
    if (std::strcmp(argv[i], "--horizon") == 0 && i + 1 < argc) {
      horizon = bench::parse_num("--horizon", argv[++i]);
    }
  }

  const core::ModeTaskSystem sys = core::paper_example();
  // 1e-3 margin keeps the tick-grid rounding out of the boundary case.
  const core::Overheads ov{0.02, 0.02, 0.011};

  std::cout << "E5: simulated deadline misses vs quantum scale "
            << "(horizon " << horizon << ", Table-1 system)\n\n";
  Table t({"scale", "scheduler", "misses_FT", "misses_FS", "misses_NF",
           "total", "miss_per_1k"});
  for (const hier::Scheduler alg : {hier::Scheduler::EDF,
                                    hier::Scheduler::FP}) {
    const analysis::BatchEngine engine(sys, alg);
    const core::Design d =
        core::solve_design(engine, ov, core::DesignGoal::MaxSlackBandwidth);
    for (const double scale : {1.2, 1.0, 0.9, 0.8, 0.6, 0.4}) {
      core::ModeSchedule s = d.schedule;
      s.ft.usable *= scale;
      s.fs.usable *= scale;
      s.nf.usable *= scale;
      if (s.slack() < 0.0) continue;  // cannot inflate past the frame
      sim::SimOptions opt;
      opt.horizon = horizon;
      opt.scheduler = alg;
      const sim::SimResult r = sim::simulate(sys, s, opt);
      std::uint64_t per_mode[3] = {0, 0, 0};
      for (const sim::TaskStats& ts : r.tasks) {
        per_mode[static_cast<std::size_t>(ts.mode)] += ts.deadline_misses;
      }
      t.row()
          .cell(scale, 2)
          .cell(to_string(alg))
          .cell(per_mode[0])
          .cell(per_mode[1])
          .cell(per_mode[2])
          .cell(r.total_misses())
          .cell(1000.0 * static_cast<double>(r.total_misses()) / horizon, 2);
    }
  }
  csv ? t.print_csv(std::cout) : t.print(std::cout);
  std::cout << "\nshape check: zero misses at scale >= 1.0, misses grow as "
               "the quanta shrink.\n";
  return 0;
}
