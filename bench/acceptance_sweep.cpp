// E4 -- acceptance ratio vs total utilization (extension experiment).
//
// For each utilization level, draws random task systems and reports the
// fraction for which a feasible mode-switching design exists, under four
// analyses: EDF and RM, each with the paper's linear supply bound Z' and
// with the exact Lemma-1 supply Z. Expected shape: EDF dominates RM, and
// the exact supply dominates the linear bound.
//
// Usage: acceptance_sweep [--csv] [--trials N]
#include <algorithm>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "bench_args.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/analysis_engine.hpp"
#include "core/integration.hpp"
#include "gen/taskset_gen.hpp"

using namespace flexrt;

namespace {

bool accepted(const analysis::BatchEngine& engine, bool exact, double o_tot) {
  core::SearchOptions opts;
  opts.grid_step = 5e-3;
  opts.p_max = 10.0;
  opts.use_exact_supply = exact;
  try {
    engine.max_feasible_period(o_tot, opts);
    return true;
  } catch (const InfeasibleError&) {
    return false;
  }
}

struct TrialResult {
  bool valid = false;
  bool edf = false, edf_x = false, rm = false, rm_x = false;
};

}  // namespace

int main(int argc, char** argv) {
  bool csv = false;
  std::size_t trials = 100;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--csv") == 0) csv = true;
    if (std::strcmp(argv[i], "--trials") == 0 && i + 1 < argc) {
      trials = bench::parse_count("--trials", argv[++i]);
    }
  }

  const double o_tot = 0.05;
  std::cout << "E4: acceptance ratio vs total utilization ("
            << trials << " systems per point, O_tot = " << o_tot << ")\n\n";
  Table t({"U_total", "EDF_linear", "EDF_exact", "RM_linear", "RM_exact"});
  for (double u = 0.4; u <= 2.01; u += 0.2) {
    Rng rng(0xC0FFEE ^ static_cast<std::uint64_t>(u * 1000));
    // Generation stays serial so the drawn systems are bit-reproducible;
    // the four analyses per trial fan out over the parallel_for runner,
    // each trial probing two persistent BatchEngines (EDF + RM).
    std::vector<std::optional<core::ModeTaskSystem>> systems;
    systems.reserve(trials);
    for (std::size_t k = 0; k < trials; ++k) {
      gen::GenParams gp;
      gp.num_tasks = 10;
      gp.total_utilization = u;
      const rt::TaskSet ts = gen::generate_task_set(gp, rng);
      // build_system == nullopt: not placeable even by utilization; count
      // as rejected by every analysis.
      systems.push_back(gen::build_system(ts));
    }
    std::vector<TrialResult> results(systems.size());
    par::parallel_for(systems.size(), [&](std::size_t k) {
      if (!systems[k]) return;
      const analysis::BatchEngine edf(*systems[k], hier::Scheduler::EDF);
      const analysis::BatchEngine rm(*systems[k], hier::Scheduler::FP);
      results[k] = {true, accepted(edf, false, o_tot),
                    accepted(edf, true, o_tot), accepted(rm, false, o_tot),
                    accepted(rm, true, o_tot)};
    });
    std::size_t n_edf = 0, n_edf_x = 0, n_rm = 0, n_rm_x = 0, n_valid = 0;
    for (const TrialResult& r : results) {
      n_valid += r.valid;
      n_edf += r.edf;
      n_edf_x += r.edf_x;
      n_rm += r.rm;
      n_rm_x += r.rm_x;
    }
    const double denom = static_cast<double>(trials);
    t.row()
        .cell(u, 2)
        .cell(n_edf / denom, 3)
        .cell(n_edf_x / denom, 3)
        .cell(n_rm / denom, 3)
        .cell(n_rm_x / denom, 3);
  }
  csv ? t.print_csv(std::cout) : t.print(std::cout);
  std::cout << "\nshape checks: EDF >= RM columnwise; exact >= linear "
               "columnwise.\n";
  return 0;
}
