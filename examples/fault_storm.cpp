// Fault storm -- what each operating mode buys you.
//
// Runs the same workload three times: once with every task declared FT,
// once all-FS, once all-NF (adjusting the slot design each time), under an
// extreme transient-fault rate, and prints what reached the bus. This is
// the paper's protection hierarchy made visible:
//   FT : every fault masked, all results correct, no misses
//   FS : faults detected, affected jobs silenced (no wrong output),
//        some deadlines lost to silencing
//   NF : faults pass straight through as silent data corruption
#include <iostream>

#include "common/error.hpp"
#include "core/analysis_engine.hpp"
#include "core/design.hpp"
#include "gen/taskset_gen.hpp"
#include "sim/simulator.hpp"

using namespace flexrt;

namespace {

core::ModeTaskSystem uniform_system(rt::Mode mode) {
  rt::TaskSet ts;
  for (int i = 0; i < 4; ++i) {
    ts.add(rt::make_task("w" + std::to_string(i), 0.5, 8.0 + 4.0 * i, mode));
  }
  const auto sys = gen::build_system(ts);
  if (!sys) throw Error("workload does not fit");
  return *sys;
}

}  // namespace

int main() {
  std::cout << "identical workload, three protection levels, fault rate "
               "0.1/unit over 20000 units\n\n";
  for (const rt::Mode mode : {rt::Mode::FT, rt::Mode::FS, rt::Mode::NF}) {
    const core::ModeTaskSystem sys = uniform_system(mode);
    const analysis::BatchEngine engine(sys, hier::Scheduler::EDF);
    const core::Design d = core::solve_design(
        engine, {0.02, 0.02, 0.02}, core::DesignGoal::MaxSlackBandwidth);
    sim::SimOptions opt;
    opt.horizon = 20000.0;
    opt.faults = {0.1, 1.0};
    opt.seed = 77;
    const sim::SimResult r = sim::simulate(sys, d.schedule, opt);

    std::uint64_t completions = 0, silenced = 0, corrupted = 0, misses = 0;
    for (const sim::TaskStats& t : r.tasks) {
      completions += t.completions;
      silenced += t.silenced;
      corrupted += t.corrupted_outputs;
      misses += t.deadline_misses;
    }
    std::cout << "all-" << rt::to_string(mode) << "  (P=" << d.schedule.period
              << "): " << r.faults.injected << " faults -> " << completions
              << " results, " << corrupted << " WRONG, " << silenced
              << " silenced, " << misses << " deadline misses\n";
  }
  std::cout << "\nthe trade-off: FT buys correctness with 1/4 of the "
               "platform's throughput; NF delivers full throughput but "
               "corrupted results.\n";
  return 0;
}
