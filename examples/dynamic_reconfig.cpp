// Dynamic reconfiguration -- why the paper's second design goal exists.
//
// A G2 (max-slack) design keeps every slot at its analytical minimum and
// leaves the rest of the frame unallocated. When a new task arrives at run
// time, the designer can grow the affected mode's quantum *without touching
// the period or the other modes*, as long as the growth fits in the slack.
// This example admits tasks one by one into the Table-1 system until the
// slack is exhausted, re-verifying schedulability at each step, and shows
// that the G1 (min-overhead) design rejects the very first arrival.
#include <iostream>

#include "core/analysis_engine.hpp"
#include "core/design.hpp"
#include "core/paper_example.hpp"
#include "hier/min_quantum.hpp"
#include "sim/simulator.hpp"

using namespace flexrt;

namespace {

// Tries to admit `task` into NF channel 0 of `sys` under `schedule`:
// recomputes the NF minQ and grows the NF quantum if the slack allows.
bool admit(core::ModeTaskSystem& sys, core::ModeSchedule& schedule,
           const rt::Task& task) {
  core::ModeTaskSystem candidate = sys;
  std::vector<rt::TaskSet> nf(candidate.partitions(rt::Mode::NF).begin(),
                              candidate.partitions(rt::Mode::NF).end());
  nf[0].add(task);
  candidate.set_partitions(rt::Mode::NF, std::move(nf));
  const analysis::BatchEngine engine(candidate, hier::Scheduler::EDF);

  const double needed = engine.mode_min_quantum(rt::Mode::NF, schedule.period);
  const double growth = needed - schedule.nf.usable;
  if (growth > schedule.slack() + 1e-12) return false;  // not enough slack

  core::ModeSchedule grown = schedule;
  grown.nf.usable = needed;
  if (!engine.verify(grown)) return false;
  sys = std::move(candidate);
  schedule = grown;
  return true;
}

}  // namespace

int main() {
  const core::Overheads ov{0.05 / 3, 0.05 / 3, 0.05 / 3};

  core::ModeTaskSystem rigid_sys = core::paper_example();
  core::ModeTaskSystem flex_sys = rigid_sys;
  const analysis::BatchEngine engine(rigid_sys, hier::Scheduler::EDF);
  // The rigid design: quanta maxed out, nothing can grow.
  core::Design g1 =
      core::solve_design(engine, ov, core::DesignGoal::MinOverheadBandwidth);
  // The flexible design: 12.1% of the bandwidth is redistributable.
  core::Design g2 =
      core::solve_design(engine, ov, core::DesignGoal::MaxSlackBandwidth);

  std::cout << "G1 design: " << g1.schedule << "\n";
  std::cout << "G2 design: " << g2.schedule << "\n\n";

  core::ModeSchedule rigid_sched = g1.schedule;
  core::ModeSchedule flex_sched = g2.schedule;

  int admitted_rigid = 0, admitted_flex = 0;
  for (int i = 0; i < 8; ++i) {
    const rt::Task newcomer = rt::make_task(
        "dyn" + std::to_string(i), 0.4, 12.0, rt::Mode::NF);
    if (admit(rigid_sys, rigid_sched, newcomer)) admitted_rigid++;
    const bool ok = admit(flex_sys, flex_sched, newcomer);
    if (ok) admitted_flex++;
    std::cout << "arrival " << i << " (C=0.4, T=12, NF): rigid="
              << (admitted_rigid > i ? "admitted" : "rejected")
              << "  flexible=" << (ok ? "admitted" : "rejected")
              << "  remaining slack " << flex_sched.slack() << "\n";
  }
  std::cout << "\nG1 admitted " << admitted_rigid << "/8, G2 admitted "
            << admitted_flex << "/8 dynamic arrivals\n";

  // The grown G2 schedule still runs miss-free.
  sim::SimOptions opt;
  opt.horizon = 5000.0;
  const sim::SimResult r = sim::simulate(flex_sys, flex_sched, opt);
  std::cout << "simulation of the final flexible configuration: "
            << r.total_misses() << " deadline misses over " << opt.horizon
            << " time units\n";
  return (admitted_flex > admitted_rigid && r.total_misses() == 0) ? 0 : 1;
}
