#include "svc/rows.hpp"

#include <cmath>

#include "svc/study_report.hpp"

namespace flexrt::svc {

JsonRow solve_row(const SolveResult& r, hier::Scheduler alg,
                  core::DesignGoal goal, bool with_wall) {
  JsonRow row;
  row.field("kind", "solve")
      .field("name", r.name)
      .field("alg", hier::to_string(alg))
      .field("goal", core::to_string(goal));
  if (!r.ok()) {
    row.field("error", r.error);  // no answer, so no provenance
    return row;
  }
  row.field("feasible", r.feasible);
  if (r.feasible) {
    row.field("period", r.design.schedule.period)
        .field("q_ft", r.design.schedule.ft.usable)
        .field("q_fs", r.design.schedule.fs.usable)
        .field("q_nf", r.design.schedule.nf.usable)
        .field("slack", r.design.schedule.slack())
        .field("slack_bw", r.design.schedule.slack_bandwidth())
        .field("overhead_bw", r.design.schedule.overhead_bandwidth());
  } else {
    row.field("infeasible", r.infeasible);
  }
  provenance_fields(row, r.prov, with_wall);
  return row;
}

JsonRow sweep_sample_row(const RegionSweepResult& r, hier::Scheduler alg,
                         const core::RegionSample& s) {
  JsonRow row;
  row.field("kind", "sweep_sample")
      .field("name", r.name)
      .field("alg", hier::to_string(alg))
      .field("period", s.period)
      .field("margin", s.margin);
  return row;
}

JsonRow sweep_summary_row(const RegionSweepResult& r, hier::Scheduler alg,
                          bool with_wall) {
  JsonRow row;
  row.field("kind", "sweep")
      .field("name", r.name)
      .field("alg", hier::to_string(alg));
  if (r.ok()) {
    row.field("samples", r.samples.size());
  } else {
    row.field("error", r.error);
  }
  provenance_fields(row, r.prov, with_wall);
  return row;
}

JsonRow verify_row(const VerifyResult& r, hier::Scheduler alg, double period,
                   bool with_wall) {
  JsonRow row;
  row.field("kind", "verify")
      .field("name", r.name)
      .field("alg", hier::to_string(alg))
      .field("period", period);
  if (!r.ok()) {
    row.field("error", r.error);  // no answer, so no provenance
    return row;
  }
  row.field("schedulable", r.schedulable);
  provenance_fields(row, r.prov, with_wall);
  return row;
}

JsonRow min_quantum_row(const MinQuantumResult& r, hier::Scheduler alg,
                        double period, bool with_wall) {
  JsonRow row;
  row.field("kind", "min_quantum")
      .field("name", r.name)
      .field("alg", hier::to_string(alg))
      .field("period", period);
  if (!r.ok()) {
    row.field("error", r.error);  // no answer, so no provenance
    return row;
  }
  row.field("q_ft", r.mode_quantum[0])
      .field("q_fs", r.mode_quantum[1])
      .field("q_nf", r.mode_quantum[2])
      .field("margin", r.margin);
  provenance_fields(row, r.prov, with_wall);
  return row;
}

JsonRow fault_point_row(const FaultSweepResult& r, const FaultRatePoint& p,
                        hier::Scheduler alg, bool with_baselines) {
  JsonRow row;
  row.field("kind", "fault_point").field("name", r.name);
  if (r.trial != kNoTrial) row.field("trial", r.trial);
  row.field("alg", hier::to_string(alg)).field("rate", p.rate);
  if (std::isinf(p.recovery_gap)) {
    row.null_field("recovery_gap");  // rate 0: no fault ever arrives
  } else {
    row.field("recovery_gap", p.recovery_gap);
  }
  row.field("ft_ok", p.ft_ok)
      .field("fs_ok", p.fs_ok)
      .field("nf_ok", p.nf_ok)
      .field("nf_exposure", p.nf_exposure);
  if (with_baselines) {
    row.field("pb_ok", p.pb_ok)
        .field("static_ft_ok", p.static_ft_ok)
        .field("static_fs_ok", p.static_fs_ok)
        .field("static_nf_ok", p.static_nf_ok);
  }
  return row;
}

JsonRow fault_sweep_summary_row(const FaultSweepResult& r,
                                hier::Scheduler alg) {
  JsonRow row;
  row.field("kind", "fault_sweep").field("name", r.name);
  if (r.trial != kNoTrial) row.field("trial", r.trial);
  row.field("alg", hier::to_string(alg));
  if (!r.ok()) {
    row.field("error", r.error);
  } else {
    row.field("feasible", r.feasible);
    if (r.feasible) {
      row.field("period", r.schedule.period).field("points", r.points.size());
    } else {
      row.field("infeasible", r.infeasible);
    }
  }
  provenance_fields(row, r.prov, /*with_wall=*/false);
  return row;
}

}  // namespace flexrt::svc
