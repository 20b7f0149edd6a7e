#include "svc/study_report.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "svc/jsonl.hpp"

namespace flexrt::svc {

void provenance_fields(JsonRow& row, const Provenance& p, bool with_wall) {
  row.field("dl_exact", p.dl_exact)
      .field("fp_exact", p.fp_exact)
      .field("budget", p.budget)
      .field("fp_budget", p.fp_budget)
      .field("probes", p.probes);
  if (p.gap) {
    row.field("gap", *p.gap);
  } else {
    row.null_field("gap");
  }
  row.field("degraded", p.degraded);
  if (with_wall) row.field("wall_ms", p.wall_ms);
}

std::string study_trial_row(const SolveResult& r, hier::Scheduler alg,
                            core::DesignGoal goal) {
  JsonRow row;
  row.field("kind", "study_trial")
      .field("trial", r.trial)
      .field("alg", to_string(alg))
      .field("goal", to_string(goal))
      .field("packed", r.ok());
  if (!r.ok()) {
    // Failed entries carry the cause and their (wall-free) provenance: the
    // row must say what failed, not just "packed: false".
    row.field("error", r.error);
    provenance_fields(row, r.prov, /*with_wall=*/false);
    return std::move(row).str();
  }
  row.field("feasible", r.feasible);
  if (r.feasible) {
    row.field("period", r.design.schedule.period)
        .field("q_ft", r.design.schedule.ft.usable)
        .field("q_fs", r.design.schedule.fs.usable)
        .field("q_nf", r.design.schedule.nf.usable)
        .field("slack_bw", r.design.schedule.slack_bandwidth());
  }
  provenance_fields(row, r.prov, /*with_wall=*/false);
  return std::move(row).str();
}

void StudyAggregate::add(std::string_view row) {
  ++trials_;
  if (json_bool_field(row, "packed").value_or(false)) ++packed_;
  if (json_bool_field(row, "feasible").value_or(false)) {
    ++feasible_;
    sum_period_ += json_number_field(row, "period").value_or(0.0);
    sum_slack_bw_ += json_number_field(row, "slack_bw").value_or(0.0);
  }
}

std::string StudyAggregate::summary_row() const {
  JsonRow row;
  row.field("kind", "study_summary")
      .field("trials", trials_)
      .field("packed", packed_)
      .field("feasible", feasible_)
      .field("sum_period", sum_period_)
      .field("sum_slack_bw", sum_slack_bw_)
      .field("mean_period",
             feasible_ ? sum_period_ / static_cast<double>(feasible_) : 0.0);
  return std::move(row).str();
}

void collect_study_rows(std::istream& in, const std::string& name,
                        std::vector<std::string>& rows) {
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    FLEXRT_REQUIRE(json_row_complete(line),
                   "truncated or corrupt row in " + name +
                       " (killed mid-stream?): refusing to merge a partial "
                       "shard report");
    if (json_string_field(line, "kind").value_or("") == "study_trial") {
      rows.push_back(line);
    }
    // Summaries (the unsharded report's tail) and foreign complete rows
    // are dropped; the merged summary is recomputed from the trial rows.
  }
}

void sort_study_rows(std::vector<std::string>& rows) {
  std::stable_sort(rows.begin(), rows.end(),
                   [](const std::string& a, const std::string& b) {
                     return json_number_field(a, "trial").value_or(0.0) <
                            json_number_field(b, "trial").value_or(0.0);
                   });
  // A complete merge carries every global trial exactly once: each trial
  // emits a row (unpackable trials included), shards partition [0, N), and
  // the merged report stands in for the unsharded run. Duplicates mean a
  // shard was merged twice; a hole means a shard file lost its tail (e.g.
  // its run was killed between two whole-row flushes, which the truncation
  // check in collect_study_rows cannot see).
  for (std::size_t k = 0; k < rows.size(); ++k) {
    const double got = json_number_field(rows[k], "trial").value_or(-1);
    const double want = static_cast<double>(k);
    FLEXRT_REQUIRE(got >= want, "duplicate trial " +
                                    std::to_string(static_cast<long long>(got)) +
                                    " (same shard merged twice?)");
    FLEXRT_REQUIRE(got <= want,
                   "missing trial " + std::to_string(static_cast<long long>(want)) +
                       " (shard file incomplete or a shard not merged?)");
  }
}

}  // namespace flexrt::svc
