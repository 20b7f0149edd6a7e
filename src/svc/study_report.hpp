#pragma once

#include <cstddef>
#include <istream>
#include <string>
#include <string_view>
#include <vector>

#include "core/design.hpp"
#include "hier/sched_test.hpp"
#include "svc/analysis_service.hpp"
#include "svc/jsonl.hpp"

namespace flexrt::svc {

/// The study JSON-lines report pieces shared by the `flexrt_design study`
/// and `merge` subcommands and by the streaming byte-identity tests. The
/// contract everything here serves: a study's rows are wall-time-free and
/// byte-stable, so the streamed report == the buffered report == the merge
/// of its sharded reports, byte for byte.

/// Appends the provenance block every analysis row carries -- the one
/// rendering site, so study rows and the tool's solve/sweep/verify rows
/// cannot drift. `with_wall` is off for study rows (shard/transport
/// independence requires wall-time-free rows).
void provenance_fields(JsonRow& row, const Provenance& p, bool with_wall);

/// One study_trial row for a solved trial. Deliberately excludes wall_ms:
/// study rows must be byte-identical across shard layouts and transports.
std::string study_trial_row(const SolveResult& r, hier::Scheduler alg,
                            core::DesignGoal goal);

/// Incremental accumulator for the study_summary row. Feeding it each
/// study_trial row as it is emitted gives a streaming run the exact
/// summary a buffered run computes from the full row vector: both sides
/// read the same parsed fields (svc/jsonl scanners), so the bytes agree.
class StudyAggregate {
 public:
  /// Folds one study_trial row into the aggregate.
  void add(std::string_view row);

  /// The study_summary row over everything added so far.
  std::string summary_row() const;

  std::size_t trials() const noexcept { return trials_; }
  std::size_t packed() const noexcept { return packed_; }
  std::size_t feasible() const noexcept { return feasible_; }
  double sum_period() const noexcept { return sum_period_; }
  double sum_slack_bw() const noexcept { return sum_slack_bw_; }

 private:
  std::size_t trials_ = 0;
  std::size_t packed_ = 0;
  std::size_t feasible_ = 0;
  double sum_period_ = 0.0;
  double sum_slack_bw_ = 0.0;
};

/// Reads one shard report: appends its study_trial rows to `rows`,
/// dropping summaries and foreign complete rows. A line that is not a
/// complete row (json_row_complete) -- the truncated tail a killed
/// streaming run leaves behind -- throws ModelError naming `name`, so a
/// partial shard file fails the merge loudly instead of silently dropping
/// trials. CRLF line endings are tolerated; blank lines are skipped.
void collect_study_rows(std::istream& in, const std::string& name,
                        std::vector<std::string>& rows);

/// Sorts study_trial rows by trial id (stable) and throws ModelError when
/// two rows carry the same trial -- the same shard merged twice.
void sort_study_rows(std::vector<std::string>& rows);

}  // namespace flexrt::svc
