#include "baseline/primary_backup.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "baseline/static_config.hpp"

namespace flexrt::baseline {
namespace {

constexpr std::size_t kProcs = 4;
constexpr std::size_t kNone = static_cast<std::size_t>(-1);

/// Picks the least-loaded processor that still fits `u`, excluding
/// `exclude`; returns kNone when nothing fits.
std::size_t worst_fit(const std::array<double, kProcs>& load, double u,
                      std::size_t exclude) {
  std::size_t best = kNone;
  double best_load = std::numeric_limits<double>::infinity();
  for (std::size_t p = 0; p < kProcs; ++p) {
    if (p == exclude) continue;
    if (load[p] + u <= 1.0 + 1e-12 && load[p] < best_load) {
      best = p;
      best_load = load[p];
    }
  }
  return best;
}

}  // namespace

std::optional<PBSystem> build_primary_backup(const rt::TaskSet& all_tasks,
                                             const part::PackOptions& pack) {
  // Process by decreasing utilization (same discipline as part::pack).
  std::vector<rt::Task> tasks(all_tasks.begin(), all_tasks.end());
  if (pack.sort_decreasing) {
    std::stable_sort(tasks.begin(), tasks.end(),
                     [](const rt::Task& a, const rt::Task& b) {
                       return a.utilization() > b.utilization();
                     });
  }
  PBSystem out;
  std::array<double, kProcs> load{};
  for (const rt::Task& t : tasks) {
    const double u = t.utilization();
    const std::size_t primary = worst_fit(load, u, kNone);
    if (primary == kNone) return std::nullopt;
    load[primary] += u;
    out.processors[primary].add(t);
    if (t.mode != rt::Mode::NF) {
      const std::size_t backup = worst_fit(load, u, primary);
      if (backup == kNone) return std::nullopt;
      load[backup] += u;
      rt::Task copy = t;
      copy.name += "_bk";
      out.processors[backup].add(std::move(copy));
      out.replication_overhead += u;
    }
  }
  return out;
}

bool pb_schedulable(const PBSystem& system, hier::Scheduler alg) {
  for (const rt::TaskSet& proc : system.processors) {
    if (!dedicated_schedulable(proc, alg)) return false;
  }
  return true;
}

bool try_primary_backup(const rt::TaskSet& all_tasks, hier::Scheduler alg,
                        const part::PackOptions& pack) {
  const auto system = build_primary_backup(all_tasks, pack);
  return system.has_value() && pb_schedulable(*system, alg);
}

}  // namespace flexrt::baseline
