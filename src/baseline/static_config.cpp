#include "baseline/static_config.hpp"

#include "rt/priority.hpp"

namespace flexrt::baseline {

const char* to_string(StaticConfig config) noexcept {
  switch (config) {
    case StaticConfig::AllFT:
      return "static-FT";
    case StaticConfig::AllFS:
      return "static-FS";
    case StaticConfig::AllNF:
      return "static-NF";
  }
  return "?";
}

rt::Mode provided_mode(StaticConfig config) noexcept {
  switch (config) {
    case StaticConfig::AllFT:
      return rt::Mode::FT;
    case StaticConfig::AllFS:
      return rt::Mode::FS;
    case StaticConfig::AllNF:
      return rt::Mode::NF;
  }
  return rt::Mode::NF;
}

bool satisfies(StaticConfig config, rt::Mode required) noexcept {
  // Protection strength: FT > FS > NF; the enum is declared in that order.
  return static_cast<int>(provided_mode(config)) <=
         static_cast<int>(required);
}

namespace {

std::size_t num_static_channels(StaticConfig config) noexcept {
  switch (config) {
    case StaticConfig::AllFT:
      return 1;
    case StaticConfig::AllFS:
      return 2;
    case StaticConfig::AllNF:
      return 4;
  }
  return 1;
}

}  // namespace

bool dedicated_schedulable(const rt::TaskSet& ts, hier::Scheduler alg) {
  return hier::schedulable(
      alg == hier::Scheduler::FP ? rt::sort_deadline_monotonic(ts) : ts, alg,
      hier::LinearSupply(1.0, 0.0));
}

std::optional<std::vector<rt::TaskSet>> static_partition(
    const rt::TaskSet& all_tasks, StaticConfig config,
    const part::PackOptions& pack) {
  for (const rt::Task& t : all_tasks) {
    if (!satisfies(config, t.mode)) return std::nullopt;
  }
  return part::pack(all_tasks, num_static_channels(config), pack);
}

StaticResult try_static(const rt::TaskSet& all_tasks, StaticConfig config,
                        hier::Scheduler alg, const part::PackOptions& pack) {
  StaticResult result;
  for (const rt::Task& t : all_tasks) {
    if (!satisfies(config, t.mode)) return result;  // mode_feasible = false
  }
  result.mode_feasible = true;
  const auto bins = part::pack(all_tasks, num_static_channels(config), pack);
  if (!bins) return result;  // could not even fit by utilization
  for (const rt::TaskSet& bin : *bins) {
    if (!dedicated_schedulable(bin, alg)) return result;
  }
  result.schedulable = true;
  return result;
}

}  // namespace flexrt::baseline
