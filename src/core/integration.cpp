#include "core/integration.hpp"

#include <algorithm>

namespace flexrt::core {

double auto_period_bound(const ModeTaskSystem& sys) {
  double max_deadline = 1.0;
  for (const rt::Mode mode : kAllModes) {
    for (const rt::TaskSet& ts : sys.partitions(mode)) {
      for (const rt::Task& t : ts) {
        max_deadline = std::max(max_deadline, t.deadline);
      }
    }
  }
  return 3.0 * max_deadline;
}

}  // namespace flexrt::core
