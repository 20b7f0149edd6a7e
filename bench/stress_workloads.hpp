#pragma once

// Large-n benchmark workloads behind tools/bench_report's stress rows. The
// FpStress tests replay the same draw (seed 977 + n), so the seeds and
// generator parameters live here, in one place.

#include <cstddef>

#include "common/rng.hpp"
#include "gen/taskset_gen.hpp"
#include "rt/task_set.hpp"

namespace flexrt::benchws {

/// Hyperperiod-hostile set (co-prime-ish fine-grid periods): the full dlSet
/// is intractable, only the QPA-condensed analysis finishes.
inline rt::TaskSet stress_set(std::size_t n) {
  Rng rng(977 + n);
  gen::StressParams sp;
  sp.num_tasks = n;
  return gen::generate_stress_set(sp, rng);
}

/// FP-ordered (deadline-monotonic) twin of stress_set: point-hostile for
/// the FP kernels the same way stress_set is hyperperiod-hostile for EDF.
/// Shares the seed so the EDF and FP stress rows describe the same draw.
inline rt::TaskSet stress_set_fp(std::size_t n) {
  Rng rng(977 + n);
  gen::StressParams sp;
  sp.num_tasks = n;
  return gen::generate_stress_set_fp(sp, rng);
}

/// Tractable twin (divisor-friendly period menu, hyperperiod 120): the
/// frozen legacy path still runs here, carrying the before/after ratio.
inline rt::TaskSet tractable_big_set(std::size_t n) {
  Rng rng(1234 + n);
  gen::GenParams gp;
  gp.num_tasks = n;
  gp.total_utilization = 0.6;
  gp.ft_fraction = 0.0;
  gp.fs_fraction = 0.0;
  return gen::generate_task_set(gp, rng);
}

}  // namespace flexrt::benchws
