// The sharded study driver: shard parsing/partitioning invariants and the
// determinism contract (a trial's result depends only on (base_seed, trial
// id), never on the shard layout or worker count).
#include "core/study_runner.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "common/error.hpp"
#include "gen/taskset_gen.hpp"

namespace flexrt::core {
namespace {

TEST(ParseShard, AcceptsOneBasedCliForm) {
  EXPECT_EQ(parse_shard("1/1").index, 0u);
  EXPECT_EQ(parse_shard("1/1").count, 1u);
  EXPECT_EQ(parse_shard("2/4").index, 1u);
  EXPECT_EQ(parse_shard("2/4").count, 4u);
  EXPECT_EQ(parse_shard("8/8").index, 7u);
}

TEST(ParseShard, RejectsMalformedSpecs) {
  EXPECT_THROW(parse_shard(""), ModelError);
  EXPECT_THROW(parse_shard("2"), ModelError);
  EXPECT_THROW(parse_shard("/4"), ModelError);
  EXPECT_THROW(parse_shard("2/"), ModelError);
  EXPECT_THROW(parse_shard("0/4"), ModelError);
  EXPECT_THROW(parse_shard("5/4"), ModelError);
  EXPECT_THROW(parse_shard("a/b"), ModelError);
  EXPECT_THROW(parse_shard("2/4x"), ModelError);
}

TEST(ShardRange, PartitionsEveryTrialExactlyOnce) {
  for (const std::size_t trials : {0u, 1u, 7u, 100u, 101u}) {
    for (const std::size_t shards : {1u, 2u, 3u, 8u}) {
      std::vector<int> seen(trials, 0);
      std::size_t prev_end = 0;
      for (std::size_t k = 0; k < shards; ++k) {
        const auto [begin, end] = shard_range(trials, {k, shards});
        EXPECT_EQ(begin, prev_end);  // contiguous
        prev_end = end;
        for (std::size_t i = begin; i < end; ++i) seen[i]++;
      }
      EXPECT_EQ(prev_end, trials);
      for (std::size_t i = 0; i < trials; ++i) EXPECT_EQ(seen[i], 1);
    }
  }
}

TEST(ShardRange, SizesDifferByAtMostOne) {
  for (const std::size_t trials : {10u, 11u, 97u}) {
    const std::size_t shards = 4;
    std::size_t lo = trials, hi = 0;
    for (std::size_t k = 0; k < shards; ++k) {
      const auto [begin, end] = shard_range(trials, {k, shards});
      lo = std::min(lo, end - begin);
      hi = std::max(hi, end - begin);
    }
    EXPECT_LE(hi - lo, 1u);
  }
}

TEST(TrialRng, StreamsDifferAcrossTrialsAndMatchPerTrial) {
  Rng a = trial_rng(123, 5);
  Rng b = trial_rng(123, 5);
  Rng c = trial_rng(123, 6);
  EXPECT_EQ(a(), b());
  Rng a2 = trial_rng(123, 5);
  Rng c2 = trial_rng(123, 6);
  EXPECT_NE(a2(), c2());
  (void)c;
}

TEST(RunStudy, AssembledShardsMatchTheUnshardedRun) {
  const auto trial = [](std::size_t, Rng& rng) {
    gen::GenParams gp;
    gp.num_tasks = 6;
    gp.total_utilization = 0.8;
    const rt::TaskSet ts = gen::generate_task_set(gp, rng);
    return ts[0].wcet + 100.0 * ts[2].period;  // fingerprint of the stream
  };
  StudyOptions whole;
  whole.trials = 13;
  whole.base_seed = 99;
  const auto reference = run_study(whole, trial);
  ASSERT_EQ(reference.rows.size(), 13u);
  EXPECT_EQ(reference.begin, 0u);

  for (const std::size_t shards : {2u, 3u, 5u}) {
    std::vector<double> assembled(whole.trials, -1.0);
    for (std::size_t k = 0; k < shards; ++k) {
      StudyOptions part = whole;
      part.shard = {k, shards};
      const auto slice = run_study(part, trial);
      for (std::size_t i = 0; i < slice.rows.size(); ++i) {
        assembled[slice.begin + i] = slice.rows[i];
      }
    }
    for (std::size_t i = 0; i < whole.trials; ++i) {
      EXPECT_DOUBLE_EQ(assembled[i], reference.rows[i]) << "trial " << i;
    }
  }
}

TEST(RunStudy, PassesGlobalTrialIndices) {
  StudyOptions opts;
  opts.trials = 10;
  opts.shard = {1, 2};  // owns trials 5..10
  const auto slice =
      run_study(opts, [](std::size_t i, Rng&) { return static_cast<double>(i); });
  EXPECT_EQ(slice.begin, 5u);
  ASSERT_EQ(slice.rows.size(), 5u);
  for (std::size_t i = 0; i < slice.rows.size(); ++i) {
    EXPECT_DOUBLE_EQ(slice.rows[i], static_cast<double>(5 + i));
  }
}

}  // namespace
}  // namespace flexrt::core
