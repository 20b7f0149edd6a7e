// The sharded study options: shard parsing/partitioning invariants and the
// per-trial seed contract (a trial's stream depends only on (base_seed,
// trial id), never on the shard layout). Layout independence of whole
// fleets is covered by ServiceFleet.GeneratedFleetIsShardLayoutIndependent
// and SvcStream.MergedShardStreamsEqualTheUnshardedStream.
#include "core/study_runner.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"

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

}  // namespace
}  // namespace flexrt::core
