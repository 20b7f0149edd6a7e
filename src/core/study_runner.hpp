#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>

#include "common/rng.hpp"

namespace flexrt::core {

/// One process's share of a sharded study. Shards partition the global
/// trial range contiguously, so N cooperating processes (each launched with
/// --shard k/N) together cover every trial exactly once and their output
/// rows concatenate back into the unsharded result.
struct ShardSpec {
  std::size_t index = 0;  ///< 0-based shard index, < count
  std::size_t count = 1;  ///< total number of shards, >= 1
};

/// Parses the CLI form "k/N" (1-based k, e.g. "--shard 2/4") into a 0-based
/// ShardSpec. Throws ModelError on malformed input or k outside [1, N].
ShardSpec parse_shard(const std::string& text);

/// Global trial range [begin, end) owned by `shard` out of `trials` trials:
/// contiguous blocks, sizes differing by at most one.
std::pair<std::size_t, std::size_t> shard_range(std::size_t trials,
                                                const ShardSpec& shard);

/// Rng for global trial `index`, derived from (base_seed, index) alone --
/// a trial's random stream is identical no matter how the study is sharded
/// across processes or scheduled across threads.
Rng trial_rng(std::uint64_t base_seed, std::size_t index) noexcept;

/// Knobs common to every generated-system study.
struct StudyOptions {
  std::size_t trials = 100;          ///< global trial count (all shards)
  std::uint64_t base_seed = 0x5EED;  ///< per-trial seeds derive from this
  ShardSpec shard;                   ///< this process's share
};

/// Consumes one study CLI flag at argv[i] into `opts`: `trials_flag` N
/// (usually "--trials" or "--gen-trials"), "--seed" S, or "--shard" k/N.
/// Returns true (and advances i past the value) when the flag matched, so
/// the benches share one parsing convention instead of three copies.
bool parse_study_flag(StudyOptions& opts, int argc, char** argv, int& i,
                      const char* trials_flag = "--trials");

}  // namespace flexrt::core
