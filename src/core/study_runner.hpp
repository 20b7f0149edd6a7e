#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.hpp"
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

/// One shard's rows, indexed by global trial id starting at `begin`.
template <typename Row>
struct StudySlice {
  std::size_t begin = 0;
  std::vector<Row> rows;
};

/// Sharded study driver: partitions the global trial range across shard
/// processes (ShardSpec) and, inside this process, across the
/// par::parallel_for worker pool (FLEXRT_THREADS). `fn(global_index, rng)`
/// produces one row; it runs concurrently for distinct trials, and each
/// trial's rng comes from trial_rng, so the assembled study is
/// deterministic under a fixed base seed regardless of shard layout or
/// thread count. Row must be default-constructible (rows are written into
/// a preallocated slice).
template <typename Fn>
auto run_study(const StudyOptions& opts, Fn&& fn)
    -> StudySlice<decltype(fn(std::size_t{}, std::declval<Rng&>()))> {
  using Row = decltype(fn(std::size_t{}, std::declval<Rng&>()));
  const auto [begin, end] = shard_range(opts.trials, opts.shard);
  StudySlice<Row> out;
  out.begin = begin;
  out.rows.resize(end - begin);
  const std::size_t base = begin;  // structured bindings can't be captured
  par::parallel_for(end - begin, [&, base](std::size_t i) {
    Rng rng = trial_rng(opts.base_seed, base + i);
    out.rows[i] = fn(base + i, rng);
  });
  return out;
}

}  // namespace flexrt::core
