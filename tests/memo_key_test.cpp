// Property tests for the answer memo's key (rt/hash and svc::system_key):
// the hasher's sentinel and length-prefix guarantees, stability across
// rebuilds, exactness -- any task reorder or a 1-ulp change to any time is
// a different key -- and collision freedom over a generated 10^4-system
// corpus (collisions would hand one system another system's cached
// answer, so this is a correctness bank, not a quality metric).
#include "rt/hash.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/mode_system.hpp"
#include "core/paper_example.hpp"
#include "gen/taskset_gen.hpp"
#include "rt/task.hpp"
#include "rt/task_set.hpp"
#include "svc/memo_cache.hpp"

namespace flexrt::svc {
namespace {

using rt::Hash128;
using rt::HashStream;
using rt::Mode;
using rt::Task;
using rt::TaskSet;

/// A system with every task in channel 0 of its own mode.
core::ModeTaskSystem by_mode(const TaskSet& ts) {
  std::vector<Task> per_mode[3];
  for (const Task& t : ts) {
    per_mode[static_cast<std::size_t>(t.mode)].push_back(t);
  }
  std::vector<TaskSet> parts[3];
  for (std::size_t m = 0; m < 3; ++m) {
    if (!per_mode[m].empty()) parts[m].emplace_back(std::move(per_mode[m]));
  }
  return core::ModeTaskSystem(std::move(parts[0]), std::move(parts[1]),
                              std::move(parts[2]));
}

core::ModeTaskSystem nf_channels(std::vector<TaskSet> channels) {
  return core::ModeTaskSystem({}, {}, std::move(channels));
}

TEST(MemoKey, DigestIsNeverTheUnassignedSentinel) {
  EXPECT_TRUE(Hash128{}.empty());
  EXPECT_FALSE(HashStream{}.digest().empty());
  HashStream h;
  h.u64(0);
  EXPECT_FALSE(h.digest().empty());
}

TEST(MemoKey, LengthPrefixedStringsDoNotAlias) {
  HashStream a, b;
  a.str("ab").str("c");
  b.str("a").str("bc");
  EXPECT_FALSE(a.digest() == b.digest());
}

TEST(MemoKey, PaperExampleIsStableAcrossRebuilds) {
  const Hash128 a = system_key(core::paper_example());
  const Hash128 b = system_key(core::paper_example());
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());
}

// Order is part of the question: FP breaks deadline ties by input order,
// and even under EDF a different summation order can move the last bits
// of an answer. So every distinct order of a channel, and swapping the
// contents of two channels, is a distinct key.
TEST(MemoKey, AnyTaskReorderChangesTheKey) {
  const std::vector<Task> tasks = {
      rt::make_task("a", 1.0, 10.0, 7.0, Mode::NF),
      rt::make_task("b", 2.0, 20.0, 15.0, Mode::NF),
      rt::make_task("c", 1.0, 30.0, 15.0, Mode::NF),
      rt::make_task("d", 3.0, 40.0, 33.0, Mode::NF),
  };
  std::set<std::pair<std::uint64_t, std::uint64_t>> keys;
  std::vector<std::size_t> order = {0, 1, 2, 3};
  std::size_t orders = 0;
  do {
    std::vector<Task> perm;
    for (const std::size_t i : order) perm.push_back(tasks[i]);
    const Hash128 k = system_key(nf_channels({TaskSet(std::move(perm))}));
    keys.emplace(k.hi, k.lo);
    ++orders;
  } while (std::next_permutation(order.begin(), order.end()));
  EXPECT_EQ(keys.size(), orders);

  const TaskSet c1({tasks[0], tasks[1]});
  const TaskSet c2({tasks[2], tasks[3]});
  EXPECT_FALSE(system_key(nf_channels({c1, c2})) ==
               system_key(nf_channels({c2, c1})));
}

TEST(MemoKey, OneUlpChangeToAnyTimeChangesTheKey) {
  const core::ModeTaskSystem& paper = core::paper_example();
  const Hash128 ref = system_key(paper);
  for (const Mode mode : core::kAllModes) {
    for (std::size_t c = 0; c < paper.partitions(mode).size(); ++c) {
      for (std::size_t i = 0; i < paper.partitions(mode)[c].size(); ++i) {
        for (int field = 0; field < 3; ++field) {
          std::vector<TaskSet> parts(paper.partitions(mode).begin(),
                                     paper.partitions(mode).end());
          std::vector<Task> channel(parts[c].begin(), parts[c].end());
          Task& t = channel[i];
          double& v = field == 0 ? t.wcet : field == 1 ? t.period : t.deadline;
          // Down for the deadline (D <= T must keep holding), up otherwise.
          v = std::nextafter(v, field == 2 ? 0.0 : 1e300);
          parts[c] = TaskSet(std::move(channel));
          core::ModeTaskSystem nudged = paper;
          nudged.set_partitions(mode, std::move(parts));
          EXPECT_FALSE(system_key(nudged) == ref)
              << rt::to_string(mode) << " channel " << c << " task " << i
              << " field " << field;
        }
      }
    }
  }
}

// 10^4 generated systems: distinct content must give distinct keys.
// Systems are deduped by exact serialization first, so the assertion is
// about the hash, not about the generator's entropy.
TEST(MemoKey, NoCollisionOnGeneratedCorpus) {
  std::set<std::string> seen_content;
  std::set<std::pair<std::uint64_t, std::uint64_t>> seen_hash;
  std::size_t corpus = 0;
  for (std::uint64_t seed = 0; corpus < 10000; ++seed) {
    Rng rng(seed);
    gen::GenParams gp;
    gp.num_tasks = 3 + static_cast<std::size_t>(seed % 8);
    gp.total_utilization = 0.4 + 0.05 * static_cast<double>(seed % 10);
    const core::ModeTaskSystem sys =
        by_mode(gen::generate_task_set(gp, rng));
    std::ostringstream content;
    for (const Mode mode : core::kAllModes) {
      for (const TaskSet& channel : sys.partitions(mode)) {
        for (const Task& t : channel) {
          content << t.name << ',' << std::hexfloat << t.wcet << ','
                  << t.period << ',' << t.deadline << ';';
        }
        content << '|';
      }
    }
    if (!seen_content.insert(content.str()).second) continue;
    ++corpus;
    const Hash128 k = system_key(sys);
    EXPECT_TRUE(seen_hash.emplace(k.hi, k.lo).second)
        << "hash collision at seed " << seed;
  }
  EXPECT_EQ(seen_hash.size(), corpus);
}

}  // namespace
}  // namespace flexrt::svc
