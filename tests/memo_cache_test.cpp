// The process-wide content-addressed answer memo (svc::MemoCache): the
// differential harness at the heart of the cache's correctness claim --
// memoized answers must be *bit-identical* to cold recomputation, across
// shuffled request orders and both schedulers, in struct fields and in the
// rendered wall-free JSONL rows -- a near-miss bank (questions that differ
// from an earlier one in the last bits, in task order or in time scale
// must get their own cold answer), plus counter accounting, LRU eviction
// under a tiny byte budget, first-writer-wins inserts, and the --no-memo
// kill switch. The same binary reruns in CI under FLEXRT_THREADS in
// {1, 4, 16}: the memo must be order- and thread-count-indifferent
// because the pool executes fleet entries in nondeterministic order.
#include "svc/memo_cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/analysis_engine.hpp"
#include "core/paper_example.hpp"
#include "core/study_runner.hpp"
#include "gen/taskset_gen.hpp"
#include "rt/task.hpp"
#include "rt/task_set.hpp"
#include "svc/analysis_service.hpp"
#include "svc/rows.hpp"

namespace flexrt::svc {
namespace {

using hier::Scheduler;

/// Every test runs against the real process-wide cache, so each one starts
/// from a clean, default-configured memo and leaves it that way (other
/// suites in this binary share the instance).
class MemoCacheTest : public ::testing::Test {
 protected:
  MemoCacheTest() { reset(); }
  ~MemoCacheTest() override { reset(); }

  static void reset() {
    MemoCache& m = global_memo();
    m.set_enabled(true);
    m.set_capacity_bytes(MemoCache::kDefaultCapacityBytes);
    m.clear();
  }
};

core::ModeTaskSystem scaled_paper(double k) {
  const core::ModeTaskSystem& base = core::paper_example();
  std::array<std::vector<rt::TaskSet>, 3> parts;
  for (std::size_t m = 0; m < core::kAllModes.size(); ++m) {
    for (const rt::TaskSet& channel : base.partitions(core::kAllModes[m])) {
      std::vector<rt::Task> tasks;
      for (const rt::Task& t : channel) {
        tasks.push_back(rt::make_task(t.name, t.wcet * k, t.period * k,
                                      t.deadline * k, t.mode));
      }
      parts[m].emplace_back(std::move(tasks));
    }
  }
  return core::ModeTaskSystem(std::move(parts[0]), std::move(parts[1]),
                              std::move(parts[2]));
}

void fill_fleet(AnalysisService& service, std::size_t trials) {
  core::StudyOptions study;
  study.trials = trials;
  service.add_fleet(study, [](std::size_t, Rng& rng) {
    return gen::study_system(rng);
  });
}

/// The near-miss protocol: from a cleared memo, ask `producer`, then
/// `consumer`; then ask `consumer` again with the memo off. Returns
/// {producer answer, consumer answer after it, cold consumer answer}.
template <typename Producer, typename Consumer>
auto after_producer(const Producer& producer, const Consumer& consumer) {
  global_memo().clear();
  const auto first = producer();
  const auto warm = consumer();
  global_memo().set_enabled(false);
  const auto cold = consumer();
  global_memo().set_enabled(true);
  return std::tuple{first, warm, cold};
}

std::string sweep_rows(const RegionSweepResult& r) {
  std::string out;
  for (const core::RegionSample& smp : r.samples) {
    out += sweep_sample_row(r, Scheduler::EDF, smp).str() + "\n";
  }
  return out + sweep_summary_row(r, Scheduler::EDF, false).str();
}

// --- the differential harness -------------------------------------------

// Cold reference (memo off) vs a memo-populating pass vs an all-hits pass,
// over a generated fleet, per-entry in a shuffled order, both schedulers.
// Struct fields and rendered wall-free rows must match byte-for-byte.
TEST_F(MemoCacheTest, MemoizedAnswersAreBitIdenticalToCold) {
  const std::size_t kTrials = 24;
  AnalysisService service;
  fill_fleet(service, kTrials);
  std::vector<std::size_t> order(service.size());
  std::iota(order.begin(), order.end(), 0);
  Rng shuffle_rng(7);
  for (std::size_t i = order.size(); i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(
        shuffle_rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(order[i - 1], order[j]);
  }

  for (const Scheduler alg : {Scheduler::EDF, Scheduler::FP}) {
    const MinQuantumRequest mq{alg, 1.0, false, {}};
    const SolveRequest sv{alg, {0.01, 0.01, 0.01},
                          core::DesignGoal::MinOverheadBandwidth, {}, {}};

    global_memo().set_enabled(false);
    std::vector<MinQuantumResult> cold_mq;
    std::vector<SolveResult> cold_sv;
    for (std::size_t i = 0; i < service.size(); ++i) {
      cold_mq.push_back(service.min_quantum_one(i, mq));
      cold_sv.push_back(service.solve_one(i, sv));
    }

    global_memo().set_enabled(true);
    global_memo().clear();
    // Two warm passes in shuffled order: the first populates (misses),
    // the second must be pure hits. Both must reproduce cold bits.
    for (int pass = 0; pass < 2; ++pass) {
      for (const std::size_t i : order) {
        const MinQuantumResult m = service.min_quantum_one(i, mq);
        const SolveResult s = service.solve_one(i, sv);
        ASSERT_EQ(m.ok(), cold_mq[i].ok());
        EXPECT_EQ(m.name, cold_mq[i].name);
        EXPECT_EQ(m.mode_quantum, cold_mq[i].mode_quantum);
        EXPECT_EQ(m.margin, cold_mq[i].margin);
        EXPECT_EQ(m.prov.budget, cold_mq[i].prov.budget);
        EXPECT_EQ(m.prov.gap, cold_mq[i].prov.gap);
        EXPECT_EQ(min_quantum_row(m, alg, mq.period, false).str(),
                  min_quantum_row(cold_mq[i], alg, mq.period, false).str());
        ASSERT_EQ(s.ok(), cold_sv[i].ok());
        EXPECT_EQ(solve_row(s, alg, sv.goal, false).str(),
                  solve_row(cold_sv[i], alg, sv.goal, false).str());
      }
      const MemoStats st = global_memo().stats();
      if (pass == 1) {
        EXPECT_GE(st.hits, 2 * service.size()) << "warm pass must be hits";
      }
    }
  }
}

TEST_F(MemoCacheTest, VerifyIsMemoizedBitIdentically) {
  AnalysisService service;
  service.add_system(core::paper_example(), "paper");
  const SolveResult base = service.solve_one(
      0, {Scheduler::EDF, {0.01, 0.01, 0.01},
          core::DesignGoal::MinOverheadBandwidth, {}, {}});
  ASSERT_TRUE(base.ok());
  const VerifyRequest vr{Scheduler::EDF, base.design.schedule, false, {}};

  global_memo().set_enabled(false);
  const VerifyResult cold = service.verify_one(0, vr);
  global_memo().set_enabled(true);
  global_memo().clear();
  const VerifyResult warm1 = service.verify_one(0, vr);
  const VerifyResult warm2 = service.verify_one(0, vr);
  for (const VerifyResult* r : {&warm1, &warm2}) {
    EXPECT_EQ(r->schedulable, cold.schedulable);
    EXPECT_EQ(r->prov.gap, cold.prov.gap);
    EXPECT_EQ(
        verify_row(*r, vr.alg, vr.schedule.period, false).str(),
        verify_row(cold, vr.alg, vr.schedule.period, false).str());
  }
  EXPECT_FALSE(warm1.prov.cache_hit);
  EXPECT_TRUE(warm2.prov.cache_hit);
  EXPECT_EQ(global_memo().stats().hits, 1u);
}

// --- near misses: close to an earlier question is not the same question ---
//
// Each case asks a producer question, then a consumer question that is
// within 1e-9 relative of it, a reorder of it, or a time-scaled twin of
// it. The consumer must read exactly as a memo-off run: a key that
// identified the two would replay the producer's answer.

TEST_F(MemoCacheTest, NearMissVerifyGetsTheColdVerdict) {
  AnalysisService service;
  service.add_system(core::paper_example(), "paper");
  const double o = 0.05 / 3;
  const SolveResult solved = service.solve_one(
      0, {Scheduler::EDF, {o, o, o}, core::DesignGoal::MinOverheadBandwidth,
          {}, {}});
  ASSERT_TRUE(solved.ok() && solved.feasible);
  const VerifyRequest design{Scheduler::EDF, solved.design.schedule, false,
                             {}};
  VerifyRequest near = design;
  near.schedule.fs.usable = 1.28136290551;  // < 1e-9 below the design's
  ASSERT_NE(near.schedule.fs.usable, design.schedule.fs.usable);
  const auto [producer, warm, cold] =
      after_producer([&] { return service.verify_one(0, design); },
                     [&] { return service.verify_one(0, near); });
  EXPECT_TRUE(producer.schedulable);
  EXPECT_FALSE(cold.schedulable) << "the near miss is outside the region";
  EXPECT_FALSE(warm.prov.cache_hit);
  EXPECT_EQ(warm.schedulable, cold.schedulable);
  const double period = near.schedule.period;
  EXPECT_EQ(verify_row(warm, Scheduler::EDF, period, false).str(),
            verify_row(cold, Scheduler::EDF, period, false).str());
}

TEST_F(MemoCacheTest, AccumulatedPeriodDoesNotAnswerTheExactOne) {
  AnalysisService service;
  service.add_system(core::paper_example(), "paper");
  for (const Scheduler alg : {Scheduler::EDF, Scheduler::FP}) {
    const auto ask = [&](double period) {
      return service.min_quantum_one(0, {alg, period, false, {}});
    };
    // 0.2 plus eight += 0.1 steps lands on 0.9999999999999999, not 1.0.
    const auto [producer, warm, cold] = after_producer(
        [&] {
          double p = 0.2;
          MinQuantumResult last = ask(p);
          for (int k = 0; k < 8; ++k) {
            p += 0.1;
            last = ask(p);
          }
          return last;
        },
        [&] { return ask(1.0); });
    EXPECT_NE(producer.margin, cold.margin);
    EXPECT_FALSE(warm.prov.cache_hit);
    const analysis::BatchEngine engine(core::paper_example(), alg);
    for (std::size_t m = 0; m < core::kAllModes.size(); ++m) {
      EXPECT_EQ(warm.mode_quantum[m],
                engine.mode_min_quantum(core::kAllModes[m], 1.0));
    }
    EXPECT_EQ(warm.margin, engine.feasibility_margin(1.0));
    EXPECT_EQ(min_quantum_row(warm, alg, 1.0, false).str(),
              min_quantum_row(cold, alg, 1.0, false).str());
  }
}

TEST_F(MemoCacheTest, WithinChannelReorderGetsTheColdSweep) {
  // The 4th system the study generator yields from seed 12345; its FS
  // channel 1 holds t8, t2, t9.
  Rng rng(12345);
  std::optional<core::ModeTaskSystem> sys;
  for (int found = 0; found < 4;) {
    sys = gen::study_system(rng);
    if (sys) ++found;
  }
  std::vector<rt::TaskSet> fs(sys->partitions(rt::Mode::FS).begin(),
                              sys->partitions(rt::Mode::FS).end());
  std::vector<rt::Task> channel(fs.at(1).begin(), fs.at(1).end());
  const auto named = [&](const char* name) {
    return std::find_if(channel.begin(), channel.end(),
                        [&](const rt::Task& t) { return t.name == name; });
  };
  ASSERT_NE(named("t2"), channel.end());
  ASSERT_NE(named("t9"), channel.end());
  std::iter_swap(named("t2"), named("t9"));
  fs[1] = rt::TaskSet(std::move(channel));
  core::ModeTaskSystem reordered = *sys;
  reordered.set_partitions(rt::Mode::FS, std::move(fs));

  AnalysisService service;
  service.add_system(*sys, "original");
  service.add_system(std::move(reordered), "reordered");
  core::SearchOptions grid;
  grid.p_min = 0.05;
  grid.p_max = 3.5;
  grid.grid_step = 0.05;
  const RegionSweepRequest req{Scheduler::EDF, grid, {}};
  const auto [producer, warm, cold] =
      after_producer([&] { return service.region_sweep_one(0, req); },
                     [&] { return service.region_sweep_one(1, req); });
  EXPECT_NE(sweep_rows(producer), sweep_rows(cold))
      << "the reorder changes the sweep in the last bits";
  EXPECT_FALSE(warm.prov.cache_hit);
  EXPECT_EQ(sweep_rows(warm), sweep_rows(cold));
}

TEST_F(MemoCacheTest, ScaledTwinGetsItsOwnColdAnswer) {
  AnalysisService service;
  service.add_system(core::paper_example(), "base");
  service.add_system(scaled_paper(10.0), "x10");
  const auto ask = [&](std::size_t entry, double period) {
    return service.min_quantum_one(entry, {Scheduler::EDF, period, false, {}});
  };
  const auto [producer, warm, cold] = after_producer(
      [&] { return ask(0, 1.0); }, [&] { return ask(1, 10.0); });
  ASSERT_TRUE(producer.ok() && cold.ok());
  EXPECT_NE(cold.mode_quantum[0], 10.0 * producer.mode_quantum[0])
      << "the x10 answer is not the x1 answer times 10";
  EXPECT_FALSE(warm.prov.cache_hit);
  EXPECT_EQ(warm.mode_quantum, cold.mode_quantum);
  EXPECT_EQ(min_quantum_row(warm, Scheduler::EDF, 10.0, false).str(),
            min_quantum_row(cold, Scheduler::EDF, 10.0, false).str());
}

// --- counters, identity, provenance -------------------------------------

TEST_F(MemoCacheTest, StatsCountMissThenInsertThenHit) {
  AnalysisService service;
  service.add_system(core::paper_example(), "paper");
  const MinQuantumRequest req{Scheduler::EDF, 1.0, false, {}};
  (void)service.min_quantum_one(0, req);
  MemoStats st = global_memo().stats();
  EXPECT_EQ(st.hits, 0u);
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.insertions, 1u);
  EXPECT_EQ(st.entries, 1u);
  EXPECT_GT(st.bytes, 0u);
  (void)service.min_quantum_one(0, req);
  st = global_memo().stats();
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.insertions, 1u);
}

TEST_F(MemoCacheTest, HitCarriesTheConsumersIdentityNotTheProducers) {
  AnalysisService service;
  service.add_system(core::paper_example(), "first");
  service.add_system(core::paper_example(), "second");
  const MinQuantumRequest req{Scheduler::EDF, 1.0, false, {}};
  const MinQuantumResult producer = service.min_quantum_one(0, req);
  const MinQuantumResult consumer = service.min_quantum_one(1, req);
  EXPECT_EQ(global_memo().stats().hits, 1u);
  EXPECT_EQ(consumer.system, 1u);
  EXPECT_EQ(consumer.name, "second");
  EXPECT_TRUE(consumer.prov.cache_hit);
  EXPECT_FALSE(producer.prov.cache_hit);
  EXPECT_EQ(consumer.mode_quantum, producer.mode_quantum);
  EXPECT_EQ(consumer.margin, producer.margin);
}

TEST_F(MemoCacheTest, DifferentRequestsDoNotAlias) {
  AnalysisService service;
  service.add_system(core::paper_example(), "paper");
  const MinQuantumResult p1 =
      service.min_quantum_one(0, {Scheduler::EDF, 1.0, false, {}});
  const MinQuantumResult p2 =
      service.min_quantum_one(0, {Scheduler::EDF, 2.0, false, {}});
  const MinQuantumResult fp =
      service.min_quantum_one(0, {Scheduler::FP, 1.0, false, {}});
  EXPECT_EQ(global_memo().stats().hits, 0u);
  EXPECT_EQ(global_memo().stats().entries, 3u);
  (void)p1;
  (void)p2;
  (void)fp;
}

// --- configuration: kill switch and byte budget -------------------------

TEST_F(MemoCacheTest, DisabledMemoNeverTouchesTheCache) {
  global_memo().set_enabled(false);
  AnalysisService service;
  service.add_system(core::paper_example(), "paper");
  const MinQuantumRequest req{Scheduler::EDF, 1.0, false, {}};
  const MinQuantumResult a = service.min_quantum_one(0, req);
  const MinQuantumResult b = service.min_quantum_one(0, req);
  const MemoStats st = global_memo().stats();
  EXPECT_EQ(st.hits, 0u);
  EXPECT_EQ(st.misses, 0u);
  EXPECT_EQ(st.entries, 0u);
  EXPECT_FALSE(st.enabled);
  EXPECT_FALSE(a.prov.cache_hit);
  EXPECT_FALSE(b.prov.cache_hit);
  EXPECT_EQ(a.mode_quantum, b.mode_quantum);
}

TEST_F(MemoCacheTest, LruEvictionKeepsTheShardUnderItsByteSlice) {
  // Keys with the same hi land in the same shard, so filling one shard is
  // deterministic: a 1 KiB slice (64 KiB over 64 shards) holds only a few
  // MinQuantumResult payloads, and older entries must evict LRU-first.
  MemoCache& memo = global_memo();
  const std::size_t kCapacity = std::size_t{64} * 1024;
  memo.set_capacity_bytes(kCapacity);
  MinQuantumResult payload;
  payload.margin = 0.25;
  const std::size_t kInserts = 64;
  for (std::uint64_t i = 1; i <= kInserts; ++i) {
    memo.insert(rt::Hash128{7, i}, MemoPayload{payload});
  }
  const MemoStats st = memo.stats();
  EXPECT_GT(st.evictions, 0u);
  EXPECT_EQ(st.insertions, kInserts);
  EXPECT_LE(st.bytes, kCapacity / MemoCache::kShards);
  EXPECT_LT(st.entries, kInserts);
  // LRU order: the first key is long gone, the last one is resident.
  EXPECT_FALSE(memo.lookup(rt::Hash128{7, 1}).has_value());
  EXPECT_TRUE(memo.lookup(rt::Hash128{7, kInserts}).has_value());
}

TEST_F(MemoCacheTest, TinyBudgetChurnsButStaysCorrect) {
  // A few KiB across 64 shards leaves room for almost nothing, so the
  // cache churns (or refuses oversized payloads) constantly. Correctness
  // must be unaffected -- evicted entries recompute, they don't corrupt.
  global_memo().set_capacity_bytes(std::size_t{64} * 1024);
  AnalysisService service;
  fill_fleet(service, 32);
  const MinQuantumRequest req{Scheduler::EDF, 1.0, false, {}};

  global_memo().set_enabled(false);
  std::vector<MinQuantumResult> cold;
  for (std::size_t i = 0; i < service.size(); ++i) {
    cold.push_back(service.min_quantum_one(i, req));
  }
  global_memo().set_enabled(true);
  global_memo().clear();
  for (int pass = 0; pass < 3; ++pass) {
    for (std::size_t i = 0; i < service.size(); ++i) {
      const MinQuantumResult r = service.min_quantum_one(i, req);
      EXPECT_EQ(r.mode_quantum, cold[i].mode_quantum);
      EXPECT_EQ(r.margin, cold[i].margin);
    }
  }
  EXPECT_LE(global_memo().stats().bytes, std::size_t{64} * 1024);
}

TEST_F(MemoCacheTest, FirstWriterWinsOnDuplicateInsert) {
  MemoCache& memo = global_memo();
  const rt::Hash128 key{42, 7};
  MinQuantumResult first;
  first.margin = 1.0;
  MinQuantumResult second;
  second.margin = 2.0;
  memo.insert(key, MemoPayload{first});
  memo.insert(key, MemoPayload{second});
  const auto hit = memo.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(std::get<MinQuantumResult>(*hit).margin, 1.0);
  EXPECT_EQ(memo.stats().insertions, 1u);
}

TEST_F(MemoCacheTest, ClearZeroesEverything) {
  AnalysisService service;
  service.add_system(core::paper_example(), "paper");
  (void)service.min_quantum_one(0, {Scheduler::EDF, 1.0, false, {}});
  ASSERT_GT(global_memo().stats().entries, 0u);
  global_memo().clear();
  const MemoStats st = global_memo().stats();
  EXPECT_EQ(st.entries, 0u);
  EXPECT_EQ(st.bytes, 0u);
  EXPECT_EQ(st.hits, 0u);
  EXPECT_EQ(st.misses, 0u);
  EXPECT_EQ(st.insertions, 0u);
  EXPECT_EQ(st.evictions, 0u);
}

}  // namespace
}  // namespace flexrt::svc
