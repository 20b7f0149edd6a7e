#include <gtest/gtest.h>

#include "baseline/primary_backup.hpp"
#include "baseline/static_config.hpp"
#include "core/paper_example.hpp"

namespace flexrt::baseline {
namespace {

using hier::Scheduler;
using rt::make_task;
using rt::Mode;
using rt::TaskSet;

TEST(EdfTest, ImplicitDeadlinesReduceToUtilization) {
  const TaskSet ok{make_task("a", 1, 2, Mode::NF),
                   make_task("b", 1, 3, Mode::NF)};  // U = 0.833
  EXPECT_TRUE(dedicated_schedulable(ok, Scheduler::EDF));
  const TaskSet bad{make_task("a", 1, 2, Mode::NF),
                    make_task("b", 2, 3, Mode::NF)};  // U = 1.167
  EXPECT_FALSE(dedicated_schedulable(bad, Scheduler::EDF));
}

TEST(EdfTest, ConstrainedDeadlinesNeedDemandCheck) {
  // U < 1 but dbf(4) = 3+... : a(3,10,D=4) b(2,5,D=5):
  // dbf(4)=3, ok; dbf(5)=3+2=5, ok; dbf(9)? a:1 job, b: floor((9)/5)=1 ->
  // 3+2=5 <= 9 ok; dbf(10)=... 2 jobs b: floor((10)/5)=2 -> 3+4=7 <=10.
  const TaskSet ok{make_task("a", 3, 10, 4, Mode::NF),
                   make_task("b", 2, 5, 5, Mode::NF)};
  EXPECT_TRUE(dedicated_schedulable(ok, Scheduler::EDF));
  // Shrink a's deadline to 3: dbf(3) = 3, and dbf(5) = 5 still; but deadline
  // 3 with wcet 3 plus b's 2 by 5: at t=5 demand 5 ok; make b heavier:
  const TaskSet bad{make_task("a", 3, 10, 3, Mode::NF),
                    make_task("b", 3, 5, 5, Mode::NF)};  // dbf(5)=6 > 5
  EXPECT_FALSE(dedicated_schedulable(bad, Scheduler::EDF));
}

TEST(StaticConfig, ProtectionOrdering) {
  // FT hardware satisfies everything; NF hardware only NF.
  EXPECT_TRUE(satisfies(StaticConfig::AllFT, Mode::FT));
  EXPECT_TRUE(satisfies(StaticConfig::AllFT, Mode::FS));
  EXPECT_TRUE(satisfies(StaticConfig::AllFT, Mode::NF));
  EXPECT_FALSE(satisfies(StaticConfig::AllFS, Mode::FT));
  EXPECT_TRUE(satisfies(StaticConfig::AllFS, Mode::FS));
  EXPECT_TRUE(satisfies(StaticConfig::AllFS, Mode::NF));
  EXPECT_FALSE(satisfies(StaticConfig::AllNF, Mode::FT));
  EXPECT_FALSE(satisfies(StaticConfig::AllNF, Mode::FS));
  EXPECT_TRUE(satisfies(StaticConfig::AllNF, Mode::NF));
}

TEST(StaticConfig, PaperTaskSetOnlyFitsAllFt) {
  // Total U = 0.784 + ... let's see: the NF tasks cannot run on AllFS/AllNF
  // mode-wise? They can (weaker requirement). FT tasks block AllFS/AllNF.
  const rt::TaskSet all = core::paper_example_tasks();
  const StaticResult ft = try_static(all, StaticConfig::AllFT, Scheduler::EDF);
  EXPECT_TRUE(ft.mode_feasible);
  // Total utilization 1.37 > 1: one lock-step channel cannot host it.
  EXPECT_FALSE(ft.schedulable);
  EXPECT_FALSE(
      try_static(all, StaticConfig::AllFS, Scheduler::EDF).mode_feasible);
  EXPECT_FALSE(
      try_static(all, StaticConfig::AllNF, Scheduler::EDF).mode_feasible);
}

TEST(StaticConfig, LightAllFtWorkloadSchedulable) {
  TaskSet light{make_task("a", 1, 10, Mode::FT),
                make_task("b", 1, 20, Mode::FS),
                make_task("c", 1, 20, Mode::NF)};  // U = 0.2
  const StaticResult r = try_static(light, StaticConfig::AllFT, Scheduler::EDF);
  EXPECT_TRUE(r.mode_feasible);
  EXPECT_TRUE(r.schedulable);
}

TEST(StaticConfig, AllNfUsesFourChannels) {
  TaskSet heavy;
  for (int i = 0; i < 4; ++i) {
    heavy.add(make_task("t" + std::to_string(i), 9, 10, Mode::NF));  // U=0.9
  }
  EXPECT_TRUE(try_static(heavy, StaticConfig::AllNF, Scheduler::EDF)
                  .schedulable);
  // The same load can never fit two FS channels.
  EXPECT_FALSE(try_static(heavy, StaticConfig::AllFS, Scheduler::EDF)
                   .schedulable);
}

TEST(StaticConfig, Names) {
  EXPECT_STREQ(to_string(StaticConfig::AllFT), "static-FT");
  EXPECT_STREQ(to_string(StaticConfig::AllFS), "static-FS");
  EXPECT_STREQ(to_string(StaticConfig::AllNF), "static-NF");
}

TEST(PrimaryBackup, BackupsPlacedOnDistinctProcessors) {
  TaskSet ts{make_task("crit", 2, 10, Mode::FT),
             make_task("plain", 1, 10, Mode::NF)};
  const auto pb = build_primary_backup(ts);
  ASSERT_TRUE(pb.has_value());
  // Find primary and backup of "crit".
  int primary_proc = -1, backup_proc = -1;
  for (int p = 0; p < 4; ++p) {
    for (const rt::Task& t : pb->processors[static_cast<std::size_t>(p)]) {
      if (t.name == "crit") primary_proc = p;
      if (t.name == "crit_bk") backup_proc = p;
    }
  }
  ASSERT_NE(primary_proc, -1);
  ASSERT_NE(backup_proc, -1);
  EXPECT_NE(primary_proc, backup_proc);
  EXPECT_NEAR(pb->replication_overhead, 0.2, 1e-12);
}

TEST(PrimaryBackup, NfTasksGetNoBackup) {
  TaskSet ts{make_task("plain", 1, 10, Mode::NF)};
  const auto pb = build_primary_backup(ts);
  ASSERT_TRUE(pb.has_value());
  std::size_t copies = 0;
  for (const rt::TaskSet& proc : pb->processors) copies += proc.size();
  EXPECT_EQ(copies, 1u);
  EXPECT_DOUBLE_EQ(pb->replication_overhead, 0.0);
}

TEST(PrimaryBackup, PaperTaskSetSchedulable) {
  // Total PB load = 1.37 + 0.517 (protected copies) = 1.89 on 4 procs.
  const rt::TaskSet all = core::paper_example_tasks();
  EXPECT_TRUE(try_primary_backup(all, Scheduler::EDF));
}

TEST(PrimaryBackup, DoubledLoadCanExceedCapacity) {
  // 8 protected tasks of U=0.45: 16 copies x 0.45 = 7.2 > 4 processors.
  TaskSet heavy;
  for (int i = 0; i < 8; ++i) {
    heavy.add(make_task("t" + std::to_string(i), 4.5, 10, Mode::FT));
  }
  EXPECT_FALSE(build_primary_backup(heavy).has_value());
}

TEST(PrimaryBackup, HugeTaskWithBackupNeedsTwoProcessors) {
  // U = 0.9 protected: primary on one proc, backup on another; adding four
  // of them cannot fit (4 x 2 x 0.9 = 7.2 > 4).
  TaskSet one{make_task("big", 9, 10, Mode::FS)};
  EXPECT_TRUE(try_primary_backup(one, Scheduler::EDF));
  TaskSet four;
  for (int i = 0; i < 4; ++i) {
    four.add(make_task("big" + std::to_string(i), 9, 10, Mode::FS));
  }
  EXPECT_FALSE(build_primary_backup(four).has_value());
}

TEST(PrimaryBackup, SchedulabilityCheckedPerProcessor) {
  // Fits by utilization but fails EDF demand on some proc? Utilization-based
  // placement guarantees U<=1 per proc, and implicit deadlines make EDF
  // demand == utilization; use constrained deadlines to force a demand
  // failure: C=4, T=10, D=4 twice on one proc would need dbf(4)=8>4. The
  // placer uses worst-fit so they land on different procs and pass; verify
  // that at least the invariant "pb_schedulable implies every proc passes"
  // holds via a direct check.
  TaskSet ts{make_task("a", 4, 10, 4, Mode::NF),
             make_task("b", 4, 10, 4, Mode::NF)};
  const auto pb = build_primary_backup(ts);
  ASSERT_TRUE(pb.has_value());
  EXPECT_TRUE(pb_schedulable(*pb, Scheduler::EDF));
}

}  // namespace
}  // namespace flexrt::baseline
