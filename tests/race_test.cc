// The TOCTTOU acceptance tests: the schedule explorer must FIND the
// symlink-swap race against the stock setuid system, report it as a
// deterministically replayable schedule, and find NO violating schedule for
// the same scenario under Protego. Plus the seed-replay determinism checks
// (same seed => identical syscall trace and identical metrics).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/conc/explore.h"
#include "src/conc/scheduler.h"
#include "src/sim/system.h"
#include "src/study/races.h"

namespace protego {
namespace {

using conc::DetScheduler;
using conc::ExploreMode;
using conc::ExploreOptions;
using conc::ExploreResult;
using conc::SchedMode;

ExploreOptions ExhaustiveOptions() {
  ExploreOptions opt;
  opt.mode = ExploreMode::kExhaustive;
  opt.preemption_bound = 1;  // one preemption: the swap inside the window
  opt.max_schedules = 5000;
  return opt;
}

TEST(TocttouRace, ExhaustiveSearchFindsRaceAgainstStockSetuid) {
  ExploreResult res = conc::Explore(
      MakeTocttouScenario(SimMode::kLinux, TocttouVariant::kStatThenOpen),
      ExhaustiveOptions());
  ASSERT_TRUE(res.violation_found)
      << "no violating interleaving in " << res.schedules_run << " schedules";
  EXPECT_NE(res.detail.find(kTocttouSecretPath), std::string::npos);
  EXPECT_FALSE(res.violating.choices.empty());
}

TEST(TocttouRace, ViolatingScheduleReplaysDeterministically) {
  auto factory = MakeTocttouScenario(SimMode::kLinux, TocttouVariant::kStatThenOpen);
  ExploreResult res = conc::Explore(factory, ExhaustiveOptions());
  ASSERT_TRUE(res.violation_found);

  // Replaying the reported schedule reproduces the violation every time,
  // with the identical decision sequence.
  std::vector<conc::SchedDecision> first;
  auto v1 = conc::Replay(factory, res.violating, &first);
  ASSERT_TRUE(v1.has_value());
  EXPECT_EQ(*v1, res.detail);
  for (int i = 0; i < 2; ++i) {
    std::vector<conc::SchedDecision> again;
    auto v = conc::Replay(factory, res.violating, &again);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, *v1);
    ASSERT_EQ(again.size(), first.size());
    for (size_t j = 0; j < first.size(); ++j) {
      EXPECT_EQ(again[j].chosen_index, first[j].chosen_index);
      EXPECT_EQ(again[j].runnable, first[j].runnable);
    }
  }
}

TEST(TocttouRace, AccessThenOpenVariantIsAlsoRacy) {
  ExploreResult res = conc::Explore(
      MakeTocttouScenario(SimMode::kLinux, TocttouVariant::kAccessThenOpen),
      ExhaustiveOptions());
  EXPECT_TRUE(res.violation_found);
}

TEST(TocttouRace, RandomSearchFindsRaceAndReportsReplayableSeed) {
  auto factory = MakeTocttouScenario(SimMode::kLinux, TocttouVariant::kStatThenOpen);
  ExploreOptions opt;
  opt.mode = ExploreMode::kRandom;
  opt.seed = 1;
  opt.num_seeds = 64;
  ExploreResult res = conc::Explore(factory, opt);
  ASSERT_TRUE(res.violation_found) << "no seed in [1,64] hit the race window";
  EXPECT_EQ(res.violating.mode, SchedMode::kRandom);

  // The seed alone replays the violation.
  auto v = conc::Replay(factory, res.violating);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, res.detail);
}

TEST(TocttouRace, ProtegoAdmitsNoViolatingSchedule) {
  // Identical scenario, Protego mode: the binary has no setuid bit, the
  // open runs with the invoker's fsuid, and DAC denies the swapped-in
  // secret at the use site. The FULL bounded schedule space is clean.
  for (TocttouVariant variant :
       {TocttouVariant::kStatThenOpen, TocttouVariant::kAccessThenOpen}) {
    ExploreResult res = conc::Explore(MakeTocttouScenario(SimMode::kProtego, variant),
                                      ExhaustiveOptions());
    EXPECT_FALSE(res.violation_found) << TocttouVariantName(variant) << ": " << res.detail;
    EXPECT_TRUE(res.exhausted) << TocttouVariantName(variant);
    EXPECT_GT(res.schedules_run, 1u);
  }
}

TEST(TocttouRace, FilteredVictimAdmitsNoViolatingSchedule) {
  // filereport's filter confines open(2) to /tmp/. The walk decides it on
  // the canonical path, so the swapped link's target (/etc/secret) is
  // refused even against the stock setuid-root victim; a check of the
  // string "/tmp/job" at syscall entry admitted it.
  for (SimMode mode : {SimMode::kLinux, SimMode::kProtego}) {
    for (TocttouVariant variant :
         {TocttouVariant::kStatThenOpen, TocttouVariant::kAccessThenOpen}) {
      ExploreResult res = conc::Explore(
          MakeTocttouScenario(mode, variant, /*filter_victim=*/true), ExhaustiveOptions());
      EXPECT_FALSE(res.violation_found) << TocttouVariantName(variant) << ": " << res.detail;
      EXPECT_TRUE(res.exhausted) << TocttouVariantName(variant);
      EXPECT_GT(res.schedules_run, 1u);
    }
  }
}

// --- Lost updates in the shared passwd database ------------------------------

TEST(PasswdLostUpdate, WithoutFlockExplorerFindsLostUpdate) {
  // Locking disabled (PROTEGO_NO_FLOCK=1): two interleaved whole-file
  // read-modify-writes of /etc/passwd can drop one editor's record.
  ExploreResult res =
      conc::Explore(MakePasswdLostUpdateScenario(/*with_flock=*/false), ExhaustiveOptions());
  ASSERT_TRUE(res.violation_found)
      << "no lost-update interleaving in " << res.schedules_run << " schedules";
  EXPECT_NE(res.detail.find("lost update"), std::string::npos) << res.detail;
}

TEST(PasswdLostUpdate, FlockMakesAllInterleavingsSafeAndDeadlockFree) {
  // Shipped behavior: chfn's update path takes an exclusive advisory flock
  // across the read-modify-write. The FULL bounded schedule space keeps both
  // edits, and every schedule terminates cleanly (no deadlock, no EDEADLK).
  ExploreResult res =
      conc::Explore(MakePasswdLostUpdateScenario(/*with_flock=*/true), ExhaustiveOptions());
  EXPECT_FALSE(res.violation_found) << res.detail;
  EXPECT_TRUE(res.exhausted);
  EXPECT_GT(res.schedules_run, 1u);
}

// --- Determinism of seeded runs ---------------------------------------------

TEST(ConcDeterminism, SameSeedSameSyscallTraceAndMetricsThreeRuns) {
  // Protego mode, because /proc/protego/metrics only exists there.
  auto factory = MakeTocttouScenario(SimMode::kProtego, TocttouVariant::kStatThenOpen);
  std::vector<std::string> traces;
  std::vector<std::string> metrics;
  for (int i = 0; i < 3; ++i) {
    auto run = factory();
    DetScheduler sched(&run->kernel().tracer());
    sched.set_mode(SchedMode::kRandom);
    sched.set_seed(424242);
    run->kernel().set_scheduler(&sched);
    run->RegisterTasks(sched);
    sched.Run();
    run->kernel().set_scheduler(nullptr);
    (void)run->CheckInvariant();  // reaps the children
    traces.push_back(run->kernel().tracer().Format());
    metrics.push_back(
        run->kernel().vfs().ReadFile("/proc/protego/metrics").value_or("<unreadable>"));
  }
  ASSERT_FALSE(traces[0].empty());
  EXPECT_EQ(traces[0], traces[1]);
  EXPECT_EQ(traces[0], traces[2]);
  ASSERT_NE(metrics[0], "<unreadable>");
  EXPECT_EQ(metrics[0], metrics[1]);
  EXPECT_EQ(metrics[0], metrics[2]);
}

}  // namespace
}  // namespace protego
