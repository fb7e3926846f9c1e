// Tests for the deterministic concurrency subsystem (src/conc): token
// hand-off, schedule exploration, blocking/deadlock semantics, flock, and
// cross-task policy-swap visibility at yield points.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/base/hash.h"
#include "src/conc/explore.h"
#include "src/conc/scheduler.h"
#include "src/sim/system.h"

namespace protego {
namespace {

using conc::DetScheduler;
using conc::ExploreMode;
using conc::ExploreOptions;
using conc::ExploreResult;
using conc::SchedDecision;
using conc::SchedMode;

// --- Plain two-task scenario on a bare kernel --------------------------------
//
// Each task performs exactly `kSyscallsPerTask` getpid() calls, so each has
// kSyscallsPerTask + 1 execution quanta. Two tasks of 4 quanta interleave in
// C(8,4) = 70 distinct ways — the exact number bounded-exhaustive
// enumeration must produce.
constexpr int kSyscallsPerTask = 3;

class TwoTaskRun : public conc::ScenarioRun {
 public:
  Kernel& kernel() override { return kernel_; }

  void RegisterTasks(TaskScheduler& sched) override {
    Task& a = kernel_.CreateTask("taska", Cred::ForUser(1000, 1000), nullptr);
    Task& b = kernel_.CreateTask("taskb", Cred::ForUser(1001, 1001), nullptr);
    sched.StartTask(a.pid, [this, &a] {
      for (int i = 0; i < kSyscallsPerTask; ++i) {
        (void)kernel_.GetPid(a);
      }
    });
    sched.StartTask(b.pid, [this, &b] {
      for (int i = 0; i < kSyscallsPerTask; ++i) {
        (void)kernel_.GetPid(b);
      }
    });
  }

  std::optional<std::string> CheckInvariant() override { return std::nullopt; }

 private:
  Kernel kernel_;
};

conc::ScenarioFactory TwoTaskFactory() {
  return [] { return std::make_unique<TwoTaskRun>(); };
}

TEST(ConcScheduler, RoundRobinRunsAllTasksToCompletion) {
  auto run = TwoTaskFactory()();
  DetScheduler sched;
  run->kernel().set_scheduler(&sched);
  run->RegisterTasks(sched);
  sched.Run();
  run->kernel().set_scheduler(nullptr);

  // Round-robin alternates at every yield: both pids appear throughout.
  ASSERT_FALSE(sched.decisions().empty());
  std::set<int> scheduled;
  for (const SchedDecision& d : sched.decisions()) {
    scheduled.insert(d.runnable[d.chosen_index]);
  }
  EXPECT_EQ(scheduled.size(), 2u);
  EXPECT_GT(sched.steps(), 2u);  // real hand-offs happened
}

TEST(ConcScheduler, SameSeedReplaysIdenticalChoices) {
  std::vector<std::vector<uint32_t>> executed;
  for (int i = 0; i < 3; ++i) {
    auto run = TwoTaskFactory()();
    DetScheduler sched;
    sched.set_mode(SchedMode::kRandom);
    sched.set_seed(0xfeedULL);
    run->kernel().set_scheduler(&sched);
    run->RegisterTasks(sched);
    sched.Run();
    run->kernel().set_scheduler(nullptr);
    executed.push_back(sched.executed_choices());
  }
  ASSERT_FALSE(executed[0].empty());
  EXPECT_EQ(executed[0], executed[1]);
  EXPECT_EQ(executed[0], executed[2]);
}

// kRandom draws from the shared splitmix64 stream: each decision takes the
// next draw modulo the number of runnable units. Three units, because a
// draw modulo a power of two reads only its lowest bits.
TEST(ConcScheduler, RandomModeDrawsTheSharedSplitMix64Stream) {
  constexpr uint64_t kSeed = 0xfeedULL;
  Kernel kernel;
  DetScheduler sched;
  sched.set_mode(SchedMode::kRandom);
  sched.set_seed(kSeed);
  kernel.set_scheduler(&sched);
  for (Uid uid = 1000; uid < 1003; ++uid) {
    Task& task = kernel.CreateTask("task", Cred::ForUser(uid, uid), nullptr);
    sched.StartTask(task.pid, [&kernel, &task] {
      for (int i = 0; i < kSyscallsPerTask; ++i) {
        (void)kernel.GetPid(task);
      }
    });
  }
  sched.Run();
  kernel.set_scheduler(nullptr);
  uint64_t state = kSeed;
  size_t three_way = 0;
  for (const SchedDecision& d : sched.decisions()) {
    three_way += d.runnable.size() == 3 ? 1 : 0;
    EXPECT_EQ(d.chosen_index, SplitMix64(state) % d.runnable.size());
  }
  EXPECT_GT(three_way, 0u);
}

TEST(ConcScheduler, DifferentSeedsExploreDifferentSchedules) {
  std::set<std::vector<uint32_t>> distinct;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    auto run = TwoTaskFactory()();
    DetScheduler sched;
    sched.set_mode(SchedMode::kRandom);
    sched.set_seed(seed);
    run->kernel().set_scheduler(&sched);
    run->RegisterTasks(sched);
    sched.Run();
    run->kernel().set_scheduler(nullptr);
    distinct.insert(sched.executed_choices());
  }
  EXPECT_GT(distinct.size(), 1u);
}

TEST(ConcScheduler, ExhaustiveEnumeratesAllSeventyInterleavings) {
  // Two tasks x (3 syscalls + final quantum) = C(8,4) = 70 interleavings.
  ExploreOptions opt;
  opt.mode = ExploreMode::kExhaustive;
  opt.preemption_bound = 100;  // effectively unbounded
  opt.max_schedules = 10000;
  ExploreResult res = conc::Explore(TwoTaskFactory(), opt);
  EXPECT_TRUE(res.exhausted);
  EXPECT_FALSE(res.violation_found);
  EXPECT_EQ(res.schedules_run, 70u);
}

TEST(ConcScheduler, PreemptionBoundZeroYieldsOnlyNonPreemptiveSchedules) {
  // With no preemptions allowed, a task runs until it exits: A-then-B and
  // B-then-A are the only schedules.
  ExploreOptions opt;
  opt.mode = ExploreMode::kExhaustive;
  opt.preemption_bound = 0;
  ExploreResult res = conc::Explore(TwoTaskFactory(), opt);
  EXPECT_TRUE(res.exhausted);
  EXPECT_EQ(res.schedules_run, 2u);
}

TEST(ConcScheduler, ContextSwitchTracepointRecordsHandoffs) {
  auto run = TwoTaskFactory()();
  Tracer& tracer = run->kernel().tracer();
  DetScheduler sched(&tracer);
  run->kernel().set_scheduler(&sched);
  run->RegisterTasks(sched);
  sched.Run();
  run->kernel().set_scheduler(nullptr);

  uint64_t switches = 0;
  for (const TraceEvent& ev : tracer.Snapshot()) {
    if (ev.tp == TracepointId::kContextSwitch) {
      ++switches;
    }
  }
  EXPECT_EQ(switches, sched.steps());
  EXPECT_GT(switches, 0u);
}

// --- SpawnAsync / WaitPid ----------------------------------------------------

// Installs a tiny binary that prints its first argument (the userland has
// no /bin/echo).
void InstallSay(Kernel& k) {
  ASSERT_TRUE(k.InstallBinary("/usr/bin/say", 0755, kRootUid, kRootGid,
                              [](ProcessContext& ctx) {
                                ctx.Out(ctx.argv.size() > 1 ? ctx.argv[1] : "");
                                ctx.Out("\n");
                                return 0;
                              })
                  .ok());
}

TEST(ConcSpawn, SpawnAsyncRequiresScheduler) {
  SimSystem sys(SimMode::kLinux);
  InstallSay(sys.kernel());
  Task& session = sys.Login("alice");
  auto r = sys.kernel().SpawnAsync(session, "/usr/bin/say", {"say"}, {});
  EXPECT_EQ(r.code(), Errno::kENOSYS);
}

TEST(ConcSpawn, SpawnAsyncChildrenInterleaveAndAreReaped) {
  SimSystem sys(SimMode::kLinux);
  InstallSay(sys.kernel());
  Task& session = sys.Login("alice");
  DetScheduler sched;
  sys.kernel().set_scheduler(&sched);
  auto a = sys.kernel().SpawnAsync(session, "/usr/bin/say", {"say", "one"}, {});
  auto b = sys.kernel().SpawnAsync(session, "/usr/bin/say", {"say", "two"}, {});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  sched.Run();
  // Children have exited; WaitPid collects their status and output without
  // blocking.
  auto sa = sys.kernel().WaitPid(session, a.value());
  auto sb = sys.kernel().WaitPid(session, b.value());
  sys.kernel().set_scheduler(nullptr);
  ASSERT_TRUE(sa.ok());
  ASSERT_TRUE(sb.ok());
  EXPECT_EQ(sa.value(), 0);
  EXPECT_EQ(sb.value(), 0);
  EXPECT_NE(session.stdout_buf.find("one"), std::string::npos);
  EXPECT_NE(session.stdout_buf.find("two"), std::string::npos);
  // Reaped: a second wait reports no such child.
  EXPECT_EQ(sys.kernel().WaitPid(session, a.value()).code(), Errno::kECHILD);
}

// An async child that has exited closes its descriptors before its parent
// reaps it, as Linux's do_exit closes files (exit_files) before the zombie
// state: its port and its share of the open-file count (the
// protego_open_files gauge) come back at exit, and WaitPid still returns
// its status and output.
TEST(ConcSpawn, ExitedChildReleasesDescriptorsBeforeReap) {
  constexpr uint16_t kPort = 40000;
  SimSystem sys(SimMode::kLinux);
  Kernel& k = sys.kernel();
  ASSERT_TRUE(k.InstallBinary("/usr/bin/binder", 0755, kRootUid, kRootGid,
                              [](ProcessContext& ctx) {
                                auto fd = ctx.kernel.SocketCall(ctx.task, kAfInet, kSockDgram, 0);
                                if (!fd.ok() ||
                                    !ctx.kernel.BindCall(ctx.task, fd.value(), kPort).ok()) {
                                  return 1;
                                }
                                ctx.Out("bound\n");
                                return 0;
                              })
                  .ok());
  Task& session = sys.Login("alice");
  DetScheduler sched;
  k.set_scheduler(&sched);
  const uint64_t open_before = k.OpenFileCount();
  auto child = k.SpawnAsync(session, "/usr/bin/binder", {"binder"}, {});
  ASSERT_TRUE(child.ok());
  sched.Run();
  // Exited, not yet reaped.
  EXPECT_NE(k.FindTask(child.value()), nullptr);
  EXPECT_FALSE(k.net().PortOwner(kProtoUdp, kPort).has_value());
  EXPECT_EQ(k.OpenFileCount(), open_before);
  auto status = k.WaitPid(session, child.value());
  k.set_scheduler(nullptr);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status.value(), 0);
  EXPECT_NE(session.stdout_buf.find("bound"), std::string::npos);
  EXPECT_EQ(k.FindTask(child.value()), nullptr);
}

TEST(ConcSpawn, WaitPidDrivesPendingChildrenWhenCalledBeforeRun) {
  SimSystem sys(SimMode::kLinux);
  InstallSay(sys.kernel());
  Task& session = sys.Login("alice");
  DetScheduler sched;
  sys.kernel().set_scheduler(&sched);
  auto a = sys.kernel().SpawnAsync(session, "/usr/bin/say", {"say"}, {});
  ASSERT_TRUE(a.ok());
  // No explicit Run(): WaitPid on the driving thread runs pending units.
  auto st = sys.kernel().WaitPid(session, a.value());
  sys.kernel().set_scheduler(nullptr);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st.value(), 0);
}

// --- flock -------------------------------------------------------------------

class FlockTest : public ::testing::Test {
 protected:
  FlockTest() {
    Must(kernel_.vfs().CreateFile("/f1", 0666, 0, 0, "one"));
    Must(kernel_.vfs().CreateFile("/f2", 0666, 0, 0, "two"));
  }
  template <typename T>
  static void Must(Result<T> r) {
    ASSERT_TRUE(r.ok()) << r.error().ToString();
  }
  int OpenOrDie(Task& t, const std::string& path) {
    auto fd = kernel_.Open(t, path, kORdOnly, 0);
    EXPECT_TRUE(fd.ok());
    return fd.value_or(-1);
  }
  Kernel kernel_;
};

TEST_F(FlockTest, ExclusiveConflictsAndNonblockingFails) {
  Task& a = kernel_.CreateTask("a", Cred::ForUser(1000, 1000), nullptr);
  Task& b = kernel_.CreateTask("b", Cred::ForUser(1001, 1001), nullptr);
  int fda = OpenOrDie(a, "/f1");
  int fdb = OpenOrDie(b, "/f1");

  ASSERT_TRUE(kernel_.Flock(a, fda, kLockEx).ok());
  EXPECT_EQ(kernel_.Flock(b, fdb, kLockEx | kLockNb).code(), Errno::kEAGAIN);
  EXPECT_EQ(kernel_.Flock(b, fdb, kLockSh | kLockNb).code(), Errno::kEAGAIN);
  // Without a scheduler a blocking request can never be satisfied.
  EXPECT_EQ(kernel_.Flock(b, fdb, kLockEx).code(), Errno::kEDEADLK);

  ASSERT_TRUE(kernel_.Flock(a, fda, kLockUn).ok());
  EXPECT_TRUE(kernel_.Flock(b, fdb, kLockEx | kLockNb).ok());
}

TEST_F(FlockTest, SharedLocksCoexistAndBlockWriters) {
  Task& a = kernel_.CreateTask("a", Cred::ForUser(1000, 1000), nullptr);
  Task& b = kernel_.CreateTask("b", Cred::ForUser(1001, 1001), nullptr);
  Task& c = kernel_.CreateTask("c", Cred::ForUser(1002, 1002), nullptr);
  int fda = OpenOrDie(a, "/f1");
  int fdb = OpenOrDie(b, "/f1");
  int fdc = OpenOrDie(c, "/f1");

  ASSERT_TRUE(kernel_.Flock(a, fda, kLockSh).ok());
  ASSERT_TRUE(kernel_.Flock(b, fdb, kLockSh).ok());
  EXPECT_EQ(kernel_.Flock(c, fdc, kLockEx | kLockNb).code(), Errno::kEAGAIN);
  ASSERT_TRUE(kernel_.Flock(a, fda, kLockUn).ok());
  EXPECT_EQ(kernel_.Flock(c, fdc, kLockEx | kLockNb).code(), Errno::kEAGAIN);
  ASSERT_TRUE(kernel_.Flock(b, fdb, kLockUn).ok());
  EXPECT_TRUE(kernel_.Flock(c, fdc, kLockEx | kLockNb).ok());
}

TEST_F(FlockTest, TaskExitReleasesHeldLocks) {
  Task& a = kernel_.CreateTask("a", Cred::ForUser(1000, 1000), nullptr);
  Task& b = kernel_.CreateTask("b", Cred::ForUser(1001, 1001), nullptr);
  int fda = OpenOrDie(a, "/f1");
  int fdb = OpenOrDie(b, "/f1");
  ASSERT_TRUE(kernel_.Flock(a, fda, kLockEx).ok());
  EXPECT_EQ(kernel_.Flock(b, fdb, kLockEx | kLockNb).code(), Errno::kEAGAIN);
  kernel_.ReapTask(a.pid);
  EXPECT_TRUE(kernel_.Flock(b, fdb, kLockEx | kLockNb).ok());
}

TEST_F(FlockTest, BlockedLockIsGrantedWhenHolderReleases) {
  Task& a = kernel_.CreateTask("a", Cred::ForUser(1000, 1000), nullptr);
  Task& b = kernel_.CreateTask("b", Cred::ForUser(1001, 1001), nullptr);
  int fda = OpenOrDie(a, "/f1");
  int fdb = OpenOrDie(b, "/f1");

  DetScheduler sched;
  kernel_.set_scheduler(&sched);
  Errno b_result = Errno::kEINVAL;
  sched.StartTask(a.pid, [&] {
    ASSERT_TRUE(kernel_.Flock(a, fda, kLockEx).ok());
    (void)kernel_.GetPid(a);  // yield while holding the lock
    ASSERT_TRUE(kernel_.Flock(a, fda, kLockUn).ok());
  });
  sched.StartTask(b.pid, [&] {
    // Blocks until A releases, then succeeds.
    b_result = kernel_.Flock(b, fdb, kLockEx).code();
  });
  sched.Run();
  kernel_.set_scheduler(nullptr);
  EXPECT_EQ(b_result, Errno::kOk);
}

TEST_F(FlockTest, AbbaDeadlockFailsOneTaskWithEdeadlkAndCompletes) {
  Task& a = kernel_.CreateTask("a", Cred::ForUser(1000, 1000), nullptr);
  Task& b = kernel_.CreateTask("b", Cred::ForUser(1001, 1001), nullptr);
  int fda1 = OpenOrDie(a, "/f1");
  int fda2 = OpenOrDie(a, "/f2");
  int fdb1 = OpenOrDie(b, "/f1");
  int fdb2 = OpenOrDie(b, "/f2");

  DetScheduler sched;
  kernel_.set_scheduler(&sched);
  Errno a_second = Errno::kEINVAL;
  Errno b_second = Errno::kEINVAL;
  sched.StartTask(a.pid, [&] {
    ASSERT_TRUE(kernel_.Flock(a, fda1, kLockEx).ok());
    (void)kernel_.GetPid(a);
    a_second = kernel_.Flock(a, fda2, kLockEx).code();
    (void)kernel_.Flock(a, fda2, kLockUn);
    (void)kernel_.Flock(a, fda1, kLockUn);
  });
  sched.StartTask(b.pid, [&] {
    ASSERT_TRUE(kernel_.Flock(b, fdb2, kLockEx).ok());
    (void)kernel_.GetPid(b);
    b_second = kernel_.Flock(b, fdb1, kLockEx).code();
    (void)kernel_.Flock(b, fdb1, kLockUn);
    (void)kernel_.Flock(b, fdb2, kLockUn);
  });
  sched.Run();  // must terminate — the deadlock is detected, not suffered
  kernel_.set_scheduler(nullptr);

  // Exactly one task loses the ABBA embrace with EDEADLK; after it backs
  // off (releasing its first lock), the other acquires both.
  bool a_deadlocked = a_second == Errno::kEDEADLK;
  bool b_deadlocked = b_second == Errno::kEDEADLK;
  EXPECT_TRUE(a_deadlocked != b_deadlocked)
      << "a=" << ErrnoName(a_second) << " b=" << ErrnoName(b_second);
  EXPECT_TRUE(a_second == Errno::kOk || b_second == Errno::kOk);
}

// --- Cross-task policy-swap visibility --------------------------------------

TEST(ConcPolicy, SwapByOneTaskInvalidatesPeerCacheAtNextYield) {
  // Task A (running as /usr/bin/reader) reads a root-only file via a
  // File_Delegate rule, twice. Mid-interleaving, task B (root) swaps the
  // policy to one without the rule. A's very next open must observe the new
  // policy — the earlier allow must not outlive the swap.
  SimSystem sys(SimMode::kProtego);
  Kernel& k = sys.kernel();
  Task& root = sys.Login("root");
  std::string original = k.ReadWholeFile(root, "/proc/protego/sudoers").value();
  ASSERT_TRUE(k.WriteWholeFile(root, "/proc/protego/sudoers",
                               original + "File_Delegate /usr/bin/reader /etc/locked r\n")
                  .ok());
  ASSERT_TRUE(k.WriteWholeFile(root, "/etc/locked", "classified", false, 0600).ok());

  Task& a = k.CreateTask("reader", Cred::ForUser(1000, 1000), nullptr);
  a.exe_path = "/usr/bin/reader";
  Task& b = k.CreateTask("swapper", Cred::ForUser(0, 0), nullptr);
  b.exe_path = "/usr/bin/policyd";

  uint64_t generation_before = k.lsm().policy_generation();
  Errno read1 = Errno::kEINVAL;
  Errno read2 = Errno::kEINVAL;
  Errno read3 = Errno::kEINVAL;
  uint64_t generation_mid = 0;

  DetScheduler sched;
  k.set_scheduler(&sched);
  sched.StartTask(a.pid, [&] {
    read1 = k.ReadWholeFile(a, "/etc/locked").code();  // delegation allows
    read2 = k.ReadWholeFile(a, "/etc/locked").code();  // still allowed
    read3 = k.ReadWholeFile(a, "/etc/locked").code();  // after B's swap: denied
  });
  sched.StartTask(b.pid, [&] {
    ASSERT_TRUE(k.WriteWholeFile(b, "/proc/protego/sudoers", original).ok());
    generation_mid = k.lsm().policy_generation();
  });
  // Fixed schedule: A completes read1 and read2 (each = open+read+close, 3
  // syscall-entry decisions), then B runs to completion, then A resumes.
  // Decision 0 is the initial dispatch; decisions 1-6 are A's first six
  // syscall entries; decision 7 (A's seventh entry — read3's open) switches
  // to B (index 1) and keeps choosing B until B exits, after which A is the
  // only runnable unit and every choice clamps back to it.
  sched.set_mode(SchedMode::kFixed);
  std::vector<uint32_t> choices(7, 0);
  choices.resize(40, 1);
  sched.set_choices(choices);
  sched.Run();
  k.set_scheduler(nullptr);

  EXPECT_EQ(read1, Errno::kOk);
  EXPECT_EQ(read2, Errno::kOk);
  EXPECT_EQ(read3, Errno::kEACCES);
  // The swap really happened mid-interleaving and bumped the generation.
  EXPECT_GT(generation_mid, generation_before);
}

}  // namespace
}  // namespace protego
