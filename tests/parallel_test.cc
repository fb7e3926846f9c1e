// ExecMode::kParallel acceptance tests: real OS threads entering one kernel
// concurrently. The assertions here are deliberately schedule-independent
// (leak freedom, accounting balance, policy-swap coherence) — built with
// -fsanitize=thread this file doubles as the data-race audit of the sharded
// kernel state, and the CI gating job runs it exactly that way.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/conc/explore.h"
#include "src/conc/fleet.h"
#include "src/conc/thread_sched.h"
#include "src/fault/fault.h"
#include "src/kernel/exec_mode.h"
#include "src/kernel/kernel.h"
#include "src/lsm/capability_module.h"
#include "src/sim/system.h"
#include "src/study/races.h"

namespace protego {
namespace {

using conc::RunParallel;
using conc::ThreadScheduler;

std::unique_ptr<Kernel> BootBareKernel() {
  auto kernel = std::make_unique<Kernel>();
  kernel->lsm().Register(std::make_unique<CapabilityModule>());
  (void)kernel->vfs().EnsureDirs("/tmp");
  kernel->vfs().Resolve("/tmp").value()->inode().mode = kIfDir | 01777;
  return kernel;
}

// --- Execution mode selection ------------------------------------------------

TEST(ExecModeTest, EnvSelectsParallelElseDeterministic) {
  ::unsetenv("PROTEGO_EXEC_MODE");
  EXPECT_EQ(ExecModeFromEnv(), ExecMode::kDeterministic);
  ::setenv("PROTEGO_EXEC_MODE", "", 1);
  EXPECT_EQ(ExecModeFromEnv(), ExecMode::kDeterministic);
  ::setenv("PROTEGO_EXEC_MODE", "deterministic", 1);
  EXPECT_EQ(ExecModeFromEnv(), ExecMode::kDeterministic);
  ::setenv("PROTEGO_EXEC_MODE", "parallel", 1);
  EXPECT_EQ(ExecModeFromEnv(), ExecMode::kParallel);
  ::unsetenv("PROTEGO_EXEC_MODE");
  EXPECT_STREQ(ExecModeName(ExecMode::kParallel), "parallel");
}

// Regression: a typo such as "parallell" used to silently fall back to the
// deterministic driver, green-lighting the wrong mode in CI. Unknown values
// must abort with the offending string.
TEST(ExecModeDeathTest, UnknownValueAbortsLoudly) {
  EXPECT_DEATH(
      {
        ::setenv("PROTEGO_EXEC_MODE", "parallell", 1);
        (void)ExecModeFromEnv();
      },
      "unrecognized PROTEGO_EXEC_MODE value \"parallell\"");
  ::unsetenv("PROTEGO_EXEC_MODE");
}

// --- ThreadScheduler semantics ----------------------------------------------

TEST(ThreadSchedulerTest, SignalWakesWaiterAndTimeoutRetries) {
  ThreadScheduler sched;
  std::atomic<bool> flag{false};
  std::atomic<int> loops{0};
  sched.StartTask(1, [&] {
    // The kernel's wait idiom: loop, re-check the predicate, WaitOn.
    while (!flag.load()) {
      ++loops;
      ASSERT_TRUE(sched.WaitOn(1, /*resource=*/42));
    }
  });
  sched.StartTask(2, [&] {
    flag.store(true);
    sched.Signal(42);
  });
  sched.Join();
  EXPECT_TRUE(flag.load());
  EXPECT_EQ(sched.started(), 2u);
  // WaitOn on a never-signalled resource still returns (timeout retry).
  sched.StartTask(3, [&] { ASSERT_TRUE(sched.WaitOn(3, 99)); });
  sched.Join();
}

// --- Satellite: multi-thread open/close/unlink/symlink stress ---------------
//
// Eight threads hammer a shared kernel: private files (open/write/close),
// a shared file that one thread keeps unlinking and recreating while others
// hold it open (orphan churn), and symlink create/unlink. Afterwards the
// kernel must show zero leaked fds, a balanced VFS block audit, and a
// quiescent-stable orphan list.
TEST(ParallelStress, OpenCloseUnlinkSymlinkLeakFree) {
  constexpr int kThreads = 8;
  constexpr int kRounds = 200;
  std::unique_ptr<Kernel> kernel = BootBareKernel();
  Kernel& k = *kernel;
  (void)k.vfs().CreateFile("/tmp/shared", 0666, kRootUid, kRootGid, "seed");
  const uint64_t fds_before = k.OpenFileCount();

  ThreadScheduler sched;
  k.set_scheduler(&sched);
  std::vector<Task*> tasks;
  for (int t = 0; t < kThreads; ++t) {
    tasks.push_back(&k.CreateTask("stress" + std::to_string(t),
                                  Cred::ForUser(1000 + t, 1000 + t), nullptr));
  }
  for (int t = 0; t < kThreads; ++t) {
    Task* task = tasks[static_cast<size_t>(t)];
    sched.StartTask(task->pid, [&k, task, t] {
      const std::string mine = "/tmp/own" + std::to_string(t);
      const std::string link = "/tmp/lnk" + std::to_string(t);
      for (int r = 0; r < kRounds; ++r) {
        auto fd = k.Open(*task, mine, kOWrOnly | kOCreat, 0644);
        if (fd.ok()) {
          (void)k.Write(*task, fd.value(), "x");
          (void)k.Close(*task, fd.value());
        }
        auto sh = k.Open(*task, "/tmp/shared", kORdOnly);
        if (sh.ok()) {
          (void)k.Read(*task, sh.value());
          (void)k.Close(*task, sh.value());
        }
        if (t == 0) {
          // Unlink-while-open: readers holding /tmp/shared push it onto
          // the orphan list; the recreate races their next open.
          (void)k.Unlink(*task, "/tmp/shared");
          auto re = k.Open(*task, "/tmp/shared", kOWrOnly | kOCreat, 0666);
          if (re.ok()) {
            (void)k.Close(*task, re.value());
          }
        } else {
          (void)k.Symlink(*task, mine, link);
          (void)k.Stat(*task, link);
          (void)k.Unlink(*task, link);
        }
      }
    });
  }
  sched.Join();
  k.set_scheduler(nullptr);

  // fd-leak freedom: every path above closes what it opens, so the
  // system-wide open-file count must be exactly back at baseline.
  EXPECT_EQ(k.OpenFileCount(), fds_before);
  for (Task* task : tasks) {
    EXPECT_EQ(task->fds.size(), 0u) << "leaked fds in task " << task->pid;
  }
  // VFS accounting balances and the orphan list is quiescent-stable.
  auto audit = k.vfs().AuditBlockAccounting();
  EXPECT_TRUE(audit.ok()) << audit.error().ToString();
  const size_t orphans = k.vfs().orphan_count();
  auto audit2 = k.vfs().AuditBlockAccounting();
  EXPECT_TRUE(audit2.ok());
  EXPECT_EQ(k.vfs().orphan_count(), orphans);
}

// --- Satellite: fault injection under parallel load --------------------------
//
// The PR 5 degradation contract re-checked with real threads: probabilistic
// EIO at the fd-allocation site while four threads run open/close loops.
// Failed opens must not leak fds or unbalance the VFS audit.
TEST(ParallelStress, FaultInjectionLeakFreeUnderThreads) {
  std::unique_ptr<Kernel> kernel = BootBareKernel();
  Kernel& k = *kernel;
  (void)k.vfs().CreateFile("/tmp/victim", 0666, kRootUid, kRootGid, "data");
  FaultConfig cfg;
  cfg.enabled = true;
  cfg.error = Errno::kEIO;
  cfg.prob_num = 1;
  cfg.prob_den = 3;
  cfg.seed = 7;
  ASSERT_TRUE(k.faults().Configure(FaultSite::kFdAlloc, cfg).ok());

  ThreadScheduler sched;
  k.set_scheduler(&sched);
  std::atomic<uint64_t> failures{0};
  for (int t = 0; t < 4; ++t) {
    Task& task = k.CreateTask("fault" + std::to_string(t),
                              Cred::ForUser(2000 + t, 2000 + t), nullptr);
    sched.StartTask(task.pid, [&k, &task, &failures] {
      for (int r = 0; r < 300; ++r) {
        auto fd = k.Open(task, "/tmp/victim", kORdOnly);
        if (fd.ok()) {
          (void)k.Close(task, fd.value());
        } else {
          EXPECT_EQ(fd.code(), Errno::kEIO);
          ++failures;
        }
      }
    });
  }
  sched.Join();
  k.set_scheduler(nullptr);
  EXPECT_GT(k.faults().injected(FaultSite::kFdAlloc), 0u);
  EXPECT_GT(failures.load(), 0u);
  EXPECT_EQ(k.OpenFileCount(), 0u);
  EXPECT_TRUE(k.vfs().AuditBlockAccounting().ok());
}

// --- Network: bind/send/close churn ------------------------------------------
//
// Four threads race binds on a small shared UDP port range and send to each
// other's ports while the owners close them; each also cycles a raw UDP
// socket that sees all of that traffic, and keeps one private request/reply
// pair. A datagram may only land on the socket bound to its destination
// port, each private exchange arrives exactly once, and no port stays owned
// once every socket is closed.
TEST(ParallelStress, NetworkBindSendCloseChurn) {
  constexpr int kThreads = 4;
  constexpr int kRounds = 400;
  constexpr int kSharedBase = 30000;
  constexpr int kSharedPorts = 6;
  constexpr int kSrvBase = 31000;
  constexpr int kCliBase = 32000;
  std::unique_ptr<Kernel> kernel = BootBareKernel();
  Kernel& k = *kernel;

  ThreadScheduler sched;
  k.set_scheduler(&sched);
  std::atomic<int> errors{0};
  std::atomic<int> misdelivered{0};
  std::atomic<int> shared_binds{0};
  std::atomic<int> raw_seen{0};
  for (int t = 0; t < kThreads; ++t) {
    // Root: raw sockets need CAP_NET_RAW.
    Task* task = &k.CreateTask("net" + std::to_string(t), Cred::Root(), nullptr);
    sched.StartTask(task->pid, [&, task, t] {
      auto send = [&](int fd, int dst_port, const std::string& payload) {
        Packet p;
        p.l4_proto = kProtoUdp;
        p.dst_ip = kLocalhostIp;
        p.dst_port = static_cast<uint16_t>(dst_port);
        p.payload = payload;
        if (!k.SendCall(*task, fd, std::move(p)).ok()) {
          ++errors;
        }
      };
      auto drain = [&](int fd) {
        std::vector<Packet> got;
        for (;;) {
          auto r = k.RecvCall(*task, fd);
          if (!r.ok() || !r.value().has_value()) {
            return got;
          }
          got.push_back(std::move(*r.value()));
        }
      };
      auto srv = k.SocketCall(*task, kAfInet, kSockDgram, 0);
      auto cli = k.SocketCall(*task, kAfInet, kSockDgram, 0);
      if (!srv.ok() || !cli.ok() ||
          !k.BindCall(*task, srv.value(), static_cast<uint16_t>(kSrvBase + t)).ok() ||
          !k.BindCall(*task, cli.value(), static_cast<uint16_t>(kCliBase + t)).ok()) {
        ++errors;
        return;
      }
      int raw = -1;
      for (int r = 0; r < kRounds; ++r) {
        // A raw UDP socket lives for 8 rounds at a time.
        if (r % 8 == 0) {
          auto opened = k.SocketCall(*task, kAfInet, kSockRaw, kProtoUdp);
          raw = opened.ok() ? opened.value() : -1;
          if (raw < 0) {
            ++errors;
          }
        }
        // Shared range: a lost bind race is EADDRINUSE. The datagram goes to
        // the port a neighbour binds this round, which it may be closing.
        const int mine = kSharedBase + (t + r) % kSharedPorts;
        auto fd = k.SocketCall(*task, kAfInet, kSockDgram, 0);
        if (!fd.ok()) {
          ++errors;
          continue;
        }
        auto bound = k.BindCall(*task, fd.value(), static_cast<uint16_t>(mine));
        if (bound.ok()) {
          ++shared_binds;
        } else if (bound.code() != Errno::kEADDRINUSE) {
          ++errors;
        }
        send(fd.value(), kSharedBase + (t + r + 1) % kSharedPorts, "churn");
        for (const Packet& p : drain(fd.value())) {
          if (!bound.ok() || p.dst_port != mine) {
            ++misdelivered;
          }
        }
        (void)k.Close(*task, fd.value());

        const std::string tag = std::to_string(t) + "/" + std::to_string(r);
        send(cli.value(), kSrvBase + t, "req " + tag);
        std::vector<Packet> request = drain(srv.value());
        send(srv.value(), kCliBase + t, "rep " + tag);
        std::vector<Packet> reply = drain(cli.value());
        if (request.size() != 1 || request[0].payload != "req " + tag || reply.size() != 1 ||
            reply[0].payload != "rep " + tag) {
          ++errors;
        }

        if (r % 8 == 7 && raw >= 0) {
          raw_seen += static_cast<int>(drain(raw).size());
          (void)k.Close(*task, raw);
          raw = -1;
        }
      }
      (void)k.Close(*task, srv.value());
      (void)k.Close(*task, cli.value());
    });
  }
  sched.Join();
  k.set_scheduler(nullptr);

  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(misdelivered.load(), 0);
  EXPECT_GT(shared_binds.load(), 0);
  // Every raw socket was open across its own thread's three sends per round.
  EXPECT_GE(raw_seen.load(), 3 * kThreads * kRounds);
  for (int port = kSharedBase; port < kSharedBase + kSharedPorts; ++port) {
    EXPECT_FALSE(k.net().PortOwner(kProtoUdp, static_cast<uint16_t>(port)).has_value()) << port;
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_FALSE(k.net().PortOwner(kProtoUdp, static_cast<uint16_t>(kSrvBase + t)).has_value());
    EXPECT_FALSE(k.net().PortOwner(kProtoUdp, static_cast<uint16_t>(kCliBase + t)).has_value());
  }
}

// --- Race corpus re-run with real threads ------------------------------------

TEST(ParallelRaceCorpus, ProtegoTocttouCleanUnderRealThreads) {
  for (TocttouVariant variant :
       {TocttouVariant::kStatThenOpen, TocttouVariant::kAccessThenOpen}) {
    auto res = RunParallel(MakeTocttouScenario(SimMode::kProtego, variant), 10);
    EXPECT_FALSE(res.violation_found)
        << TocttouVariantName(variant) << ": " << res.detail;
    EXPECT_EQ(res.runs, 10u);
  }
}

TEST(ParallelRaceCorpus, StockLinuxTocttouRunsToCompletion) {
  // No violation assertion: with OS scheduling the swap may or may not land
  // in the window. The value is TSan coverage of the racy victim/attacker
  // paths against the sharded kernel.
  auto res = RunParallel(MakeTocttouScenario(SimMode::kLinux,
                                             TocttouVariant::kStatThenOpen), 3);
  EXPECT_GE(res.runs, 1u);
}

TEST(ParallelRaceCorpus, FlockSerializesPasswdRewritersUnderRealThreads) {
  // The flock-protected chfn pair must never lose an update, whatever the
  // OS interleaving; this also exercises ThreadScheduler's WaitOn/Signal
  // path through Kernel::Flock.
  auto res = RunParallel(MakePasswdLostUpdateScenario(/*with_flock=*/true), 5);
  EXPECT_FALSE(res.violation_found) << res.detail;
}

// Two users churn the fstab "users" entry (mount /dev/sdb1 on /media/usb;
// either may unmount it) while charlie reads /proc/mounts. Every read must
// show either no mount or that one mount, whole, and the table must end
// consistent with the calls that succeeded. Regression: the /proc/mounts
// generator walked the mount table without the VFS lock, and sb_umount read
// the mounter through an entry pointer after the lock was released.
TEST(ParallelStress, UsersMountChurnWithProcMountsReader) {
  constexpr int kRounds = 300;
  SimSystem sys(SimMode::kProtego);
  Kernel& k = sys.kernel();
  Task* churners[] = {&sys.Login("alice"), &sys.Login("bob")};
  Task& reader = sys.Login("charlie");
  const std::string alice_line = "/dev/sdb1 /media/usb vfat defaults 1000\n";
  const std::string bob_line = "/dev/sdb1 /media/usb vfat defaults 1001\n";

  ThreadScheduler sched;
  k.set_scheduler(&sched);
  std::atomic<int> finished{0};
  std::atomic<int> errors{0};
  std::atomic<int> mounts{0};
  std::atomic<int> umounts{0};
  std::atomic<int> reads{0};
  for (Task* task : churners) {
    sched.StartTask(task->pid, [&, task] {
      while (reads.load() == 0) {
        std::this_thread::yield();  // overlap the churn with the reader
      }
      for (int r = 0; r < kRounds; ++r) {
        auto mounted = k.Mount(*task, "/dev/sdb1", "/media/usb", "vfat", {});
        if (mounted.ok()) {
          ++mounts;
        } else if (mounted.code() != Errno::kEBUSY) {
          ++errors;
        }
        // The peer may unmount first: EINVAL when it already has, EPERM when
        // it does so between the mount-table check and the LSM hook.
        auto unmounted = k.Umount(*task, "/media/usb");
        if (unmounted.ok()) {
          ++umounts;
        } else if (unmounted.code() != Errno::kEINVAL && unmounted.code() != Errno::kEPERM) {
          ++errors;
        }
      }
      ++finished;
    });
  }
  sched.StartTask(reader.pid, [&] {
    do {
      auto text = k.ReadWholeFile(reader, "/proc/mounts");
      if (!text.ok() ||
          (!text.value().empty() && text.value() != alice_line && text.value() != bob_line)) {
        ++errors;
      }
      ++reads;
    } while (finished.load() < 2);
  });
  sched.Join();
  k.set_scheduler(nullptr);

  EXPECT_EQ(errors.load(), 0);
  EXPECT_GT(mounts.load(), 0);
  std::string final_table = k.ReadWholeFile(reader, "/proc/mounts").value();
  EXPECT_EQ(mounts.load() - umounts.load(), final_table.empty() ? 0 : 1) << final_table;
}

// --- RCU policy reads: swap mid-traffic --------------------------------------

// A policy swap landing while reader threads are mid-lookup must never
// produce a verdict from a half-published policy. Readers hammer
// delegation-free syscalls while the writer republishes the mount
// whitelist.
TEST(ParallelPolicySwap, SwapMidTrafficIsCoherent) {
  SimSystem sys(SimMode::kProtego);
  Kernel& k = sys.kernel();
  std::vector<Task*> readers;
  for (int t = 0; t < 4; ++t) {
    readers.push_back(&sys.Login("alice"));
  }
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (Task* task : readers) {
    threads.emplace_back([&k, task, &stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        (void)k.Stat(*task, "/etc/passwd");
        (void)k.Access(*task, "/etc/passwd", kMayRead);
        (void)k.GetPid(*task);
      }
    });
  }
  const uint64_t gen_before = k.lsm().policy_generation();
  for (int swap = 0; swap < 50; ++swap) {
    ASSERT_TRUE(sys.lsm()->SetMountPolicy({}).ok());
  }
  stop.store(true);
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_GE(k.lsm().policy_generation(), gen_before + 50);
  // Traffic after the last swap behaves identically to a fresh boot.
  Task& probe = sys.Login("alice");
  EXPECT_TRUE(k.Access(probe, "/etc/passwd", kMayRead).ok());
}

// --- Fleet smoke -------------------------------------------------------------

TEST(FleetTest, MultiplexesInstancesOverWorkerPool) {
  conc::FleetOptions opts;
  opts.instances = 40;
  opts.workers = 4;
  opts.ops_per_instance = 24;
  conc::FleetReport report = conc::RunFleet(opts);
  EXPECT_EQ(report.instances_run, 40u);
  // Every instance completes its full mix: 24 ops -> 3 whole rounds of 8.
  EXPECT_EQ(report.total_ops, 40u * 24u);
  EXPECT_GT(report.ops_per_sec, 0.0);
}

// Regression: RunInstance used to issue 8 syscalls per round while
// advancing its loop by 6 and counting 6 — every instance overran its op
// budget by a third and the fleet ops/sec was computed from the undercount.
// total_issued is measured from each instance's gate counters, so it cannot
// lie about what was actually dispatched.
TEST(FleetTest, IssuedMatchesCountedAndRespectsBudget) {
  conc::FleetOptions opts;
  opts.instances = 8;
  opts.workers = 2;
  opts.ops_per_instance = 48;
  conc::FleetReport report = conc::RunFleet(opts);
  EXPECT_EQ(report.instances_run, 8u);
  // Parity: on a healthy run every issued syscall succeeds, so the gate
  // view and the hand count must agree exactly.
  EXPECT_EQ(report.total_issued, report.total_ops);
  // Budget: no instance may dispatch more syscalls than it was asked to.
  EXPECT_LE(report.total_issued, 8u * 48u);
  EXPECT_EQ(report.total_issued, 8u * 48u);  // 48 = 6 whole rounds, no remainder
}

}  // namespace
}  // namespace protego
