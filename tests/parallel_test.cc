// ExecMode::kParallel acceptance tests: real OS threads entering one kernel
// concurrently. The assertions here are deliberately schedule-independent
// (leak freedom, accounting balance, policy-swap coherence) — built with
// -fsanitize=thread this file doubles as the data-race audit of the sharded
// kernel state, and the CI gating job runs it exactly that way.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/base/strings.h"
#include "src/conc/explore.h"
#include "src/conc/scheduler.h"
#include "src/config/bindconf.h"
#include "src/config/fstab.h"
#include "src/config/ppp_options.h"
#include "src/config/sudoers.h"
#include "src/conc/thread_sched.h"
#include "src/fault/fault.h"
#include "src/kernel/exec_mode.h"
#include "src/kernel/kernel.h"
#include "src/lsm/apparmor.h"
#include "src/lsm/capability_module.h"
#include "src/net/netfilter.h"
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

// Runs each task's body under the scheduler PROTEGO_EXEC_MODE selects: one
// OS thread per task, or a seeded random DetScheduler.
void RunTasks(Kernel& k, const std::vector<std::pair<Task*, std::function<void()>>>& bodies) {
  if (ExecModeFromEnv() == ExecMode::kParallel) {
    ThreadScheduler sched;
    k.set_scheduler(&sched);
    for (const auto& [task, body] : bodies) {
      sched.StartTask(task->pid, body);
    }
    sched.Join();
  } else {
    conc::DetScheduler sched;
    sched.set_mode(conc::SchedMode::kRandom);
    sched.set_seed(7);
    k.set_scheduler(&sched);
    for (const auto& [task, body] : bodies) {
      sched.StartTask(task->pid, body);
    }
    sched.Run();
  }
  k.set_scheduler(nullptr);
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
// A UDP datagram from `fd` to 127.0.0.1:`port` (or `dst`:`port`).
Result<Unit> SendUdp(Kernel& k, Task& task, int fd, uint16_t port, std::string payload,
                     Ipv4 dst = kLocalhostIp) {
  Packet p;
  p.l4_proto = kProtoUdp;
  p.dst_ip = dst;
  p.dst_port = port;
  p.payload = std::move(payload);
  return k.SendCall(task, fd, std::move(p));
}

// Every packet in `fd`'s queue.
std::vector<Packet> Drain(Kernel& k, Task& task, int fd) {
  std::vector<Packet> got;
  for (;;) {
    auto r = k.RecvCall(task, fd);
    if (!r.ok() || !r.value().has_value()) {
      return got;
    }
    got.push_back(std::move(*r.value()));
  }
}

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
        if (!SendUdp(k, *task, fd, static_cast<uint16_t>(dst_port), payload).ok()) {
          ++errors;
        }
      };
      auto drain = [&](int fd) { return Drain(k, *task, fd); };
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

// Four tasks each churn socket/bind/close on a private port while they
// exchange datagrams on two persistent sockets. A socket dies with the fd
// entry that holds it, so afterwards only the persistent ports are owned,
// and every datagram sent reached its one receiver.
TEST(ParallelStress, SocketChurnWithTraffic) {
  constexpr int kTasks = 4;
  constexpr int kCycles = 2000;
  constexpr int kChurnBase = 33000;
  constexpr int kSrvBase = 34000;
  constexpr int kCliBase = 35000;
  std::unique_ptr<Kernel> kernel = BootBareKernel();
  Kernel& k = *kernel;
  std::atomic<int> errors{0};
  std::atomic<uint64_t> sent{0};
  std::atomic<uint64_t> received{0};
  std::vector<std::pair<Task*, std::function<void()>>> bodies;
  for (int t = 0; t < kTasks; ++t) {
    Task* task = &k.CreateTask("churn" + std::to_string(t), Cred::ForUser(1000 + t, 1000),
                               nullptr);
    bodies.emplace_back(task, [&, task, t] {
      const auto srv_port = static_cast<uint16_t>(kSrvBase + t);
      auto srv = k.SocketCall(*task, kAfInet, kSockDgram, 0);
      auto cli = k.SocketCall(*task, kAfInet, kSockDgram, 0);
      if (!srv.ok() || !cli.ok() || !k.BindCall(*task, srv.value(), srv_port).ok() ||
          !k.BindCall(*task, cli.value(), static_cast<uint16_t>(kCliBase + t)).ok()) {
        ++errors;
        return;
      }
      for (int c = 0; c < kCycles; ++c) {
        auto fd = k.SocketCall(*task, kAfInet, kSockDgram, 0);
        if (!fd.ok() ||
            !k.BindCall(*task, fd.value(), static_cast<uint16_t>(kChurnBase + t)).ok() ||
            !k.Close(*task, fd.value()).ok()) {
          ++errors;
        }
        if (SendUdp(k, *task, cli.value(), srv_port, "dgram").ok()) {
          ++sent;
        } else {
          ++errors;
        }
        received += Drain(k, *task, srv.value()).size();
      }
    });
  }
  RunTasks(k, bodies);

  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(sent.load(), uint64_t{kTasks} * kCycles);
  EXPECT_EQ(received.load(), sent.load());
  EXPECT_EQ(k.net().packets_delivered(), sent.load());
  for (int t = 0; t < kTasks; ++t) {
    EXPECT_FALSE(k.net().PortOwner(kProtoUdp, static_cast<uint16_t>(kChurnBase + t)).has_value());
    EXPECT_EQ(k.net().PortOwner(kProtoUdp, static_cast<uint16_t>(kSrvBase + t)), Uid(1000 + t));
    EXPECT_EQ(k.net().PortOwner(kProtoUdp, static_cast<uint16_t>(kCliBase + t)), Uid(1000 + t));
  }
}

// A forked child's fd entry holds a reference to the socket it inherits:
// the parent's close leaves the port owned and the child's copy working,
// and reaping the child releases it. An exec that drops the last
// reference, held by a close-on-exec entry, releases it too.
TEST(ParallelStress, ForkSharedSocketOutlivesTheParentsClose) {
  constexpr uint16_t kShared = 36000;
  constexpr uint16_t kCloexec = 36001;
  std::unique_ptr<Kernel> kernel = BootBareKernel();
  Kernel& k = *kernel;
  std::atomic<bool> parent_closed{false};
  std::atomic<int> child_got{-1};
  ASSERT_TRUE(k.InstallBinary("/bin/echoself", 0755, kRootUid, kRootGid,
                              [&](ProcessContext& ctx) {
                                const int fd = std::stoi(ctx.argv.at(1));
                                while (!parent_closed.load()) {
                                  (void)ctx.kernel.GetPid(ctx.task);  // a yield point
                                }
                                // The datagram loops back to the inherited socket,
                                // which still owns the port.
                                if (!SendUdp(ctx.kernel, ctx.task, fd, kShared, "self").ok()) {
                                  return 1;
                                }
                                child_got = static_cast<int>(
                                    Drain(ctx.kernel, ctx.task, fd).size());
                                return 0;
                              })
                  .ok());
  std::atomic<bool> released_at_exec{false};
  ASSERT_TRUE(k.InstallBinary("/bin/portprobe", 0755, kRootUid, kRootGid,
                              [&](ProcessContext& ctx) {
                                released_at_exec =
                                    !ctx.kernel.net().PortOwner(kProtoUdp, kCloexec).has_value();
                                return 0;
                              })
                  .ok());
  Task* parent = &k.CreateTask("parent", Cred::ForUser(1000, 1000), nullptr);
  std::atomic<int> errors{0};
  RunTasks(k, {{parent, [&] {
                  auto fd = k.SocketCall(*parent, kAfInet, kSockDgram, 0);
                  if (!fd.ok() || !k.BindCall(*parent, fd.value(), kShared).ok()) {
                    ++errors;
                    return;
                  }
                  auto child = k.SpawnAsync(*parent, "/bin/echoself",
                                            {"echoself", std::to_string(fd.value())}, {});
                  if (!child.ok() || !k.Close(*parent, fd.value()).ok()) {
                    ++errors;
                    return;
                  }
                  if (k.net().PortOwner(kProtoUdp, kShared) != Uid(1000)) {
                    ++errors;
                  }
                  parent_closed = true;
                  auto status = k.WaitPid(*parent, child.value());
                  if (!status.ok() || status.value() != 0) {
                    ++errors;
                  }
                  // The reaped child held the last reference.
                  if (k.net().PortOwner(kProtoUdp, kShared).has_value()) {
                    ++errors;
                  }

                  auto doomed = k.SocketCall(*parent, kAfInet, kSockDgram, 0);
                  if (!doomed.ok() || !k.BindCall(*parent, doomed.value(), kCloexec).ok()) {
                    ++errors;
                    return;
                  }
                  parent->fds.Get(doomed.value())->cloexec = true;  // SOCK_CLOEXEC
                  if (!k.Execve(*parent, "/bin/portprobe", {"portprobe"}, {}).ok()) {
                    ++errors;
                  }
                }}});

  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(child_got.load(), 1);
  EXPECT_TRUE(released_at_exec.load());
  EXPECT_FALSE(k.net().PortOwner(kProtoUdp, kCloexec).has_value());
}

// One task opens and closes raw ICMP sockets while three others send ICMP
// to 127.0.0.1. Local delivery walks the raw list without a lock, so a
// delivery may still be queueing on a socket whose last reference just
// went: the socket is freed through the grace period (ASan and TSan see a
// use-after-free here otherwise). The churner receives at most kReceives
// packets per socket, so it closes sockets with packets still queued and
// never chases a queue the senders keep filling. Once the traffic stops,
// one reclaim pass frees every retired socket and list.
TEST(ParallelStress, RawSocketCloseDuringDelivery) {
  constexpr int kSenders = 3;
  constexpr int kChurns = 2000;
  constexpr int kMinSends = 200;
  constexpr int kReceives = 4;
  std::unique_ptr<Kernel> kernel = BootBareKernel();
  Kernel& k = *kernel;
  std::atomic<bool> churning{true};
  std::atomic<int> errors{0};
  std::vector<std::pair<Task*, std::function<void()>>> bodies;
  Task* churner = &k.CreateTask("sniffer", Cred::Root(), nullptr);
  bodies.emplace_back(churner, [&] {
    for (int i = 0; i < kChurns; ++i) {
      auto fd = k.SocketCall(*churner, kAfInet, kSockRaw, kProtoIcmp);
      if (!fd.ok()) {
        ++errors;
        continue;
      }
      for (int n = 0; n < kReceives; ++n) {
        auto r = k.RecvCall(*churner, fd.value());
        if (!r.ok() || !r.value().has_value()) {
          break;
        }
      }
      if (!k.Close(*churner, fd.value()).ok()) {
        ++errors;
      }
    }
    churning = false;
  });
  for (int t = 0; t < kSenders; ++t) {
    Task* sender = &k.CreateTask("ping" + std::to_string(t), Cred::Root(), nullptr);
    bodies.emplace_back(sender, [&, sender] {
      auto fd = k.SocketCall(*sender, kAfInet, kSockRaw, kProtoIcmp);
      if (!fd.ok()) {
        ++errors;
        return;
      }
      for (int i = 0; i < kMinSends || churning.load(); ++i) {
        Packet echo;
        echo.l4_proto = kProtoIcmp;
        echo.icmp_type = kIcmpEchoRequest;
        echo.dst_ip = kLocalhostIp;
        if (!k.SendCall(*sender, fd.value(), std::move(echo)).ok()) {
          ++errors;
        }
        (void)Drain(k, *sender, fd.value());
      }
      if (!k.Close(*sender, fd.value()).ok()) {
        ++errors;
      }
    });
  }
  RunTasks(k, bodies);

  EXPECT_EQ(errors.load(), 0);
  k.grace().Reclaim();
  EXPECT_EQ(k.vfs().grace_pending(), 0u);
}

// Async children each open a few sockets, bind one, exit and are reaped
// while their parent keeps calling WaitPid, so the parent often finds an
// exit record the moment it is posted. A child closes its descriptors
// before it posts that record: the reap that follows frees the task while
// nothing else touches it (TSan and ASan see the child's close racing the
// reap otherwise). Every port is free again for the next round.
TEST(ParallelStress, ExitedChildrenAreReapedWhileTheirParentWaits) {
  constexpr int kRounds = 50;
  constexpr int kChildren = 4;
  constexpr int kSockets = 6;
  constexpr uint16_t kBase = 41000;
  std::unique_ptr<Kernel> kernel = BootBareKernel();
  Kernel& k = *kernel;
  ASSERT_TRUE(k.InstallBinary("/bin/binder", 0755, kRootUid, kRootGid,
                              [](ProcessContext& ctx) {
                                const auto port = static_cast<uint16_t>(std::stoi(ctx.argv.at(1)));
                                for (int i = 0; i < kSockets; ++i) {
                                  auto fd = ctx.kernel.SocketCall(ctx.task, kAfInet, kSockDgram, 0);
                                  if (!fd.ok() ||
                                      (i == 0 && !ctx.kernel.BindCall(ctx.task, fd.value(), port)
                                                       .ok())) {
                                    return 1;
                                  }
                                }
                                return 0;
                              })
                  .ok());
  Task* parent = &k.CreateTask("parent", Cred::ForUser(1000, 1000), nullptr);
  const uint64_t open_before = k.OpenFileCount();
  std::atomic<int> errors{0};
  RunTasks(k, {{parent, [&] {
                  for (int round = 0; round < kRounds; ++round) {
                    int pids[kChildren];
                    for (int c = 0; c < kChildren; ++c) {
                      auto child = k.SpawnAsync(*parent, "/bin/binder",
                                                {"binder", std::to_string(kBase + c)}, {});
                      if (!child.ok()) {
                        ++errors;
                        return;
                      }
                      pids[c] = child.value();
                    }
                    for (int c = 0; c < kChildren; ++c) {
                      auto status = k.WaitPid(*parent, pids[c]);
                      if (!status.ok() || status.value() != 0 || k.FindTask(pids[c]) != nullptr ||
                          k.net().PortOwner(kProtoUdp, kBase + c).has_value()) {
                        ++errors;
                      }
                    }
                  }
                }}});

  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(k.OpenFileCount(), open_before);
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

TEST(ParallelRaceCorpus, FilteredStockVictimCleanUnderRealThreads) {
  // The same filtered victim as TocttouRace.FilteredVictimAdmitsNoViolatingSchedule,
  // with the swap landing wherever the OS scheduler puts it.
  for (TocttouVariant variant :
       {TocttouVariant::kStatThenOpen, TocttouVariant::kAccessThenOpen}) {
    auto res = RunParallel(
        MakeTocttouScenario(SimMode::kLinux, variant, /*filter_victim=*/true), 10);
    EXPECT_FALSE(res.violation_found) << TocttouVariantName(variant) << ": " << res.detail;
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

// --- Readers during traffic --------------------------------------------------

// The value of the sample `series` ("name{labels}") in a metrics export, 0
// if absent.
uint64_t Sample(const std::string& text, const std::string& series) {
  const std::string key = "\n" + series + " ";
  size_t pos = text.find(key);
  return pos == std::string::npos ? 0 : std::stoull(text.substr(pos + key.size()));
}

// The value of `metric{syscall="<name>"}` in a metrics export, 0 if absent.
uint64_t SyscallSample(const std::string& text, const std::string& metric,
                       const std::string& name) {
  return Sample(text, metric + "{syscall=\"" + name + "\"}");
}

// The writer tasks loop over stat/getpid/open/read/close while `reader`
// reads `path` until they finish. Returns the number of reads; counts failed
// calls of either side in *errors.
int RunReaderDuringSyscalls(Kernel& k, const std::vector<Task*>& writers, Task& reader,
                            const std::string& path, int iters, std::atomic<int>* errors) {
  ThreadScheduler sched;
  k.set_scheduler(&sched);
  std::atomic<int> finished{0};
  std::atomic<int> reads{0};
  for (Task* task : writers) {
    sched.StartTask(task->pid, [&, task] {
      while (reads.load() == 0) {
        std::this_thread::yield();  // first calls land under a read
      }
      for (int i = 0; i < iters; ++i) {
        (void)k.Stat(*task, "/etc/passwd");
        (void)k.GetPid(*task);
        auto fd = k.Open(*task, "/etc/passwd", kORdOnly);
        if (!fd.ok() || !k.Read(*task, fd.value()).ok() || !k.Close(*task, fd.value()).ok()) {
          ++*errors;
        }
      }
      ++finished;
    });
  }
  sched.StartTask(reader.pid, [&] {
    do {
      if (!k.ReadWholeFile(reader, path).ok()) {
        ++*errors;
      }
      ++reads;
    } while (finished.load() < static_cast<int>(writers.size()));
  });
  sched.Join();
  k.set_scheduler(nullptr);
  return reads.load();
}

// Regression: a metrics scrape copied each thread's tail-exemplar reservoir
// while its owner was creating and filling it (TSan: a race on the
// per-syscall reservoirs). Every syscall is timed, so each call writes its
// ns histogram, offers itself to the reservoir and is attributed layer by
// layer, and the scrape copies all three. Only mount is traced, the always-on control-plane set: with every
// syscall traced, the tracer's span lock happened to order the accesses. A
// reservoir is written mostly on a thread's first calls, so each round boots
// a fresh kernel to put more first calls under a scrape.
TEST(ParallelStress, MetricsScrapeDuringSyscalls) {
  constexpr int kRounds = 6;
  constexpr int kIters = 100;
  for (int round = 0; round < kRounds; ++round) {
    SimSystem sys(SimMode::kProtego);
    Kernel& k = sys.kernel();
    k.syscalls().SetAllSyscallsTraced(false);
    k.syscalls().SetSyscallTraced(Sysno::kMount, true);
    k.syscalls().SetAllSyscallsTimed(true);
    std::vector<Task*> writers = {&sys.Login("alice"), &sys.Login("alice"),
                                  &sys.Login("alice")};
    Task& reader = sys.Login("bob");
    const std::string before = k.metrics().PrometheusText();

    std::atomic<int> errors{0};
    const int reads =
        RunReaderDuringSyscalls(k, writers, reader, "/proc/protego/metrics", kIters, &errors);
    EXPECT_EQ(errors.load(), 0);

    const std::string after = k.metrics().PrometheusText();
    const uint64_t issued = writers.size() * kIters;
    auto delta = [&](const char* metric, const char* name) {
      return SyscallSample(after, metric, name) - SyscallSample(before, metric, name);
    };
    const char* calls = "protego_syscall_calls_total";
    EXPECT_EQ(delta(calls, "stat"), issued);
    EXPECT_EQ(delta(calls, "getpid"), issued);
    EXPECT_EQ(delta(calls, "open"), issued + reads);
    EXPECT_EQ(delta(calls, "read"), issued + reads);
    EXPECT_EQ(delta(calls, "close"), issued + reads);
    // The writers' calls were timed, so the scrapes raced their histogram
    // and reservoir writes.
    EXPECT_EQ(delta("protego_syscall_latency_ns_count", "getpid"), issued);
    EXPECT_NE(after.find(" # {"), std::string::npos);
  }
}

// Four tasks each dispatch kRounds inode_permission and socket_create hooks
// and run two packets through netfilter per round, one that a default raw
// rule drops and one no rule matches. Every thread tallies on its own shard
// with no locked add; once the tasks are done, the merged accessors and the
// metrics export must equal the issued counts exactly.
TEST(ParallelStress, HookTalliesMergeExactly) {
  constexpr int kTasks = 4;
  constexpr uint64_t kRounds = 2000;
  constexpr uint64_t kIssued = kTasks * kRounds;
  SimSystem sys(SimMode::kProtego);
  Kernel& k = sys.kernel();
  LsmStack& lsm = k.lsm();
  const Netfilter& nf = k.net().netfilter();
  const char* const kModules[] = {"capability", "apparmor", "protego"};
  ASSERT_EQ(lsm.size(), std::size(kModules));
  const Inode& passwd = k.vfs().Resolve("/etc/passwd").value()->inode();
  const SocketRequest raw{kAfInet, kSockRaw, kProtoUdp};
  Packet dropped;  // raw UDP outside traceroute's range: default rule 5
  dropped.l4_proto = kProtoUdp;
  dropped.dst_ip = kLocalhostIp;
  dropped.dst_port = 9;
  dropped.from_raw_socket = true;
  Packet accepted = dropped;
  accepted.from_raw_socket = false;
  auto round = [&](Task& task) {
    (void)lsm.InodePermission(task, "/etc/passwd", passwd, kMayRead);
    EXPECT_EQ(lsm.SocketCreate(task, raw), HookVerdict::kAllow);
    EXPECT_EQ(nf.Evaluate(NfChain::kOutput, dropped), NfVerdict::kDrop);
    EXPECT_EQ(nf.Evaluate(NfChain::kOutput, accepted), NfVerdict::kAccept);
  };
  std::vector<std::pair<Task*, std::function<void()>>> bodies;
  for (int t = 0; t < kTasks; ++t) {
    Task* task = &sys.Login("alice");
    bodies.emplace_back(task, [&, task] {
      for (uint64_t r = 0; r < kRounds; ++r) {
        round(*task);
      }
    });
  }
  // Each module's verdicts on one round, from a probe before the traffic.
  uint64_t probe[std::size(kModules)][3];
  auto verdicts = [&](uint64_t out[][3]) {
    for (size_t i = 0; i < std::size(kModules); ++i) {
      for (size_t v = 0; v < 3; ++v) {
        out[i][v] = lsm.ModuleVerdicts(i, static_cast<HookVerdict>(v));
      }
    }
  };
  verdicts(probe);
  round(*bodies.front().first);
  uint64_t before[std::size(kModules)][3];
  verdicts(before);
  for (size_t i = 0; i < std::size(kModules); ++i) {
    for (size_t v = 0; v < 3; ++v) {
      probe[i][v] = before[i][v] - probe[i][v];
    }
  }
  const uint64_t inode_before = lsm.HookInvocations(LsmHook::kInodePermission);
  const uint64_t create_before = lsm.HookInvocations(LsmHook::kSocketCreate);
  const uint64_t total_before = lsm.TotalHookInvocations();
  const uint64_t evaluated_before = nf.evaluated();
  const uint64_t dropped_before = nf.dropped();
  const uint64_t raw_before = sys.lsm()->stats().raw_sockets_allowed;
  RunTasks(k, bodies);

  EXPECT_EQ(lsm.HookInvocations(LsmHook::kInodePermission), inode_before + kIssued);
  EXPECT_EQ(lsm.HookInvocations(LsmHook::kSocketCreate), create_before + kIssued);
  EXPECT_EQ(lsm.TotalHookInvocations(), total_before + 2 * kIssued);
  EXPECT_EQ(nf.evaluated(), evaluated_before + 2 * kIssued);
  EXPECT_EQ(nf.dropped(), dropped_before + kIssued);
  EXPECT_EQ(nf.fail_closed_drops(), 0u);
  EXPECT_EQ(sys.lsm()->stats().raw_sockets_allowed, raw_before + kIssued);

  const std::string text = k.metrics().PrometheusText();
  for (size_t i = 0; i < std::size(kModules); ++i) {
    for (size_t v = 0; v < 3; ++v) {
      const HookVerdict verdict = static_cast<HookVerdict>(v);
      const uint64_t want = before[i][v] + kIssued * probe[i][v];
      EXPECT_EQ(lsm.ModuleVerdicts(i, verdict), want) << kModules[i] << " " << v;
      EXPECT_EQ(Sample(text, StrFormat("protego_lsm_module_verdicts_total{module=\"%s\","
                                       "verdict=\"%s\"}",
                                       kModules[i], HookVerdictName(verdict))),
                want)
          << kModules[i] << " " << v;
    }
  }
  EXPECT_EQ(Sample(text, "protego_lsm_hook_invocations_total{hook=\"inode_permission\"}"),
            inode_before + kIssued);
  EXPECT_EQ(Sample(text, "protego_lsm_hook_invocations_total{hook=\"socket_create\"}"),
            create_before + kIssued);
  EXPECT_EQ(Sample(text, "protego_netfilter_evaluated_total"), evaluated_before + 2 * kIssued);
  EXPECT_EQ(Sample(text, "protego_netfilter_dropped_total"), dropped_before + kIssued);
  EXPECT_EQ(Sample(text, "protego_policy_decisions_total{op=\"raw_socket\",outcome=\"allowed\"}"),
            raw_before + kIssued);
}

// Regression: reading /proc/protego/trace copied ring slots while their
// owners were filling them (TSan: a race in the TraceEvent copy).
TEST(ParallelStress, TraceReaderDuringSyscalls) {
  SimSystem sys(SimMode::kProtego);
  Kernel& k = sys.kernel();
  std::vector<Task*> writers = {&sys.Login("alice"), &sys.Login("alice"), &sys.Login("alice")};
  Task& reader = sys.Login("root");
  std::atomic<int> errors{0};
  EXPECT_GT(RunReaderDuringSyscalls(k, writers, reader, "/proc/protego/trace", 100, &errors), 0);
  EXPECT_EQ(errors.load(), 0);
  EXPECT_NE(k.tracer().Format().find("getpid() = 0"), std::string::npos);
}

// Regression: a "?pid=..." or "?syscall=..." write to /proc/protego/trace
// assigned the tracer's read filter, std::string included, while a read of
// the file was copying it (TSan: a race on the filter). One root task cycles
// the filter while another reads the file; every read renders under one of
// the filters the writer set.
TEST(ParallelStress, TraceFilterChangesDuringReads) {
  constexpr int kWrites = 300;
  SimSystem sys(SimMode::kProtego);
  Kernel& k = sys.kernel();
  Task& writer = sys.Login("root");
  Task& reader = sys.Login("root");
  const char* kFilters[] = {"?pid=1", "?syscall=getpid", "?syscall=read&pid=2", "?"};
  std::atomic<bool> writing{true};
  std::atomic<int> errors{0};
  std::atomic<int> reads{0};
  std::vector<std::pair<Task*, std::function<void()>>> bodies;
  bodies.emplace_back(&writer, [&] {
    for (int i = 0; i < kWrites; ++i) {
      if (!k.WriteWholeFile(writer, "/proc/protego/trace", kFilters[i % 4]).ok()) {
        ++errors;
      }
    }
    writing = false;
  });
  bodies.emplace_back(&reader, [&] {
    do {
      auto body = k.ReadWholeFile(reader, "/proc/protego/trace");
      if (!body.ok()) {
        ++errors;
        continue;
      }
      const std::string& text = body.value();
      const size_t at = text.find("# filter: ");
      if (at != std::string::npos) {
        const std::string line = text.substr(at, text.find('\n', at) - at);
        if (line != "# filter: pid=1 syscall=* span=0 since=0" &&
            line != "# filter: pid=-1 syscall=getpid span=0 since=0" &&
            line != "# filter: pid=2 syscall=read span=0 since=0") {
          ADD_FAILURE() << line;
          ++errors;
        }
      }
      ++reads;
    } while (writing.load());
  });
  RunTasks(k, bodies);
  EXPECT_EQ(errors.load(), 0);
  EXPECT_GT(reads.load(), 0);
}

// Four tasks trace stat/open/read/close on their own files at once. Each
// event takes the span of the call running on its thread, so in the merged
// ring every event under a retained root carries that root's pid, and no
// root nests under another task's root.
TEST(ParallelStress, TracedCallsKeepTheirTrees) {
  constexpr int kTasks = 4;
  constexpr int kIters = 200;
  std::unique_ptr<Kernel> kernel = BootBareKernel();
  Kernel& k = *kernel;
  std::vector<Task*> tasks;
  for (int i = 0; i < kTasks; ++i) {
    tasks.push_back(&k.CreateTask("tracee", Cred::ForUser(1000, 1000), nullptr));
  }
  ThreadScheduler sched;
  k.set_scheduler(&sched);
  std::atomic<int> errors{0};
  for (int i = 0; i < kTasks; ++i) {
    Task* task = tasks[i];
    const std::string path = "/tmp/tree" + std::to_string(i);
    sched.StartTask(task->pid, [&, task, path] {
      for (int n = 0; n < kIters; ++n) {
        (void)k.Stat(*task, path);
        auto fd = k.Open(*task, path, kORdWr | kOCreat);
        if (!fd.ok() || !k.Read(*task, fd.value()).ok() || !k.Close(*task, fd.value()).ok()) {
          ++errors;
        }
      }
    });
  }
  sched.Join();
  k.set_scheduler(nullptr);
  EXPECT_EQ(errors.load(), 0);

  std::vector<TraceEvent> events = k.tracer().Snapshot();
  std::map<uint64_t, int> root_pid;  // retained span roots
  for (const TraceEvent& ev : events) {
    if (ev.tp == TracepointId::kSyscall) {
      root_pid[ev.span] = ev.pid;
    }
  }
  ASSERT_FALSE(root_pid.empty());
  size_t checked = 0;
  for (const TraceEvent& ev : events) {
    const uint64_t under = ev.tp == TracepointId::kSyscall ? ev.parent : ev.span;
    auto root = root_pid.find(under);
    if (under == 0 || root == root_pid.end()) {
      continue;
    }
    EXPECT_EQ(ev.pid, root->second) << k.tracer().Format();
    ++checked;
  }
  EXPECT_GT(checked, 0u);
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

// Two bind tables disagree on port 80 for one (binary, uid): the first
// grants it, the second allocates the port to another binary and so
// denies it. Four tasks bind while a writer alternates the tables 200
// times. A hook reads one snapshot inside a read section of the kernel's
// grace period, so every verdict is one of the two policies' answers, and
// a read outside a section shows under ASan as a use-after-free of a
// retired snapshot. Once the traffic stops, no section is open and one
// reclaim pass frees every retired snapshot.
TEST(ParallelPolicySwap, VerdictsMatchOldOrNewPolicy) {
  constexpr int kReaders = 4;
  constexpr int kSwaps = 200;
  constexpr int kMinBinds = 200;
  SimSystem sys(SimMode::kProtego);
  Kernel& k = sys.kernel();
  const std::vector<BindConfEntry> grants = {{80, "/usr/sbin/httpd", 33}};
  const std::vector<BindConfEntry> denies = {{80, "/usr/sbin/nginx", 33}};
  ASSERT_TRUE(sys.lsm()->SetBindTable(grants).ok());
  BindRequest req;
  req.port = 80;
  req.binary_path = "/usr/sbin/httpd";

  std::atomic<bool> swapping{true};
  std::atomic<int> allowed{0};
  std::atomic<int> denied{0};
  std::atomic<int> neither{0};
  std::vector<std::pair<Task*, std::function<void()>>> bodies;
  for (int t = 0; t < kReaders; ++t) {
    Task* task = &k.CreateTask("httpd", Cred::ForUser(33, 33), nullptr);
    bodies.emplace_back(task, [&, task] {
      for (int i = 0; i < kMinBinds || swapping.load(); ++i) {
        const HookVerdict v = k.lsm().SocketBind(*task, req);
        ++(v == HookVerdict::kAllow ? allowed : v == HookVerdict::kDeny ? denied : neither);
        (void)k.GetPid(*task);  // a DetScheduler yield point
      }
    });
  }
  Task* admin = &k.CreateTask("admin", Cred::Root(), nullptr);
  const uint64_t gen_before = k.lsm().policy_generation();
  bodies.emplace_back(admin, [&] {
    for (int i = 0; i < kSwaps; ++i) {
      EXPECT_TRUE(sys.lsm()->SetBindTable(i % 2 == 0 ? denies : grants).ok());
      (void)k.GetPid(*admin);
    }
    swapping.store(false);
  });
  RunTasks(k, bodies);

  EXPECT_EQ(neither.load(), 0);
  EXPECT_GE(allowed.load() + denied.load(), kReaders * kMinBinds);
  EXPECT_EQ(k.lsm().policy_generation(), gen_before + kSwaps);
  EXPECT_EQ(sys.lsm()->bind_table().front().binary, "/usr/sbin/httpd");
  k.grace().Reclaim();
  EXPECT_EQ(k.vfs().grace_pending(), 0u);
}

// Four tasks send while a writer alternates a netfilter rule, a route and a
// local address 200 times. Each table is one snapshot that a packet reads
// inside its send's read section, so every outcome is the old table's or
// the new one's: the rule drops the datagram or it arrives once, the
// route yields the remote echo or ENETUNREACH, and the address delivers
// locally or is unroutable. No reader takes a lock, and once the traffic
// stops one reclaim pass frees every retired snapshot.
TEST(ParallelPolicySwap, NetTablesMatchOldOrNew) {
  constexpr int kSenders = 4;
  constexpr int kToggles = 200;
  constexpr int kMinRounds = 100;
  constexpr int kNfBase = 37000;
  constexpr int kAddrBase = 37100;
  const Ipv4 kRemote = MakeIp(10, 9, 0, 5);
  const Ipv4 kAlias = MakeIp(10, 0, 0, 77);
  std::unique_ptr<Kernel> kernel = BootBareKernel();
  Kernel& k = *kernel;
  RemoteHost echo_host;
  echo_host.ip = kRemote;
  echo_host.udp_echo = {7};
  k.net().AddRemoteHost(echo_host);
  const NfRule drop =
      ParseNfRule("chain=OUTPUT proto=udp dport=37000:37003 verdict=DROP comment=toggle").value();

  std::atomic<bool> toggling{true};
  std::atomic<int> errors{0};
  std::atomic<int> neither{0};
  std::atomic<int> outcomes[3][2] = {};  // [rule, route, address][old, new]
  std::vector<std::pair<Task*, std::function<void()>>> bodies;
  for (int t = 0; t < kSenders; ++t) {
    Task* task = &k.CreateTask("sender" + std::to_string(t), Cred::Root(), nullptr);
    bodies.emplace_back(task, [&, task, t] {
      const auto nf_port = static_cast<uint16_t>(kNfBase + t);
      const auto addr_port = static_cast<uint16_t>(kAddrBase + t);
      auto cli = k.SocketCall(*task, kAfInet, kSockDgram, 0);
      auto nf_srv = k.SocketCall(*task, kAfInet, kSockDgram, 0);
      auto addr_srv = k.SocketCall(*task, kAfInet, kSockDgram, 0);
      if (!cli.ok() || !nf_srv.ok() || !addr_srv.ok() ||
          !k.BindCall(*task, nf_srv.value(), nf_port).ok() ||
          !k.BindCall(*task, addr_srv.value(), addr_port).ok()) {
        ++errors;
        return;
      }
      auto tally = [&](int table, bool ok_old, bool ok_new) {
        ++(ok_old ? outcomes[table][0] : ok_new ? outcomes[table][1] : neither);
      };
      for (int i = 0; i < kMinRounds || toggling.load(); ++i) {
        // Netfilter: accepted (no rule) and delivered once, or dropped.
        auto sent = SendUdp(k, *task, cli.value(), nf_port, "nf");
        const size_t got = Drain(k, *task, nf_srv.value()).size();
        tally(0, sent.ok() && got == 1, sent.ok() && got == 0);
        // Routing: the remote host echoes, or the route is gone.
        sent = SendUdp(k, *task, cli.value(), 7, "route", kRemote);
        const size_t echoed = Drain(k, *task, cli.value()).size();
        tally(1, sent.ok() && echoed == 1, sent.code() == Errno::kENETUNREACH && echoed == 0);
        // Local address: delivered locally, or not an address and unroutable.
        sent = SendUdp(k, *task, cli.value(), addr_port, "addr", kAlias);
        const size_t local = Drain(k, *task, addr_srv.value()).size();
        tally(2, sent.ok() && local == 1, sent.code() == Errno::kENETUNREACH && local == 0);
      }
    });
  }
  Task* admin = &k.CreateTask("admin", Cred::Root(), nullptr);
  bodies.emplace_back(admin, [&] {
    for (int i = 0; i < kToggles; ++i) {
      // Even toggles install the new tables, odd ones restore the old.
      if (i % 2 == 0) {
        k.net().netfilter().Append(drop);
        if (!k.net().routes().Remove(MakeIp(10, 9, 0, 0), 16).ok()) {
          ++errors;
        }
        k.net().RemoveLocalAddress(kAlias);
      } else {
        if (k.net().netfilter().DeleteByComment("toggle") != 1 ||
            !k.net().routes().Add({MakeIp(10, 9, 0, 0), 16, 0, "eth0", kRootUid}).ok()) {
          ++errors;
        }
        k.net().AddLocalAddress(kAlias);
      }
      (void)k.GetPid(*admin);  // a DetScheduler yield point
    }
    toggling = false;
  });
  ASSERT_TRUE(k.net().routes().Add({MakeIp(10, 9, 0, 0), 16, 0, "eth0", kRootUid}).ok());
  k.net().AddLocalAddress(kAlias);
  RunTasks(k, bodies);

  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(neither.load(), 0);
  for (int table = 0; table < 3; ++table) {
    EXPECT_GE(outcomes[table][0].load() + outcomes[table][1].load(), kSenders * kMinRounds)
        << table;
  }
  k.grace().Reclaim();
  EXPECT_EQ(k.vfs().grace_pending(), 0u);
}

// Four confined tasks open a file while a writer alternates an allowing and
// a denying AppArmor profile 200 times. Each hook reads the profiles once
// inside a read section of the kernel's grace period, so every open is the
// allowing profile's success or the denying one's EACCES. Regression: the
// profiles were an unsynchronized std::map that LoadProfile rewrote under
// the readers (TSan: a data race in AppArmorModule::FindProfile).
TEST(ParallelPolicySwap, AppArmorProfilesMatchOldOrNew) {
  constexpr int kReaders = 4;
  constexpr int kSwaps = 200;
  constexpr int kMinOpens = 100;
  std::unique_ptr<Kernel> kernel = BootBareKernel();
  Kernel& k = *kernel;
  auto module = std::make_unique<AppArmorModule>(k.grace());
  AppArmorModule& aa = *module;
  k.lsm().Register(std::move(module));
  ASSERT_TRUE(k.vfs().CreateFile("/tmp/data", 0644, kRootUid, kRootGid, "x").ok());
  AaProfile allowing;
  allowing.binary = "/bin/confined";
  allowing.file_rules = {{"/tmp/*", kMayRead}};
  AaProfile denying;
  denying.binary = "/bin/confined";
  aa.LoadProfile(allowing);

  std::atomic<bool> swapping{true};
  std::atomic<int> opened{0};
  std::atomic<int> refused{0};
  std::atomic<int> neither{0};
  std::vector<std::pair<Task*, std::function<void()>>> bodies;
  for (int t = 0; t < kReaders; ++t) {
    Task* task = &k.CreateTask("confined", Cred::ForUser(1000, 1000), nullptr);
    task->exe_path = "/bin/confined";
    bodies.emplace_back(task, [&, task] {
      for (int i = 0; i < kMinOpens || swapping.load(); ++i) {
        auto fd = k.Open(*task, "/tmp/data", kORdOnly);
        if (fd.ok()) {
          ++opened;
          (void)k.Close(*task, fd.value());
        } else {
          ++(fd.code() == Errno::kEACCES ? refused : neither);
        }
      }
    });
  }
  Task* admin = &k.CreateTask("admin", Cred::Root(), nullptr);
  bodies.emplace_back(admin, [&] {
    for (int i = 0; i < kSwaps; ++i) {
      aa.LoadProfile(i % 2 == 0 ? denying : allowing);
      (void)k.GetPid(*admin);  // a DetScheduler yield point
    }
    swapping = false;
  });
  RunTasks(k, bodies);

  EXPECT_EQ(neither.load(), 0);
  EXPECT_GE(opened.load() + refused.load(), kReaders * kMinOpens);
  EXPECT_EQ(aa.profile_count(), 1u);
  k.grace().Reclaim();
  EXPECT_EQ(k.vfs().grace_pending(), 0u);
}

// --- Lock-free readers of the VFS ---------------------------------------------

// A writer chowns a file in turn to (0, 0), (1000, 1000) and (1001, 1001),
// makes it setuid 04755 after each chown to root (each chown clears the bit
// in the critical section that changes the owner) and rewrites it at two
// sizes, while three tasks stat it. stat takes no lock but reads under the
// inode's sequence count, so no stat shows uid != gid, a setuid bit with a
// non-root owner, or a size never written.
TEST(ParallelStress, StatSeesOneWrittenState) {
  constexpr int kReaders = 3;
  constexpr int kRounds = 150;
  constexpr int kMinStats = 200;
  const std::string kShort(100, 's');
  const std::string kLong(4000, 'l');
  std::unique_ptr<Kernel> kernel = BootBareKernel();
  Kernel& k = *kernel;
  ASSERT_TRUE(k.vfs().CreateFile("/tmp/target", 0755, kRootUid, kRootGid, kShort).ok());

  std::atomic<bool> writing{true};
  std::atomic<int> stats{0};
  std::atomic<int> torn{0};
  std::atomic<int> errors{0};
  std::vector<std::pair<Task*, std::function<void()>>> bodies;
  for (int t = 0; t < kReaders; ++t) {
    Task* task = &k.CreateTask("stat" + std::to_string(t), Cred::ForUser(1000, 1000), nullptr);
    bodies.emplace_back(task, [&, task] {
      for (int i = 0; i < kMinStats || writing.load(); ++i) {
        auto st = k.Stat(*task, "/tmp/target");
        if (!st.ok()) {
          ++errors;
          continue;
        }
        ++stats;
        const KernelStat& s = st.value();
        if (s.uid != s.gid || ((s.mode & kSetUidBit) != 0 && s.uid != kRootUid) ||
            (s.size != kShort.size() && s.size != kLong.size())) {
          ++torn;
        }
      }
    });
  }
  Task* admin = &k.CreateTask("admin", Cred::Root(), nullptr);
  bodies.emplace_back(admin, [&] {
    const std::pair<Uid, Gid> owners[] = {{0, 0}, {1000, 1000}, {1001, 1001}};
    for (int i = 0; i < kRounds; ++i) {
      const auto [uid, gid] = owners[i % 3];
      if (!k.Chown(*admin, "/tmp/target", uid, gid).ok() ||
          (uid == kRootUid && !k.Chmod(*admin, "/tmp/target", 04755).ok())) {
        ++errors;
      }
      // Opened without O_TRUNC, the first write replaces the contents whole.
      auto fd = k.Open(*admin, "/tmp/target", kOWrOnly);
      if (!fd.ok() || !k.Write(*admin, fd.value(), i % 2 == 0 ? kLong : kShort).ok() ||
          !k.Close(*admin, fd.value()).ok()) {
        ++errors;
      }
    }
    writing = false;
  });
  RunTasks(k, bodies);

  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(torn.load(), 0);
  EXPECT_GE(stats.load(), kReaders * kMinStats);
}

// One task renames a file a <-> b in a directory of 200 other entries
// (several trie nodes), while three tasks list the directory and walk both
// names. A same-directory rename publishes one new root, so every listing
// holds exactly one of a and b and all 200 others; a walk finds the file
// under a name or misses it, never another object.
TEST(ParallelStress, RenameNeverShowsBothNamesOrNeither) {
  constexpr int kReaders = 3;
  constexpr int kOthers = 200;
  constexpr int kRenames = 300;
  constexpr int kMinListings = 60;
  std::unique_ptr<Kernel> kernel = BootBareKernel();
  Kernel& k = *kernel;
  ASSERT_TRUE(k.vfs().EnsureDirs("/tmp/dir").ok());
  for (int i = 0; i < kOthers; ++i) {
    ASSERT_TRUE(
        k.vfs().CreateFile("/tmp/dir/other" + std::to_string(i), 0644, kRootUid, kRootGid).ok());
  }
  auto moved = k.vfs().CreateFile("/tmp/dir/a", 0644, kRootUid, kRootGid);
  ASSERT_TRUE(moved.ok());
  const uint64_t ino = moved.value()->inode().ino;

  std::atomic<bool> renaming{true};
  std::atomic<int> listings{0};
  std::atomic<int> bad{0};
  std::vector<std::pair<Task*, std::function<void()>>> bodies;
  for (int t = 0; t < kReaders; ++t) {
    Task* task = &k.CreateTask("lister" + std::to_string(t), Cred::Root(), nullptr);
    bodies.emplace_back(task, [&, task] {
      for (int i = 0; i < kMinListings || renaming.load(); ++i) {
        auto names = k.ReadDir(*task, "/tmp/dir");
        if (!names.ok()) {
          ++bad;
          continue;
        }
        ++listings;
        const auto& v = names.value();
        const bool has_a = std::binary_search(v.begin(), v.end(), "a");
        const bool has_b = std::binary_search(v.begin(), v.end(), "b");
        if (has_a == has_b || v.size() != kOthers + 1 || !std::is_sorted(v.begin(), v.end())) {
          ++bad;
        }
        for (const char* name : {"/tmp/dir/a", "/tmp/dir/b"}) {
          auto st = k.Stat(*task, name);
          if (st.ok() ? st.value().ino != ino : st.code() != Errno::kENOENT) {
            ++bad;
          }
        }
      }
    });
  }
  Task* admin = &k.CreateTask("renamer", Cred::Root(), nullptr);
  bodies.emplace_back(admin, [&] {
    for (int i = 0; i < kRenames; ++i) {
      const bool to_b = i % 2 == 0;
      if (!k.Rename(*admin, to_b ? "/tmp/dir/a" : "/tmp/dir/b", to_b ? "/tmp/dir/b" : "/tmp/dir/a")
               .ok()) {
        ++bad;
      }
    }
    renaming = false;
  });
  RunTasks(k, bodies);

  EXPECT_EQ(bad.load(), 0);
  EXPECT_GE(listings.load(), kReaders * kMinListings);
  k.grace().Reclaim();
  EXPECT_EQ(k.vfs().grace_pending(), 0u);
}

// --- Trusted services and the audit ring under parallel tasks ---------------

// Four root tasks append to four different watched files at once. Each
// append's watch event runs on the writer's thread and syncs on its own
// service task, so every kernel table ends matching its file. Regression:
// every event ran on the daemon's one task from whichever thread wrote the
// file, and an event that arrived during another sync returned unsynced.
TEST(ParallelStress, ConcurrentConfigEditsReachTheKernel) {
  constexpr int kEdits = 25;
  SimSystem sys(SimMode::kProtego);
  Kernel& k = sys.kernel();
  using Line = std::string (*)(int);
  const std::vector<std::pair<std::string, Line>> edits = {
      {"/etc/fstab",
       [](int i) { return StrFormat("/dev/sdc%d /media/stick%d vfat rw,user\n", i, i); }},
      {"/etc/bind", [](int i) { return StrFormat("%d /usr/sbin/httpsd%d 33\n", 600 + i, i); }},
      {"/etc/ppp/options", [](int i) { return StrFormat("safeopt opt%d\n", i); }},
      {"/etc/sudoers",
       [](int i) { return StrFormat("charlie ALL=(root) NOPASSWD: /usr/bin/tool%d\n", i); }},
  };
  std::vector<Task*> tasks;
  for (size_t f = 0; f < edits.size(); ++f) {
    tasks.push_back(&sys.Login("root"));
  }
  ThreadScheduler sched;
  k.set_scheduler(&sched);
  std::atomic<int> failed{0};
  for (size_t f = 0; f < edits.size(); ++f) {
    Task* task = tasks[f];
    sched.StartTask(task->pid, [&, task, f] {
      for (int i = 0; i < kEdits; ++i) {
        if (!k.WriteWholeFile(*task, edits[f].first, edits[f].second(i), /*append=*/true).ok()) {
          ++failed;
        }
      }
    });
  }
  sched.Join();
  k.set_scheduler(nullptr);
  EXPECT_EQ(failed.load(), 0);
  EXPECT_TRUE(sys.daemon()->errors().empty());

  Task& root = sys.Login("root");
  auto read = [&](const std::string& path) { return k.ReadWholeFile(root, path).value(); };
  EXPECT_EQ(read("/proc/protego/mounts"), SerializeFstab(ParseFstab(read("/etc/fstab")).value()));
  EXPECT_EQ(read("/proc/protego/ports"),
            SerializeBindConf(ParseBindConf(read("/etc/bind")).value()));
  EXPECT_EQ(read("/proc/protego/ppp"),
            SerializePppOptions(ParsePppOptions(read("/etc/ppp/options")).value()));
  std::vector<std::string> names = k.ReadDir(root, "/etc/sudoers.d").value();
  std::sort(names.begin(), names.end());  // the daemon's order
  std::vector<std::string> fragments;
  for (const std::string& name : names) {
    fragments.push_back(read("/etc/sudoers.d/" + name));
  }
  EXPECT_EQ(read("/proc/protego/sudoers"),
            SerializeSudoers(ParseSudoersWithFragments(read("/etc/sudoers"), fragments).value()));
}

// Four root tasks append to /etc/fstab at once; after they finish,
// /proc/protego/mounts matches the file. Regression: a sync that read the
// file before another task's edit could publish after that edit's sync.
TEST(ParallelStress, ConcurrentEditsOfOneFileApplyInOrder) {
  constexpr int kTasks = 4;
  constexpr int kEdits = 25;
  SimSystem sys(SimMode::kProtego);
  Kernel& k = sys.kernel();
  std::vector<Task*> tasks;
  for (int t = 0; t < kTasks; ++t) {
    tasks.push_back(&sys.Login("root"));
  }
  ThreadScheduler sched;
  k.set_scheduler(&sched);
  std::atomic<int> failed{0};
  for (int t = 0; t < kTasks; ++t) {
    Task* task = tasks[t];
    sched.StartTask(task->pid, [&, task, t] {
      for (int i = 0; i < kEdits; ++i) {
        const std::string line =
            StrFormat("/dev/sd%c%d /media/s%d_%d vfat rw,user\n", 'c' + t, i, t, i);
        if (!k.WriteWholeFile(*task, "/etc/fstab", line, /*append=*/true).ok()) {
          ++failed;
        }
      }
    });
  }
  sched.Join();
  k.set_scheduler(nullptr);
  EXPECT_EQ(failed.load(), 0);
  EXPECT_TRUE(sys.daemon()->errors().empty());
  Task& root = sys.Login("root");
  auto read = [&](const std::string& path) { return k.ReadWholeFile(root, path).value(); };
  EXPECT_EQ(read("/proc/protego/mounts"), SerializeFstab(ParseFstab(read("/etc/fstab")).value()));
}

// Every setuid of an `exim` session goes to the auth utility (the shipped
// rule `ALL ALL=(ALL) TARGETPW: ALL`), and no password is typed, so each
// call prompts once and fails. Regression: every lookup ran on the one task
// the service created at install, whose fd table is not thread-safe, from
// whichever thread asked (ASan: a heap-use-after-free in FdTable::Install),
// and the counters were plain integers.
TEST(ParallelStress, ConcurrentAuthentication) {
  constexpr int kTasks = 4;
  constexpr int kCalls = 1000;
  SimSystem sys(SimMode::kProtego);
  Kernel& k = sys.kernel();
  std::vector<Task*> tasks;
  for (int i = 0; i < kTasks; ++i) {
    tasks.push_back(&sys.Login("exim"));
  }
  ThreadScheduler sched;
  k.set_scheduler(&sched);
  std::atomic<int> granted{0};
  for (int i = 0; i < kTasks; ++i) {
    Task* task = tasks[i];
    sched.StartTask(task->pid, [&, task, i] {
      for (int c = 0; c < kCalls; ++c) {
        if (k.Setuid(*task, static_cast<Uid>(1000 + i % 3)).ok()) {
          ++granted;
        }
      }
    });
  }
  sched.Join();
  k.set_scheduler(nullptr);

  const uint64_t calls = kTasks * kCalls;
  EXPECT_EQ(granted.load(), 0);
  EXPECT_EQ(sys.auth()->failures(), calls);
  EXPECT_EQ(sys.auth()->prompts_issued(), calls);
}

// Four tasks confined by one AppArmor profile are denied at once; each
// denial is one record in the kernel's audit ring. Regression: the module
// appended denials to an unlocked vector of its own (TSan: a data race in
// AppArmorModule::InodePermission) and the ring never saw them.
TEST(ParallelStress, AppArmorDenialsReachTheAuditRing) {
  constexpr int kTasks = 4;
  constexpr int kCalls = 200;
  std::unique_ptr<Kernel> kernel = BootBareKernel();
  Kernel& k = *kernel;
  auto apparmor = std::make_unique<AppArmorModule>(k.grace());
  AaProfile profile;
  profile.binary = "/bin/confined";
  apparmor->LoadProfile(profile);
  k.lsm().Register(std::move(apparmor));
  ASSERT_TRUE(k.vfs().CreateFile("/tmp/data", 0644, kRootUid, kRootGid, "x").ok());
  std::vector<Task*> tasks;
  for (int i = 0; i < kTasks; ++i) {
    Task& task = k.CreateTask("confined", Cred::ForUser(1000, 1000), nullptr);
    task.exe_path = "/bin/confined";
    tasks.push_back(&task);
  }
  auto records = [&k] { return k.audit_log().size() + k.audit_dropped(); };
  // One call, alone, says how many denials a call audits.
  const uint64_t before = records();
  ASSERT_EQ(k.Open(*tasks[0], "/tmp/data", kORdOnly).code(), Errno::kEACCES);
  const uint64_t per_call = records() - before;
  EXPECT_GT(per_call, 0u);

  ThreadScheduler sched;
  k.set_scheduler(&sched);
  std::atomic<int> allowed{0};
  for (Task* task : tasks) {
    sched.StartTask(task->pid, [&, task] {
      for (int c = 0; c < kCalls; ++c) {
        if (k.Open(*task, "/tmp/data", kORdOnly).code() != Errno::kEACCES) {
          ++allowed;
        }
      }
    });
  }
  sched.Join();
  k.set_scheduler(nullptr);

  EXPECT_EQ(allowed.load(), 0);
  EXPECT_EQ(records() - before, (1 + kTasks * kCalls) * per_call);
  for (const std::string& record : k.audit_log()) {
    EXPECT_EQ(record.rfind("apparmor: /bin/confined denied ", 0), 0u) << record;
  }
}

// --- Spool deliveries ---------------------------------------------------------
//
// The mail workload's cycle from four tasks at once, each in its own 1777
// spool directory (create the tmp file, write it, rename it into place,
// stat it, unlink it), while a fifth task lists and stats every spool. Each
// cycle takes its own spool's lock three times; the lister takes none.
// Every cycle succeeds, the lister only ever sees the two names a spool can
// hold, each unlink leaves exactly one orphan, and no writer ever meets
// another on a tree lock.
TEST(ParallelStress, ConcurrentSpoolDeliveries) {
  constexpr int kWriters = 4;
  constexpr int kCycles = 2000;
  std::unique_ptr<Kernel> kernel = BootBareKernel();
  Kernel& k = *kernel;
  Task& root = k.CreateTask("root", Cred::Root(), nullptr);
  std::vector<std::string> spools;
  for (int t = 0; t < kWriters; ++t) {
    spools.push_back("/var/spool/q" + std::to_string(t));
    ASSERT_TRUE(k.vfs().EnsureDirs(spools.back()).ok());
    ASSERT_TRUE(k.Chmod(root, spools.back(), 01777).ok());
  }
  const size_t orphans_before = k.vfs().orphan_count();
  std::vector<Task*> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.push_back(&k.CreateTask("exim", Cred::ForUser(1000 + t, 1000 + t), nullptr));
  }
  Task& lister = k.CreateTask("mailq", Cred::Root(), nullptr);

  ThreadScheduler sched;
  k.set_scheduler(&sched);
  std::atomic<int> failed{0};
  std::atomic<int> strays{0};
  std::atomic<int> writers_left{kWriters};
  for (int t = 0; t < kWriters; ++t) {
    Task* task = writers[static_cast<size_t>(t)];
    const std::string tmp = spools[static_cast<size_t>(t)] + "/in.tmp";
    const std::string msg = spools[static_cast<size_t>(t)] + "/msg";
    sched.StartTask(task->pid, [&, task, tmp, msg] {
      for (int c = 0; c < kCycles; ++c) {
        auto fd = k.Open(*task, tmp, kOWrOnly | kOCreat, 0600);
        const bool ok = fd.ok() && k.Write(*task, fd.value(), "Received: by protego-sim\n").ok() &&
                        k.Close(*task, fd.value()).ok() && k.Rename(*task, tmp, msg).ok() &&
                        k.Stat(*task, msg).ok() && k.Unlink(*task, msg).ok();
        if (!ok) {
          ++failed;
        }
      }
      --writers_left;
    });
  }
  sched.StartTask(lister.pid, [&] {
    do {
      for (const std::string& spool : spools) {
        auto names = k.ReadDir(lister, spool);
        if (!names.ok()) {
          ++failed;
          continue;
        }
        for (const std::string& name : names.value()) {
          if (name != "in.tmp" && name != "msg") {
            ++strays;
          }
          // Renamed or unlinked since the listing: ENOENT.
          auto st = k.Stat(lister, spool + "/" + name);
          if (!st.ok() && st.code() != Errno::kENOENT) {
            ++failed;
          }
        }
      }
    } while (writers_left.load() > 0);
  });
  sched.Join();
  k.set_scheduler(nullptr);

  EXPECT_EQ(failed.load(), 0);
  EXPECT_EQ(strays.load(), 0);
  EXPECT_EQ(k.vfs().orphan_count() - orphans_before, size_t{kWriters} * kCycles);
  EXPECT_EQ(k.OpenFileCount(), 0u);
  EXPECT_EQ(k.vfs().tree_lock_counts().contended, 0u);
}

// Four writers deliver into sibling spools while walkers walk their shared
// ancestors, one thread moves a directory between two parents and back,
// and one mounts and unmounts a filesystem. A walk of a stable path always
// returns the same node and canonical path; a walk through the moving
// directory or across the mountpoint returns a node-path pair that existed
// (".." from the moving directory lands on the parent its path names; the
// mountpoint is the covered directory or a mount's root).
TEST(ParallelStress, SiblingSpoolWritersWithWalkers) {
  constexpr int kWriters = 4;
  constexpr int kCycles = 1500;
  Vfs vfs;
  for (const char* dir : {"/var/spool/p1/x/inner", "/var/spool/p2", "/var/spool/mnt"}) {
    ASSERT_TRUE(vfs.EnsureDirs(dir).ok());
  }
  std::vector<std::string> spools;
  for (int t = 0; t < kWriters; ++t) {
    spools.push_back("/var/spool/q" + std::to_string(t));
    ASSERT_TRUE(vfs.EnsureDirs(spools.back()).ok());
  }
  const Vnode* var = vfs.Resolve("/var").value();
  const Vnode* spool = vfs.Resolve("/var/spool").value();
  const Vnode* p1 = vfs.Resolve("/var/spool/p1").value();
  const Vnode* p2 = vfs.Resolve("/var/spool/p2").value();
  const Vnode* moving = vfs.Resolve("/var/spool/p1/x").value();
  const Vnode* covered = vfs.Resolve("/var/spool/mnt").value();

  std::atomic<int> writers_left{kWriters};
  std::atomic<int> failed{0};
  std::atomic<int> wrong{0};
  std::atomic<int> moves{0};
  std::atomic<int> mounts{0};
  // The writers start once the mover and the mounter have each run, so the
  // spool traffic always overlaps both; a writer that finished first left
  // them nothing to race.
  std::atomic<bool> mover_ran{false};
  std::atomic<bool> mounter_ran{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&, t] {
      const std::string tmp = spools[t] + "/in.tmp";
      const std::string msg = spools[t] + "/msg";
      while (!mover_ran.load() || !mounter_ran.load()) {
        std::this_thread::yield();
      }
      for (int c = 0; c < kCycles; ++c) {
        auto node = vfs.CreateFile(tmp, 0600, 0, 0);
        const bool ok = node.ok() && vfs.WriteNode(node.value(), "body\n", false).ok() &&
                        vfs.Rename(tmp, msg).ok() && vfs.PathOf(node.value()) == msg &&
                        vfs.Unlink(msg).ok();
        if (!ok) {
          ++failed;
        }
      }
      --writers_left;
    });
  }
  // Stable paths: the same node and canonical path every time.
  threads.emplace_back([&] {
    const std::vector<std::pair<std::string, const Vnode*>> stable = {
        {"/var", var}, {"/var/spool", spool}, {"/var/spool/q1/..", spool},
        {"/var/./spool/p2/../p1", p1}, {"/var/spool/p2", p2}};
    while (writers_left.load() > 0) {
      for (const auto& [path, node] : stable) {
        WalkResult w = vfs.Walk("/", path, true);
        if (w.err != Errno::kOk || w.node != node || w.path != vfs.PathOf(node)) {
          ++wrong;
        }
      }
      for (const std::string& q : spools) {
        auto names = vfs.ListDir(vfs.Resolve(q).value());
        if (!names.ok() || names.value().size() > 1) {
          ++wrong;
        }
      }
    }
  });
  // Through the moving directory and across the mountpoint.
  threads.emplace_back([&] {
    while (writers_left.load() > 0) {
      for (const auto& [path, parent] :
           {std::pair<const char*, const Vnode*>{"/var/spool/p1/x/inner/../..", p1},
            {"/var/spool/p2/x/inner/../..", p2}}) {
        WalkResult w = vfs.Walk("/", path, true);
        if (w.err == Errno::kOk && (w.node != parent || w.path != vfs.PathOf(parent))) {
          ++wrong;
        } else if (w.err != Errno::kOk && w.err != Errno::kENOENT) {
          ++wrong;
        }
      }
      const std::string where = vfs.PathOf(moving);
      if (where != "/var/spool/p1/x" && where != "/var/spool/p2/x") {
        ++wrong;
      }
      WalkResult up = vfs.Walk("/", "/var/spool/mnt/..", true);
      WalkResult at = vfs.Walk("/", "/var/spool/mnt", true);
      if (up.err != Errno::kOk || up.node != spool || up.path != "/var/spool" ||
          at.err != Errno::kOk || at.path != "/var/spool/mnt" ||
          (at.node != covered && at.node->parent() != nullptr)) {
        ++wrong;
      }
    }
  });
  threads.emplace_back([&] {
    while (writers_left.load() > 0) {
      const bool there = moves.load() % 2 == 0;
      if (vfs.Rename(there ? "/var/spool/p1/x" : "/var/spool/p2/x",
                     there ? "/var/spool/p2/x" : "/var/spool/p1/x")
              .ok()) {
        ++moves;
      } else {
        ++failed;
      }
      mover_ran = true;
    }
  });
  threads.emplace_back([&] {
    while (writers_left.load() > 0) {
      if (vfs.AddMount("/var/spool/mnt", "tmpfs", "tmpfs", {}, 0, nullptr).ok() &&
          vfs.RemoveMount("/var/spool/mnt").ok()) {
        ++mounts;
      } else {
        ++failed;
      }
      mounter_ran = true;
    }
  });
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(failed.load(), 0);
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_GT(moves.load(), 0);
  EXPECT_GT(mounts.load(), 0);
  EXPECT_EQ(vfs.orphan_count(), size_t{kWriters} * kCycles);
  EXPECT_TRUE(vfs.AuditBlockAccounting().ok());
}

// Walks across a mountpoint and mount lookups race umounts, which retire
// the mount row such walks read. Under ASan, a row freed while a walk can
// still read it is a heap-use-after-free.
TEST(ParallelStress, UmountRacingWalksAcrossTheMountpoint) {
  constexpr int kMounts = 2000;
  Vfs vfs;
  ASSERT_TRUE(vfs.EnsureDirs("/mnt/m").ok());
  std::atomic<bool> done{false};
  std::atomic<int> wrong{0};
  std::vector<std::thread> walkers;
  for (int i = 0; i < 2; ++i) {
    walkers.emplace_back([&] {
      while (!done.load()) {
        WalkResult w = vfs.Walk("/", "/mnt/m/d/../..", true);
        if (w.err == Errno::kOk && w.path != "/mnt") {
          ++wrong;
        }
        (void)vfs.FindMount("/mnt/m");
        (void)vfs.Walk("/mnt/m", "d", true);
      }
    });
  }
  for (int i = 0; i < kMounts; ++i) {
    ASSERT_TRUE(vfs.AddMount("/mnt/m", "tmpfs", "tmpfs", {"rw"}, 0, [](Vnode* root) {
                     Inode dir;
                     dir.mode = kIfDir | 0755;
                     (void)root->AddChild("d", std::move(dir));
                   }).ok());
    ASSERT_TRUE(vfs.RemoveMount("/mnt/m").ok());
  }
  done.store(true);
  for (std::thread& t : walkers) {
    t.join();
  }
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(vfs.FormatMounts(), "");
}

// --- Kernel churn across threads ---------------------------------------------
//
// Several threads each boot and destroy kernels back to back. A kernel
// booted where a destroyed one lived must start with fresh per-thread
// shards, so each kernel's gate counts exactly the calls made on it.
TEST(ParallelStress, KernelChurnAcrossThreads) {
  constexpr int kThreads = 4;
  constexpr int kKernels = 50;
  constexpr uint64_t kCalls = 10;
  std::atomic<int> miscounted{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&miscounted] {
      for (int i = 0; i < kKernels; ++i) {
        std::unique_ptr<Kernel> kernel = BootBareKernel();
        Task& root = kernel->CreateTask("churn", Cred::Root(), nullptr);
        for (uint64_t c = 0; c < kCalls; ++c) {
          (void)kernel->GetPid(root);
        }
        if (kernel->syscalls().stats(Sysno::kGetPid).calls.load() != kCalls) {
          miscounted.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(miscounted.load(), 0);
}

}  // namespace
}  // namespace protego
