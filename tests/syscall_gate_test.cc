// Tests for the unified syscall entry path: per-syscall counters, the trace
// ring, and the seccomp-style filter — including the ordering guarantee that
// a filtered task is refused BEFORE any LSM hook runs.

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <thread>

#include "src/base/strings.h"
#include "src/kernel/kernel.h"
#include "src/lsm/capability_module.h"
#include "src/sim/system.h"

namespace protego {
namespace {

// Spy module: counts every hook invocation it sees.
class SpyModule : public SecurityModule {
 public:
  const char* name() const override { return "spy"; }

  HookVerdict SocketCreate(const Task& task, const SocketRequest& req) override {
    (void)task;
    (void)req;
    socket_create_calls++;
    return HookVerdict::kDefault;
  }

  HookVerdict InodePermission(Task& task, const std::string& path, const Inode& inode,
                              int may, bool* /*unused*/) override {
    (void)task;
    (void)path;
    (void)inode;
    (void)may;
    inode_permission_calls++;
    return HookVerdict::kDefault;
  }

  bool CapablePermitted(const Task& task, Capability cap) override {
    (void)task;
    (void)cap;
    capable_calls++;
    return true;
  }

  // Atomic: the real-threads test below dispatches hooks from 4 threads.
  std::atomic<int> socket_create_calls{0};
  std::atomic<int> inode_permission_calls{0};
  std::atomic<int> capable_calls{0};
};

// The span-root (syscall) events in the kernel's trace ring, oldest first.
std::vector<TraceEvent> SyscallRoots(Kernel& k) {
  std::vector<TraceEvent> roots;
  for (TraceEvent& ev : k.tracer().Snapshot()) {
    if (ev.tp == TracepointId::kSyscall) {
      roots.push_back(std::move(ev));
    }
  }
  return roots;
}

class SyscallGateTest : public ::testing::Test {
 protected:
  SyscallGateTest() {
    kernel_.lsm().Register(std::make_unique<CapabilityModule>());
    auto spy = std::make_unique<SpyModule>();
    spy_ = spy.get();
    kernel_.lsm().Register(std::move(spy));
    (void)kernel_.vfs().EnsureDirs("/etc");
    (void)kernel_.vfs().EnsureDirs("/tmp");
    kernel_.vfs().Resolve("/tmp").value()->inode().mode = kIfDir | 01777;
    (void)kernel_.vfs().CreateFile("/etc/secret", 0600, kRootUid, kRootGid, "top");
  }

  Task& User(Uid uid) { return kernel_.CreateTask("u", Cred::ForUser(uid, uid), &terminal_); }

  Kernel kernel_;
  Terminal terminal_;
  SpyModule* spy_ = nullptr;
};

TEST_F(SyscallGateTest, CountersIncrementOnSuccessAndError) {
  Task& alice = User(1000);
  const SyscallGate& gate = kernel_.syscalls();
  uint64_t open_calls = gate.stats(Sysno::kOpen).calls;
  uint64_t open_errors = gate.stats(Sysno::kOpen).errors;

  ASSERT_TRUE(kernel_.Open(alice, "/tmp/f", kOWrOnly | kOCreat).ok());
  EXPECT_EQ(gate.stats(Sysno::kOpen).calls, open_calls + 1);
  EXPECT_EQ(gate.stats(Sysno::kOpen).errors, open_errors);

  EXPECT_EQ(kernel_.Open(alice, "/etc/secret", kORdOnly).code(), Errno::kEACCES);
  EXPECT_EQ(gate.stats(Sysno::kOpen).calls, open_calls + 2);
  EXPECT_EQ(gate.stats(Sysno::kOpen).errors, open_errors + 1);
}

TEST_F(SyscallGateTest, GetPidRoutesThroughGate) {
  Task& alice = User(1000);
  uint64_t calls = kernel_.syscalls().stats(Sysno::kGetPid).calls;
  EXPECT_EQ(kernel_.GetPid(alice), alice.pid);
  EXPECT_EQ(kernel_.syscalls().stats(Sysno::kGetPid).calls, calls + 1);
}

TEST_F(SyscallGateTest, TraceRecordsCarryErrno) {
  Task& alice = User(1000);
  kernel_.tracer().Clear();
  EXPECT_EQ(kernel_.Open(alice, "/etc/secret", kORdOnly).code(), Errno::kEACCES);
  auto trace = SyscallRoots(kernel_);
  ASSERT_FALSE(trace.empty());
  const TraceEvent& ev = trace.back();
  EXPECT_EQ(static_cast<Sysno>(ev.a), Sysno::kOpen);
  EXPECT_EQ(static_cast<Errno>(ev.code), Errno::kEACCES);
  EXPECT_EQ(ev.pid, alice.pid);
  EXPECT_EQ(ev.flags & kTraceFlagSeccompDenied, 0u);
  EXPECT_NE(ev.detail.find("/etc/secret"), std::string::npos);
}

TEST_F(SyscallGateTest, TraceRingIsBounded) {
  Task& alice = User(1000);
  kernel_.tracer().Clear();
  for (int i = 0; i < 300; ++i) {
    (void)kernel_.GetPid(alice);
  }
  EXPECT_EQ(SyscallRoots(kernel_).size(), SyscallGate::kTraceCapacity);
  EXPECT_EQ(kernel_.tracer().dropped(), 300 - SyscallGate::kTraceCapacity);
  // Oldest retained record is the one after the drops.
  EXPECT_EQ(SyscallRoots(kernel_).front().seq, 300 - SyscallGate::kTraceCapacity);
}

TEST_F(SyscallGateTest, SeccompDenialHappensBeforeLsmHooks) {
  Task& alice = User(1000);
  ASSERT_TRUE(kernel_
                  .SeccompSetFilter(alice, {Sysno::kRead, Sysno::kWrite, Sysno::kClose,
                                            Sysno::kGetPid})
                  .ok());
  int spy_before = spy_->socket_create_calls;
  uint64_t stack_before = kernel_.lsm().HookInvocations(LsmHook::kSocketCreate);
  kernel_.tracer().Clear();

  auto sock = kernel_.SocketCall(alice, kAfInet, kSockStream, 0);
  EXPECT_EQ(sock.code(), Errno::kEPERM);
  // Neither the spy module nor the stack saw a socket_create hook: the gate
  // refused at entry, before DAC/LSM.
  EXPECT_EQ(spy_->socket_create_calls.load(), spy_before);
  EXPECT_EQ(kernel_.lsm().HookInvocations(LsmHook::kSocketCreate), stack_before);

  // The denial is visible in the trace ring and the per-syscall counters.
  auto trace = SyscallRoots(kernel_);
  ASSERT_FALSE(trace.empty());
  EXPECT_EQ(static_cast<Sysno>(trace.back().a), Sysno::kSocket);
  EXPECT_NE(trace.back().flags & kTraceFlagSeccompDenied, 0u);
  EXPECT_EQ(static_cast<Errno>(trace.back().code), Errno::kEPERM);
  EXPECT_GE(kernel_.syscalls().stats(Sysno::kSocket).seccomp_denied, 1u);

  // And in the audit log.
  bool audited = false;
  for (const std::string& line : kernel_.audit_log()) {
    if (line.find("seccomp") != std::string::npos &&
        line.find("socket") != std::string::npos) {
      audited = true;
    }
  }
  EXPECT_TRUE(audited);
}

TEST_F(SyscallGateTest, SeccompLatchIsOneWay) {
  Task& alice = User(1000);
  // First filter: file syscalls plus seccomp itself (so refiltering works).
  ASSERT_TRUE(kernel_
                  .SeccompSetFilter(alice, {Sysno::kOpen, Sysno::kRead, Sysno::kClose,
                                            Sysno::kSeccomp})
                  .ok());
  EXPECT_EQ(kernel_.SocketCall(alice, kAfInet, kSockStream, 0).code(), Errno::kEPERM);

  // "Widening" to include socket actually intersects: socket stays denied,
  // and open — absent from the second list — is now denied too.
  ASSERT_TRUE(
      kernel_.SeccompSetFilter(alice, {Sysno::kSocket, Sysno::kRead, Sysno::kSeccomp}).ok());
  EXPECT_EQ(kernel_.SocketCall(alice, kAfInet, kSockStream, 0).code(), Errno::kEPERM);
  EXPECT_EQ(kernel_.Open(alice, "/tmp/x", kOWrOnly | kOCreat).code(), Errno::kEPERM);

  // Dropping seccomp(2) from the allow list locks the filter permanently.
  ASSERT_TRUE(kernel_.SeccompSetFilter(alice, {Sysno::kRead}).ok());
  EXPECT_EQ(kernel_.SeccompSetFilter(alice, {Sysno::kRead, Sysno::kSeccomp}).code(),
            Errno::kEPERM);
}

TEST_F(SyscallGateTest, SeccompFilterInheritedAcrossSpawn) {
  ASSERT_TRUE(kernel_
                  .InstallBinary("/bin/probe", 0755, kRootUid, kRootGid,
                                 [](ProcessContext& ctx) -> int {
                                   auto sock = ctx.kernel.SocketCall(ctx.task, kAfInet,
                                                                     kSockStream, 0);
                                   return sock.code() == Errno::kEPERM ? 42 : 0;
                                 })
                  .ok());
  Task& alice = User(1000);
  ASSERT_TRUE(kernel_
                  .SeccompSetFilter(alice, {Sysno::kClone, Sysno::kExecve, Sysno::kRead,
                                            Sysno::kWrite, Sysno::kClose})
                  .ok());
  auto status = kernel_.Spawn(alice, "/bin/probe", {"probe"}, {});
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status.value(), 42);  // child inherited the filter: socket EPERM
}

TEST_F(SyscallGateTest, FilteredGetPidReturnsMinusOne) {
  Task& alice = User(1000);
  ASSERT_TRUE(kernel_.SeccompSetFilter(alice, {Sysno::kRead}).ok());
  EXPECT_EQ(kernel_.GetPid(alice), -1);
}

TEST_F(SyscallGateTest, AuditRingCountsDrops) {
  EXPECT_EQ(kernel_.audit_dropped(), 0u);
  for (int i = 0; i < 600; ++i) {
    kernel_.Audit("record");
  }
  EXPECT_EQ(kernel_.audit_log().size(), 512u);
  EXPECT_EQ(kernel_.audit_dropped(), 600u - 512u);
}

// --- Argument-aware predicate filters ----------------------------------------

// A filter spec equivalent to what the synthesizer emits for a small
// utility: open restricted to two path classes (one with a flags mask),
// read/write/close fd-bounded, plus the plumbing syscalls.
SeccompFilter::Spec PredicateSpec() {
  SeccompFilter::Spec spec;
  for (Sysno nr : {Sysno::kOpen, Sysno::kRead, Sysno::kWrite, Sysno::kClose,
                   Sysno::kGetPid, Sysno::kSeccomp, Sysno::kClone, Sysno::kExecve}) {
    spec.allowed.set(static_cast<size_t>(nr));
  }
  spec.path_classes = {{"/tmp/", 1}, {"/etc/motd", 2}};
  spec.rules[static_cast<uint16_t>(Sysno::kOpen)] = {
      // /tmp/* with any flags; /etc/motd read-only.
      {{{kSeccompArgPath, SeccompCmp::kEq, 1, 0}}},
      {{{kSeccompArgPath, SeccompCmp::kEq, 2, 0},
        {1, SeccompCmp::kMaskedEq, static_cast<uint64_t>(kORdOnly),
         static_cast<uint64_t>(kOAccMode)}}},
  };
  spec.rules[static_cast<uint16_t>(Sysno::kWrite)] = {{{{0, SeccompCmp::kLt, 8, 0}}}};
  return spec;
}

TEST(SeccompPredicateTest, SpecRoundTripsThroughRenderAndParse) {
  auto filter = SeccompFilter::FromSpec(PredicateSpec());
  ASSERT_TRUE(filter.ok());
  std::string text = filter.value().Render();
  auto reparsed = SeccompFilter::ParseSpec(text);
  ASSERT_TRUE(reparsed.ok());
  auto rebuilt = SeccompFilter::FromSpec(reparsed.value());
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(rebuilt.value().Render(), text);  // byte-stable fixed point
}

TEST_F(SyscallGateTest, PredicateFilterEnforcesPathClassesAndFlags) {
  (void)kernel_.vfs().CreateFile("/etc/motd", 0644, kRootUid, kRootGid, "hi");
  Task& alice = User(1000);
  ASSERT_TRUE(kernel_.SeccompSetFilterSpec(alice, PredicateSpec()).ok());

  ASSERT_TRUE(kernel_.Open(alice, "/tmp/scratch", kOWrOnly | kOCreat).ok());
  ASSERT_TRUE(kernel_.Open(alice, "/etc/motd", kORdOnly).ok());
  // Write-open of the read-only class and any open outside both classes are
  // refused at the gate, before DAC/LSM ever see the call.
  int spy_before = spy_->inode_permission_calls;
  EXPECT_EQ(kernel_.Open(alice, "/etc/motd", kORdWr).code(), Errno::kEPERM);
  EXPECT_EQ(kernel_.Open(alice, "/etc/secret", kORdOnly).code(), Errno::kEPERM);
  EXPECT_EQ(spy_->inode_permission_calls.load(), spy_before);
  // Predicate evaluation is visible in the per-syscall rule-eval counter.
  EXPECT_GT(kernel_.syscalls().stats(Sysno::kOpen).rule_evals, 0u);
}

TEST_F(SyscallGateTest, PredicateLatchTightensAndNeverWidens) {
  Task& alice = User(1000);
  ASSERT_TRUE(kernel_.SeccompSetFilterSpec(alice, PredicateSpec()).ok());
  ASSERT_TRUE(kernel_.Open(alice, "/tmp/a", kOWrOnly | kOCreat).ok());

  // Second install claims open of anything read-only. The latch intersects:
  // only the conjunction (in /tmp AND read-only, or /etc/motd read-only)
  // survives.
  SeccompFilter::Spec narrower;
  for (Sysno nr : {Sysno::kOpen, Sysno::kRead, Sysno::kClose, Sysno::kGetPid,
                   Sysno::kSeccomp}) {
    narrower.allowed.set(static_cast<size_t>(nr));
  }
  narrower.rules[static_cast<uint16_t>(Sysno::kOpen)] = {
      {{{1, SeccompCmp::kMaskedEq, static_cast<uint64_t>(kORdOnly),
         static_cast<uint64_t>(kOAccMode)}}}};
  ASSERT_TRUE(kernel_.SeccompSetFilterSpec(alice, narrower).ok());

  EXPECT_TRUE(kernel_.Open(alice, "/tmp/a", kORdOnly).ok());
  EXPECT_EQ(kernel_.Open(alice, "/tmp/b", kOWrOnly | kOCreat).code(), Errno::kEPERM);
  // write was dropped from the second allow-list: gone despite rules on the
  // first install.
  EXPECT_EQ(kernel_.Write(alice, 0, "x").code(), Errno::kEPERM);
}

TEST_F(SyscallGateTest, IntersectionRuleExplosionFailsClosed) {
  // Two 9-rule disjunctions over DIFFERENT argument slots cross-multiply to
  // 81 satisfiable conjunctions > kMaxRulesPerSysno (64) — the latch must
  // deny the syscall outright rather than silently truncate the rule list.
  // (Same-slot eq rules would be pruned as contradictions and stay small.)
  auto many_rules = [](uint8_t arg) {
    SeccompFilter::Spec spec;
    spec.allowed.set(static_cast<size_t>(Sysno::kIoctl));
    spec.allowed.set(static_cast<size_t>(Sysno::kSeccomp));
    spec.allowed.set(static_cast<size_t>(Sysno::kGetPid));
    std::vector<SeccompRule> rules;
    for (uint64_t i = 0; i < 9; ++i) {
      rules.push_back({{{arg, SeccompCmp::kEq, i, 0}}});
    }
    spec.rules[static_cast<uint16_t>(Sysno::kIoctl)] = rules;
    return spec;
  };
  Task& alice = User(1000);
  ASSERT_TRUE(kernel_.SeccompSetFilterSpec(alice, many_rules(0)).ok());
  ASSERT_TRUE(kernel_.SeccompSetFilterSpec(alice, many_rules(1)).ok());
  // (arg0=4, arg1=4) would survive a true intersection, but the capped
  // cross product fails closed.
  EXPECT_EQ(kernel_.Ioctl(alice, 4, 4, "").code(), Errno::kEPERM);
  EXPECT_EQ(kernel_.GetPid(alice), alice.pid);  // untouched syscalls still work
}

TEST_F(SyscallGateTest, PredicateFilterInheritedAcrossSpawn) {
  ASSERT_TRUE(kernel_
                  .InstallBinary("/bin/probe", 0755, kRootUid, kRootGid,
                                 [](ProcessContext& ctx) -> int {
                                   // Inherited predicates: /tmp writable,
                                   // everything else EPERM at the gate.
                                   auto ok = ctx.kernel.Open(ctx.task, "/tmp/child",
                                                             kOWrOnly | kOCreat);
                                   auto denied =
                                       ctx.kernel.Open(ctx.task, "/etc/secret", kORdOnly);
                                   return ok.ok() && denied.code() == Errno::kEPERM ? 42 : 0;
                                 })
                  .ok());
  Task& alice = User(1000);
  ASSERT_TRUE(kernel_.SeccompSetFilterSpec(alice, PredicateSpec()).ok());
  auto status = kernel_.Spawn(alice, "/bin/probe", {"probe"}, {});
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status.value(), 42);
}

TEST_F(SyscallGateTest, RegisteredBinaryFilterReplacesOnExec) {
  // Exec into a registered binary REPLACES the task's filter (AppArmor-style
  // profile transition) — the latch only governs self-installs. The probe
  // can open /etc/motd even though the parent's filter cannot, and the
  // parent's own filter is untouched afterwards.
  (void)kernel_.vfs().CreateFile("/etc/motd", 0644, kRootUid, kRootGid, "hi");
  SeccompFilter::Spec probe_spec;
  for (Sysno nr : {Sysno::kOpen, Sysno::kRead, Sysno::kClose}) {
    probe_spec.allowed.set(static_cast<size_t>(nr));
  }
  auto probe_filter = SeccompFilter::FromSpec(probe_spec);
  ASSERT_TRUE(probe_filter.ok());
  kernel_.RegisterBinaryFilter("/bin/probe", probe_filter.value());
  ASSERT_TRUE(kernel_
                  .InstallBinary("/bin/probe", 0755, kRootUid, kRootGid,
                                 [](ProcessContext& ctx) -> int {
                                   auto open = ctx.kernel.Open(ctx.task, "/etc/motd",
                                                               kORdOnly);
                                   auto sock = ctx.kernel.SocketCall(ctx.task, kAfInet,
                                                                     kSockStream, 0);
                                   return open.ok() && sock.code() == Errno::kEPERM ? 42
                                                                                    : 0;
                                 })
                  .ok());
  Task& alice = User(1000);
  SeccompFilter::Spec parent_spec = PredicateSpec();  // denies /etc/motd rw, no socket
  ASSERT_TRUE(kernel_.SeccompSetFilterSpec(alice, parent_spec).ok());
  auto status = kernel_.Spawn(alice, "/bin/probe", {"probe"}, {});
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status.value(), 42);
  // Parent still constrained by its own (unreplaced) filter.
  EXPECT_EQ(kernel_.Open(alice, "/etc/motd", kORdWr).code(), Errno::kEPERM);
  EXPECT_TRUE(kernel_.Open(alice, "/tmp/parent", kOWrOnly | kOCreat).ok());
}

TEST_F(SyscallGateTest, PathClassesDecideOnTheCanonicalPath) {
  // A string check at entry let three paths through that end outside both
  // classes: ".." out of /tmp, the sibling /tmpx, and a symlink in /tmp.
  (void)kernel_.vfs().CreateFile("/etc/motd", 0644, kRootUid, kRootGid, "hi");
  (void)kernel_.vfs().CreateFile("/etc/public", 0644, kRootUid, kRootGid, "pub");
  (void)kernel_.vfs().EnsureDirs("/tmpx");
  (void)kernel_.vfs().CreateFile("/tmpx/f", 0644, kRootUid, kRootGid, "x");
  (void)kernel_.vfs().CreateSymlink("/tmp/ln", "/etc/public", kRootUid, kRootGid);
  for (const char* tmp_entry : {"/tmp", "/tmp/"}) {
    SeccompFilter::Spec spec = PredicateSpec();
    spec.path_classes = {{tmp_entry, 1}, {"/etc/motd", 2}};
    Task& alice = User(1000);
    ASSERT_TRUE(kernel_.SeccompSetFilterSpec(alice, spec).ok());
    const uint64_t denied = kernel_.syscalls().stats(Sysno::kOpen).seccomp_denied;
    const int spy_before = spy_->inode_permission_calls;
    for (const char* escape : {"/tmp/../etc/public", "/tmpx/f", "/tmp/ln"}) {
      EXPECT_EQ(kernel_.Open(alice, escape, kORdOnly).code(), Errno::kEPERM)
          << tmp_entry << " admitted " << escape;
    }
    EXPECT_EQ(kernel_.syscalls().stats(Sysno::kOpen).seccomp_denied, denied + 3);
    EXPECT_EQ(spy_->inode_permission_calls.load(), spy_before);
    EXPECT_TRUE(kernel_.Open(alice, "/etc/motd", kORdOnly).ok());
  }
  // The directory form admits what lies beneath /tmp, however it is named;
  // a relative path is classified after the walk from the cwd.
  SeccompFilter::Spec spec = PredicateSpec();
  Task& bob = User(1001);
  bob.cwd = "/tmp";
  ASSERT_TRUE(kernel_.SeccompSetFilterSpec(bob, spec).ok());
  EXPECT_TRUE(kernel_.Open(bob, "/etc/../tmp/a", kOWrOnly | kOCreat).ok());
  EXPECT_TRUE(kernel_.Open(bob, "b", kOWrOnly | kOCreat).ok());
  EXPECT_EQ(kernel_.Open(bob, "ln", kORdOnly).code(), Errno::kEPERM);
  EXPECT_EQ(kernel_.Open(bob, "../etc/public", kORdOnly).code(), Errno::kEPERM);
}

TEST(SeccompPredicateTest, ClassesMatchWholeComponents) {
  const std::vector<std::pair<std::string, uint64_t>> classes = {
      {"/tmp/", 1}, {"/tmp/a", 2}, {"/tmp/a/", 3}, {"/etc/motd", 4}};
  EXPECT_EQ(PathClassOf(classes, "/tmp/x"), 1u);
  EXPECT_EQ(PathClassOf(classes, "/tmp/x/y"), 1u);
  EXPECT_EQ(PathClassOf(classes, "/tmp"), 0u);    // the directory itself is not beneath it
  EXPECT_EQ(PathClassOf(classes, "/tmpx/f"), 0u);  // a sibling shares only bytes
  EXPECT_EQ(PathClassOf(classes, "/tmp/a"), 2u);   // exact beats the directory entry
  EXPECT_EQ(PathClassOf(classes, "/tmp/ab"), 1u);
  EXPECT_EQ(PathClassOf(classes, "/tmp/a/b"), 3u);  // the deeper directory wins
  EXPECT_EQ(PathClassOf(classes, "/etc/motd"), 4u);
  EXPECT_EQ(PathClassOf(classes, "/etc/motd.d/x"), 0u);
  EXPECT_EQ(PathClassOf({{"/", 9}}, "/anything"), 9u);
}

TEST(SeccompPredicateTest, FromSpecRejectsNonCanonicalEntries) {
  for (const char* entry : {"tmp", "", "/tmp//x", "/tmp/./x", "/tmp/..", "/tmp/x//", "/a/../b"}) {
    SeccompFilter::Spec spec = PredicateSpec();
    spec.path_classes = {{entry, 1}, {"/etc/motd", 2}};
    EXPECT_EQ(SeccompFilter::FromSpec(spec).code(), Errno::kEINVAL) << entry;
  }
  for (const char* entry : {"/", "/tmp", "/tmp/", "/a/b.c/d"}) {
    SeccompFilter::Spec spec = PredicateSpec();
    spec.path_classes = {{entry, 1}, {"/etc/motd", 2}};
    EXPECT_TRUE(SeccompFilter::FromSpec(spec).ok()) << entry;
  }
  // A path predicate on a syscall that takes no path could never be decided.
  SeccompFilter::Spec spec = PredicateSpec();
  spec.rules[static_cast<uint16_t>(Sysno::kWrite)] = {{{{kSeccompArgPath, SeccompCmp::kEq, 1, 0}}}};
  EXPECT_EQ(SeccompFilter::FromSpec(spec).code(), Errno::kEINVAL);
}

TEST_F(SyscallGateTest, EveryPathSyscallIsRefusedAtItsWalk) {
  // Root, so nothing but the filter stands in the way of any of these.
  Task& root = kernel_.CreateTask("root", Cred::Root(), &terminal_);
  int runs = 0;
  ASSERT_TRUE(kernel_
                  .InstallBinary("/bin/true", 0755, kRootUid, kRootGid,
                                 [&runs](ProcessContext&) { return ++runs, 0; })
                  .ok());
  kernel_.RegisterFsType("tmpfs", [](const std::string&) -> Result<MountPopulator> {
    return MountPopulator();
  });
  (void)kernel_.vfs().CreateFile("/etc/public", 0644, kRootUid, kRootGid, "pub");
  (void)kernel_.vfs().CreateFile("/tmp/victim", 0644, kRootUid, kRootGid, "v");
  (void)kernel_.vfs().EnsureDirs("/mnt/point");
  (void)kernel_.vfs().EnsureDirs("/mnt/mounted");
  ASSERT_TRUE(kernel_.vfs().AddMount("/mnt/mounted", "none", "tmpfs", {}, 0, nullptr).ok());

  struct Case {
    Sysno nr;
    std::function<Errno()> call;
  };
  const std::vector<Case> cases = {
      {Sysno::kOpen, [&] { return kernel_.Open(root, "/etc/public", kORdOnly).code(); }},
      {Sysno::kStat, [&] { return kernel_.Stat(root, "/etc/public").code(); }},
      {Sysno::kAccess, [&] { return kernel_.Access(root, "/etc/public", kMayRead).code(); }},
      {Sysno::kGetDents, [&] { return kernel_.ReadDir(root, "/etc").code(); }},
      {Sysno::kUnlink, [&] { return kernel_.Unlink(root, "/tmp/victim").code(); }},
      {Sysno::kMkdir, [&] { return kernel_.Mkdir(root, "/tmp/newdir", 0755).code(); }},
      {Sysno::kChmod, [&] { return kernel_.Chmod(root, "/etc/public", 0600).code(); }},
      {Sysno::kChown, [&] { return kernel_.Chown(root, "/etc/public", 1000, 1000).code(); }},
      {Sysno::kRename, [&] { return kernel_.Rename(root, "/tmp/victim", "/tmp/moved").code(); }},
      {Sysno::kSymlink, [&] { return kernel_.Symlink(root, "/etc/public", "/tmp/ln").code(); }},
      {Sysno::kExecve, [&] { return kernel_.Execve(root, "/bin/true", {"true"}, {}).code(); }},
      {Sysno::kClone, [&] { return kernel_.Spawn(root, "/bin/true", {"true"}, {}).code(); }},
      {Sysno::kMount,
       [&] { return kernel_.Mount(root, "none", "/mnt/point", "tmpfs", {}).code(); }},
      {Sysno::kUmount2, [&] { return kernel_.Umount(root, "/mnt/mounted").code(); }},
  };
  // Every path-taking syscall is covered, each under a filter whose only
  // class excludes its target.
  size_t path_syscalls = 0;
  for (Sysno nr : AllSysnos()) {
    path_syscalls += SysnoTakesPath(nr) ? 1 : 0;
  }
  ASSERT_EQ(cases.size(), path_syscalls);
  for (const Case& c : cases) {
    ASSERT_TRUE(SysnoTakesPath(c.nr)) << SysnoName(c.nr);
    SeccompFilter::Spec spec;
    for (Sysno nr : AllSysnos()) {
      spec.allowed.set(static_cast<size_t>(nr));
    }
    spec.path_classes = {{"/nowhere/", 1}};
    spec.rules[static_cast<uint16_t>(c.nr)] = {{{{kSeccompArgPath, SeccompCmp::kEq, 1, 0}}}};
    auto filter = SeccompFilter::FromSpec(spec);
    ASSERT_TRUE(filter.ok()) << SysnoName(c.nr);
    root.seccomp = std::make_shared<const SeccompFilter>(filter.value());
    kernel_.syscalls().SetSyscallTimed(c.nr, true);
    const SyscallGate::PerSyscall before = kernel_.syscalls().stats(c.nr);
    const uint64_t hooks_before = kernel_.lsm().TotalHookInvocations();
    const int capable_before = spy_->capable_calls;
    kernel_.tracer().Clear();

    EXPECT_EQ(c.call(), Errno::kEPERM) << SysnoName(c.nr);

    const SyscallGate::PerSyscall after = kernel_.syscalls().stats(c.nr);
    EXPECT_EQ(after.calls, before.calls + 1) << SysnoName(c.nr);
    EXPECT_EQ(after.errors, before.errors + 1) << SysnoName(c.nr);
    EXPECT_EQ(after.seccomp_denied, before.seccomp_denied + 1) << SysnoName(c.nr);
    EXPECT_GT(after.rule_evals, before.rule_evals) << SysnoName(c.nr);
    EXPECT_EQ(after.lat_ns.count(), before.lat_ns.count()) << SysnoName(c.nr);
    EXPECT_EQ(kernel_.lsm().TotalHookInvocations(), hooks_before) << SysnoName(c.nr);
    EXPECT_EQ(spy_->capable_calls.load(), capable_before) << SysnoName(c.nr);
    auto trace = SyscallRoots(kernel_);
    ASSERT_FALSE(trace.empty()) << SysnoName(c.nr);
    EXPECT_EQ(static_cast<Sysno>(trace.back().a), c.nr);
    EXPECT_NE(trace.back().flags & kTraceFlagSeccompDenied, 0u) << SysnoName(c.nr);
    root.seccomp = nullptr;
  }
  // Nothing the refused calls named was touched.
  EXPECT_EQ(runs, 0);
  EXPECT_TRUE(kernel_.vfs().Resolve("/tmp/victim").ok());
  EXPECT_EQ(kernel_.vfs().Resolve("/tmp/newdir").code(), Errno::kENOENT);
  EXPECT_EQ(kernel_.vfs().Resolve("/tmp/ln").code(), Errno::kENOENT);
  EXPECT_EQ(kernel_.vfs().Resolve("/etc/public").value()->inode().Perms(), 0644u);
  EXPECT_FALSE(kernel_.vfs().FindMount("/mnt/point").has_value());
  EXPECT_TRUE(kernel_.vfs().FindMount("/mnt/mounted").has_value());
}

TEST_F(SyscallGateTest, PredicateEnforcementIsThreadSafeUnderRealThreads) {
  // kParallel-shaped regression: several tasks, each with the predicate
  // filter, hammer allowed and denied paths from real OS threads. Verdicts
  // must stay per-task correct (no cross-task filter bleed) and TSan-clean.
  std::vector<Task*> tasks;
  for (int t = 0; t < 4; ++t) {
    Task& task = User(1000 + t);
    ASSERT_TRUE(kernel_.SeccompSetFilterSpec(task, PredicateSpec()).ok());
    tasks.push_back(&task);
  }
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (Task* task : tasks) {
    threads.emplace_back([this, task, &wrong] {
      for (int i = 0; i < 200; ++i) {
        auto ok = kernel_.Open(*task, StrFormat("/tmp/t%d", task->pid), kOWrOnly | kOCreat);
        if (!ok.ok() && ok.code() != Errno::kEEXIST) {
          ++wrong;
        }
        if (ok.ok()) {
          (void)kernel_.Close(*task, ok.value());
        }
        if (kernel_.Open(*task, "/etc/secret", kORdOnly).code() != Errno::kEPERM) {
          ++wrong;
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(wrong.load(), 0);
}

TEST(SyscallGateProcTest, StatsAndTraceExposedUnderProc) {
  SimSystem sim(SimMode::kProtego);
  Task& alice = sim.Login("alice");
  (void)sim.kernel().GetPid(alice);

  // The per-syscall counters are world-readable in the metrics file and
  // nonzero once anything ran.
  auto metrics = sim.kernel().ReadWholeFile(alice, "/proc/protego/metrics");
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics.value().find("protego_syscall_calls_total{syscall=\"getpid\"} 1\n"),
            std::string::npos);

  // The trace ring is root-only.
  EXPECT_EQ(sim.kernel().ReadWholeFile(alice, "/proc/protego/trace").code(), Errno::kEACCES);
  Task& root = sim.kernel().CreateTask("sh", Cred::Root(), alice.terminal);
  auto trace = sim.kernel().ReadWholeFile(root, "/proc/protego/trace");
  ASSERT_TRUE(trace.ok());
  EXPECT_NE(trace.value().find("getpid"), std::string::npos);

  // "clear" empties it; the next read shows only the syscalls of the read
  // path itself.
  ASSERT_TRUE(sim.kernel().WriteWholeFile(root, "/proc/protego/trace", "clear").ok());
  EXPECT_TRUE(SyscallRoots(sim.kernel()).size() < 10);
}

TEST(SyscallGateProcTest, SeccompFiltersExposedUnderProcWithPidFilter) {
  SimSystem sim(SimMode::kProtego);
  Task& alice = sim.Login("alice");
  Task& bob = sim.Login("bob");
  // Root-only (checked before either task carries a gate filter of its own).
  EXPECT_EQ(sim.kernel().ReadWholeFile(alice, "/proc/protego/seccomp").code(),
            Errno::kEACCES);
  SeccompFilter::Spec spec;
  for (Sysno nr : {Sysno::kRead, Sysno::kWrite, Sysno::kClose}) {
    spec.allowed.set(static_cast<size_t>(nr));
  }
  ASSERT_TRUE(sim.kernel().SeccompSetFilterSpec(alice, spec).ok());
  spec.allowed.set(static_cast<size_t>(Sysno::kGetPid));
  ASSERT_TRUE(sim.kernel().SeccompSetFilterSpec(bob, spec).ok());

  // One section per filtered task, rendered re-installable.
  Task& root = sim.kernel().CreateTask("sh", Cred::Root(), alice.terminal);
  auto all = sim.kernel().ReadWholeFile(root, "/proc/protego/seccomp");
  ASSERT_TRUE(all.ok());
  EXPECT_NE(all.value().find(StrFormat("# pid=%d", alice.pid)), std::string::npos);
  EXPECT_NE(all.value().find(StrFormat("# pid=%d", bob.pid)), std::string::npos);
  EXPECT_NE(all.value().find("allow read"), std::string::npos);

  // "?pid=N" narrows reads to one task; "?" clears the filter again.
  ASSERT_TRUE(sim.kernel()
                  .WriteWholeFile(root, "/proc/protego/seccomp",
                                  StrFormat("?pid=%d", alice.pid))
                  .ok());
  auto one = sim.kernel().ReadWholeFile(root, "/proc/protego/seccomp");
  ASSERT_TRUE(one.ok());
  EXPECT_NE(one.value().find(StrFormat("# pid=%d", alice.pid)), std::string::npos);
  EXPECT_EQ(one.value().find(StrFormat("# pid=%d", bob.pid)), std::string::npos);
  ASSERT_TRUE(sim.kernel().WriteWholeFile(root, "/proc/protego/seccomp", "?").ok());
  auto again = sim.kernel().ReadWholeFile(root, "/proc/protego/seccomp");
  ASSERT_TRUE(again.ok());
  EXPECT_NE(again.value().find(StrFormat("# pid=%d", bob.pid)), std::string::npos);

  // Junk writes are EINVAL and leave the read filter untouched.
  EXPECT_EQ(sim.kernel().WriteWholeFile(root, "/proc/protego/seccomp", "?pid=abc").code(),
            Errno::kEINVAL);
  EXPECT_EQ(sim.kernel().WriteWholeFile(root, "/proc/protego/seccomp", "gibberish").code(),
            Errno::kEINVAL);
}

TEST(SyscallGateSandboxTest, SandboxDropsSocketAfterSeccomp) {
  SimSystem sim(SimMode::kProtego);
  Task& alice = sim.Login("alice");
  auto run = sim.RunCapture(alice, "/usr/lib/chromium-sandbox", {"chromium-sandbox"});
  EXPECT_EQ(run.exit_code, 0);
  EXPECT_NE(run.out.find("seccomp filter installed"), std::string::npos);
  EXPECT_NE(run.out.find("socket after seccomp denied (EPERM)"), std::string::npos);
  // The denial shows up in the kernel's trace ring.
  bool traced = false;
  for (const TraceEvent& ev : SyscallRoots(sim.kernel())) {
    if (static_cast<Sysno>(ev.a) == Sysno::kSocket &&
        (ev.flags & kTraceFlagSeccompDenied) != 0) {
      traced = true;
    }
  }
  EXPECT_TRUE(traced);
}

}  // namespace
}  // namespace protego
