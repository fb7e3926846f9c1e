// Tracepoint subsystem tests: ring wraparound boundaries, decision-span
// integrity across a wrap, what gates emission, read-side filters, the
// seccomp-killed trace/stats semantic, and the PR's acceptance criterion —
// a denied mount(2) must be explainable end-to-end from /proc/protego/trace.

#include "src/base/tracepoint.h"

#include "gtest/gtest.h"
#include "src/base/strings.h"
#include "src/kernel/kernel.h"
#include "src/lsm/capability_module.h"
#include "src/net/netfilter.h"
#include "src/protego/proc_iface.h"
#include "src/sim/system.h"

namespace protego {
namespace {

TEST(TracerTest, WraparoundAtExactCapacityAndBeyond) {
  Clock clock;
  Tracer tracer(&clock, 4);

  // Exactly capacity: nothing dropped, seqs 0..3 retained.
  for (int i = 0; i < 4; ++i) {
    tracer.Emit(TracepointId::kCapable, 1);
  }
  EXPECT_EQ(tracer.dropped(), 0u);
  auto snap = tracer.Snapshot();
  ASSERT_EQ(snap.size(), 4u);
  EXPECT_EQ(snap.front().seq, 0u);
  EXPECT_EQ(snap.back().seq, 3u);

  // Capacity + 1: exactly one dropped, oldest retained seq is 1.
  tracer.Emit(TracepointId::kCapable, 1);
  EXPECT_EQ(tracer.dropped(), 1u);
  snap = tracer.Snapshot();
  ASSERT_EQ(snap.size(), 4u);
  EXPECT_EQ(snap.front().seq, 1u);
  EXPECT_EQ(snap.back().seq, 4u);

  // Clear resets seq and dropped accounting.
  tracer.Clear();
  EXPECT_EQ(tracer.seq(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
  EXPECT_TRUE(tracer.Snapshot().empty());
  tracer.Emit(TracepointId::kCapable, 1);
  EXPECT_EQ(tracer.Snapshot().front().seq, 0u);
}

TEST(TracerTest, SpanTreeSurvivesRingWrap) {
  Clock clock;
  Tracer tracer(&clock, 4);

  uint64_t span = 0;
  {
    CallFrame frame(7, 165);
    tracer.OpenSpan(frame);
    span = frame.span;
    // Six children through a 4-slot ring: only the last three survive
    // alongside the root.
    for (int i = 0; i < 6; ++i) {
      TraceSlot ev = tracer.Emit(TracepointId::kLsmHook, 7);
      ev->sname = "sb_mount";
      ev->sdetail = "protego";
      ev->svalue = "deny";
    }
    // The root is emitted while its frame is still the innermost.
    TraceSlot root = tracer.Emit(TracepointId::kSyscall, 7);
    root->sname = "mount";
    root->code = static_cast<int>(Errno::kEPERM);
  }

  auto snap = tracer.Snapshot();
  ASSERT_EQ(snap.size(), 4u);
  EXPECT_EQ(snap.back().tp, TracepointId::kSyscall);
  EXPECT_EQ(snap.back().span, span);
  for (size_t i = 0; i + 1 < snap.size(); ++i) {
    EXPECT_EQ(snap[i].tp, TracepointId::kLsmHook);
    EXPECT_EQ(snap[i].span, span);
  }

  // The renderer still builds the tree: root line + indented children,
  // no orphan markers, and the overwritten events show up as dropped.
  std::string text = tracer.Format();
  EXPECT_NE(text.find("mount() = -1 EPERM"), std::string::npos);
  EXPECT_NE(text.find("\n  "), std::string::npos);
  EXPECT_NE(text.find("lsm:sb_mount module=protego -> deny"), std::string::npos);
  EXPECT_EQ(text.find("[orphan"), std::string::npos);
  EXPECT_NE(text.find("# dropped: 3"), std::string::npos);
}

TEST(TracerTest, EventsOfStillOpenSpanRenderAsOrphans) {
  Clock clock;
  Tracer tracer(&clock, 8);
  CallFrame frame(3, 165);
  tracer.OpenSpan(frame);
  tracer.Emit(TracepointId::kCapable, 3)->sname = "CAP_SYS_ADMIN";
  // Span never rooted (as when /proc/protego/trace is read from inside the
  // reading syscall's own span): the child renders standalone, marked.
  std::string text = tracer.Format();
  EXPECT_NE(text.find("capable CAP_SYS_ADMIN -> denied"), std::string::npos);
  EXPECT_NE(text.find("[orphan span="), std::string::npos);
}

// What gates emission: the master switch, then the call frame — an untraced
// call mutes the span-scoped points inside it, never the ambient ones.
TEST(TracerTest, EnableBitsGateEmission) {
  Clock clock;
  Tracer tracer(&clock, 8);
  EXPECT_TRUE(tracer.Enabled(TracepointId::kNetfilter));
  {
    CallFrame untraced(3, 4);
    EXPECT_FALSE(tracer.Enabled(TracepointId::kNetfilter));
    EXPECT_TRUE(tracer.Enabled(TracepointId::kContextSwitch));
    EXPECT_TRUE(tracer.Enabled(TracepointId::kFaultInject));
    {
      CallFrame traced(3, 2);
      tracer.OpenSpan(traced);
      EXPECT_TRUE(tracer.Enabled(TracepointId::kNetfilter));
    }
    EXPECT_FALSE(tracer.Enabled(TracepointId::kNetfilter));
  }
  tracer.set_enabled(false);
  EXPECT_FALSE(tracer.Enabled(TracepointId::kSyscall));
  EXPECT_FALSE(tracer.Enabled(TracepointId::kContextSwitch));
  tracer.set_enabled(true);
  EXPECT_TRUE(tracer.Enabled(TracepointId::kNetfilter));
}

TEST(TracerTest, NetfilterEmitsVerdictEvents) {
  Clock clock;
  Tracer tracer(&clock, 16);
  GraceDomain grace;
  Netfilter nf(grace);
  nf.set_tracer(&tracer);

  NfRule rule;
  rule.chain = NfChain::kOutput;
  rule.match.from_raw_socket = true;
  rule.verdict = NfVerdict::kDrop;
  rule.comment = "drop-raw";
  nf.Append(rule);

  Packet raw;
  raw.from_raw_socket = true;
  EXPECT_EQ(nf.Evaluate(NfChain::kOutput, raw), NfVerdict::kDrop);
  Packet plain;
  EXPECT_EQ(nf.Evaluate(NfChain::kOutput, plain), NfVerdict::kAccept);

  std::string text = tracer.Format();
  EXPECT_NE(text.find("netfilter chain=OUTPUT -> DROP rule=\"drop-raw\""), std::string::npos);
  EXPECT_NE(text.find("netfilter chain=OUTPUT -> ACCEPT rule=\"(default policy)\""),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Gate-level tests on a bare kernel.

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

class TracepointGateTest : public ::testing::Test {
 protected:
  TracepointGateTest() {
    kernel_.lsm().Register(std::make_unique<CapabilityModule>());
    (void)kernel_.vfs().EnsureDirs("/tmp");
    kernel_.vfs().Resolve("/tmp").value()->inode().mode = kIfDir | 01777;
    root_ = &kernel_.CreateTask("sh", Cred::Root(), nullptr, 1);
    alice_ = &kernel_.CreateTask("sh", Cred::ForUser(1000, 1000), nullptr, 1);
  }

  Kernel kernel_;
  Task* root_ = nullptr;
  Task* alice_ = nullptr;
};

TEST_F(TracepointGateTest, GateRingWraparoundBoundaries) {
  kernel_.tracer().Clear();
  constexpr size_t kCap = SyscallGate::kTraceCapacity;
  for (size_t i = 0; i < kCap; ++i) {
    kernel_.GetPid(*alice_);
  }
  EXPECT_EQ(kernel_.tracer().dropped(), 0u);
  EXPECT_EQ(SyscallRoots(kernel_).size(), kCap);

  kernel_.GetPid(*alice_);
  EXPECT_EQ(kernel_.tracer().dropped(), 1u);
  auto snap = SyscallRoots(kernel_);
  ASSERT_EQ(snap.size(), kCap);
  EXPECT_EQ(snap.front().seq, 1u);

  kernel_.tracer().Clear();
  EXPECT_EQ(kernel_.tracer().dropped(), 0u);
  EXPECT_TRUE(SyscallRoots(kernel_).empty());
  // Spans keep working after a clear.
  kernel_.GetPid(*alice_);
  snap = SyscallRoots(kernel_);
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap.front().seq, 0u);
}

TEST_F(TracepointGateTest, SeccompKilledCallsFollowTheDocumentedSemantic) {
  ASSERT_TRUE(kernel_.SeccompSetFilter(*alice_, {Sysno::kGetPid, Sysno::kSeccomp}).ok());
  kernel_.tracer().Clear();
  kernel_.syscalls().SetAllSyscallsTimed(true);

  kernel_.GetPid(*alice_);
  auto denied = kernel_.SocketCall(*alice_, kAfInet, kSockStream, 0);
  EXPECT_EQ(denied.code(), Errno::kEPERM);

  // Stats: counted in calls, errors, and seccomp_denied...
  const SyscallGate::PerSyscall& s = kernel_.syscalls().stats(Sysno::kSocket);
  EXPECT_EQ(s.calls, 1u);
  EXPECT_EQ(s.errors, 1u);
  EXPECT_EQ(s.seccomp_denied, 1u);
  // ...but EXCLUDED from the latency distribution (the body never ran).
  EXPECT_EQ(s.lat_ns.count(), s.calls - s.seccomp_denied);
  EXPECT_EQ(s.lat_ns.sum(), 0u);
  EXPECT_TRUE(kernel_.syscalls().ExemplarsFor(Sysno::kSocket).empty());

  // Trace: a span root with the seccomp flag and EPERM — stats and trace
  // agree on the count.
  size_t traced_denials = 0;
  for (const TraceEvent& ev : SyscallRoots(kernel_)) {
    if (static_cast<Sysno>(ev.a) == Sysno::kSocket &&
        (ev.flags & kTraceFlagSeccompDenied) != 0) {
      EXPECT_EQ(static_cast<Errno>(ev.code), Errno::kEPERM);
      ++traced_denials;
    }
  }
  EXPECT_EQ(traced_denials, s.seccomp_denied);

  // The invariant holds for permitted syscalls too.
  const SyscallGate::PerSyscall& g = kernel_.syscalls().stats(Sysno::kGetPid);
  EXPECT_EQ(g.lat_ns.count(), g.calls - g.seccomp_denied);
  EXPECT_GT(g.lat_ns.count(), 0u);
  EXPECT_NE(kernel_.tracer().Format().find("(seccomp)"), std::string::npos);
}

TEST_F(TracepointGateTest, CredChangeAndCapableEventsAppearUnderTheSpan) {
  kernel_.tracer().Clear();
  ASSERT_TRUE(kernel_.Setuid(*root_, 1000).ok());
  std::string text = kernel_.tracer().Format();
  EXPECT_NE(text.find("setuid(1000) = 0"), std::string::npos);
  EXPECT_NE(text.find("capable CAP_SETUID -> granted"), std::string::npos);
  EXPECT_NE(text.find("cred:setuid pid="), std::string::npos);
  EXPECT_NE(text.find("uid 0->1000 euid 0->1000"), std::string::npos);
  // The capable + cred events are indented under the setuid root.
  EXPECT_NE(text.find("\n  "), std::string::npos);
}

TEST_F(TracepointGateTest, ReadFiltersSelectPidSyscallAndSpan) {
  kernel_.tracer().Clear();
  kernel_.GetPid(*alice_);
  kernel_.GetPid(*root_);
  ASSERT_TRUE(kernel_.Open(*root_, "/tmp/f", kOWrOnly | kOCreat).ok());

  Tracer& tracer = kernel_.tracer();

  // pid filter: only alice's getpid remains.
  auto f = ParseTraceQuery(StrFormat("?pid=%d", alice_->pid));
  ASSERT_TRUE(f.ok());
  tracer.set_read_filter(f.value());
  std::string text = kernel_.tracer().Format();
  EXPECT_NE(text.find(StrFormat("pid=%d", alice_->pid)), std::string::npos);
  EXPECT_EQ(text.find(StrFormat("pid=%d", root_->pid)), std::string::npos);
  EXPECT_NE(text.find("# filter:"), std::string::npos);

  // syscall filter: only open roots remain.
  f = ParseTraceQuery("?syscall=open");
  ASSERT_TRUE(f.ok());
  tracer.set_read_filter(f.value());
  text = kernel_.tracer().Format();
  EXPECT_NE(text.find(" open("), std::string::npos);
  EXPECT_EQ(text.find(" getpid("), std::string::npos);

  // span filter: exactly one tree.
  auto snap = tracer.Snapshot();
  uint64_t open_span = 0;
  for (const auto& ev : snap) {
    if (ev.tp == TracepointId::kSyscall && std::string(ev.sname) == "open") {
      open_span = ev.span;
    }
  }
  ASSERT_NE(open_span, 0u);
  f = ParseTraceQuery(StrFormat("?span=%llu", (unsigned long long)open_span));
  ASSERT_TRUE(f.ok());
  tracer.set_read_filter(f.value());
  text = kernel_.tracer().Format();
  EXPECT_NE(text.find(" open("), std::string::npos);
  EXPECT_EQ(text.find(" getpid("), std::string::npos);

  // "?" resets; unfiltered output shows everything again, no trailer.
  f = ParseTraceQuery("?");
  ASSERT_TRUE(f.ok());
  tracer.set_read_filter(f.value());
  text = kernel_.tracer().Format();
  EXPECT_NE(text.find(" getpid("), std::string::npos);
  EXPECT_EQ(text.find("# filter:"), std::string::npos);

  // Malformed queries are EINVAL.
  EXPECT_EQ(ParseTraceQuery("?bogus=1").code(), Errno::kEINVAL);
  EXPECT_EQ(ParseTraceQuery("?pid=abc").code(), Errno::kEINVAL);
  EXPECT_EQ(ParseTraceQuery("pid=1").code(), Errno::kEINVAL);
}

// ---------------------------------------------------------------------------
// The acceptance criterion: one denied mount(2), explained end-to-end.

TEST(TracepointSimTest, DeniedMountIsExplainableFromProcTrace) {
  SimSystem sys(SimMode::kProtego);
  Kernel& kernel = sys.kernel();
  Task& alice = sys.Login("alice");

  kernel.tracer().Clear();
  auto denied = kernel.Mount(alice, "/dev/sda1", "/mnt", "ext4", {});
  ASSERT_EQ(denied.code(), Errno::kEPERM);

  std::string text = kernel.tracer().Format();

  // The span root: the strace-shaped mount record producing the errno.
  size_t root_pos = text.find("mount(\"/dev/sda1\", \"/mnt\", \"ext4\") = -1 EPERM");
  ASSERT_NE(root_pos, std::string::npos) << text;

  // Under it, in order: each LSM module's verdict for sb_mount, then the
  // stack's combined decision.
  size_t hook_pos = text.find("  ", root_pos);
  ASSERT_NE(hook_pos, std::string::npos);
  size_t module_pos = text.find("lsm:sb_mount module=", root_pos);
  size_t decision_pos = text.find("lsm:sb_mount verdict=", root_pos);
  ASSERT_NE(module_pos, std::string::npos) << text;
  ASSERT_NE(decision_pos, std::string::npos) << text;
  EXPECT_LT(module_pos, decision_pos);
}

// The line a rendered trace line sits under: the nearest earlier line with
// less indentation ("" for a top-level line).
std::string ParentLine(const std::string& text, const std::string& needle) {
  std::vector<std::string> lines = Split(text, '\n');
  auto depth = [](const std::string& line) { return line.find_first_not_of(' '); };
  for (size_t i = 0; i < lines.size(); ++i) {
    if (lines[i].find(needle) == std::string::npos) {
      continue;
    }
    for (size_t j = i; j-- > 0;) {
      if (depth(lines[j]) < depth(lines[i])) {
        return lines[j];
      }
    }
    return "";
  }
  ADD_FAILURE() << "no line contains " << needle << " in\n" << text;
  return "";
}

// Netfilter verdicts carry no pid (pid 0): they nest under the sendto whose
// packet they judged because each event takes the span of the call running
// on the emitting thread.
TEST(TracepointSimTest, PingNetfilterVerdictsRenderBeneathSendto) {
  SimSystem sys(SimMode::kProtego);
  Task& alice = sys.Login("alice");
  sys.kernel().tracer().Clear();
  ASSERT_EQ(sys.Run(alice, "/bin/ping", {"ping", "10.0.0.2", "1"}).value_or(-1), 0);
  std::string text = sys.kernel().tracer().Format();
  EXPECT_NE(ParentLine(text, "netfilter chain=OUTPUT -> ACCEPT").find(" sendto("),
            std::string::npos)
      << text;
  EXPECT_NE(ParentLine(text, "netfilter chain=INPUT -> ").find(" sendto("), std::string::npos)
      << text;
}

// Likewise the mount table's vfs:mount event renders beneath the mount(2)
// root that changed the table.
TEST(TracepointSimTest, UserMountEventRendersBeneathMount) {
  SimSystem sys(SimMode::kProtego);
  Task& alice = sys.Login("alice");
  sys.kernel().tracer().Clear();
  ASSERT_EQ(sys.Run(alice, "/bin/mount", {"mount", "/dev/cdrom"}).value_or(-1), 0);
  std::string text = sys.kernel().tracer().Format();
  EXPECT_NE(ParentLine(text, "vfs:mount /dev/cdrom on /media/cdrom").find(" mount(\""),
            std::string::npos)
      << text;
}

// Regression: with only mount traced (the control-plane set), each untraced
// open still emitted one orphan lsm_hook event per module — the per-module
// guard ignored the thread mute that every other span-scoped point honours.
TEST(TracepointSimTest, UntracedSyscallEmitsNoLsmHookEvents) {
  SimSystem sys(SimMode::kProtego);
  Kernel& kernel = sys.kernel();
  Task& alice = sys.Login("alice");
  kernel.syscalls().SetAllSyscallsTraced(false);
  kernel.syscalls().SetSyscallTraced(Sysno::kMount, true);

  kernel.tracer().Clear();
  for (int i = 0; i < 4; ++i) {
    auto fd = kernel.Open(alice, "/etc/passwd", kORdOnly);
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(kernel.Close(alice, fd.value()).ok());
  }
  for (const TraceEvent& ev : kernel.tracer().Snapshot()) {
    EXPECT_NE(ev.tp, TracepointId::kLsmHook) << kernel.tracer().Format();
  }

  ASSERT_EQ(kernel.Mount(alice, "/dev/sda1", "/mnt", "ext4", {}).code(), Errno::kEPERM);
  std::string text = kernel.tracer().Format();
  EXPECT_NE(text.find("lsm:sb_mount module=protego -> "), std::string::npos) << text;
  EXPECT_EQ(text.find("[orphan"), std::string::npos) << text;
}

// Proc-level plumbing for the trace control file.
TEST(TracepointSimTest, ProcTraceWritesControlFilterAndToggle) {
  SimSystem sys(SimMode::kProtego);
  Kernel& kernel = sys.kernel();

  ASSERT_TRUE(kernel.vfs().WriteFile("/proc/protego/trace", "?pid=42&syscall=mount").ok());
  EXPECT_EQ(kernel.tracer().read_filter().pid, 42);
  EXPECT_EQ(kernel.tracer().read_filter().syscall, "mount");

  ASSERT_TRUE(kernel.vfs().WriteFile("/proc/protego/trace", "?").ok());
  EXPECT_FALSE(kernel.tracer().read_filter().active());

  EXPECT_FALSE(kernel.vfs().WriteFile("/proc/protego/trace", "?junk=1").ok());
  EXPECT_FALSE(kernel.vfs().WriteFile("/proc/protego/trace", "garbage").ok());

  ASSERT_TRUE(kernel.vfs().WriteFile("/proc/protego/trace", "off").ok());
  EXPECT_FALSE(kernel.tracer().enabled());
  ASSERT_TRUE(kernel.vfs().WriteFile("/proc/protego/trace", "on").ok());
  EXPECT_TRUE(kernel.tracer().enabled());
}

}  // namespace
}  // namespace protego
