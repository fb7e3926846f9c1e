// The fault-injection framework, resource-limit enforcement, and graceful
// degradation contracts: deterministic injection, every real exhaustion
// errno (EMFILE/ENFILE/ENOSPC/ENOMEM) reachable with the right string,
// proc-write atomicity, utilities failing cleanly under injected EIO,
// transactional policy-swap rollback, and the full error-path sweep.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/protego/proc_iface.h"
#include "src/sim/system.h"
#include "src/study/fault_sweep.h"
#include "src/vfs/types.h"

namespace protego {
namespace {

FaultConfig AlwaysFault(Errno e, uint64_t times = 0) {
  FaultConfig cfg;
  cfg.enabled = true;
  cfg.error = e;
  cfg.times = times;
  return cfg;
}

// --- Registry semantics -------------------------------------------------------

TEST(FaultRegistry, DisabledRegistryInjectsNothing) {
  FaultRegistry faults;
  EXPECT_FALSE(faults.any_enabled());
  for (size_t i = 0; i < kFaultSiteCount; ++i) {
    EXPECT_EQ(faults.Evaluate(static_cast<FaultSite>(i)), Errno::kOk);
  }
  EXPECT_EQ(faults.total_injected(), 0u);
}

TEST(FaultRegistry, ConfigureValidates) {
  FaultRegistry faults;
  FaultConfig cfg = AlwaysFault(Errno::kEIO);
  cfg.prob_den = 0;
  EXPECT_EQ(faults.Configure(FaultSite::kFdAlloc, cfg).error().code(), Errno::kEINVAL);
  cfg = AlwaysFault(Errno::kEIO);
  cfg.prob_num = 3;
  cfg.prob_den = 2;
  EXPECT_EQ(faults.Configure(FaultSite::kFdAlloc, cfg).error().code(), Errno::kEINVAL);
  cfg = AlwaysFault(Errno::kEIO);
  cfg.interval = 0;
  EXPECT_EQ(faults.Configure(FaultSite::kFdAlloc, cfg).error().code(), Errno::kEINVAL);
  cfg = AlwaysFault(Errno::kOk);
  EXPECT_EQ(faults.Configure(FaultSite::kFdAlloc, cfg).error().code(), Errno::kEINVAL);
  EXPECT_FALSE(faults.any_enabled());
}

TEST(FaultRegistry, IntervalAndTimesAreExact) {
  FaultRegistry faults;
  FaultConfig cfg = AlwaysFault(Errno::kEIO, /*times=*/2);
  cfg.interval = 3;  // every 3rd matching evaluation
  ASSERT_TRUE(faults.Configure(FaultSite::kFdAlloc, cfg).ok());
  std::vector<int> injected_at;
  for (int i = 1; i <= 12; ++i) {
    if (faults.Evaluate(FaultSite::kFdAlloc) != Errno::kOk) {
      injected_at.push_back(i);
    }
  }
  EXPECT_EQ(injected_at, (std::vector<int>{3, 6}));  // times=2 caps it
  EXPECT_EQ(faults.injected(FaultSite::kFdAlloc), 2u);
  EXPECT_EQ(faults.evaluations(FaultSite::kFdAlloc), 12u);
}

TEST(FaultRegistry, ProbabilisticStreamIsSeedDeterministic) {
  auto pattern = [](uint64_t seed) {
    FaultRegistry faults;
    FaultConfig cfg = AlwaysFault(Errno::kEIO);
    cfg.prob_num = 1;
    cfg.prob_den = 3;
    cfg.seed = seed;
    EXPECT_TRUE(faults.Configure(FaultSite::kLsmHook, cfg).ok());
    std::string bits;
    for (int i = 0; i < 64; ++i) {
      bits += faults.Evaluate(FaultSite::kLsmHook) == Errno::kOk ? '0' : '1';
    }
    return bits;
  };
  std::string a = pattern(42);
  EXPECT_EQ(a, pattern(42)) << "same seed must replay the identical stream";
  EXPECT_NE(a, pattern(43)) << "different seeds should diverge";
  EXPECT_NE(a.find('1'), std::string::npos);
  EXPECT_NE(a.find('0'), std::string::npos);
}

TEST(FaultRegistry, PidAndSysnoFiltersGate) {
  FaultRegistry faults;
  FaultConfig cfg = AlwaysFault(Errno::kEIO);
  cfg.pid = 7;
  cfg.sysno = 2;
  ASSERT_TRUE(faults.Configure(FaultSite::kSyscallEntry, cfg).ok());
  faults.SwapContext(FaultContext{6, 2});
  EXPECT_EQ(faults.Evaluate(FaultSite::kSyscallEntry), Errno::kOk);
  faults.SwapContext(FaultContext{7, 3});
  EXPECT_EQ(faults.Evaluate(FaultSite::kSyscallEntry), Errno::kOk);
  faults.SwapContext(FaultContext{7, 2});
  EXPECT_EQ(faults.Evaluate(FaultSite::kSyscallEntry), Errno::kEIO);
}

// --- Directive grammar --------------------------------------------------------

TEST(FaultDirectives, ParsesFullDirective) {
  auto parsed = ParseFaultDirectives(
      "# comment\n"
      "site=lsm_hook error=EIO prob=1/4 interval=2 times=5 pid=9 syscall=mount "
      "hook=sb_mount seed=77\n");
  ASSERT_TRUE(parsed.ok()) << parsed.error().ToString();
  ASSERT_EQ(parsed.value().size(), 1u);
  const FaultDirective& d = parsed.value()[0];
  EXPECT_EQ(d.kind, FaultDirective::Kind::kConfigure);
  EXPECT_EQ(d.site, FaultSite::kLsmHook);
  EXPECT_EQ(d.config.error, Errno::kEIO);
  EXPECT_EQ(d.config.prob_num, 1u);
  EXPECT_EQ(d.config.prob_den, 4u);
  EXPECT_EQ(d.config.interval, 2u);
  EXPECT_EQ(d.config.times, 5u);
  EXPECT_EQ(d.config.pid, 9);
  EXPECT_GE(d.config.sysno, 0);
  EXPECT_EQ(d.config.hook, 1);  // sb_mount
  EXPECT_EQ(d.config.seed, 77u);
}

TEST(FaultDirectives, RejectsMalformedLines) {
  for (const char* bad :
       {"site=nosuch error=EIO", "site=fd_alloc", "site=fd_alloc error=NOPE",
        "site=fd_alloc error=EIO prob=2/1", "site=fd_alloc error=EIO interval=0",
        "site=fd_alloc error=EIO syscall=frobnicate", "off", "reset now",
        "site=fd_alloc error=EIO bogus=1"}) {
    auto parsed = ParseFaultDirectives(bad);
    EXPECT_FALSE(parsed.ok()) << "accepted: " << bad;
    EXPECT_EQ(parsed.error().code(), Errno::kEINVAL) << bad;
  }
}

TEST(FaultDirectives, ReadBodyRewritesVerbatim) {
  // The control file's read side must be a valid write: snapshot-and-replay.
  FaultRegistry faults;
  FaultConfig cfg = AlwaysFault(Errno::kENOSPC, /*times=*/3);
  cfg.prob_num = 1;
  cfg.prob_den = 8;
  cfg.seed = 1234;
  cfg.sysno = 2;
  ASSERT_TRUE(faults.Configure(FaultSite::kVfsBlockAlloc, cfg).ok());
  std::string body = faults.Format();
  auto parsed = ParseFaultDirectives(body);
  ASSERT_TRUE(parsed.ok()) << body << parsed.error().ToString();
  ASSERT_EQ(parsed.value().size(), 1u);
  const FaultConfig& round = parsed.value()[0].config;
  EXPECT_EQ(round.error, Errno::kENOSPC);
  EXPECT_EQ(round.prob_num, 1u);
  EXPECT_EQ(round.prob_den, 8u);
  EXPECT_EQ(round.times, 3u);
  EXPECT_EQ(round.seed, 1234u);
  EXPECT_EQ(round.sysno, 2);
}

// --- Resource limits (satellite 1) -------------------------------------------

TEST(ResourceLimits, GetAndSetRlimitThroughGate) {
  SimSystem sys(SimMode::kProtego);
  Kernel& k = sys.kernel();
  Task& alice = sys.Login("alice");
  auto lim = k.GetRlimit(alice, Kernel::kRlimitNofile);
  ASSERT_TRUE(lim.ok());
  EXPECT_EQ(lim.value().cur, kDefaultNofileCur);
  EXPECT_EQ(lim.value().max, kDefaultNofileMax);
  EXPECT_EQ(k.GetRlimit(alice, 99).error().code(), Errno::kEINVAL);

  // Lowering is free; cur > max is EINVAL; raising max needs CAP_SYS_RESOURCE.
  EXPECT_TRUE(k.SetRlimit(alice, Kernel::kRlimitNofile, RLimit{16, 64}).ok());
  EXPECT_EQ(k.SetRlimit(alice, Kernel::kRlimitNofile, RLimit{65, 64}).error().code(),
            Errno::kEINVAL);
  EXPECT_EQ(k.SetRlimit(alice, Kernel::kRlimitNofile, RLimit{16, 128}).error().code(),
            Errno::kEPERM);
  Task& root = sys.Login("root");
  EXPECT_TRUE(k.SetRlimit(root, Kernel::kRlimitNofile, RLimit{512, 8192}).ok());
}

TEST(ResourceLimits, EmfileWhenPerTaskLimitExhausted) {
  SimSystem sys(SimMode::kProtego);
  Kernel& k = sys.kernel();
  Task& alice = sys.Login("alice");
  size_t base = alice.fds.size();
  ASSERT_TRUE(k.SetRlimit(alice, Kernel::kRlimitNofile, RLimit{base + 2, 64}).ok());
  auto fd1 = k.Open(alice, "/etc/passwd", kORdOnly);
  auto fd2 = k.Open(alice, "/etc/passwd", kORdOnly);
  ASSERT_TRUE(fd1.ok() && fd2.ok());
  auto fd3 = k.Open(alice, "/etc/passwd", kORdOnly);
  ASSERT_FALSE(fd3.ok());
  EXPECT_EQ(fd3.error().code(), Errno::kEMFILE);
  EXPECT_STREQ(ErrnoName(fd3.error().code()), "EMFILE");
  // Closing one slot frees the budget.
  ASSERT_TRUE(k.Close(alice, fd1.value()).ok());
  auto fd4 = k.Open(alice, "/etc/passwd", kORdOnly);
  EXPECT_TRUE(fd4.ok());
  (void)k.Close(alice, fd2.value());
  (void)k.Close(alice, fd4.value());
}

TEST(ResourceLimits, EnfileWhenSystemTableExhausted) {
  SimSystem sys(SimMode::kProtego);
  Kernel& k = sys.kernel();
  Task& alice = sys.Login("alice");
  k.set_file_max(k.OpenFileCount() + 1);
  auto fd1 = k.Open(alice, "/etc/passwd", kORdOnly);
  ASSERT_TRUE(fd1.ok());
  auto fd2 = k.Open(alice, "/etc/passwd", kORdOnly);
  ASSERT_FALSE(fd2.ok());
  EXPECT_EQ(fd2.error().code(), Errno::kENFILE);
  EXPECT_STREQ(ErrnoName(fd2.error().code()), "ENFILE");
  (void)k.Close(alice, fd1.value());
}

TEST(ResourceLimits, EnospcWhenBlockQuotaExhausted) {
  SimSystem sys(SimMode::kProtego);
  Kernel& k = sys.kernel();
  Task& alice = sys.Login("alice");
  k.vfs().set_block_quota(k.vfs().bytes_used() + 8);
  EXPECT_TRUE(k.WriteWholeFile(alice, "/tmp/small", "1234").ok());
  auto big = k.WriteWholeFile(alice, "/tmp/big", "this payload exceeds the quota");
  ASSERT_FALSE(big.ok());
  EXPECT_EQ(big.error().code(), Errno::kENOSPC);
  EXPECT_STREQ(ErrnoName(big.error().code()), "ENOSPC");
  // Shrinking a file releases charge: overwrite small with less data.
  EXPECT_TRUE(k.WriteWholeFile(alice, "/tmp/small", "12").ok());
  EXPECT_TRUE(k.vfs().AuditBlockAccounting().ok());
}

TEST(ResourceLimits, EnomemViaVnodeFaultSite) {
  SimSystem sys(SimMode::kProtego);
  Kernel& k = sys.kernel();
  Task& alice = sys.Login("alice");
  ASSERT_TRUE(
      k.faults().Configure(FaultSite::kVfsVnodeAlloc, AlwaysFault(Errno::kENOMEM, 1)).ok());
  auto fd = k.Open(alice, "/tmp/nofile", kOCreat | kOWrOnly, 0644);
  ASSERT_FALSE(fd.ok());
  EXPECT_EQ(fd.error().code(), Errno::kENOMEM);
  EXPECT_STREQ(ErrnoName(fd.error().code()), "ENOMEM");
  EXPECT_FALSE(k.vfs().Resolve("/tmp/nofile").ok());
}

TEST(ResourceLimits, RlimitInheritedAcrossForkKeptAcrossExec) {
  SimSystem sys(SimMode::kProtego);
  Kernel& k = sys.kernel();
  Task& alice = sys.Login("alice");
  ASSERT_TRUE(k.SetRlimit(alice, Kernel::kRlimitNofile, RLimit{32, 64}).ok());
  ASSERT_TRUE(k.InstallBinary("/usr/bin/limprobe", 0755, kRootUid, kRootGid,
                              [](ProcessContext& ctx) {
                                auto lim = ctx.kernel.GetRlimit(ctx.task,
                                                                Kernel::kRlimitNofile);
                                return lim.ok() ? static_cast<int>(lim.value().cur) : -1;
                              })
                  .ok());
  auto status = k.Spawn(alice, "/usr/bin/limprobe", {"limprobe"}, {});
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status.value(), 32);
}

// --- Proc-write atomicity (satellite 2) --------------------------------------

TEST(ProcAtomicity, FailedWritesLeaveEveryControlFileByteIdentical) {
  SimSystem sys(SimMode::kProtego);
  Kernel& k = sys.kernel();
  Task& root = sys.Login("root");
  struct Case {
    const char* file;
    const char* garbage;
  };
  for (const Case& c : std::vector<Case>{
           {"/proc/protego/mounts", "this is : not an fstab line at all"},
           {"/proc/protego/ports", "not-a-port /bin/x notauid"},
           {"/proc/protego/sudoers", "Totally_Bogus_Directive ???"},
           {"/proc/protego/userdb", "stray content before any section"},
           {"/proc/protego/fault_inject", "site=fd_alloc error=EIO\nsite=bogus error=EIO"},
       }) {
    std::string before = k.ReadWholeFile(root, c.file).value_or("<unreadable>");
    uint64_t gen_before = k.lsm().policy_generation();
    auto w = k.WriteWholeFile(root, c.file, c.garbage);
    ASSERT_FALSE(w.ok()) << c.file << " accepted garbage";
    EXPECT_EQ(w.error().code(), Errno::kEINVAL) << c.file;
    EXPECT_EQ(k.ReadWholeFile(root, c.file).value_or("<unreadable>"), before) << c.file;
    EXPECT_EQ(k.lsm().policy_generation(), gen_before) << c.file;
  }
  // The registry specifically: the partially-valid fault_inject write above
  // must not have enabled its valid first line.
  EXPECT_FALSE(k.faults().any_enabled());
}

TEST(ProcAtomicity, TraceFilterWriteRejectedWithoutSideEffects) {
  SimSystem sys(SimMode::kProtego);
  Kernel& k = sys.kernel();
  Task& root = sys.Login("root");
  ASSERT_TRUE(k.WriteWholeFile(root, "/proc/protego/trace", "?pid=42").ok());
  ASSERT_EQ(k.tracer().read_filter().pid, 42);
  auto w = k.WriteWholeFile(root, "/proc/protego/trace", "?pid=42&bogus=1");
  ASSERT_FALSE(w.ok());
  EXPECT_EQ(w.error().code(), Errno::kEINVAL);
  EXPECT_EQ(k.tracer().read_filter().pid, 42) << "failed write clobbered the filter";
  ASSERT_TRUE(k.WriteWholeFile(root, "/proc/protego/trace", "?").ok());
  EXPECT_FALSE(k.tracer().read_filter().active());
}

TEST(ProcAtomicity, FaultInjectRoundTripsAndAppliesAtomically) {
  SimSystem sys(SimMode::kProtego);
  Kernel& k = sys.kernel();
  Task& root = sys.Login("root");
  // The fd_alloc directive carries a non-matching pid filter: an unfiltered
  // one would (correctly) fire on the control file's own open.
  ASSERT_TRUE(k.WriteWholeFile(root, "/proc/protego/fault_inject",
                               "site=fd_alloc error=EMFILE times=2 seed=5 pid=9999\n"
                               "site=netfilter_eval error=EIO prob=1/4\n")
                  .ok());
  EXPECT_TRUE(k.faults().config(FaultSite::kFdAlloc).enabled);
  EXPECT_TRUE(k.faults().config(FaultSite::kNetfilterEval).enabled);
  std::string body = k.ReadWholeFile(root, "/proc/protego/fault_inject").value_or("");
  // Snapshot-replay: write the read body back verbatim.
  ASSERT_TRUE(k.WriteWholeFile(root, "/proc/protego/fault_inject", body).ok());
  EXPECT_EQ(k.ReadWholeFile(root, "/proc/protego/fault_inject").value_or("!"), body);
  ASSERT_TRUE(k.WriteWholeFile(root, "/proc/protego/fault_inject", "reset\n").ok());
  EXPECT_FALSE(k.faults().any_enabled());
  EXPECT_EQ(k.faults().injected(FaultSite::kFdAlloc), 0u);
}

// --- Utilities under injected EIO (satellite 3) ------------------------------

// Each utility's config read dies with EIO: nonzero exit, a diagnostic on
// stderr, no partial state, and no secret material in the transcript.
TEST(UtilityFaults, MountFailsCleanlyOnConfigReadError) {
  for (SimMode mode : {SimMode::kLinux, SimMode::kProtego}) {
    SimSystem sys(mode);
    Kernel& k = sys.kernel();
    Task& alice = sys.Login("alice");
    FaultConfig cfg = AlwaysFault(Errno::kEIO, 1);
    cfg.sysno = static_cast<int>(Sysno::kOpen);
    ASSERT_TRUE(k.faults().Configure(FaultSite::kSyscallEntry, cfg).ok());
    auto out = sys.RunCapture(alice, "/bin/mount", {"mount", "/dev/cdrom"});
    EXPECT_NE(out.exit_code, 0) << SimModeName(mode);
    EXPECT_FALSE(out.err.empty()) << SimModeName(mode) << " no diagnostic";
    EXPECT_FALSE(k.vfs().FindMount("/media/cdrom").has_value())
        << SimModeName(mode) << " partial mount state";
    EXPECT_EQ(k.faults().injected(FaultSite::kSyscallEntry), 1u);
  }
}

TEST(UtilityFaults, PasswdFailsCleanlyAndChangesNothing) {
  for (SimMode mode : {SimMode::kLinux, SimMode::kProtego}) {
    SimSystem sys(mode);
    Kernel& k = sys.kernel();
    Task& root = sys.Login("root");
    Task& alice = sys.Login("alice");
    const char* db = mode == SimMode::kProtego ? "/etc/shadows/alice" : "/etc/shadow";
    std::string before = k.ReadWholeFile(root, db).value_or("<gone>");
    // Unlimited EIO on every open: whichever config read passwd reaches
    // first (lock file, shadow database, shadow fragment) dies.
    FaultConfig cfg = AlwaysFault(Errno::kEIO);
    cfg.sysno = static_cast<int>(Sysno::kOpen);
    ASSERT_TRUE(k.faults().Configure(FaultSite::kSyscallEntry, cfg).ok());
    alice.terminal->QueueInput("alicepw");
    alice.terminal->QueueInput("newsecret");
    alice.terminal->QueueInput("newsecret");
    auto out = sys.RunCapture(alice, "/usr/bin/passwd", {"passwd"});
    k.faults().Reset();
    EXPECT_NE(out.exit_code, 0) << SimModeName(mode);
    EXPECT_FALSE(out.err.empty()) << SimModeName(mode) << " no diagnostic";
    EXPECT_EQ(out.out.find("$sim$"), std::string::npos) << "hash leaked to stdout";
    EXPECT_EQ(out.err.find("$sim$"), std::string::npos) << "hash leaked to stderr";
    EXPECT_EQ(k.ReadWholeFile(root, db).value_or("<gone>"), before)
        << SimModeName(mode) << " credential db changed on failure";
  }
}

TEST(UtilityFaults, PingFailsCleanlyOnSocketError) {
  for (SimMode mode : {SimMode::kLinux, SimMode::kProtego}) {
    SimSystem sys(mode);
    Kernel& k = sys.kernel();
    Task& alice = sys.Login("alice");
    FaultConfig cfg = AlwaysFault(Errno::kEIO, 1);
    cfg.sysno = static_cast<int>(Sysno::kSocket);
    ASSERT_TRUE(k.faults().Configure(FaultSite::kSyscallEntry, cfg).ok());
    auto out = sys.RunCapture(alice, "/bin/ping", {"ping", "10.0.0.2", "1"});
    EXPECT_NE(out.exit_code, 0) << SimModeName(mode);
    EXPECT_FALSE(out.err.empty()) << SimModeName(mode) << " no diagnostic";
    EXPECT_EQ(k.faults().injected(FaultSite::kSyscallEntry), 1u);
  }
}

TEST(UtilityFaults, SudoFailsClosedOnConfigReadError) {
  for (SimMode mode : {SimMode::kLinux, SimMode::kProtego}) {
    SimSystem sys(mode);
    Kernel& k = sys.kernel();
    Task& alice = sys.Login("alice");
    // Stock sudo's policy lives in config files (EIO the reads); Protego
    // sudo's policy lives in the kernel, so the config-read analog is the
    // auth-service round-trip.
    if (mode == SimMode::kLinux) {
      FaultConfig cfg = AlwaysFault(Errno::kEIO);
      cfg.sysno = static_cast<int>(Sysno::kOpen);
      ASSERT_TRUE(k.faults().Configure(FaultSite::kSyscallEntry, cfg).ok());
    } else {
      ASSERT_TRUE(
          k.faults().Configure(FaultSite::kAuthRoundTrip, AlwaysFault(Errno::kEIO)).ok());
    }
    alice.terminal->QueueInput("alicepw");
    auto out = sys.RunCapture(alice, "/usr/bin/sudo", {"sudo", "/usr/bin/id"});
    k.faults().Reset();
    EXPECT_NE(out.exit_code, 0) << SimModeName(mode);
    EXPECT_EQ(out.out.find("uid=0"), std::string::npos)
        << SimModeName(mode) << " command ran as root despite failure";
    EXPECT_EQ(out.out.find("$sim$"), std::string::npos);
    EXPECT_EQ(out.err.find("$sim$"), std::string::npos);
    EXPECT_EQ(alice.cred.euid, 1000u) << "session retained privilege";
  }
}

// --- Transactional swap rollback (tentpole b) --------------------------------

TEST(SwapRollback, FaultMidSwapRestoresRawTableAndGeneration) {
  SimSystem sys(SimMode::kProtego);
  Kernel& k = sys.kernel();
  ASSERT_NE(sys.lsm(), nullptr);
  std::vector<FstabEntry> before = sys.lsm()->mount_policy();
  uint64_t gen = k.lsm().policy_generation();

  // Fault at the start boundary.
  ASSERT_TRUE(
      k.faults().Configure(FaultSite::kPolicyCompile, AlwaysFault(Errno::kENOMEM, 1)).ok());
  auto r1 = sys.lsm()->SetMountPolicy({});
  ASSERT_FALSE(r1.ok());
  EXPECT_EQ(r1.error().code(), Errno::kENOMEM);
  EXPECT_EQ(sys.lsm()->mount_policy().size(), before.size()) << "raw table not rolled back";
  EXPECT_EQ(k.lsm().policy_generation(), gen);

  // Fault at the mid-swap boundary (second Check point): interval=2 skips
  // the start check and fires on the next evaluation.
  FaultConfig mid = AlwaysFault(Errno::kENOMEM, 1);
  mid.interval = 2;
  ASSERT_TRUE(k.faults().Configure(FaultSite::kPolicyCompile, mid).ok());
  auto r2 = sys.lsm()->SetMountPolicy({});
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(sys.lsm()->mount_policy().size(), before.size());
  EXPECT_EQ(k.lsm().policy_generation(), gen);

  // With the budget exhausted the same swap goes through.
  k.faults().Reset();
  ASSERT_TRUE(sys.lsm()->SetMountPolicy(before).ok());
  EXPECT_EQ(k.lsm().policy_generation(), gen + 1);
}

TEST(SwapRollback, DisabledGateHasNoSyscallOverheadCounters) {
  // With no site enabled the registry must never record an evaluation: the
  // any_enabled() guard keeps the hot path to one load+branch.
  SimSystem sys(SimMode::kProtego);
  Kernel& k = sys.kernel();
  Task& alice = sys.Login("alice");
  for (int i = 0; i < 32; ++i) {
    auto fd = k.Open(alice, "/etc/passwd", kORdOnly);
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(k.Close(alice, fd.value()).ok());
  }
  for (size_t i = 0; i < kFaultSiteCount; ++i) {
    EXPECT_EQ(k.faults().evaluations(static_cast<FaultSite>(i)), 0u);
  }
}

// --- The sweep (tentpole c + acceptance) -------------------------------------

TEST(FaultSweep, EverySiteInjectsCleanlyAndReplays) {
  FaultSweepReport report = RunFaultSweep();
  ASSERT_EQ(report.sites.size(), kFaultSiteCount)
      << "sweep must exercise every registered site";
  EXPECT_TRUE(report.all_ok()) << report.Format();
  for (const FaultSiteAudit& site : report.sites) {
    EXPECT_GE(site.injections, 1u) << FaultSiteName(site.site) << " never fired";
  }
}

}  // namespace
}  // namespace protego
