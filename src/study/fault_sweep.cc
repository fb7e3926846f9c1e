#include "src/study/fault_sweep.h"

#include <cstdlib>
#include <functional>
#include <memory>
#include <optional>
#include <utility>

#include "src/base/log.h"
#include "src/base/strings.h"
#include "src/conc/explore.h"
#include "src/vfs/types.h"

namespace protego {

namespace {

constexpr const char* kFaultProc = "/proc/protego/fault_inject";

// Aborts on harness-setup failure: a sweep that cannot even arm its fault
// site would otherwise report vacuous passes.
void Must(const Result<Unit>& r, const char* what) {
  if (!r.ok()) {
    LogError(StrFormat("fault_sweep: %s: %s", what, r.error().ToString().c_str()));
    abort();
  }
}

// Credential signature: after a FAILED privileged transition, any drift in
// these fields is retained privilege.
std::string CredSig(const Cred& c) {
  return StrFormat("uid=%u/%u/%u/%u gid=%u/%u/%u/%u caps=%llx/%llx;", c.ruid, c.euid, c.suid,
                   c.fsuid, c.rgid, c.egid, c.sgid, c.fsgid,
                   (unsigned long long)c.effective.bits(),
                   (unsigned long long)c.permitted.bits());
}

uint64_t CountFaultEvents(const Tracer& tracer) {
  uint64_t n = 0;
  for (const TraceEvent& ev : tracer.Snapshot()) {
    if (ev.tp == TracepointId::kFaultInject) {
      ++n;
    }
  }
  return n;
}

// What one run of a site scenario observed beyond the common audits. The
// fingerprint folds in every scenario-specific observable; the replay audit
// requires it to be identical across two fresh runs of the same tuple.
struct SiteOutcome {
  Errno observed = Errno::kOk;
  bool contract_ok = true;  // scenario-specific assertions beyond the errno
  std::string fingerprint;
  std::string detail;
};

struct SiteScenario {
  FaultSite site;
  const char* name;
  Errno expected;
  // The fault_inject directive; built after login so pid filters can
  // reference the (deterministic) session pids.
  std::function<std::string(Task& root, Task& alice)> config;
  std::function<SiteOutcome(SimSystem&, Task& root, Task& alice)> drive;
};

// One full observation: fresh system, enable the site through the real
// control file, drive the workload, audit the aftermath.
struct RunObservation {
  SiteOutcome outcome;
  uint64_t injections = 0;
  uint64_t trace_hits = 0;
  bool fd_ok = false;
  bool vfs_ok = false;
  bool cred_ok = false;
  std::string config_line;
  std::string detail;
};

RunObservation ObserveOnce(const SiteScenario& sc) {
  RunObservation obs;
  SimSystem sys(SimMode::kProtego);
  Kernel& k = sys.kernel();
  Task& root = sys.Login("root");
  Task& alice = sys.Login("alice");
  obs.config_line = sc.config(root, alice);

  auto enabled = k.WriteWholeFile(root, kFaultProc, obs.config_line + "\n");
  if (!enabled.ok()) {
    obs.detail = "enabling the site failed: " + enabled.error().ToString();
    obs.outcome.contract_ok = false;
    return obs;
  }
  // Count trace events from the moment the site is armed, so ring eviction
  // by the (long) boot/login prologue cannot hide an injection.
  k.tracer().Clear();

  size_t root_fds = root.fds.size();
  size_t alice_fds = alice.fds.size();
  size_t orphans_before = k.vfs().orphan_count();
  std::string creds_before = CredSig(root.cred) + CredSig(alice.cred);

  obs.outcome = sc.drive(sys, root, alice);

  obs.injections = k.faults().injected(sc.site);
  obs.trace_hits = CountFaultEvents(k.tracer());
  obs.fd_ok = root.fds.size() == root_fds && alice.fds.size() == alice_fds;
  if (!obs.fd_ok) {
    obs.detail += StrFormat("fd leak: root %zu->%zu alice %zu->%zu; ", root_fds,
                            root.fds.size(), alice_fds, alice.fds.size());
  }
  Result<Unit> audit = k.vfs().AuditBlockAccounting();
  bool orphans_stable = k.vfs().orphan_count() == orphans_before;
  obs.vfs_ok = audit.ok() && orphans_stable;
  if (!audit.ok()) {
    obs.detail += "block audit: " + audit.error().ToString() + "; ";
  }
  if (!orphans_stable) {
    obs.detail += StrFormat("orphans %zu->%zu; ", orphans_before, k.vfs().orphan_count());
  }
  obs.cred_ok = CredSig(root.cred) + CredSig(alice.cred) == creds_before;
  if (!obs.cred_ok) {
    obs.detail += "session credentials drifted; ";
  }
  return obs;
}

FaultSiteAudit RunSite(const SiteScenario& sc) {
  FaultSiteAudit audit;
  audit.site = sc.site;
  audit.scenario = sc.name;
  audit.expected = sc.expected;

  RunObservation first = ObserveOnce(sc);
  RunObservation second = ObserveOnce(sc);  // identical tuple, fresh system

  audit.config_line = first.config_line;
  audit.observed = first.outcome.observed;
  audit.errno_ok = first.outcome.observed == sc.expected && first.outcome.contract_ok;
  audit.injections = first.injections;
  audit.trace_hits = first.trace_hits;
  audit.trace_ok = first.trace_hits == first.injections;
  audit.no_fd_leak = first.fd_ok;
  audit.vfs_ok = first.vfs_ok;
  audit.no_cred_retention = first.cred_ok;
  audit.replay_ok = first.outcome.observed == second.outcome.observed &&
                    first.outcome.fingerprint == second.outcome.fingerprint &&
                    first.injections == second.injections;
  audit.detail = first.detail + first.outcome.detail;
  if (!first.outcome.contract_ok && audit.detail.empty()) {
    audit.detail = "scenario contract violated";
  }
  if (!audit.replay_ok) {
    audit.detail += StrFormat("replay diverged: {%s|%s|%llu} vs {%s|%s|%llu}; ",
                              ErrnoName(first.outcome.observed),
                              first.outcome.fingerprint.c_str(),
                              (unsigned long long)first.injections,
                              ErrnoName(second.outcome.observed),
                              second.outcome.fingerprint.c_str(),
                              (unsigned long long)second.injections);
  }
  return audit;
}

// --- Per-site scenarios -------------------------------------------------------

std::vector<SiteScenario> BuildScenarios() {
  std::vector<SiteScenario> scenarios;

  // vnode allocation: creating a file fails with ENOMEM and leaves no
  // half-created directory entry behind.
  scenarios.push_back(
      {FaultSite::kVfsVnodeAlloc, "alice creates /tmp/sweep_new (O_CREAT)", Errno::kENOMEM,
       [](Task&, Task&) { return std::string("site=vfs_vnode_alloc error=ENOMEM times=1"); },
       [](SimSystem& sys, Task&, Task& alice) {
         SiteOutcome out;
         Kernel& k = sys.kernel();
         auto fd = k.Open(alice, "/tmp/sweep_new", kOCreat | kOWrOnly, 0644);
         if (fd.ok()) {
           (void)k.Close(alice, fd.value());
           out.contract_ok = false;
           out.detail = "create succeeded despite vnode fault; ";
         } else {
           out.observed = fd.error().code();
         }
         bool exists = k.vfs().Resolve("/tmp/sweep_new").ok();
         if (exists) {
           out.contract_ok = false;
           out.detail += "half-created file left behind; ";
         }
         out.fingerprint = StrFormat("exists=%d", exists ? 1 : 0);
         return out;
       }});

  // Block allocation: the open creates an empty file, the write fails with
  // ENOSPC, and no partial data is retained.
  scenarios.push_back(
      {FaultSite::kVfsBlockAlloc, "alice writes /tmp/sweep_data", Errno::kENOSPC,
       [](Task&, Task&) { return std::string("site=vfs_block_alloc error=ENOSPC times=1"); },
       [](SimSystem& sys, Task&, Task& alice) {
         SiteOutcome out;
         Kernel& k = sys.kernel();
         auto w = k.WriteWholeFile(alice, "/tmp/sweep_data", "sweep payload");
         if (w.ok()) {
           out.contract_ok = false;
           out.detail = "write succeeded despite block fault; ";
         } else {
           out.observed = w.error().code();
         }
         auto node = k.vfs().Resolve("/tmp/sweep_data");
         size_t size = node.ok() ? node.value()->inode().data.size() : 0;
         if (size != 0) {
           out.contract_ok = false;
           out.detail += StrFormat("partial write retained (%zu bytes); ", size);
         }
         out.fingerprint = StrFormat("exists=%d size=%zu", node.ok() ? 1 : 0, size);
         return out;
       }});

  // fd-table slot: the open fails with EMFILE before any fd is installed,
  // and the very next open (budget exhausted) succeeds.
  scenarios.push_back(
      {FaultSite::kFdAlloc, "alice opens /etc/passwd", Errno::kEMFILE,
       [](Task&, Task&) { return std::string("site=fd_alloc error=EMFILE times=1"); },
       [](SimSystem& sys, Task&, Task& alice) {
         SiteOutcome out;
         Kernel& k = sys.kernel();
         auto fd = k.Open(alice, "/etc/passwd", kORdOnly);
         if (fd.ok()) {
           (void)k.Close(alice, fd.value());
           out.contract_ok = false;
           out.detail = "open succeeded despite fd fault; ";
         } else {
           out.observed = fd.error().code();
         }
         auto retry = k.Open(alice, "/etc/passwd", kORdOnly);
         bool retry_ok = retry.ok();
         if (retry_ok) {
           (void)k.Close(alice, retry.value());
         } else {
           out.contract_ok = false;
           out.detail += "retry after exhausted budget failed; ";
         }
         out.fingerprint = StrFormat("retry=%d", retry_ok ? 1 : 0);
         return out;
       }});

  // Syscall-gate entry, pid- and syscall-filtered: alice's open dies with
  // EIO before the body runs; root's identical open is untouched.
  scenarios.push_back(
      {FaultSite::kSyscallEntry, "alice open() under pid+syscall filter", Errno::kEIO,
       [](Task&, Task& alice) {
         return StrFormat("site=syscall_entry error=EIO syscall=open pid=%d", alice.pid);
       },
       [](SimSystem& sys, Task& root, Task& alice) {
         SiteOutcome out;
         Kernel& k = sys.kernel();
         auto rfd = k.Open(root, "/etc/passwd", kORdOnly);
         bool root_ok = rfd.ok();
         if (root_ok) {
           (void)k.Close(root, rfd.value());
         } else {
           out.contract_ok = false;
           out.detail = "root open caught by alice-filtered site; ";
         }
         auto afd = k.Open(alice, "/etc/passwd", kORdOnly);
         if (afd.ok()) {
           (void)k.Close(alice, afd.value());
           out.contract_ok = false;
           out.detail += "alice open succeeded despite entry fault; ";
         } else {
           out.observed = afd.error().code();
         }
         out.fingerprint = StrFormat("root_ok=%d", root_ok ? 1 : 0);
         return out;
       }});

  // LSM hook dispatch fails CLOSED: a whitelist-permitted mount is denied
  // (EPERM, not the injected errno — the fault never reaches the caller,
  // the deny verdict does), and the next attempt (budget exhausted) is
  // granted by the unchanged policy.
  scenarios.push_back(
      {FaultSite::kLsmHook, "alice mounts the cdrom, sb_mount faulted", Errno::kEPERM,
       [](Task&, Task&) {
         return std::string("site=lsm_hook error=EIO hook=sb_mount times=1");
       },
       [](SimSystem& sys, Task&, Task& alice) {
         SiteOutcome out;
         Kernel& k = sys.kernel();
         auto m1 = k.Mount(alice, "/dev/cdrom", "/media/cdrom", "iso9660", {"ro"});
         if (m1.ok()) {
           out.contract_ok = false;
           out.detail = "mount succeeded despite hook fault; ";
         } else {
           out.observed = m1.error().code();
         }
         uint64_t fail_closed = k.lsm().fail_closed_denials();
         if (fail_closed != 1) {
           out.contract_ok = false;
           out.detail += StrFormat("fail_closed_denials=%llu (want 1); ",
                                   (unsigned long long)fail_closed);
         }
         auto m2 = k.Mount(alice, "/dev/cdrom", "/media/cdrom", "iso9660", {"ro"});
         bool retry_ok = m2.ok();
         if (retry_ok) {
           (void)k.Umount(alice, "/media/cdrom");
         } else {
           out.contract_ok = false;
           out.detail += "policy-permitted mount still denied after fault; ";
         }
         out.fingerprint = StrFormat("fail_closed=%llu retry=%d",
                                     (unsigned long long)fail_closed, retry_ok ? 1 : 0);
         return out;
       }});

  // Netfilter chain evaluation fails CLOSED: the ping's packet is dropped
  // without consulting any rule; the send syscall itself succeeds (packets
  // vanish, syscalls don't fail) so ping reports loss and exits nonzero.
  scenarios.push_back(
      {FaultSite::kNetfilterEval, "alice pings the gateway, OUTPUT eval faulted",
       Errno::kOk,
       [](Task&, Task&) { return std::string("site=netfilter_eval error=EIO times=1"); },
       [](SimSystem& sys, Task&, Task& alice) {
         SiteOutcome out;
         auto ping = sys.RunCapture(alice, "/bin/ping", {"ping", "10.0.0.2", "1"});
         out.observed = ping.error;
         if (ping.exit_code == 0) {
           out.contract_ok = false;
           out.detail = "ping reported success through a failed-closed chain; ";
         }
         uint64_t drops = sys.kernel().net().netfilter().fail_closed_drops();
         if (drops < 1) {
           out.contract_ok = false;
           out.detail += "no fail-closed drop recorded; ";
         }
         out.fingerprint = StrFormat("exit=%d drops=%llu", ping.exit_code,
                                     (unsigned long long)drops);
         return out;
       }});

  // Policy-table compilation: the /proc write fails with ENOMEM, the
  // previous table stays in force byte-identically, the generation does not
  // move, and the next (fault-exhausted) identical write swaps cleanly.
  scenarios.push_back(
      {FaultSite::kPolicyCompile, "root rewrites /proc/protego/mounts", Errno::kENOMEM,
       [](Task&, Task&) { return std::string("site=policy_compile error=ENOMEM times=1"); },
       [](SimSystem& sys, Task& root, Task&) {
         SiteOutcome out;
         Kernel& k = sys.kernel();
         std::string before = k.ReadWholeFile(root, "/proc/protego/mounts").value_or("");
         uint64_t gen_before = k.lsm().policy_generation();
         auto w = k.WriteWholeFile(root, "/proc/protego/mounts", before);
         if (w.ok()) {
           out.contract_ok = false;
           out.detail = "swap succeeded despite compile fault; ";
         } else {
           out.observed = w.error().code();
         }
         std::string after = k.ReadWholeFile(root, "/proc/protego/mounts").value_or("!");
         uint64_t gen_after = k.lsm().policy_generation();
         bool identical = after == before;
         bool gen_stable = gen_after == gen_before;
         if (!identical) {
           out.contract_ok = false;
           out.detail += "table not byte-identical after failed swap; ";
         }
         if (!gen_stable) {
           out.contract_ok = false;
           out.detail += "generation moved on a failed swap; ";
         }
         auto retry = k.WriteWholeFile(root, "/proc/protego/mounts", before);
         bool retry_ok = retry.ok() && k.lsm().policy_generation() == gen_before + 1;
         if (!retry_ok) {
           out.contract_ok = false;
           out.detail += "fault-exhausted swap did not complete; ";
         }
         out.fingerprint = StrFormat("identical=%d gen_stable=%d retry=%d", identical ? 1 : 0,
                                     gen_stable ? 1 : 0, retry_ok ? 1 : 0);
         return out;
       }});

  // Auth-service round trip: sudo's authentication exchange dies before the
  // prompt; the delegation is refused, the target command never runs, and
  // no credential material leaks into the session transcript.
  scenarios.push_back(
      {FaultSite::kAuthRoundTrip, "alice runs sudo id, auth faulted", Errno::kOk,
       [](Task&, Task&) { return std::string("site=auth_round_trip error=EIO times=1"); },
       [](SimSystem& sys, Task&, Task& alice) {
         SiteOutcome out;
         auto run = sys.RunCapture(alice, "/usr/bin/sudo", {"sudo", "/usr/bin/id"});
         out.observed = run.error;
         if (run.exit_code == 0) {
           out.contract_ok = false;
           out.detail = "sudo succeeded without authentication; ";
         }
         if (run.out.find("uid=0") != std::string::npos) {
           out.contract_ok = false;
           out.detail += "delegated command ran as root; ";
         }
         if (run.out.find("$sim$") != std::string::npos ||
             run.err.find("$sim$") != std::string::npos) {
           out.contract_ok = false;
           out.detail += "password-hash material leaked; ";
         }
         uint64_t granted =
             sys.lsm() != nullptr ? sys.lsm()->stats().setuid_allowed : 0;
         if (granted != 0) {
           out.contract_ok = false;
           out.detail += "setuid granted under auth fault; ";
         }
         out.fingerprint =
             StrFormat("exit=%d granted=%llu", run.exit_code, (unsigned long long)granted);
         return out;
       }});

  return scenarios;
}

// --- Deep check: transactional swap rollback ---------------------------------

// A fault during a policy swap rolls back: same generation, same verdicts.
std::pair<bool, std::string> CheckSwapRollback() {
  SimSystem sys(SimMode::kProtego);
  Kernel& k = sys.kernel();
  Task& root = sys.Login("root");
  Task& alice = sys.Login("alice");

  auto probe = [&]() -> std::string {
    // Two fixed verdict probes: one grant, one denial.
    bool can_read = k.ReadWholeFile(alice, "/etc/passwd").ok();
    bool can_write = k.WriteWholeFile(alice, "/etc/fstab", "x").ok();
    return StrFormat("read=%d write=%d", can_read ? 1 : 0, can_write ? 1 : 0);
  };

  std::string verdicts_before = probe();
  uint64_t gen_before = k.lsm().policy_generation();
  std::string table = k.ReadWholeFile(root, "/proc/protego/ports").value_or("");

  Must(k.WriteWholeFile(root, kFaultProc, "site=policy_compile error=ENOMEM times=1\n"),
       "arming policy_compile");
  auto failed = k.WriteWholeFile(root, "/proc/protego/ports", table);
  if (failed.ok()) {
    return {false, "swap unexpectedly succeeded under fault"};
  }
  if (failed.error().code() != Errno::kENOMEM) {
    return {false, StrFormat("swap failed with %s, want ENOMEM",
                             ErrnoName(failed.error().code()))};
  }
  if (k.lsm().policy_generation() != gen_before) {
    return {false, "generation moved on failed swap"};
  }
  std::string verdicts_after = probe();
  if (verdicts_after != verdicts_before) {
    return {false, StrFormat("verdicts changed across failed swap: %s vs %s",
                             verdicts_before.c_str(), verdicts_after.c_str())};
  }
  // The fault budget is exhausted; the same write must now swap and bump.
  Must(k.WriteWholeFile(root, "/proc/protego/ports", table), "post-fault swap");
  if (k.lsm().policy_generation() != gen_before + 1) {
    return {false, "completed swap did not bump the generation"};
  }
  if (probe() != verdicts_before) {
    return {false, "verdicts changed after identical-content swap"};
  }
  return {true, StrFormat("gen=%llu verdicts=%s", (unsigned long long)gen_before,
                          verdicts_before.c_str())};
}

// --- Deep check: deterministic-scheduler replay ------------------------------

// Two schedulable tasks race through an open/close loop while the fd_alloc
// site injects probabilistically (seeded splitmix64). Under the same
// recorded {scheduler seed, site seed} the interleaving — and therefore
// exactly which task absorbs which injection — replays bit-identically.
class FaultReplayRun : public conc::ScenarioRun {
 public:
  explicit FaultReplayRun(std::string* fingerprint_out)
      : fingerprint_out_(fingerprint_out),
        sys_(std::make_unique<SimSystem>(SimMode::kProtego)) {
    Kernel& k = sys_->kernel();
    Must(k.InstallBinary("/usr/bin/openloop", 0755, kRootUid, kRootGid,
                         [](ProcessContext& ctx) {
                           int failures = 0;
                           for (int i = 0; i < 6; ++i) {
                             auto fd = ctx.kernel.Open(ctx.task, "/etc/passwd", kORdOnly);
                             if (fd.ok()) {
                               (void)ctx.kernel.Close(ctx.task, fd.value());
                             } else {
                               ++failures;
                             }
                           }
                           return failures;
                         }),
         "installing openloop");
    session_ = &sys_->Login("alice");
    FaultConfig cfg;
    cfg.enabled = true;
    cfg.error = Errno::kEIO;
    cfg.prob_num = 1;
    cfg.prob_den = 2;
    cfg.seed = 99;
    Must(k.faults().Configure(FaultSite::kFdAlloc, cfg), "configuring fd_alloc");
  }

  Kernel& kernel() override { return sys_->kernel(); }

  void RegisterTasks(TaskScheduler& /*sched*/) override {
    pid_a_ = sys_->kernel()
                 .SpawnAsync(*session_, "/usr/bin/openloop", {"openloop"}, {})
                 .value_or(-1);
    pid_b_ = sys_->kernel()
                 .SpawnAsync(*session_, "/usr/bin/openloop", {"openloop"}, {})
                 .value_or(-1);
  }

  std::optional<std::string> CheckInvariant() override {
    Kernel& k = sys_->kernel();
    int exit_a = pid_a_ > 0 ? k.WaitPid(*session_, pid_a_).value_or(-1) : -1;
    int exit_b = pid_b_ > 0 ? k.WaitPid(*session_, pid_b_).value_or(-1) : -1;
    *fingerprint_out_ = StrFormat(
        "exits=%d,%d inj=%llu eval=%llu", exit_a, exit_b,
        (unsigned long long)k.faults().injected(FaultSite::kFdAlloc),
        (unsigned long long)k.faults().evaluations(FaultSite::kFdAlloc));
    return std::nullopt;
  }

 private:
  std::string* fingerprint_out_;
  std::unique_ptr<SimSystem> sys_;
  Task* session_ = nullptr;
  int pid_a_ = -1;
  int pid_b_ = -1;
};

std::pair<bool, std::string> CheckDetReplay() {
  conc::ScheduleTrace trace;
  trace.mode = conc::SchedMode::kRandom;
  trace.seed = 1234;
  std::string fp1, fp2;
  auto run_once = [&](std::string* slot) {
    conc::ScenarioFactory factory = [slot]() {
      return std::make_unique<FaultReplayRun>(slot);
    };
    return conc::Replay(factory, trace);
  };
  auto v1 = run_once(&fp1);
  auto v2 = run_once(&fp2);
  if (v1.has_value() || v2.has_value()) {
    return {false, "replay run reported a violation: " + v1.value_or(v2.value_or(""))};
  }
  if (fp1.empty() || fp1 != fp2) {
    return {false, StrFormat("schedule replay diverged: '%s' vs '%s'", fp1.c_str(),
                             fp2.c_str())};
  }
  return {true, "seed=1234 " + fp1};
}

}  // namespace

bool FaultSweepReport::all_ok() const {
  if (!swap_rollback_ok || !det_replay_ok || sites.size() != kFaultSiteCount) {
    return false;
  }
  for (const FaultSiteAudit& site : sites) {
    if (!site.ok()) {
      return false;
    }
  }
  return true;
}

std::string FaultSweepReport::Format() const {
  std::string out = "fault sweep: single-site injection at every registered site\n";
  for (const FaultSiteAudit& s : sites) {
    out += StrFormat(
        "  %-16s %-4s expect=%s observed=%s inj=%llu trace=%llu "
        "fd=%s vfs=%s cred=%s replay=%s  (%s)\n",
        FaultSiteName(s.site), s.ok() ? "ok" : "FAIL", ErrnoName(s.expected),
        ErrnoName(s.observed), (unsigned long long)s.injections,
        (unsigned long long)s.trace_hits, s.no_fd_leak ? "ok" : "LEAK",
        s.vfs_ok ? "ok" : "LEAK", s.no_cred_retention ? "ok" : "RETAINED",
        s.replay_ok ? "ok" : "DIVERGED", s.scenario.c_str());
    if (!s.ok() && !s.detail.empty()) {
      out += "      " + s.detail + "\n";
    }
  }
  out += StrFormat("  swap-rollback    %-4s %s\n", swap_rollback_ok ? "ok" : "FAIL",
                   swap_detail.c_str());
  out += StrFormat("  det-replay       %-4s %s\n", det_replay_ok ? "ok" : "FAIL",
                   det_detail.c_str());
  return out;
}

FaultSweepReport RunFaultSweep() {
  FaultSweepReport report;
  for (const SiteScenario& sc : BuildScenarios()) {
    report.sites.push_back(RunSite(sc));
  }
  auto [swap_ok, swap_detail] = CheckSwapRollback();
  report.swap_rollback_ok = swap_ok;
  report.swap_detail = std::move(swap_detail);
  auto [det_ok, det_detail] = CheckDetReplay();
  report.det_replay_ok = det_ok;
  report.det_detail = std::move(det_detail);
  return report;
}

}  // namespace protego
