#include "src/study/races.h"

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "src/base/log.h"
#include "src/base/strings.h"
#include "src/vfs/types.h"

namespace protego {

namespace {

// The victim: a report generator that validates the job file belongs to its
// invoker, then opens it — the canonical check-then-use bug. The check and
// the open are separate syscalls, so a schedulable attacker can run between
// them.
int FilereportMain(ProcessContext& ctx, TocttouVariant variant) {
  std::string job = ctx.Flag("file").value_or(kTocttouJobPath);
  std::string out = ctx.Flag("out").value_or(kTocttouReportPath);

  // --- CHECK ---------------------------------------------------------------
  if (variant == TocttouVariant::kStatThenOpen) {
    auto st = ctx.kernel.Stat(ctx.task, job);
    if (!st.ok()) {
      ctx.Err(StrFormat("filereport: cannot stat %s\n", job.c_str()));
      return 1;
    }
    if (st.value().uid != ctx.task.cred.ruid) {
      ctx.Err(StrFormat("filereport: %s is not your file\n", job.c_str()));
      return 1;
    }
  } else {
    // access(2) checks with the REAL uid — precisely so setuid programs can
    // ask "could my invoker read this?". The answer is stale by the time of
    // the open, which is why access-then-open is its own CVE class.
    auto chk = ctx.kernel.Access(ctx.task, job, kMayRead);
    if (!chk.ok()) {
      ctx.Err(StrFormat("filereport: %s not readable by you\n", job.c_str()));
      return 1;
    }
  }

  // --- USE (the open runs with the victim's effective credentials) ---------
  auto fd = ctx.kernel.Open(ctx.task, job, kORdOnly, 0);
  if (!fd.ok()) {
    ctx.Err(StrFormat("filereport: open %s: %s\n", job.c_str(),
                      ErrnoName(fd.error().code())));
    return 1;
  }
  auto data = ctx.kernel.Read(ctx.task, fd.value());
  (void)ctx.kernel.Close(ctx.task, fd.value());
  if (!data.ok()) {
    return 1;
  }
  if (!ctx.kernel.WriteWholeFile(ctx.task, out, data.value()).ok()) {
    return 1;
  }
  ctx.Out(StrFormat("filereport: %zu bytes -> %s\n", data.value().size(), out.c_str()));
  return 0;
}

// The attacker: one atomic rename(2) that drops a pre-made symlink to the
// secret over the validated job path.
int SwapjobMain(ProcessContext& ctx) {
  std::string link = ctx.Flag("link").value_or("/tmp/evil");
  std::string target = ctx.Flag("over").value_or(kTocttouJobPath);
  auto r = ctx.kernel.Rename(ctx.task, link, target);
  if (!r.ok()) {
    ctx.Err(StrFormat("swapjob: rename: %s\n", ErrnoName(r.error().code())));
    return 1;
  }
  return 0;
}

class TocttouRun : public conc::ScenarioRun {
 public:
  TocttouRun(SimMode mode, TocttouVariant variant, bool filter_victim)
      : sys_(std::make_unique<SimSystem>(mode)) {
    Kernel& k = sys_->kernel();
    // The prize: root-only data the invoker cannot read directly.
    Must(k.vfs().CreateFile(kTocttouSecretPath, 0600, kRootUid, kRootGid,
                            std::string(kTocttouSecret) + "\n"));
    // The bait: a job file genuinely owned by the attacker, so the victim's
    // ownership check passes legitimately.
    const SimUser* alice = sys_->FindUser("alice");
    Must(k.vfs().CreateFile(kTocttouJobPath, 0644, alice->uid, alice->gid,
                            "benign job data\n"));
    Must(k.vfs().CreateSymlink("/tmp/evil", kTocttouSecretPath, alice->uid, alice->gid));
    // Setuid root on the stock system; a plain binary under Protego (and
    // under the capability rework, which also strips the bit).
    uint32_t victim_mode = mode == SimMode::kLinux ? 04755 : 0755;
    Must(k.InstallBinary("/usr/bin/filereport", victim_mode, kRootUid, kRootGid,
                         [variant](ProcessContext& ctx) {
                           return FilereportMain(ctx, variant);
                         }));
    Must(k.InstallBinary("/usr/bin/swapjob", 0755, kRootUid, kRootGid, SwapjobMain));
    if (filter_victim) {
      Result<SeccompFilter> filter = SeccompFilter::FromSpec(
          SeccompFilter::ParseSpec("class 1 /tmp/\nallow open if path eq 1\nallow stat\n"
                                   "allow access\nallow read\nallow write\nallow close\n")
              .value());
      Must(filter);
      k.RegisterBinaryFilter("/usr/bin/filereport", filter.take());
    }
    session_ = &sys_->Login("alice");
  }

  Kernel& kernel() override { return sys_->kernel(); }

  void RegisterTasks(TaskScheduler& /*sched*/) override {
    // SpawnAsync registers each child as a schedulable unit with the
    // attached scheduler; the interleaving of their syscalls is then
    // entirely the explorer's choice.
    auto victim = sys_->kernel().SpawnAsync(*session_, "/usr/bin/filereport",
                                            {"filereport"}, {});
    auto attacker = sys_->kernel().SpawnAsync(*session_, "/usr/bin/swapjob",
                                              {"swapjob"}, {});
    victim_pid_ = victim.value_or(-1);
    attacker_pid_ = attacker.value_or(-1);
  }

  std::optional<std::string> CheckInvariant() override {
    if (victim_pid_ > 0) {
      (void)sys_->kernel().WaitPid(*session_, victim_pid_);
    }
    if (attacker_pid_ > 0) {
      (void)sys_->kernel().WaitPid(*session_, attacker_pid_);
    }
    auto report = sys_->kernel().vfs().ReadFile(kTocttouReportPath);
    if (report.ok() && report.value().find(kTocttouSecret) != std::string::npos) {
      return StrFormat("victim leaked %s into world-readable %s", kTocttouSecretPath,
                       kTocttouReportPath);
    }
    return std::nullopt;
  }

 private:
  template <typename T>
  static void Must(Result<T> r) {
    if (!r.ok()) {
      LogError("TocttouRun setup: " + r.error().ToString());
      abort();
    }
  }

  std::unique_ptr<SimSystem> sys_;
  Task* session_ = nullptr;
  int victim_pid_ = -1;
  int attacker_pid_ = -1;
};

// Two whole-file rewriters of /etc/passwd racing each other. Root runs both
// so no reauthentication prompts get in the way; the interesting state is
// purely the shared database file.
class PasswdLostUpdateRun : public conc::ScenarioRun {
 public:
  explicit PasswdLostUpdateRun(bool with_flock)
      : sys_(std::make_unique<SimSystem>(SimMode::kLinux)), with_flock_(with_flock) {
    session_ = &sys_->Login("root");
  }

  Kernel& kernel() override { return sys_->kernel(); }

  void RegisterTasks(TaskScheduler& /*sched*/) override {
    std::map<std::string, std::string> env;
    if (!with_flock_) {
      env["PROTEGO_NO_FLOCK"] = "1";
    }
    a_pid_ = sys_->kernel()
                 .SpawnAsync(*session_, "/usr/bin/chfn",
                             {"chfn", kLostUpdateGecosAlice, "alice"}, env)
                 .value_or(-1);
    b_pid_ = sys_->kernel()
                 .SpawnAsync(*session_, "/usr/bin/chfn",
                             {"chfn", kLostUpdateGecosBob, "bob"}, env)
                 .value_or(-1);
  }

  std::optional<std::string> CheckInvariant() override {
    std::string failures;
    for (int pid : {a_pid_, b_pid_}) {
      if (pid <= 0) {
        continue;
      }
      auto status = sys_->kernel().WaitPid(*session_, pid);
      if (!status.ok()) {
        failures += StrFormat("pid %d: %s; ", pid, status.error().ToString().c_str());
      } else if (status.value() != 0) {
        failures += StrFormat("pid %d exited %d; ", pid, status.value());
      }
    }
    if (with_flock_ && !failures.empty()) {
      // With locking, every schedule must terminate cleanly — a deadlocked
      // flock would surface here as EDEADLK or a nonzero exit.
      return "chfn did not complete cleanly: " + failures;
    }
    if (!with_flock_ && !failures.empty()) {
      // Without locking, schedules also exist where a reader catches the
      // other updater's truncate-then-write window and fails LOUDLY. Those
      // are a symptom of the same missing lock, but the hunt here is for the
      // scarier SILENT lost update: both editors report success, yet one
      // edit is gone.
      return std::nullopt;
    }
    auto passwd = sys_->kernel().vfs().ReadFile("/etc/passwd");
    if (!passwd.ok()) {
      return std::string("/etc/passwd unreadable after updates");
    }
    bool alice_kept = passwd.value().find(kLostUpdateGecosAlice) != std::string::npos;
    bool bob_kept = passwd.value().find(kLostUpdateGecosBob) != std::string::npos;
    if (!alice_kept || !bob_kept) {
      return StrFormat("lost update: alice=%s bob=%s in final /etc/passwd",
                       alice_kept ? "kept" : "lost", bob_kept ? "kept" : "lost");
    }
    return std::nullopt;
  }

 private:
  std::unique_ptr<SimSystem> sys_;
  bool with_flock_;
  Task* session_ = nullptr;
  int a_pid_ = -1;
  int b_pid_ = -1;
};

}  // namespace

const char* TocttouVariantName(TocttouVariant variant) {
  switch (variant) {
    case TocttouVariant::kStatThenOpen: return "stat-then-open";
    case TocttouVariant::kAccessThenOpen: return "access-then-open";
  }
  return "?";
}

conc::ScenarioFactory MakeTocttouScenario(SimMode mode, TocttouVariant variant,
                                          bool filter_victim) {
  return [mode, variant, filter_victim] {
    return std::make_unique<TocttouRun>(mode, variant, filter_victim);
  };
}

conc::ScenarioFactory MakePasswdLostUpdateScenario(bool with_flock) {
  return [with_flock] { return std::make_unique<PasswdLostUpdateRun>(with_flock); };
}

}  // namespace protego
