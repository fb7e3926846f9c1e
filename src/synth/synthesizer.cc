#include "src/synth/synthesizer.h"

#include <algorithm>
#include <memory>
#include <set>

#include "src/base/strings.h"
#include "src/config/passwd_db.h"
#include "src/protego/protego_lsm.h"
#include "src/sim/system.h"
#include "src/vfs/types.h"

namespace protego::synth {

std::string SynthContext::UserName(Uid uid) const {
  auto it = user_names.find(uid);
  return it != user_names.end() ? it->second : StrFormat("#%u", uid);
}

std::string SynthContext::GroupName(Gid gid) const {
  auto it = group_names.find(gid);
  return it != group_names.end() ? it->second : StrFormat("#%u", gid);
}

SynthContext ReferenceContext() {
  auto sys = std::make_shared<SimSystem>(SimMode::kProtego);
  SynthContext ctx;
  Task& root = sys->Login("root");
  if (auto content = sys->kernel().ReadWholeFile(root, "/etc/passwd"); content.ok()) {
    if (auto entries = ParsePasswd(content.value()); entries.ok()) {
      for (const PasswdEntry& e : entries.value()) {
        ctx.user_names[e.uid] = e.name;
      }
    }
  }
  if (auto content = sys->kernel().ReadWholeFile(root, "/etc/group"); content.ok()) {
    if (auto entries = ParseGroup(content.value()); entries.ok()) {
      for (const GroupEntry& e : entries.value()) {
        ctx.group_names[e.gid] = e.name;
      }
    }
  }
  // The probe captures the pristine system: metadata of files created or
  // chmodded during a traced scenario is deliberately invisible (such files
  // are scenario working state, not protected system objects).
  ctx.stat = [sys](const std::string& path) -> std::optional<SynthContext::FileMeta> {
    auto entry = sys->kernel().vfs().Resolve(path);
    if (!entry.ok()) {
      return std::nullopt;
    }
    SynthContext::FileMeta meta;
    meta.uid = entry.value()->inode().uid;
    meta.mode = entry.value()->inode().mode;
    return meta;
  };
  return ctx;
}

const UtilityFilter* SynthesizedPolicy::FilterFor(const std::string& exe) const {
  for (const UtilityFilter& f : filters) {
    if (f.exe == exe) {
      return &f;
    }
  }
  return nullptr;
}

std::string SynthesizedPolicy::Render() const {
  std::string out = StrFormat("# synthesized policy v1 seed=%llu\n",
                              static_cast<unsigned long long>(seed));
  for (const UtilityFilter& f : filters) {
    out += "== filter " + f.exe + " ==\n";
    out += f.text;
  }
  out += "== mounts ==\n";
  out += mounts_text;
  out += "== ports ==\n";
  out += ports_text;
  out += "== sudoers ==\n";
  out += sudoers_text;
  return out;
}

SynthStats& GlobalSynthStats() {
  static SynthStats* stats = new SynthStats();
  return *stats;
}

void SynthStats::CollectMetrics(MetricsBuilder& b) const {
  b.Counter("protego_synth_runs_total", "Policy synthesis passes completed", {},
            runs.load(std::memory_order_relaxed));
  b.Counter("protego_synth_observations_total",
            "Syscall observations consumed by policy synthesis", {},
            observations.load(std::memory_order_relaxed));
  b.Counter("protego_synth_filters_total", "Per-binary seccomp filters synthesized", {},
            filters.load(std::memory_order_relaxed));
  b.Counter("protego_synth_filter_rules_total",
            "Argument predicate rules emitted into synthesized filters", {},
            filter_rules.load(std::memory_order_relaxed));
  b.Counter("protego_synth_path_classes_total",
            "Path-prefix classes emitted into synthesized filters", {},
            path_classes.load(std::memory_order_relaxed));
  b.Counter("protego_synth_policy_rows_total",
            "Mount, bind-table, and sudoers rows synthesized", {},
            policy_rows.load(std::memory_order_relaxed));
}

void SynthStats::Reset() {
  runs.store(0, std::memory_order_relaxed);
  observations.store(0, std::memory_order_relaxed);
  filters.store(0, std::memory_order_relaxed);
  filter_rules.store(0, std::memory_order_relaxed);
  path_classes.store(0, std::memory_order_relaxed);
  policy_rows.store(0, std::memory_order_relaxed);
}

namespace {

using Observation = SyscallGate::SyscallObservation;

// --- Filter synthesis ----------------------------------------------------------

// Ceilings beyond which predicate synthesis degrades to a plain allow: an
// installable filter must stay well under SeccompFilter::kMaxRulesPerSysno
// so the one-way latch can still intersect it with another filter.
constexpr size_t kMaxSynthClasses = 48;
constexpr size_t kMaxSynthRulesPerSysno = 32;

bool TakesFd(Sysno nr) {
  switch (nr) {
    case Sysno::kRead:
    case Sysno::kWrite:
    case Sysno::kClose:
    case Sysno::kIoctl:
    case Sysno::kFlock:
    case Sysno::kConnect:
    case Sysno::kSendTo:
    case Sysno::kRecvFrom:
    case Sysno::kBind:
    case Sysno::kListen:
      return true;
    default:
      return false;
  }
}

SeccompPredicate PathPred(uint64_t class_id) {
  SeccompPredicate p;
  p.arg = kSeccompArgPath;
  p.cmp = SeccompCmp::kEq;
  p.value = class_id;
  return p;
}

SeccompPredicate ArgPred(uint8_t arg, SeccompCmp cmp, uint64_t value, uint64_t mask = 0) {
  SeccompPredicate p;
  p.arg = arg;
  p.cmp = cmp;
  p.value = value;
  p.mask = mask;
  return p;
}

// Synthesizes one binary's filter from everything it was observed to call.
// Observed calls are admitted whether they succeeded or not: a call the
// utility legitimately issues and handles the error of (a denied mount, a
// probing stat) must keep reaching DAC/LSM so the error stays the same.
UtilityFilter SynthesizeFilter(const std::string& exe,
                               const std::vector<const Observation*>& obs,
                               SynthStats& stats) {
  SeccompFilter::Spec spec;

  // Path classes over the canonical paths the walks reached: group them by
  // directory; a directory touched through three or more distinct paths
  // becomes one "dir/" class (the utility clearly works beneath that
  // directory), otherwise each path gets an exact class.
  std::map<std::string, std::set<std::string>> by_dir;
  for (const Observation* ob : obs) {
    if (SysnoTakesPath(ob->nr) && !ob->path.empty()) {
      by_dir[std::string(DirPathOf(ob->path))].insert(ob->path);
    }
  }
  std::set<std::string> entries;
  for (const auto& [dir, paths] : by_dir) {
    if (paths.size() >= 3 && dir != "/") {
      entries.insert(dir + "/");
    } else {
      entries.insert(paths.begin(), paths.end());
    }
  }
  bool use_paths = !entries.empty() && entries.size() <= kMaxSynthClasses;
  if (use_paths) {
    uint64_t next_id = 1;
    for (const std::string& entry : entries) {
      spec.path_classes.emplace_back(entry, next_id++);
    }
    stats.path_classes.fetch_add(spec.path_classes.size(), std::memory_order_relaxed);
  }

  // Per-syscall argument shapes.
  for (Sysno nr : AllSysnos()) {
    std::vector<const Observation*> calls;
    for (const Observation* ob : obs) {
      if (ob->nr == nr) {
        calls.push_back(ob);
      }
    }
    if (calls.empty()) {
      continue;  // never observed -> denied outright
    }
    spec.allowed.set(static_cast<size_t>(nr));

    std::vector<SeccompRule> rules;
    bool encodable = true;
    if (SysnoTakesPath(nr) && use_paths) {
      if (nr == Sysno::kOpen) {
        // One rule per path class, with the flag bits confined to the
        // union observed for that class: (flags & ~union) == 0.
        std::map<uint64_t, uint64_t> flags_union;  // class -> union of a1
        for (const Observation* ob : calls) {
          if (ob->path.empty()) {
            encodable = false;
            break;
          }
          flags_union[PathClassOf(spec.path_classes, ob->path)] |= ob->a1;
        }
        for (const auto& [cls, flag_bits] : flags_union) {
          SeccompRule r;
          r.preds.push_back(PathPred(cls));
          r.preds.push_back(ArgPred(1, SeccompCmp::kMaskedEq, 0, ~flag_bits));
          rules.push_back(std::move(r));
        }
      } else {
        std::set<uint64_t> classes;
        for (const Observation* ob : calls) {
          if (ob->path.empty()) {
            encodable = false;
            break;
          }
          classes.insert(PathClassOf(spec.path_classes, ob->path));
        }
        for (uint64_t cls : classes) {
          SeccompRule r;
          r.preds.push_back(PathPred(cls));
          rules.push_back(std::move(r));
        }
      }
    } else if (nr == Sysno::kSocket) {
      std::set<std::pair<uint64_t, uint64_t>> shapes;
      for (const Observation* ob : calls) {
        shapes.insert({ob->a0, ob->a1});
      }
      for (const auto& [family, type] : shapes) {
        SeccompRule r;
        r.preds.push_back(ArgPred(0, SeccompCmp::kEq, family));
        r.preds.push_back(ArgPred(1, SeccompCmp::kEq, type));
        rules.push_back(std::move(r));
      }
    } else if (nr == Sysno::kBind) {
      uint64_t max_fd = 0;
      std::set<uint64_t> ports;
      for (const Observation* ob : calls) {
        max_fd = std::max(max_fd, ob->a0);
        ports.insert(ob->a1);
      }
      uint64_t fd_bound = ((max_fd / 4) + 1) * 4;
      for (uint64_t port : ports) {
        SeccompRule r;
        r.preds.push_back(ArgPred(0, SeccompCmp::kLt, fd_bound));
        r.preds.push_back(ArgPred(1, SeccompCmp::kEq, port));
        rules.push_back(std::move(r));
      }
    } else if (TakesFd(nr)) {
      uint64_t max_fd = 0;
      for (const Observation* ob : calls) {
        max_fd = std::max(max_fd, ob->a0);
      }
      SeccompRule r;
      r.preds.push_back(ArgPred(0, SeccompCmp::kLt, ((max_fd / 4) + 1) * 4));
      rules.push_back(std::move(r));
    } else if (nr == Sysno::kSetuid || nr == Sysno::kSetgid) {
      std::set<uint64_t> ids;
      for (const Observation* ob : calls) {
        ids.insert(ob->a0);
      }
      for (uint64_t id : ids) {
        SeccompRule r;
        r.preds.push_back(ArgPred(0, SeccompCmp::kEq, id));
        rules.push_back(std::move(r));
      }
    } else if (nr == Sysno::kSetreuid) {
      std::set<uint64_t> ids;
      for (const Observation* ob : calls) {
        ids.insert(ob->a1);
      }
      for (uint64_t id : ids) {
        SeccompRule r;
        r.preds.push_back(ArgPred(1, SeccompCmp::kEq, id));
        rules.push_back(std::move(r));
      }
    }
    // Anything else observed (getpid, wait4, unshare, rlimits, setgroups,
    // seccomp) stays a plain allow: their argument spaces are either
    // harmless or vary legitimately run to run.

    if (encodable && !rules.empty() && rules.size() <= kMaxSynthRulesPerSysno) {
      stats.filter_rules.fetch_add(rules.size(), std::memory_order_relaxed);
      spec.rules[static_cast<uint16_t>(nr)] = std::move(rules);
    }
  }

  UtilityFilter f;
  f.exe = exe;
  f.spec = std::move(spec);
  auto built = SeccompFilter::FromSpec(f.spec);
  // FromSpec can only fail on malformed specs; everything above emits
  // well-formed ones. Degrade to a ruleless allow-list if it ever does.
  if (!built.ok()) {
    f.spec.rules.clear();
    f.spec.path_classes.clear();
    built = SeccompFilter::FromSpec(f.spec);
  }
  f.text = built.value().Render();
  stats.filters.fetch_add(1, std::memory_order_relaxed);
  return f;
}

// --- Delegation (sudoers) synthesis --------------------------------------------

std::string Basename(const std::string& path) {
  size_t slash = path.rfind('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

bool IsSudoLike(const std::string& exe) {
  std::string base = Basename(exe);
  return base == "sudo" || base == "sudoedit" || base == "pkexec";
}

// Replaces home-relative path arguments with a per-home glob, the one
// generalization a trace supports: the invoker was delegated work on that
// user's files, not on one specific file name.
std::string GeneralizeArg(const std::string& arg) {
  if (StartsWith(arg, "/home/")) {
    size_t slash = arg.find('/', 6);
    if (slash != std::string::npos && slash + 1 < arg.size()) {
      return arg.substr(0, slash + 1) + "*";
    }
  }
  return arg;
}

bool DacReadAllows(const SynthContext::FileMeta& meta, Uid euid) {
  if (euid == 0 || (euid == meta.uid && (meta.mode & 0400) != 0)) {
    return true;
  }
  // Group membership is invisible to an observation; counting the group
  // bit as readable errs toward NOT synthesizing a delegation.
  return (meta.mode & 0044) != 0;
}

// The delegation glob a protected read generalizes to: fragment databases
// widen to the whole directory (the service reads whichever fragment the
// request names), anything else stays the exact path.
std::string DelegationGlob(const std::string& path) {
  std::string dir(DirPathOf(path));
  if (dir == "/etc/shadows" || dir == "/etc/groups" || dir == "/etc/passwds") {
    return dir + "/*";
  }
  return path;
}

struct SudoersEvidence {
  bool targetpw = false;
  std::set<Gid> auth_groups;
  // (user, runas) pairs with an immediate-auth ALL grant.
  std::set<std::pair<std::string, std::string>> all_rules;
  // (user, runas, command, nopasswd) command-restricted grants.
  std::set<std::tuple<std::string, std::string, std::string, bool>> command_rules;
  std::set<std::pair<std::string, std::string>> delegations;  // (binary, glob)
  std::set<std::string> reauth_globs;
};

void CollectSudoersEvidence(const std::vector<SynthEvent>& events, const SynthContext& ctx,
                            SudoersEvidence* ev) {
  // Stream-order scan state.
  std::map<int, const Observation*> first_obs;          // pid -> first syscall obs
  for (const SynthEvent& e : events) {
    if (e.kind != SynthEvent::Kind::kSyscall) {
      continue;
    }
    if (first_obs.find(e.sys.pid) == first_obs.end()) {
      first_obs[e.sys.pid] = &e.sys;
    }
  }
  auto ruid_of = [&first_obs](int pid) -> std::optional<Uid> {
    auto it = first_obs.find(pid);
    if (it == first_obs.end()) {
      return std::nullopt;
    }
    return it->second->ruid;
  };

  // Authentication round trips: target-account auth is su semantics, group
  // accounts are newgrp semantics.
  for (const SynthEvent& e : events) {
    if (e.kind != SynthEvent::Kind::kAuth || !e.auth_ok) {
      continue;
    }
    for (Uid account : e.auth_accounts) {
      if (account >= kGroupAuthBase) {
        ev->auth_groups.insert(static_cast<Gid>(account - kGroupAuthBase));
      } else if (auto invoker = ruid_of(e.auth_pid);
                 invoker.has_value() && account != *invoker) {
        ev->targetpw = true;
      }
    }
  }
  // Delegation rules from sudo-family pids. The stream is in syscall
  // COMPLETION order — nested calls finish first, so the sudo pid's own
  // execve record (entry-snapshotted as the invoking shell's image) lands
  // AFTER everything sudo itself did. A per-pid "current exe" is therefore
  // meaningless; instead each successful setuid whose entry snapshot shows a
  // sudo-family image marks one delegation attempt, anchored at that event.
  //
  // Authentication placement distinguishes the rule shapes: an ALL rule
  // authenticates the invoker on the sudo pid itself at setuid time, while a
  // command rule defers authentication to the exec — which happens in the
  // spawned child, so the AUTH round trip lands on the child pid that
  // execve'd the command.
  std::map<int, std::string> execve_path;  // child pid -> first successful exec
  for (const SynthEvent& e : events) {
    if (e.kind == SynthEvent::Kind::kSyscall && e.sys.nr == Sysno::kExecve &&
        e.sys.err == Errno::kOk && execve_path.find(e.sys.pid) == execve_path.end()) {
      execve_path[e.sys.pid] = e.sys.path;
    }
  }
  auto self_auth = [&events](int pid, Uid invoker) {
    for (const SynthEvent& e : events) {
      if (e.kind == SynthEvent::Kind::kAuth && e.auth_pid == pid && e.auth_ok &&
          std::find(e.auth_accounts.begin(), e.auth_accounts.end(), invoker) !=
              e.auth_accounts.end()) {
        return true;
      }
    }
    return false;
  };
  auto child_auth = [&events, &execve_path](Uid invoker, const std::string& command_path) {
    for (const SynthEvent& e : events) {
      if (e.kind != SynthEvent::Kind::kAuth || !e.auth_ok ||
          std::find(e.auth_accounts.begin(), e.auth_accounts.end(), invoker) ==
              e.auth_accounts.end()) {
        continue;
      }
      auto it = execve_path.find(e.auth_pid);
      if (it != execve_path.end() && it->second == command_path) {
        return true;
      }
    }
    return false;
  };
  for (size_t i = 0; i < events.size(); ++i) {
    const SynthEvent& e = events[i];
    if (e.kind != SynthEvent::Kind::kSyscall || e.sys.nr != Sysno::kSetuid ||
        e.sys.err != Errno::kOk || !IsSudoLike(e.sys.exe) || e.sys.ruid == 0) {
      continue;  // root needs no delegation rule
    }
    const int pid = e.sys.pid;
    const Uid invoker = e.sys.ruid;
    const std::string user = ctx.UserName(invoker);
    const std::string runas = ctx.UserName(static_cast<Uid>(e.sys.a0));
    if (self_auth(pid, invoker)) {
      ev->all_rules.insert({user, runas});
      continue;
    }
    // Deferred grant: the commands this sudo pid launched after the
    // transition (its clone records carry the command path and argv).
    for (size_t j = i + 1; j < events.size(); ++j) {
      const SynthEvent& c = events[j];
      if (c.kind != SynthEvent::Kind::kSyscall || c.sys.pid != pid ||
          c.sys.nr != Sysno::kClone || c.sys.err != Errno::kOk || c.sys.exe != e.sys.exe) {
        continue;
      }
      std::string command = c.sys.path;
      for (size_t a = 1; a < c.sys.list.size(); ++a) {
        command += " " + GeneralizeArg(c.sys.list[a]);
      }
      ev->command_rules.insert({user, runas, command, !child_auth(invoker, c.sys.path)});
    }
  }

  // Protected reads: delegations and reauthentication gates.
  auto same_pid_invoker_auth = [&events](int pid, Uid ruid) {
    for (const SynthEvent& e : events) {
      if (e.kind == SynthEvent::Kind::kAuth && e.auth_pid == pid &&
          std::find(e.auth_accounts.begin(), e.auth_accounts.end(), ruid) !=
              e.auth_accounts.end()) {
        return true;
      }
    }
    return false;
  };
  for (const SynthEvent& e : events) {
    if (e.kind != SynthEvent::Kind::kSyscall || e.sys.nr != Sysno::kOpen ||
        e.sys.err != Errno::kOk || (e.sys.a1 & kOAccMode) != kORdOnly) {
      continue;
    }
    const Observation& ob = e.sys;
    if (StartsWith(ob.path, "/etc/shadows/")) {
      if (ob.euid == ob.ruid && same_pid_invoker_auth(ob.pid, ob.ruid)) {
        // The invoker proved presence for their own fragment: that is the
        // reauthentication gate in action.
        ev->reauth_globs.insert("/etc/shadows/*");
      } else if (!ob.exe.empty()) {
        ev->delegations.insert({ob.exe, DelegationGlob(ob.path)});
      }
      continue;
    }
    if (ctx.stat) {
      auto meta = ctx.stat(ob.path);
      if (meta.has_value() && !DacReadAllows(*meta, ob.euid) && !ob.exe.empty()) {
        // The read succeeded although plain DAC cannot explain it: only a
        // per-binary delegation reproduces that.
        ev->delegations.insert({ob.exe, DelegationGlob(ob.path)});
      }
    }
  }
}

SudoersPolicy SynthesizeSudoers(const TraceCorpus& corpus, const SynthContext& ctx,
                                SynthStats& stats) {
  SudoersEvidence ev;
  for (const auto& [name, events] : corpus.streams) {
    CollectSudoersEvidence(events, ctx, &ev);
  }

  SudoersPolicy sp;  // Defaults (timeout, env_keep) are sudo's own defaults.
  if (ev.targetpw) {
    SudoRule r;
    r.user = "ALL";
    r.runas = {"ALL"};
    r.commands = {"ALL"};
    r.targetpw = true;
    sp.rules.push_back(std::move(r));
  }
  for (const auto& [user, runas] : ev.all_rules) {
    SudoRule r;
    r.user = user;
    r.runas = {runas};
    r.commands = {"ALL"};
    sp.rules.push_back(std::move(r));
  }
  for (const auto& [user, runas, command, nopasswd] : ev.command_rules) {
    // An ALL grant for the same (user, runas) subsumes any command rule.
    if (ev.all_rules.count({user, runas}) != 0) {
      continue;
    }
    SudoRule r;
    r.user = user;
    r.runas = {runas};
    r.commands = {command};
    r.nopasswd = nopasswd;
    sp.rules.push_back(std::move(r));
  }
  for (Gid gid : ev.auth_groups) {
    sp.password_groups.push_back(ctx.GroupName(gid));
  }
  for (const auto& [binary, glob] : ev.delegations) {
    FileDelegation d;
    d.binary = binary;
    d.path_glob = glob;
    d.allow_may = kMayRead;
    sp.file_delegations.push_back(std::move(d));
  }
  sp.reauth_read_globs.assign(ev.reauth_globs.begin(), ev.reauth_globs.end());
  stats.policy_rows.fetch_add(sp.rules.size() + sp.password_groups.size() +
                                  sp.file_delegations.size() + sp.reauth_read_globs.size(),
                              std::memory_order_relaxed);
  return sp;
}

// --- Mount and bind-table synthesis --------------------------------------------

std::vector<FstabEntry> SynthesizeMounts(const TraceCorpus& corpus, SynthStats& stats) {
  std::map<std::pair<std::string, std::string>, FstabEntry> entries;
  for (const auto& [name, events] : corpus.streams) {
    for (const SynthEvent& e : events) {
      if (e.kind != SynthEvent::Kind::kSyscall || e.sys.nr != Sysno::kMount ||
          e.sys.err != Errno::kOk) {
        continue;
      }
      FstabEntry entry;
      entry.device = e.sys.str1;
      entry.mountpoint = e.sys.path;
      entry.fstype = e.sys.str2;
      entry.options = e.sys.list;
      if (entry.options.empty()) {
        entry.options = {"defaults"};
      }
      entries.emplace(std::make_pair(entry.device, entry.mountpoint), std::move(entry));
    }
  }
  std::vector<FstabEntry> out;
  for (auto& [key, entry] : entries) {
    out.push_back(std::move(entry));
  }
  stats.policy_rows.fetch_add(out.size(), std::memory_order_relaxed);
  return out;
}

std::vector<BindConfEntry> SynthesizePorts(const TraceCorpus& corpus, SynthStats& stats) {
  std::set<std::tuple<uint16_t, std::string, Uid>> rows;
  for (const auto& [name, events] : corpus.streams) {
    for (const SynthEvent& e : events) {
      if (e.kind != SynthEvent::Kind::kSyscall || e.sys.nr != Sysno::kBind ||
          e.sys.err != Errno::kOk) {
        continue;
      }
      if (e.sys.a1 == 0 || e.sys.a1 >= 1024 || e.sys.exe.empty()) {
        continue;  // unprivileged ports need no table row
      }
      rows.insert({static_cast<uint16_t>(e.sys.a1), e.sys.exe, e.sys.euid});
    }
  }
  std::vector<BindConfEntry> out;
  for (const auto& [port, binary, uid] : rows) {
    BindConfEntry entry;
    entry.port = port;
    entry.binary = binary;
    entry.uid = uid;
    out.push_back(std::move(entry));
  }
  stats.policy_rows.fetch_add(out.size(), std::memory_order_relaxed);
  return out;
}

}  // namespace

SynthesizedPolicy Synthesize(const TraceCorpus& corpus, const SynthContext& ctx) {
  SynthStats& stats = GlobalSynthStats();
  stats.runs.fetch_add(1, std::memory_order_relaxed);

  SynthesizedPolicy p;
  p.seed = corpus.seed;

  // Per-binary observation slices, keyed (and therefore emitted) in sorted
  // exe order.
  std::map<std::string, std::vector<const Observation*>> by_exe;
  for (const auto& [name, events] : corpus.streams) {
    for (const SynthEvent& e : events) {
      if (e.kind != SynthEvent::Kind::kSyscall) {
        continue;
      }
      stats.observations.fetch_add(1, std::memory_order_relaxed);
      if (!e.sys.exe.empty()) {
        by_exe[e.sys.exe].push_back(&e.sys);
      }
    }
  }
  for (const auto& [exe, obs] : by_exe) {
    p.filters.push_back(SynthesizeFilter(exe, obs, stats));
  }

  p.mounts = SynthesizeMounts(corpus, stats);
  p.ports = SynthesizePorts(corpus, stats);
  p.sudoers = SynthesizeSudoers(corpus, ctx, stats);

  p.mounts_text = SerializeFstab(p.mounts);
  p.ports_text = SerializeBindConf(p.ports);
  p.sudoers_text = SerializeSudoers(p.sudoers);
  return p;
}

}  // namespace protego::synth
