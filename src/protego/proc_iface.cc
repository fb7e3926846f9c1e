#include "src/protego/proc_iface.h"

#include "src/base/strings.h"
#include "src/config/passwd_db.h"
#include "src/kernel/kernel.h"
#include "src/kernel/syscall.h"
#include "src/lsm/stack.h"
#include "src/protego/protego_lsm.h"

namespace protego {

namespace {

std::optional<int> LsmHookFromName(std::string_view name) {
  for (size_t i = 0; i < static_cast<size_t>(LsmHook::kCount); ++i) {
    if (name == LsmHookName(static_cast<LsmHook>(i))) {
      return static_cast<int>(i);
    }
  }
  return std::nullopt;
}

}  // namespace

Result<std::vector<FaultDirective>> ParseFaultDirectives(std::string_view content) {
  std::vector<FaultDirective> directives;
  for (const std::string& raw_line : Split(content, '\n')) {
    std::string_view line = Trim(raw_line);
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::vector<std::string> tokens = SplitWhitespace(line);
    if (tokens[0] == "reset") {
      if (tokens.size() != 1) {
        return Error(Errno::kEINVAL, "fault_inject: reset takes no arguments");
      }
      FaultDirective d;
      d.kind = FaultDirective::Kind::kReset;
      directives.push_back(d);
      continue;
    }
    FaultDirective d;
    size_t first_kv = 0;
    if (tokens[0] == "off") {
      d.kind = FaultDirective::Kind::kOff;
      first_kv = 1;
    }
    bool have_site = false;
    bool have_error = false;
    for (size_t i = first_kv; i < tokens.size(); ++i) {
      const std::string& token = tokens[i];
      size_t eq = token.find('=');
      if (eq == std::string::npos) {
        return Error(Errno::kEINVAL, "fault_inject token: " + token);
      }
      std::string key = token.substr(0, eq);
      std::string value = token.substr(eq + 1);
      if (key == "site") {
        std::optional<FaultSite> site = FaultSiteFromName(value);
        if (!site) {
          return Error(Errno::kEINVAL, "fault_inject site: " + value);
        }
        d.site = *site;
        have_site = true;
      } else if (key == "error") {
        std::optional<Errno> e = ErrnoFromName(value);
        if (!e || *e == Errno::kOk) {
          return Error(Errno::kEINVAL, "fault_inject error: " + value);
        }
        d.config.error = *e;
        have_error = true;
      } else if (key == "prob") {
        std::vector<std::string> frac = Split(value, '/');
        std::optional<uint64_t> num = frac.size() == 2 ? ParseUint(frac[0]) : std::nullopt;
        std::optional<uint64_t> den = frac.size() == 2 ? ParseUint(frac[1]) : std::nullopt;
        if (!num || !den || *den == 0 || *num > *den) {
          return Error(Errno::kEINVAL, "fault_inject prob: " + value);
        }
        d.config.prob_num = *num;
        d.config.prob_den = *den;
      } else if (key == "interval") {
        std::optional<uint64_t> v = ParseUint(value);
        if (!v || *v == 0) {
          return Error(Errno::kEINVAL, "fault_inject interval: " + value);
        }
        d.config.interval = *v;
      } else if (key == "times") {
        std::optional<uint64_t> v = ParseUint(value);
        if (!v) {
          return Error(Errno::kEINVAL, "fault_inject times: " + value);
        }
        d.config.times = *v;
      } else if (key == "pid") {
        std::optional<uint64_t> v = ParseUint(value);
        if (!v) {
          return Error(Errno::kEINVAL, "fault_inject pid: " + value);
        }
        d.config.pid = static_cast<int>(*v);
      } else if (key == "syscall" || key == "sysno") {
        // By name ("open") or by number ("2") — Format() emits the numeric
        // form, so the read body must parse back.
        std::optional<int> nr;
        if (std::optional<Sysno> parsed = SysnoFromName(value)) {
          nr = static_cast<int>(*parsed);
        }
        if (!nr) {
          std::optional<uint64_t> v = ParseUint(value);
          if (!v) {
            return Error(Errno::kEINVAL, "fault_inject syscall: " + value);
          }
          nr = static_cast<int>(*v);
        }
        d.config.sysno = *nr;
      } else if (key == "hook") {
        std::optional<int> hook = LsmHookFromName(value);
        if (!hook) {
          std::optional<uint64_t> v = ParseUint(value);
          if (!v) {
            return Error(Errno::kEINVAL, "fault_inject hook: " + value);
          }
          hook = static_cast<int>(*v);
        }
        d.config.hook = *hook;
      } else if (key == "seed") {
        std::optional<uint64_t> v = ParseUint(value);
        if (!v) {
          return Error(Errno::kEINVAL, "fault_inject seed: " + value);
        }
        d.config.seed = *v;
      } else {
        return Error(Errno::kEINVAL, "fault_inject key: " + key);
      }
    }
    if (!have_site) {
      return Error(Errno::kEINVAL, "fault_inject: directive needs site=");
    }
    if (d.kind == FaultDirective::Kind::kConfigure) {
      if (!have_error) {
        return Error(Errno::kEINVAL, "fault_inject: directive needs error=");
      }
      d.config.enabled = true;
    }
    directives.push_back(d);
  }
  return directives;
}

std::string SerializeUserDbSections(const UserDb& db) {
  std::string out = "[passwd]\n";
  out += SerializePasswd(db.users());
  out += "[shadow]\n";
  out += SerializeShadow(db.shadows());
  out += "[group]\n";
  out += SerializeGroup(db.groups());
  return out;
}

Result<UserDb> ParseUserDbSections(std::string_view content) {
  std::string passwd_part, shadow_part, group_part;
  std::string* current = nullptr;
  for (const std::string& line : Split(content, '\n')) {
    std::string_view trimmed = Trim(line);
    if (trimmed == "[passwd]") {
      current = &passwd_part;
    } else if (trimmed == "[shadow]") {
      current = &shadow_part;
    } else if (trimmed == "[group]") {
      current = &group_part;
    } else if (!trimmed.empty()) {
      if (current == nullptr) {
        return Error(Errno::kEINVAL, "userdb: content before section header");
      }
      current->append(trimmed);
      current->push_back('\n');
    }
  }
  ASSIGN_OR_RETURN(auto users, ParsePasswd(passwd_part));
  ASSIGN_OR_RETURN(auto shadows, ParseShadow(shadow_part));
  ASSIGN_OR_RETURN(auto groups, ParseGroup(group_part));
  return UserDb(std::move(users), std::move(shadows), std::move(groups));
}

Result<TraceFilter> ParseTraceQuery(std::string_view query) {
  if (query.empty() || query[0] != '?') {
    return Error(Errno::kEINVAL, "trace filter: expected leading '?'");
  }
  TraceFilter filter;
  std::string_view rest = query.substr(1);
  if (rest.empty()) {
    return filter;  // "?" resets to match-everything
  }
  for (const std::string& pair : Split(rest, '&')) {
    if (pair == "since") {
      filter.since = 0;  // bare "since" resets the cursor
      continue;
    }
    size_t eq = pair.find('=');
    if (eq == std::string::npos) {
      return Error(Errno::kEINVAL, "trace filter token: " + pair);
    }
    std::string key = pair.substr(0, eq);
    std::string value = pair.substr(eq + 1);
    if (key == "pid") {
      auto v = ParseUint(value);
      if (!v) {
        return Error(Errno::kEINVAL, "trace filter pid: " + value);
      }
      filter.pid = static_cast<int>(*v);
    } else if (key == "syscall") {
      if (value.empty()) {
        return Error(Errno::kEINVAL, "trace filter syscall: empty");
      }
      filter.syscall = value;
    } else if (key == "span") {
      auto v = ParseUint(value);
      if (!v || *v == 0) {
        return Error(Errno::kEINVAL, "trace filter span: " + value);
      }
      filter.span = *v;
    } else if (key == "since") {
      auto v = ParseUint(value);
      if (!v) {
        return Error(Errno::kEINVAL, "trace filter since: " + value);
      }
      filter.since = *v;
    } else {
      return Error(Errno::kEINVAL, "trace filter key: " + key);
    }
  }
  return filter;
}

namespace {

// "syscall" | "lsm_hook" | ... -> TracepointId, for the trace file's
// sample= command.
std::optional<TracepointId> TracepointFromName(std::string_view name) {
  for (size_t i = 0; i < kTracepointCount; ++i) {
    TracepointId tp = static_cast<TracepointId>(i);
    if (name == TracepointName(tp)) {
      return tp;
    }
  }
  return std::nullopt;
}

// Parses the value of a `syscalls=` / `timed=` trace command:
// "all" | "none" | comma-separated syscall names. EINVAL names the first
// unknown syscall; nothing is applied until the whole list validates.
struct SyscallSetSpec {
  bool all = false;             // "all"
  std::vector<Sysno> members;   // explicit list ("none" = empty)
};

Result<SyscallSetSpec> ParseSyscallSet(const char* what, std::string_view value) {
  SyscallSetSpec spec;
  if (value == "all") {
    spec.all = true;
    return spec;
  }
  if (value == "none") {
    return spec;
  }
  if (value.empty()) {
    return Error(Errno::kEINVAL, StrFormat("trace %s: expected all|none|name,...", what));
  }
  for (const std::string& name : Split(value, ',')) {
    bool found = false;
    for (Sysno nr : AllSysnos()) {
      if (name == SysnoName(nr)) {
        spec.members.push_back(nr);
        found = true;
        break;
      }
    }
    if (!found) {
      return Error(Errno::kEINVAL, StrFormat("trace %s: unknown syscall: %s", what,
                                             name.c_str()));
    }
  }
  return spec;
}

}  // namespace

Result<Unit> InstallProtegoProcFiles(Kernel* kernel, ProtegoLsm* lsm) {
  Vfs& vfs = kernel->vfs();

  SyntheticOps mounts_ops;
  mounts_ops.read = [lsm]() { return SerializeFstab(lsm->mount_policy()); };
  mounts_ops.write = [lsm](std::string_view data) -> Result<Unit> {
    ASSIGN_OR_RETURN(auto entries, ParseFstab(data));
    return lsm->SetMountPolicy(std::move(entries));
  };
  RETURN_IF_ERROR(vfs.CreateSynthetic("/proc/protego/mounts", 0600, std::move(mounts_ops)));

  SyntheticOps ports_ops;
  ports_ops.read = [lsm]() { return SerializeBindConf(lsm->bind_table()); };
  ports_ops.write = [lsm](std::string_view data) -> Result<Unit> {
    ASSIGN_OR_RETURN(auto entries, ParseBindConf(data));
    return lsm->SetBindTable(std::move(entries));
  };
  RETURN_IF_ERROR(vfs.CreateSynthetic("/proc/protego/ports", 0600, std::move(ports_ops)));

  SyntheticOps sudoers_ops;
  sudoers_ops.read = [lsm]() { return SerializeSudoers(lsm->delegation()); };
  sudoers_ops.write = [lsm](std::string_view data) -> Result<Unit> {
    ASSIGN_OR_RETURN(auto policy, ParseSudoers(data));
    return lsm->SetDelegation(std::move(policy));
  };
  RETURN_IF_ERROR(vfs.CreateSynthetic("/proc/protego/sudoers", 0600, std::move(sudoers_ops)));

  SyntheticOps ppp_ops;
  ppp_ops.read = [lsm]() { return SerializePppOptions(lsm->ppp_options()); };
  ppp_ops.write = [lsm](std::string_view data) -> Result<Unit> {
    ASSIGN_OR_RETURN(auto options, ParsePppOptions(data));
    return lsm->SetPppOptions(std::move(options));
  };
  RETURN_IF_ERROR(vfs.CreateSynthetic("/proc/protego/ppp", 0600, std::move(ppp_ops)));

  SyntheticOps userdb_ops;
  userdb_ops.read = [lsm]() { return SerializeUserDbSections(lsm->user_db()); };
  userdb_ops.write = [lsm](std::string_view data) -> Result<Unit> {
    ASSIGN_OR_RETURN(UserDb db, ParseUserDbSections(data));
    return lsm->SetUserDb(std::move(db));
  };
  RETURN_IF_ERROR(vfs.CreateSynthetic("/proc/protego/userdb", 0600, std::move(userdb_ops)));

  // Audit trail: the kernel's security-decision ring buffer, root-only.
  SyntheticOps audit_ops;
  audit_ops.read = [kernel]() {
    std::string out;
    for (const std::string& record : kernel->audit_log()) {
      out += record;
      out += "\n";
    }
    return out;
  };
  RETURN_IF_ERROR(vfs.CreateSynthetic("/proc/protego/audit", 0400, std::move(audit_ops)));

  // Recent-event trace ring. Root-only (it exposes other tasks' activity);
  // writing "clear" drops the ring, "on"/"off" toggle tracing, and a query
  // string ("?pid=12&syscall=mount&span=3&since=100", any subset) sets the
  // read-side filter applied by subsequent reads. Writing "?" alone clears
  // the filter; a bare "since" inside a query resets just the cursor.
  // Control commands: "sample=<point|all>:<rate>" sets 1-in-N head sampling,
  // "seed=N" reseeds the sampling streams (replayable, like fault_inject),
  // and "syscalls=..." / "timed=..." (all|none|name,name) set the gate's
  // per-syscall traced and timed sets.
  SyntheticOps trace_ops;
  trace_ops.read = [kernel]() { return kernel->tracer().Format(); };
  trace_ops.write = [kernel](std::string_view data) -> Result<Unit> {
    std::string_view cmd = Trim(data);
    if (cmd == "clear") {
      kernel->tracer().Clear();
    } else if (cmd == "on") {
      kernel->tracer().set_enabled(true);
    } else if (cmd == "off") {
      kernel->tracer().set_enabled(false);
    } else if (!cmd.empty() && cmd[0] == '?') {
      ASSIGN_OR_RETURN(TraceFilter filter, ParseTraceQuery(cmd));
      kernel->tracer().set_read_filter(std::move(filter));
    } else if (StartsWith(cmd, "sample=")) {
      // sample=<point>:<rate> or sample=all:<rate> — head-sampling rate
      // (1-in-N; 0/1 = keep everything).
      std::string_view spec = cmd.substr(7);
      size_t colon = spec.find(':');
      if (colon == std::string_view::npos) {
        return Error(Errno::kEINVAL, "trace sample: expected <point|all>:<rate>");
      }
      std::string_view point = spec.substr(0, colon);
      auto rate = ParseUint(spec.substr(colon + 1));
      if (!rate || *rate > UINT32_MAX) {
        return Error(Errno::kEINVAL,
                     "trace sample rate: " + std::string(spec.substr(colon + 1)));
      }
      if (point == "all") {
        kernel->tracer().set_all_sample_rates(static_cast<uint32_t>(*rate));
      } else {
        auto tp = TracepointFromName(point);
        if (!tp) {
          return Error(Errno::kEINVAL, "trace sample point: " + std::string(point));
        }
        kernel->tracer().set_sample_rate(*tp, static_cast<uint32_t>(*rate));
      }
    } else if (StartsWith(cmd, "seed=")) {
      auto seed = ParseUint(cmd.substr(5));
      if (!seed) {
        return Error(Errno::kEINVAL, "trace seed: " + std::string(cmd.substr(5)));
      }
      kernel->tracer().set_sample_seed(*seed);
    } else if (StartsWith(cmd, "syscalls=")) {
      // The traced set: which syscalls may open spans and emit kSyscall
      // roots. Validated in full before anything is applied.
      ASSIGN_OR_RETURN(SyscallSetSpec spec, ParseSyscallSet("syscalls", cmd.substr(9)));
      SyscallGate& gate = kernel->syscalls();
      gate.SetAllSyscallsTraced(spec.all);
      for (Sysno nr : spec.members) {
        gate.SetSyscallTraced(nr, true);
      }
    } else if (StartsWith(cmd, "timed=")) {
      // Per-syscall wall-clock timing set: arms the named syscalls' ns
      // histograms and tail exemplars (empty at boot).
      ASSIGN_OR_RETURN(SyscallSetSpec spec, ParseSyscallSet("timed", cmd.substr(6)));
      SyscallGate& gate = kernel->syscalls();
      gate.SetAllSyscallsTimed(spec.all);
      for (Sysno nr : spec.members) {
        gate.SetSyscallTimed(nr, true);
      }
    } else {
      return Error(Errno::kEINVAL,
                   "trace: expected clear|on|off|sample=|seed=|syscalls=|timed=|?k=v&...");
    }
    return OkUnit();
  };
  RETURN_IF_ERROR(vfs.CreateSynthetic("/proc/protego/trace", 0600, std::move(trace_ops)));

  // Per-layer latency attribution: a folded-stack profile of where the
  // timed calls' time is spent (gate / seccomp / lsm / dac / vfs /
  // netfilter / fault_registry / observer). The timed set is the switch
  // ("timed=" on /proc/protego/trace); "clear" zeroes accumulated frames.
  SyntheticOps profile_ops;
  profile_ops.read = [kernel]() { return kernel->profiler().FormatProfile(); };
  profile_ops.write = [kernel](std::string_view data) -> Result<Unit> {
    if (Trim(data) != "clear") {
      return Error(Errno::kEINVAL, "profile: expected clear (timed= arms it)");
    }
    kernel->profiler().Reset();
    return OkUnit();
  };
  RETURN_IF_ERROR(vfs.CreateSynthetic("/proc/protego/profile", 0600, std::move(profile_ops)));

  // Fault-injection control file, root-only. Reads render the enabled
  // sites as re-writable directive lines (the recorded {seed, site-config}
  // replay tuple) plus counter comments; writes are parsed and validated in
  // full before any directive is applied, so a rejected write leaves the
  // registry byte-identical.
  SyntheticOps fault_ops;
  fault_ops.read = [kernel]() { return kernel->faults().Format(); };
  fault_ops.write = [kernel](std::string_view data) -> Result<Unit> {
    ASSIGN_OR_RETURN(std::vector<FaultDirective> directives, ParseFaultDirectives(data));
    FaultRegistry& faults = kernel->faults();
    for (const FaultDirective& d : directives) {
      switch (d.kind) {
        case FaultDirective::Kind::kReset:
          faults.Reset();
          break;
        case FaultDirective::Kind::kOff:
          faults.Disable(d.site);
          break;
        case FaultDirective::Kind::kConfigure:
          // Cannot fail: ParseFaultDirectives already enforced Configure's
          // constraints, keeping the apply loop failure-free (atomic).
          RETURN_IF_ERROR(faults.Configure(d.site, d.config));
          break;
      }
    }
    return OkUnit();
  };
  RETURN_IF_ERROR(
      vfs.CreateSynthetic("/proc/protego/fault_inject", 0600, std::move(fault_ops)));

  // Per-task seccomp filters, root-only: one section per live task that
  // carries a filter, rendered in the same installable text form
  // SeccompFilter::ParseSpec accepts. Writing "?pid=N" narrows subsequent
  // reads to that pid ("?" clears the filter); anything else is EINVAL.
  auto seccomp_read_pid = std::make_shared<std::atomic<int>>(-1);
  SyntheticOps seccomp_ops;
  seccomp_ops.read = [kernel, seccomp_read_pid]() {
    const int want = seccomp_read_pid->load(std::memory_order_relaxed);
    std::string out;
    kernel->ForEachTask([&](const Task& task) {
      if (task.seccomp == nullptr || (want >= 0 && task.pid != want)) {
        return;
      }
      out += StrFormat("# pid=%d comm=%s exe=%s\n", task.pid, task.comm.c_str(),
                       task.exe_path.c_str());
      out += task.seccomp->Render();
    });
    return out;
  };
  seccomp_ops.write = [seccomp_read_pid](std::string_view data) -> Result<Unit> {
    std::string_view cmd = Trim(data);
    if (cmd == "?") {
      seccomp_read_pid->store(-1, std::memory_order_relaxed);
      return OkUnit();
    }
    if (StartsWith(cmd, "?pid=")) {
      std::string_view value = cmd.substr(5);
      int pid = 0;
      if (!value.empty() && value.find_first_not_of("0123456789") == std::string_view::npos) {
        for (char c : value) {
          pid = pid * 10 + (c - '0');
        }
        seccomp_read_pid->store(pid, std::memory_order_relaxed);
        return OkUnit();
      }
      return Error(Errno::kEINVAL, "seccomp: pid must be a nonnegative integer");
    }
    return Error(Errno::kEINVAL, "seccomp: expected ? or ?pid=N");
  };
  RETURN_IF_ERROR(vfs.CreateSynthetic("/proc/protego/seccomp", 0600, std::move(seccomp_ops)));

  // Metrics registry in Prometheus text exposition format, world-readable
  // like /proc/stat: the one export of every counter the kernel keeps.
  SyntheticOps metrics_ops;
  metrics_ops.read = [kernel]() { return kernel->metrics().PrometheusText(); };
  RETURN_IF_ERROR(vfs.CreateSynthetic("/proc/protego/metrics", 0444, std::move(metrics_ops)));

  // Protego's own policy-outcome counters: the same per-thread sum the C++
  // accessor returns.
  kernel->metrics().AddCollector([lsm](MetricsBuilder& b) {
    const ProtegoStats s = lsm->stats();
    const char* help = "Protego policy decisions by operation and outcome.";
    auto row = [&](const char* op, const char* outcome, uint64_t n) {
      b.Counter("protego_policy_decisions_total", help, {{"op", op}, {"outcome", outcome}}, n);
    };
    row("mount", "allowed", s.mount_allowed);
    row("mount", "denied", s.mount_denied);
    row("umount", "allowed", s.umount_allowed);
    row("umount", "denied", s.umount_denied);
    row("bind", "allowed", s.bind_allowed);
    row("bind", "denied", s.bind_denied);
    row("setuid", "allowed", s.setuid_allowed);
    row("setuid", "deferred", s.setuid_deferred);
    row("setuid", "denied", s.setuid_denied);
    row("exec", "transition", s.exec_transitions);
    row("exec", "denied", s.exec_denied);
    row("raw_socket", "allowed", s.raw_sockets_allowed);
    row("route", "allowed", s.route_allowed);
    row("route", "denied", s.route_denied);
    row("file", "delegated", s.file_delegations);
    b.Counter("protego_reauth_reads_total",
              "Reads of re-authentication state by the auth agent.", {}, s.reauth_reads);
  });

  return OkUnit();
}

}  // namespace protego
