#include "src/protego/protego_lsm.h"

#include <algorithm>
#include <iterator>
#include <optional>
#include <utility>

#include "src/base/strings.h"
#include "src/kernel/kernel.h"
#include "src/net/routing.h"

namespace protego {

namespace {

// Mount options a user may add beyond what the whitelist entry grants;
// each strictly reduces privilege.
const char* kSafeExtraMountOptions[] = {"ro", "nosuid", "nodev", "noexec"};

bool IsSafeExtraOption(const std::string& opt) {
  for (const char* safe : kSafeExtraMountOptions) {
    if (opt == safe) {
      return true;
    }
  }
  return false;
}

}  // namespace

ProtegoLsm::ProtegoLsm(Kernel* kernel) : kernel_(kernel), policy_(kernel->grace()) {}

void ProtegoLsm::Count(uint64_t ProtegoStats::*field) const {
  std::atomic_ref<uint64_t> n(stats_.Mine().*field);
  n.store(n.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
}

ProtegoStats ProtegoLsm::stats() const {
  static constexpr uint64_t ProtegoStats::*kFields[] = {
      &ProtegoStats::mount_allowed,    &ProtegoStats::mount_denied,
      &ProtegoStats::umount_allowed,   &ProtegoStats::umount_denied,
      &ProtegoStats::bind_allowed,     &ProtegoStats::bind_denied,
      &ProtegoStats::setuid_deferred,  &ProtegoStats::setuid_allowed,
      &ProtegoStats::setuid_denied,    &ProtegoStats::exec_transitions,
      &ProtegoStats::exec_denied,      &ProtegoStats::raw_sockets_allowed,
      &ProtegoStats::route_allowed,    &ProtegoStats::route_denied,
      &ProtegoStats::file_delegations, &ProtegoStats::reauth_reads,
  };
  static_assert(sizeof(ProtegoStats) == std::size(kFields) * sizeof(uint64_t),
                "every ProtegoStats field is summed");
  ProtegoStats sum;
  stats_.ForEach([&](ProtegoStats& shard) {
    for (uint64_t ProtegoStats::*field : kFields) {
      sum.*field += std::atomic_ref<uint64_t>(shard.*field).load(std::memory_order_relaxed);
    }
  });
  return sum;
}

Result<Unit> ProtegoLsm::Compile(Policy& next) const {
  // Compile into the staged snapshot so a failure part-way through (an
  // injected kPolicyCompile fault standing in for OOM during index
  // construction) publishes nothing — the live snapshot is untouched. Two
  // fault evaluation points — before any index is built and after half of
  // them — so the sweep can prove that a fault at either boundary rolls
  // back identically.
  FaultRegistry& faults = kernel_->faults();
  if (faults.any_enabled()) {
    RETURN_IF_ERROR(faults.Check(FaultSite::kPolicyCompile, "policy compile (start)"));
  }
  next.engine.bind.Build(next.bind_table);
  next.engine.mount.Build(next.mount_whitelist);
  if (faults.any_enabled()) {
    RETURN_IF_ERROR(faults.Check(FaultSite::kPolicyCompile, "policy compile (mid-swap)"));
  }
  next.engine.files.Build(next.delegation);
  next.engine.sudoers.Build(next.delegation, next.user_db);
  return OkUnit();
}

template <typename Table>
Result<Unit> ProtegoLsm::Swap(Table Policy::*table, Table value) {
  Result<Unit> compiled = OkUnit();
  const bool published = policy_.Replace([&](const Policy& cur) -> std::optional<Policy> {
    // Only the raw tables are copied; the engine is rebuilt from them.
    Policy next;
    next.mount_whitelist = cur.mount_whitelist;
    next.bind_table = cur.bind_table;
    next.delegation = cur.delegation;
    next.user_db = cur.user_db;
    next.ppp_options = cur.ppp_options;
    next.*table = std::move(value);
    compiled = Compile(next);
    if (!compiled.ok()) {
      return std::nullopt;
    }
    return next;
  });
  // Publish-then-bump: the new snapshot is published before the (release)
  // generation bump, so a reader that sees generation G (acquire) is
  // guaranteed to load at least generation G's snapshot. A failed swap
  // leaves the generation unchanged.
  if (published) {
    BumpPolicyGeneration();
  }
  return compiled;
}

Result<Unit> ProtegoLsm::SetMountPolicy(std::vector<FstabEntry> whitelist) {
  return Swap(&Policy::mount_whitelist, std::move(whitelist));
}

Result<Unit> ProtegoLsm::SetBindTable(std::vector<BindConfEntry> table) {
  return Swap(&Policy::bind_table, std::move(table));
}

Result<Unit> ProtegoLsm::SetDelegation(SudoersPolicy policy) {
  return Swap(&Policy::delegation, std::move(policy));
}

Result<Unit> ProtegoLsm::SetUserDb(UserDb db) { return Swap(&Policy::user_db, std::move(db)); }

Result<Unit> ProtegoLsm::SetPppOptions(PppOptions options) {
  return Swap(&Policy::ppp_options, std::move(options));
}

// --- Mount (§4.2) ---------------------------------------------------------------

bool ProtegoLsm::MountRuleGrants(const CompiledFstabRule& rule, const Task& task,
                                 const MountRequest& req) const {
  // Every requested option must be granted by the entry or be a
  // privilege-reducing extra.
  for (const std::string& opt : req.options) {
    if (!rule.entry.HasOption(opt) && !IsSafeExtraOption(opt)) {
      return false;
    }
  }
  // Glob entries ("fuse /home/*/mnt fuse user") grant per-user
  // mountpoints: the actual directory must belong to the requester, or
  // anyone could graft a filesystem into someone else's home.
  return !rule.glob_mountpoint || req.mountpoint_owner == task.cred.ruid;
}

HookVerdict ProtegoLsm::SbMount(const Task& task, const MountRequest& req, bool* /*unused*/) {
  if (kernel_->Capable(task, Capability::kSysAdmin)) {
    return HookVerdict::kDefault;  // administrator path is unchanged
  }
  GraceDomain::Section section(policy_.grace());
  const Policy& pol = Current();  // ONE snapshot for the whole dispatch
  bool granted = false;
  pol.engine.mount.ForEachMatch(req.source, req.mountpoint, req.fstype,
                                [&](const CompiledFstabRule& rule) {
                                  granted = MountRuleGrants(rule, task, req);
                                  return granted;
                                });
  if (granted) {
    Count(&ProtegoStats::mount_allowed);
    kernel_->Audit(StrFormat("protego: user mount %s on %s allowed (uid=%u)", req.source.c_str(),
                       req.mountpoint.c_str(), task.cred.ruid));
    return HookVerdict::kAllow;
  }
  Count(&ProtegoStats::mount_denied);
  return HookVerdict::kDefault;  // falls through to the CAP_SYS_ADMIN refusal
}

HookVerdict ProtegoLsm::SbUmount(const Task& task, const std::string& mountpoint,
                                 Uid mounter) {
  if (kernel_->Capable(task, Capability::kSysAdmin)) {
    return HookVerdict::kDefault;
  }
  GraceDomain::Section section(policy_.grace());
  const Policy& pol = Current();
  // May THIS user unmount? "users" entries let anyone; "user" entries only
  // the task that mounted.
  bool granted = false;
  pol.engine.mount.ForEachMountpointMatch(mountpoint, [&](const CompiledFstabRule& rule) {
    granted = rule.any_user_may_unmount || mounter == task.cred.ruid;
    return granted;
  });
  if (granted) {
    Count(&ProtegoStats::umount_allowed);
    return HookVerdict::kAllow;
  }
  Count(&ProtegoStats::umount_denied);
  return HookVerdict::kDefault;
}

// --- Raw sockets (§4.1.1) ---------------------------------------------------------

HookVerdict ProtegoLsm::SocketCreate(const Task& task, const SocketRequest& req) {
  (void)task;
  if (req.type == kSockRaw || req.family == kAfPacket) {
    // Any user may create a raw or packet socket; what they can SEND is
    // constrained by the default netfilter rules (see default_rules.cc).
    Count(&ProtegoStats::raw_sockets_allowed);
    return HookVerdict::kAllow;
  }
  return HookVerdict::kDefault;
}

// --- Bind (§4.1.3) -----------------------------------------------------------------

HookVerdict ProtegoLsm::SocketBind(const Task& task, const BindRequest& req, bool* /*unused*/) {
  if (req.netns != 0) {
    // A port inside a sandbox namespace is not the system's well-known
    // port; allocations do not apply there.
    return HookVerdict::kDefault;
  }
  if (req.port >= 1024) {
    return HookVerdict::kDefault;
  }
  GraceDomain::Section section(policy_.grace());
  const Policy& pol = Current();
  // The port may carry several (binary, uid) allocations; EVERY entry for
  // the port must be considered before denying — denying at the first
  // non-matching entry would make later allocations of the port dead policy.
  const std::vector<BindConfEntry>* allocations = pol.engine.bind.Find(req.port);
  if (allocations != nullptr) {
    for (const BindConfEntry& entry : *allocations) {
      if (entry.binary == req.binary_path && entry.uid == task.cred.euid) {
        Count(&ProtegoStats::bind_allowed);
        return HookVerdict::kAllow;
      }
    }
    // The port is allocated and this task is none of its instances: ONLY
    // the configured (binary, uid) pairs may bind it — root privilege does
    // not override an allocation, which is what stops a compromised web
    // server from becoming a mail server.
    Count(&ProtegoStats::bind_denied);
    kernel_->Audit(StrFormat("protego: bind(%u) denied: port allocated, requested by %s uid=%u",
                       req.port, req.binary_path.c_str(), task.cred.euid));
    return HookVerdict::kDeny;
  }
  return HookVerdict::kDefault;  // unallocated port: legacy CAP_NET_BIND_SERVICE rule
}

// --- setuid/setgid delegation (§4.3) -------------------------------------------------

std::vector<size_t> ProtegoLsm::MatchingRules(const Policy& pol, Uid invoking_uid,
                                              const std::string& target) const {
  const PasswdEntry* invoker = pol.user_db.FindUid(invoking_uid);
  if (invoker == nullptr) {
    return {};
  }
  // The index pre-resolved subject matching (exact names, %group
  // membership, ALL) at build time; only runas filtering remains.
  std::vector<size_t> matches = pol.engine.sudoers.RulesForUser(invoker->name);
  matches.erase(std::remove_if(matches.begin(), matches.end(),
                               [&](size_t i) {
                                 return !pol.delegation.rules[i].RunasMatches(target);
                               }),
                matches.end());
  return matches;
}

bool ProtegoLsm::EnsureAuthenticated(const Policy& pol, Task& task, Uid account) const {
  uint64_t now = kernel_->clock().Now();
  if (task.RecentlyAuthenticated(account, now, pol.delegation.timestamp_timeout_sec)) {
    return true;
  }
  // The kernel launches the trusted authentication utility on the task's
  // terminal; success stamps task.auth_times.
  return kernel_->Authenticate(task, account);
}

bool ProtegoLsm::AuthenticateForRules(const Policy& pol, Task& task, Uid target_uid,
                                      const std::vector<const SudoRule*>& granting) const {
  // NOPASSWD needs nothing; TARGETPW rules accept the target's password
  // (su); plain rules accept the invoker's (sudo). When several rules grant,
  // any candidate password satisfies — ONE prompt, verified against the
  // candidate set.
  std::vector<Uid> candidates;
  for (const SudoRule* rule : granting) {
    if (rule->nopasswd) {
      return true;
    }
    Uid account = rule->targetpw ? target_uid : task.cred.ruid;
    if (std::find(candidates.begin(), candidates.end(), account) == candidates.end()) {
      candidates.push_back(account);
    }
  }
  uint64_t now = kernel_->clock().Now();
  for (Uid account : candidates) {
    if (task.RecentlyAuthenticated(account, now, pol.delegation.timestamp_timeout_sec)) {
      return true;
    }
  }
  return kernel_->AuthenticateAny(task, candidates).has_value();
}

HookVerdict ProtegoLsm::TaskFixSetuid(Task& task, const SetuidRequest& req,
                                      SetuidDisposition* disposition) {
  GraceDomain::Section section(policy_.grace());
  const Policy& pol = Current();
  if (req.is_gid) {
    if (kernel_->Capable(task, Capability::kSetgid)) {
      return HookVerdict::kDefault;
    }
    if (req.target_gid == task.cred.rgid || req.target_gid == task.cred.sgid) {
      return HookVerdict::kDefault;  // always legal; legacy path handles it
    }
    const GroupEntry* group = pol.user_db.FindGid(req.target_gid);
    const PasswdEntry* user = pol.user_db.FindUid(task.cred.ruid);
    if (group == nullptr || user == nullptr) {
      return HookVerdict::kDefault;
    }
    // Listed members may join without a password (newgrp semantics).
    if (std::find(group->members.begin(), group->members.end(), user->name) !=
        group->members.end()) {
      Count(&ProtegoStats::setuid_allowed);
      return HookVerdict::kAllow;
    }
    // Password-protected groups: authenticate against the group password.
    bool password_protected =
        std::find(pol.delegation.password_groups.begin(), pol.delegation.password_groups.end(),
                  group->name) != pol.delegation.password_groups.end();
    if (password_protected && !group->password_hash.empty()) {
      if (EnsureAuthenticated(pol, task, kGroupAuthBase + req.target_gid)) {
        Count(&ProtegoStats::setuid_allowed);
        return HookVerdict::kAllow;
      }
      Count(&ProtegoStats::setuid_denied);
      return HookVerdict::kDeny;
    }
    return HookVerdict::kDefault;
  }

  // uid case.
  if (kernel_->Capable(task, Capability::kSetuid)) {
    return HookVerdict::kDefault;  // privileged path unchanged
  }
  if (req.target_uid == task.cred.ruid || req.target_uid == task.cred.suid) {
    return HookVerdict::kDefault;  // legal under stock rules
  }
  const PasswdEntry* target = pol.user_db.FindUid(req.target_uid);
  if (target == nullptr) {
    return HookVerdict::kDefault;
  }
  std::vector<size_t> rules = MatchingRules(pol, task.cred.ruid, target->name);
  if (rules.empty()) {
    return HookVerdict::kDefault;  // no delegation: legacy EPERM
  }

  std::vector<const SudoRule*> all_command_rules;
  bool restricted_rule_exists = false;
  for (size_t i : rules) {
    const SudoRule* rule = &pol.delegation.rules[i];
    bool is_all = false;
    for (const std::string& c : rule->commands) {
      if (c == "ALL") {
        is_all = true;
        break;
      }
    }
    if (is_all) {
      all_command_rules.push_back(rule);
    } else {
      restricted_rule_exists = true;
    }
  }

  if (restricted_rule_exists || all_command_rules.empty()) {
    // Command-restricted delegation exists: privilege must not change
    // before exec, so report success, record the pending transition, and
    // enforce (including any ALL rules) at execve, where the command is
    // known. This is the paper's setuid-on-exec mechanism.
    disposition->defer_to_exec = true;
    Count(&ProtegoStats::setuid_deferred);
    return HookVerdict::kAllow;
  }

  if (AuthenticateForRules(pol, task, req.target_uid, all_command_rules)) {
    // Immediate full transition, including the target's primary group
    // (what stock su/login did with setgid while still root).
    disposition->has_gid = true;
    disposition->gid = target->gid;
    Count(&ProtegoStats::setuid_allowed);
    kernel_->Audit(StrFormat("protego: setuid %u -> %u allowed by delegation", task.cred.ruid,
                       req.target_uid));
    return HookVerdict::kAllow;
  }
  Count(&ProtegoStats::setuid_denied);
  kernel_->Audit(StrFormat("protego: setuid(%u) denied: authentication failed for uid=%u",
                     req.target_uid, task.cred.ruid));
  return HookVerdict::kDeny;
}

HookVerdict ProtegoLsm::BprmCheck(Task& task, const std::string& path, const Inode& inode,
                                  const std::vector<std::string>& argv, ExecControl* control) {
  (void)inode;
  if (!task.pending_setuid.active) {
    return HookVerdict::kDefault;
  }
  GraceDomain::Section section(policy_.grace());
  const Policy& pol = Current();
  const PendingSetuid& pending = task.pending_setuid;

  if (pending.has_gid) {
    // Deferred setgid (password-protected group joins are immediate; this
    // path exists for symmetric gid delegation rules).
    control->cred->rgid = control->cred->egid = control->cred->sgid = control->cred->fsgid =
        pending.target_gid;
    Count(&ProtegoStats::exec_transitions);
    return HookVerdict::kAllow;
  }

  const PasswdEntry* target = pol.user_db.FindUid(pending.target_uid);
  if (target == nullptr) {
    Count(&ProtegoStats::exec_denied);
    return HookVerdict::kDeny;
  }
  std::string command_line = path;
  for (size_t i = 1; i < argv.size(); ++i) {
    command_line += " " + argv[i];
  }
  std::vector<const SudoRule*> granting;
  for (size_t i : MatchingRules(pol, task.cred.ruid, target->name)) {
    if (pol.engine.sudoers.CommandMatches(i, command_line)) {
      granting.push_back(&pol.delegation.rules[i]);
    }
  }
  if (granting.empty()) {
    Count(&ProtegoStats::exec_denied);
    kernel_->Audit(StrFormat("protego: exec '%s' as %s denied for uid=%u (no matching rule)",
                       command_line.c_str(), target->name.c_str(), task.cred.ruid));
    return HookVerdict::kDeny;
  }
  if (!AuthenticateForRules(pol, task, pending.target_uid, granting)) {
    Count(&ProtegoStats::exec_denied);
    return HookVerdict::kDeny;
  }

  // All checks passed: apply the full transition to the new image only.
  Cred& cred = *control->cred;
  cred.ruid = cred.euid = cred.suid = cred.fsuid = pending.target_uid;
  cred.rgid = cred.egid = cred.sgid = cred.fsgid = target->gid;
  cred.groups.clear();
  if (pending.target_uid == kRootUid) {
    cred.permitted = CapSet::All();
    cred.effective = CapSet::All();
  } else {
    cred.permitted.Clear();
    cred.effective.Clear();
  }

  // Restrict inheritance into the delegated command: sanitize the
  // environment to the env_keep whitelist and drop non-standard fds.
  if (control->env != nullptr) {
    for (auto it = control->env->begin(); it != control->env->end();) {
      bool keep = std::find(pol.delegation.env_keep.begin(), pol.delegation.env_keep.end(),
                            it->first) != pol.delegation.env_keep.end();
      it = keep ? std::next(it) : control->env->erase(it);
    }
  }
  control->close_non_std_fds = true;

  Count(&ProtegoStats::exec_transitions);
  kernel_->Audit(StrFormat("protego: exec '%s' as %s (uid %u -> %u)", command_line.c_str(),
                     target->name.c_str(), task.cred.ruid, pending.target_uid));
  return HookVerdict::kAllow;
}

// --- File delegations and reauthentication-gated reads (§4.4/§4.6) -------------------

HookVerdict ProtegoLsm::InodePermission(Task& task, const std::string& path, const Inode& inode,
                                        int may, bool* /*unused*/) {
  (void)inode;
  GraceDomain::Section section(policy_.grace());
  const Policy& pol = Current();
  // Per-binary file delegations first (also how the trusted authentication
  // utility and monitoring daemon read shadow files without recursion).
  const std::vector<CompiledDelegation>* delegations =
      pol.engine.files.FindDelegations(task.exe_path);
  if (delegations != nullptr) {
    for (const CompiledDelegation& d : *delegations) {
      if (d.path.Matches(path) && (may & ~d.allow_may) == 0) {
        Count(&ProtegoStats::file_delegations);
        return HookVerdict::kAllow;
      }
    }
  }
  if ((may & kMayRead) != 0 && pol.engine.files.ReauthGated(path)) {
    Count(&ProtegoStats::reauth_reads);
    // Paper §4.6: the reauthentication challenge is for the LOGGED-IN user
    // — the invoker proves they are still at the keyboard. Prompting for
    // the file owner's password would demand root's password of everyone.
    if (EnsureAuthenticated(pol, task, task.cred.ruid)) {
      return HookVerdict::kDefault;  // recency satisfied; DAC still applies
    }
    kernel_->Audit(StrFormat("protego: read of %s denied: reauthentication failed (uid=%u)",
                       path.c_str(), task.cred.ruid));
    return HookVerdict::kDeny;
  }
  return HookVerdict::kDefault;
}

// --- pppd ioctls: routes and modem options (§4.1.2) -----------------------------------

HookVerdict ProtegoLsm::FileIoctl(const Task& task, const IoctlRequest& req) {
  GraceDomain::Section section(policy_.grace());
  const Policy& pol = Current();
  if (req.target == "socket") {
    switch (req.request) {
      case kSiocAddRt: {
        if (kernel_->Capable(task, Capability::kNetAdmin)) {
          return HookVerdict::kDefault;
        }
        if (!pol.ppp_options.user_routes) {
          return HookVerdict::kDefault;  // legacy EPERM
        }
        auto route = ParseRouteSpec(req.arg);
        if (!route.ok()) {
          return HookVerdict::kDefault;
        }
        if (kernel_->net().routes().Conflicts(route.value())) {
          Count(&ProtegoStats::route_denied);
          kernel_->Audit(StrFormat("protego: route %s denied: conflicts with existing route (uid=%u)",
                             route.value().ToString().c_str(), task.cred.ruid));
          return HookVerdict::kDeny;
        }
        Count(&ProtegoStats::route_allowed);
        return HookVerdict::kAllow;
      }
      case kSiocDelRt: {
        if (kernel_->Capable(task, Capability::kNetAdmin)) {
          return HookVerdict::kDefault;
        }
        auto fields = SplitWhitespace(req.arg);
        if (fields.empty()) {
          return HookVerdict::kDefault;
        }
        auto dst = ParseDstSpec(fields[0]);
        if (!dst.ok()) {
          return HookVerdict::kDefault;
        }
        // A user may remove only routes she added.
        for (const RouteEntry& e : kernel_->net().routes().entries()) {
          if (e.dst == dst.value().first && e.prefix_len == dst.value().second &&
              e.added_by == task.cred.ruid) {
            return HookVerdict::kAllow;
          }
        }
        return HookVerdict::kDefault;
      }
      default:
        return HookVerdict::kDefault;
    }
  }

  if (req.target == "/dev/ppp") {
    if (kernel_->Capable(task, Capability::kNetAdmin)) {
      return HookVerdict::kDefault;
    }
    if (!pol.ppp_options.user_dialout) {
      return HookVerdict::kDefault;  // legacy EPERM in the driver
    }
    // Fine-grained option/in-use checks happen in the ppp driver, which
    // receives this verdict (see sim/devices.cc).
    return HookVerdict::kAllow;
  }

  // dm-crypt control and anything else: Protego's approach for dmcrypt is
  // the /sys interface, not relaxing the privileged ioctl (§4, Table 4).
  return HookVerdict::kDefault;
}

}  // namespace protego
