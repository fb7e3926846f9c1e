// The Protego security module (the paper's core contribution, §2/§4).
//
// Protego migrates the policies previously encoded in setuid-to-root
// binaries into the kernel:
//   * mount/umount  — whitelist of user-mountable fstab entries (§4.2)
//   * socket        — any user may create raw/packet sockets; outgoing
//                     packets are filtered by netfilter rules (§4.1.1)
//   * bind          — low ports allocated to (binary, uid) pairs (§4.1.3)
//   * setuid/setgid — delegation rules from /etc/sudoers, with deferred
//                     setuid-on-exec and authentication recency (§4.3)
//   * ioctl         — non-conflicting user routes and safe modem options
//                     for pppd (§4.1.2)
//   * files         — per-binary file delegations (ssh-keysign) and
//                     reauthentication-gated reads (shadow files) (§4.4/4.6)
//
// Policy tables are replaced wholesale (parse-validate-swap) through the
// /proc/protego interface (src/protego/proc_iface.h) by the administrator
// or the monitoring daemon.
//
// Concurrency (parallel mode): all policy state — the raw tables AND the
// compiled engine built from them — lives in one immutable Policy snapshot
// published RCU-style behind a pointer-copy mutex. Hooks take the snapshot
// reference once at dispatch entry (the critical section is one shared_ptr
// copy — no table work ever happens under the lock) and thread that single
// snapshot through every helper, so a reader never blocks a swap for longer
// than the pointer copy and never observes a half-swapped policy. (A
// std::atomic<shared_ptr> would express the same protocol, but libstdc++'s
// _Sp_atomic unlocks its reader spinlock with a relaxed fetch_sub, which
// ThreadSanitizer — and a strict reading of the memory model — rejects; a
// plain mutex costs the same and is provably clean.) Writers build a
// complete successor snapshot off to the side and publish it with one
// pointer swap; the old snapshot is retired when the last in-flight reader
// drops its reference (shared_ptr refcount = the grace period). This also
// sidesteps re-entrancy:
// hooks nest syscalls (EnsureAuthenticated spawns the authentication
// utility, whose syscalls re-enter the hooks), which a reader-writer lock
// could self-deadlock on but a snapshot pointer cannot.

#ifndef SRC_PROTEGO_PROTEGO_LSM_H_
#define SRC_PROTEGO_PROTEGO_LSM_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "src/base/rw_lock.h"
#include "src/config/bindconf.h"
#include "src/config/fstab.h"
#include "src/config/passwd_db.h"
#include "src/config/ppp_options.h"
#include "src/config/sudoers.h"
#include "src/lsm/module.h"
#include "src/protego/policy_engine.h"

namespace protego {

class Kernel;

// Authentication-recency key for a password-protected group: group
// authentications share the per-task auth_times map with user
// authentications, offset so gids cannot collide with uids.
inline constexpr Uid kGroupAuthBase = 0x40000000;

// Per-hook decision counters, exported via /proc/protego/metrics. Relaxed
// atomics: parallel-mode hooks bump these concurrently; readers tolerate
// the usual scrape-time skew.
struct ProtegoStats {
  std::atomic<uint64_t> mount_allowed{0};
  std::atomic<uint64_t> mount_denied{0};
  std::atomic<uint64_t> umount_allowed{0};
  std::atomic<uint64_t> umount_denied{0};
  std::atomic<uint64_t> bind_allowed{0};
  std::atomic<uint64_t> bind_denied{0};
  std::atomic<uint64_t> setuid_deferred{0};
  std::atomic<uint64_t> setuid_allowed{0};
  std::atomic<uint64_t> setuid_denied{0};
  std::atomic<uint64_t> exec_transitions{0};
  std::atomic<uint64_t> exec_denied{0};
  std::atomic<uint64_t> raw_sockets_allowed{0};
  std::atomic<uint64_t> route_allowed{0};
  std::atomic<uint64_t> route_denied{0};
  std::atomic<uint64_t> file_delegations{0};
  std::atomic<uint64_t> reauth_reads{0};
};

class ProtegoLsm : public SecurityModule {
 public:
  // One immutable policy snapshot: the raw tables (authoritative, still
  // serialized back out through /proc) plus the compiled engine built from
  // exactly these tables. The engine's indices may hold pointers into the
  // snapshot's own vectors, which is safe because a snapshot is never
  // mutated after publication and outlives every reader holding its ref.
  struct Policy {
    std::vector<FstabEntry> mount_whitelist;
    std::vector<BindConfEntry> bind_table;
    SudoersPolicy delegation;
    UserDb user_db;
    PppOptions ppp_options;
    PolicyEngine engine;
  };
  using PolicyRef = std::shared_ptr<const Policy>;

  // `kernel` is used for mount-table lookups, routing state, and invoking
  // the trusted authentication utility. Must outlive the module.
  explicit ProtegoLsm(Kernel* kernel)
      : kernel_(kernel), policy_(std::make_shared<const Policy>()) {}

  const char* name() const override { return "protego"; }

  // --- Policy configuration (called by the /proc interface) -----------------
  //
  // Each swap is transactional: the successor snapshot is built with the new
  // raw table spliced in, its compiled indices are rebuilt, and only if
  // compilation succeeds is the snapshot published and the policy generation
  // bumped. On failure (including an injected kPolicyCompile fault) nothing
  // is published — the live snapshot and the generation stay exactly as
  // they were. Writers serialize on a mutex so two concurrent swaps cannot
  // lose each other's tables; readers wait only while a swap stores its
  // pointer.

  [[nodiscard]] Result<Unit> SetMountPolicy(std::vector<FstabEntry> whitelist);
  [[nodiscard]] Result<Unit> SetBindTable(std::vector<BindConfEntry> table);
  [[nodiscard]] Result<Unit> SetDelegation(SudoersPolicy policy);
  [[nodiscard]] Result<Unit> SetUserDb(UserDb db);
  [[nodiscard]] Result<Unit> SetPppOptions(PppOptions options);

  // The current snapshot. The lock makes the publication in
  // CompileAndPublish visible (it is released there before the generation
  // bump), so a reader that observed generation G also observes at least
  // generation G's engine. Readers take it shared, so concurrent hook
  // dispatches do not serialize on it; the critical section is one
  // shared_ptr copy.
  PolicyRef policy() const {
    std::shared_lock<RwLock> lk(policy_mu_);
    return policy_;
  }

  // Table accessors return copies of the current snapshot's tables: a const
  // reference into a snapshot could outlive it once a swap retires it.
  std::vector<FstabEntry> mount_policy() const { return policy()->mount_whitelist; }
  std::vector<BindConfEntry> bind_table() const { return policy()->bind_table; }
  SudoersPolicy delegation() const { return policy()->delegation; }
  UserDb user_db() const { return policy()->user_db; }
  PppOptions ppp_options() const { return policy()->ppp_options; }
  const ProtegoStats& stats() const { return stats_; }
  // Slow-path counts of the snapshot lock (exported as metrics).
  LockCounts policy_lock_counts() const { return policy_mu_.counts(); }

  // --- LSM hooks -------------------------------------------------------------

  HookVerdict SbMount(const Task& task, const MountRequest& req, bool* /*unused*/) override;
  HookVerdict SbUmount(const Task& task, const std::string& mountpoint, Uid mounter) override;
  HookVerdict SocketCreate(const Task& task, const SocketRequest& req) override;
  HookVerdict SocketBind(const Task& task, const BindRequest& req, bool* /*unused*/) override;
  HookVerdict TaskFixSetuid(Task& task, const SetuidRequest& req,
                            SetuidDisposition* disposition) override;
  HookVerdict BprmCheck(Task& task, const std::string& path, const Inode& inode,
                        const std::vector<std::string>& argv, ExecControl* control) override;
  HookVerdict InodePermission(Task& task, const std::string& path, const Inode& inode,
                              int may, bool* /*unused*/) override;
  HookVerdict FileIoctl(const Task& task, const IoctlRequest& req) override;

 private:
  // Copies the current snapshot's raw tables into a fresh staging Policy
  // (engine left empty — CompileAndPublish rebuilds it). Caller must hold
  // swap_mu_.
  Policy CloneTablesLocked() const;

  // Rebuilds every compiled index inside `next` from its raw tables, then
  // publishes the snapshot (release) and bumps the policy generation —
  // IN THAT ORDER, so a reader observing the new generation also observes
  // the new engine. Fails only on an injected kPolicyCompile fault, in
  // which case nothing is published. Caller must hold swap_mu_.
  [[nodiscard]] Result<Unit> CompileAndPublish(Policy next);

  // Indices into pol.delegation.rules of the delegation rules applying to
  // (invoking user, target user), ascending. `pol` is the snapshot the
  // caller loaded at dispatch entry; hand the same one to
  // pol.engine.sudoers.CommandMatches.
  std::vector<size_t> MatchingRules(const Policy& pol, Uid invoking_uid,
                                    const std::string& target) const;

  // Per-rule mount evaluation once device/mountpoint/fstype have matched:
  // option vetting plus the per-user ownership check for glob-mountpoint
  // rules.
  bool MountRuleGrants(const CompiledFstabRule& rule, const Task& task,
                       const MountRequest& req) const;

  // Enforces the recency requirement: recent auth of the invoking user, or
  // a fresh password exchange via the kernel-launched authentication
  // utility. Non-const task: a successful exchange stamps auth_times.
  bool EnsureAuthenticated(const Policy& pol, Task& task, Uid account) const;

  Kernel* kernel_;
  // Guards only the pointer itself; snapshots are immutable once published.
  mutable RwLock policy_mu_;
  PolicyRef policy_;
  std::mutex swap_mu_;  // serializes writers (clone → compile → publish)
  mutable ProtegoStats stats_;
};

}  // namespace protego

#endif  // SRC_PROTEGO_PROTEGO_LSM_H_
