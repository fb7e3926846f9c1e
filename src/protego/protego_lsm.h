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
// Concurrency (parallel mode), as Linux reads its LSM policy under RCU: all
// policy state — the raw tables AND the compiled engine built from them —
// lives in one immutable Policy snapshot, Published (src/base/published.h)
// on the kernel's grace period (Kernel::grace()). A hook opens a read
// section, reads the snapshot once and threads it through every helper,
// so it never observes a half-swapped policy and writes no line another
// thread writes: the section's announcement goes to the thread's own
// shard, and so do the decision counters (ProtegoStats, summed by
// stats()). Writers serialize on the snapshot's own writer mutex
// (Published::Replace), build a complete successor off to the side and
// publish it, or decline when it fails to compile; the old one is freed
// once no section that may have loaded it is open. Nothing waits: a swap
// never waits for readers, and readers never wait for a swap. Hooks nest
// syscalls (EnsureAuthenticated runs the authentication service, whose
// syscalls re-enter the hooks); a nested hook opens a nested section, which
// costs a depth increment, and the outer one stays open across the round
// trip, which holds reclamation back but blocks no one.

#ifndef SRC_PROTEGO_PROTEGO_LSM_H_
#define SRC_PROTEGO_PROTEGO_LSM_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "src/base/grace.h"
#include "src/base/published.h"
#include "src/base/thread_shards.h"
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

// Per-hook decision counters, exported via /proc/protego/metrics. Each
// thread counts on its own shard; ProtegoLsm::stats() returns their sum,
// which may miss the decisions in flight during traffic.
struct ProtegoStats {
  uint64_t mount_allowed = 0;
  uint64_t mount_denied = 0;
  uint64_t umount_allowed = 0;
  uint64_t umount_denied = 0;
  uint64_t bind_allowed = 0;
  uint64_t bind_denied = 0;
  uint64_t setuid_deferred = 0;
  uint64_t setuid_allowed = 0;
  uint64_t setuid_denied = 0;
  uint64_t exec_transitions = 0;
  uint64_t exec_denied = 0;
  uint64_t raw_sockets_allowed = 0;
  uint64_t route_allowed = 0;
  uint64_t route_denied = 0;
  uint64_t file_delegations = 0;
  uint64_t reauth_reads = 0;
};

class ProtegoLsm : public SecurityModule {
 public:
  // One immutable policy snapshot: the raw tables (authoritative, still
  // serialized back out through /proc) plus the compiled engine built from
  // exactly these tables. The engine's indices may hold pointers into the
  // snapshot's own vectors, which is safe because a snapshot is never
  // mutated after publication and outlives every read section that may
  // have loaded it.
  struct Policy {
    std::vector<FstabEntry> mount_whitelist;
    std::vector<BindConfEntry> bind_table;
    SudoersPolicy delegation;
    UserDb user_db;
    PppOptions ppp_options;
    PolicyEngine engine;
  };

  // `kernel` is used for mount-table lookups, routing state, invoking the
  // trusted authentication utility, and its grace period. Must outlive the
  // module.
  explicit ProtegoLsm(Kernel* kernel);

  const char* name() const override { return "protego"; }

  // --- Policy configuration (called by the /proc interface) -----------------
  //
  // Each swap is transactional: the successor snapshot is built with the new
  // raw table spliced in, its compiled indices are rebuilt, and only if
  // compilation succeeds is the snapshot published and the policy generation
  // bumped. On failure (including an injected kPolicyCompile fault) nothing
  // is published — the live snapshot and the generation stay exactly as
  // they were. Writers serialize on the snapshot's writer mutex, so two
  // concurrent swaps cannot lose each other's tables; readers never wait.

  [[nodiscard]] Result<Unit> SetMountPolicy(std::vector<FstabEntry> whitelist);
  [[nodiscard]] Result<Unit> SetBindTable(std::vector<BindConfEntry> table);
  [[nodiscard]] Result<Unit> SetDelegation(SudoersPolicy policy);
  [[nodiscard]] Result<Unit> SetUserDb(UserDb db);
  [[nodiscard]] Result<Unit> SetPppOptions(PppOptions options);

  // Table accessors return copies of the current snapshot's tables: a const
  // reference into a snapshot could outlive it once a swap retires it.
  std::vector<FstabEntry> mount_policy() const { return Copy(&Policy::mount_whitelist); }
  std::vector<BindConfEntry> bind_table() const { return Copy(&Policy::bind_table); }
  SudoersPolicy delegation() const { return Copy(&Policy::delegation); }
  UserDb user_db() const { return Copy(&Policy::user_db); }
  PppOptions ppp_options() const { return Copy(&Policy::ppp_options); }
  // Every thread's decision counters, summed.
  ProtegoStats stats() const;

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
  // The current snapshot. Only valid inside a read section of the
  // kernel's grace period. Swap publishes before it bumps the generation,
  // so a reader that observed generation G also observes at least
  // generation G's engine.
  const Policy& Current() const { return policy_.Read(); }

  // A copy of one table of the current snapshot.
  template <typename Table>
  Table Copy(Table Policy::*table) const {
    GraceDomain::Section section(policy_.grace());
    return Current().*table;
  }

  // The one policy swap: copies the current snapshot's raw tables (not its
  // engine) into a successor, splices `value` in as `table`, compiles the
  // successor and publishes it, then bumps the policy generation — IN THAT
  // ORDER. Fails only on an injected kPolicyCompile fault, in which case
  // nothing is published and the generation stays as it was.
  template <typename Table>
  [[nodiscard]] Result<Unit> Swap(Table Policy::*table, Table value);

  // Rebuilds every compiled index inside `next` from its raw tables.
  [[nodiscard]] Result<Unit> Compile(Policy& next) const;

  // Counts one decision on the calling thread's shard.
  void Count(uint64_t ProtegoStats::*field) const;

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

  // The one prompt for a delegation the rules in `granting` allow: true if
  // any is NOPASSWD, if a candidate account (the target's for TARGETPW
  // rules, the invoker's otherwise) authenticated recently, or if the
  // password exchange accepts any candidate's password.
  bool AuthenticateForRules(const Policy& pol, Task& task, Uid target_uid,
                            const std::vector<const SudoRule*>& granting) const;

  Kernel* kernel_;
  // Immutable once published; replaced only by Swap.
  Published<Policy> policy_;
  // One thread's counters, written through std::atomic_ref by that thread
  // only.
  mutable ThreadShards<ProtegoStats> stats_;
};

}  // namespace protego

#endif  // SRC_PROTEGO_PROTEGO_LSM_H_
