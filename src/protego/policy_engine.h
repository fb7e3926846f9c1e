// Compiled policy representations for the Protego LSM.
//
// The /proc/protego interface swaps policy tables wholesale
// (parse-validate-swap), which makes swap time the natural place to compile
// them: every swap rebuilds these indices, and the hot hooks then run hash
// probes and precompiled matchers instead of linear scans with generic glob
// matching. The raw tables stay authoritative (proc reads serialize them);
// the indices are derived data and carry no policy of their own.
//
//   * BindIndex     — /etc/bind entries hashed by port (§4.1.3)
//   * MountIndex    — user-mountable fstab entries: wildcard-free rules
//                     hashed by (device, mountpoint, fstype), glob rules
//                     kept separately with precompiled matchers (§4.2)
//   * FileRuleIndex — file delegations partitioned by grantee binary,
//                     reauth-read globs precompiled (§4.4/§4.6)
//   * SudoersIndex  — delegation rules bucketed by subject user (group
//                     subjects expanded against the user db at build time)
//                     with precompiled command globs (§4.3)

#ifndef SRC_PROTEGO_POLICY_ENGINE_H_
#define SRC_PROTEGO_POLICY_ENGINE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/config/bindconf.h"
#include "src/config/compiled_glob.h"
#include "src/config/fstab.h"
#include "src/config/passwd_db.h"
#include "src/config/sudoers.h"

namespace protego {

// --- Bind (§4.1.3) ----------------------------------------------------------------

class BindIndex {
 public:
  void Build(const std::vector<BindConfEntry>& table);

  // All allocations of `port`, or nullptr when the port is unallocated.
  const std::vector<BindConfEntry>* Find(uint16_t port) const;

 private:
  std::unordered_map<uint16_t, std::vector<BindConfEntry>> by_port_;
};

// --- Mount (§4.2) -----------------------------------------------------------------

// One user-mountable fstab rule with its matchers compiled.
struct CompiledFstabRule {
  FstabEntry entry;
  CompiledGlob device;
  CompiledGlob mountpoint;
  CompiledGlob fstype;
  bool any_user_may_unmount = false;
  // Rule grants per-user mountpoints ("/home/*/mnt"): the hook must verify
  // directory ownership.
  bool glob_mountpoint = false;
};

class MountIndex {
 public:
  void Build(const std::vector<FstabEntry>& whitelist);

  // Invokes `fn(rule)` for every rule whose device/mountpoint/fstype match;
  // stops early when fn returns true. Wildcard-free rules come from a hash
  // probe, glob rules from a (typically tiny) residual list.
  template <typename Fn>
  void ForEachMatch(const std::string& device, const std::string& mountpoint,
                    const std::string& fstype, Fn&& fn) const {
    auto it = exact_.find(TripleKey(device, mountpoint, fstype));
    if (it != exact_.end()) {
      for (size_t idx : it->second) {
        const CompiledFstabRule& rule = rules_[idx];
        // The uint64 key can collide across triples; the matchers confirm.
        if (rule.device.Matches(device) && rule.mountpoint.Matches(mountpoint) &&
            rule.fstype.Matches(fstype) && fn(rule)) {
          return;
        }
      }
    }
    for (size_t idx : glob_rules_) {
      const CompiledFstabRule& rule = rules_[idx];
      if (rule.device.Matches(device) && rule.mountpoint.Matches(mountpoint) &&
          rule.fstype.Matches(fstype) && fn(rule)) {
        return;
      }
    }
  }

  // Same, keyed on mountpoint alone (the sb_umount question).
  template <typename Fn>
  void ForEachMountpointMatch(const std::string& mountpoint, Fn&& fn) const {
    auto it = exact_mountpoint_.find(mountpoint);
    if (it != exact_mountpoint_.end()) {
      for (size_t idx : it->second) {
        if (fn(rules_[idx])) {
          return;
        }
      }
    }
    for (size_t idx : glob_mountpoint_rules_) {
      const CompiledFstabRule& rule = rules_[idx];
      if (rule.mountpoint.Matches(mountpoint) && fn(rule)) {
        return;
      }
    }
  }

 private:
  static uint64_t TripleKey(const std::string& device, const std::string& mountpoint,
                            const std::string& fstype);

  std::vector<CompiledFstabRule> rules_;  // user-mountable rules only
  std::unordered_map<uint64_t, std::vector<size_t>> exact_;
  std::vector<size_t> glob_rules_;  // any wildcard in any field
  std::unordered_map<std::string, std::vector<size_t>> exact_mountpoint_;
  std::vector<size_t> glob_mountpoint_rules_;
};

// --- File delegations + reauth reads (§4.4/§4.6) ----------------------------------

struct CompiledDelegation {
  CompiledGlob path;
  int allow_may = 0;
};

class FileRuleIndex {
 public:
  void Build(const SudoersPolicy& policy);

  // Delegations granted to `binary`, or nullptr (the common case: one hash
  // probe and the whole delegation table is off the path).
  const std::vector<CompiledDelegation>* FindDelegations(const std::string& binary) const;

  bool has_reauth_rules() const { return !reauth_.empty(); }
  bool ReauthGated(const std::string& path) const;

 private:
  std::unordered_map<std::string, std::vector<CompiledDelegation>> by_binary_;
  std::vector<CompiledGlob> reauth_;
};

// --- Sudoers delegation (§4.3) ----------------------------------------------------

class SudoersIndex {
 public:
  // Needs the user db to expand %group subjects; rebuilt when either the
  // sudoers policy or the user db swaps.
  void Build(const SudoersPolicy& policy, const UserDb& db);

  // Indices into policy.rules whose subject covers `user_name`, ascending —
  // the same rules, in the same order, a full scan would select.
  std::vector<size_t> RulesForUser(const std::string& user_name) const;

  // Compiled equivalent of SudoRule::CommandMatches for rule `rule_index`.
  bool CommandMatches(size_t rule_index, const std::string& command_line) const;

 private:
  struct CompiledCommand {
    CompiledGlob glob;
    // Wildcard-free command specs also match "command arg...": the spec
    // plus a trailing space, precomputed (empty when not applicable).
    std::string bare_prefix;
  };
  struct CompiledRule {
    bool all_commands = false;
    std::vector<CompiledCommand> commands;
  };

  std::vector<CompiledRule> rules_;
  std::unordered_map<std::string, std::vector<size_t>> by_user_;  // exact + group-expanded
  std::vector<size_t> all_subject_rules_;  // subject "ALL"
};

// Everything the Protego hooks consult, rebuilt on each policy swap.
struct PolicyEngine {
  BindIndex bind;
  MountIndex mount;
  FileRuleIndex files;
  SudoersIndex sudoers;
};

}  // namespace protego

#endif  // SRC_PROTEGO_POLICY_ENGINE_H_
