// A small AppArmor-like module: per-binary path profiles with glob file
// rules and a capability bound. This is the baseline MAC layer the paper
// compares against ("Linux with AppArmor") and the module Protego extends.
//
// As on stock Ubuntu, binaries without a profile run unconfined; the module
// still pays the hook-traversal cost on every mediated operation, which is
// what the Table 5 baseline measures.

#ifndef SRC_LSM_APPARMOR_H_
#define SRC_LSM_APPARMOR_H_

#include <map>
#include <string>
#include <vector>

#include "src/lsm/module.h"

namespace protego {

// One file access rule inside a profile.
struct AaFileRule {
  std::string glob;  // path pattern
  int allow_may = 0; // kMayRead|kMayWrite|kMayExec bits granted
};

// Confinement profile for one binary.
struct AaProfile {
  std::string binary;  // absolute path of the confined program
  bool enforce = true; // false = complain mode (log only)
  std::vector<AaFileRule> file_rules;
  CapSet capability_bound;  // caps the confined program may use
  bool bound_caps = false;  // whether capability_bound applies
};

class AppArmorModule : public SecurityModule {
 public:
  const char* name() const override { return "apparmor"; }

  void LoadProfile(AaProfile profile);
  void RemoveProfile(const std::string& binary);
  const AaProfile* FindProfile(const std::string& binary) const;
  size_t profile_count() const { return profiles_.size(); }

  // Denials recorded in complain mode (and enforce mode), for audit tests.
  const std::vector<std::string>& denials() const { return denials_; }
  void ClearDenials() { denials_.clear(); }

  bool CapablePermitted(const Task& task, Capability cap) override;
  HookVerdict InodePermission(Task& task, const std::string& path, const Inode& inode,
                              int may, bool* /*unused*/) override;

 private:
  std::map<std::string, AaProfile> profiles_;
  std::vector<std::string> denials_;
};

}  // namespace protego

#endif  // SRC_LSM_APPARMOR_H_
