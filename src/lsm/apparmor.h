// A small AppArmor-like module: per-binary path profiles with glob file
// rules and a capability bound. This is the baseline MAC layer the paper
// compares against ("Linux with AppArmor") and the module Protego extends.
//
// As on stock Ubuntu, binaries without a profile run unconfined; the module
// still pays the hook-traversal cost on every mediated operation, which is
// what the Table 5 baseline measures. Every denial, complain mode included,
// goes to the kernel's audit ring through the stack's audit sink.
//
// The profiles are one immutable snapshot (Published, src/base/published.h)
// on the kernel's grace period: each hook reads it once inside a read
// section and decides on that one snapshot, so a profile loaded or removed
// during traffic gives every verdict the old or the new profile set. Loads
// and removals serialize on the snapshot's own writer mutex.

#ifndef SRC_LSM_APPARMOR_H_
#define SRC_LSM_APPARMOR_H_

#include <map>
#include <string>
#include <vector>

#include "src/base/grace.h"
#include "src/base/published.h"
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
  bool enforce = true; // false = complain mode (audit only)
  std::vector<AaFileRule> file_rules;
  CapSet capability_bound;  // caps the confined program may use
  bool bound_caps = false;  // whether capability_bound applies
};

class AppArmorModule : public SecurityModule {
 public:
  // Profile snapshots retire through `grace`, the kernel's one grace period
  // (Kernel::grace()); standalone users pass their own.
  explicit AppArmorModule(GraceDomain& grace) : profiles_(grace) {}

  const char* name() const override { return "apparmor"; }

  void LoadProfile(AaProfile profile);
  void RemoveProfile(const std::string& binary);
  // The profile confining `binary`, or null: a pointer into the current
  // snapshot, valid inside a read section of the grace period (or while no
  // writer runs).
  const AaProfile* FindProfile(const std::string& binary) const;
  size_t profile_count() const;

  bool CapablePermitted(const Task& task, Capability cap) override;
  HookVerdict InodePermission(Task& task, const std::string& path, const Inode& inode,
                              int may, bool* /*unused*/) override;

 private:
  using Profiles = std::map<std::string, AaProfile>;

  Published<Profiles> profiles_;
};

}  // namespace protego

#endif  // SRC_LSM_APPARMOR_H_
