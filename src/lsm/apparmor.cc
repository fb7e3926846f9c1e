#include "src/lsm/apparmor.h"

#include "src/base/log.h"
#include "src/base/strings.h"

namespace protego {

void AppArmorModule::LoadProfile(AaProfile profile) {
  std::string key = profile.binary;
  profiles_[key] = std::move(profile);
  BumpPolicyGeneration();
}

void AppArmorModule::RemoveProfile(const std::string& binary) {
  profiles_.erase(binary);
  BumpPolicyGeneration();
}

const AaProfile* AppArmorModule::FindProfile(const std::string& binary) const {
  auto it = profiles_.find(binary);
  return it == profiles_.end() ? nullptr : &it->second;
}

bool AppArmorModule::CapablePermitted(const Task& task, Capability cap) {
  const AaProfile* profile = FindProfile(task.exe_path);
  if (profile == nullptr || !profile->bound_caps) {
    return true;  // unconfined
  }
  if (profile->capability_bound.Has(cap)) {
    return true;
  }
  denials_.push_back(StrFormat("apparmor: %s denied %s for %s", profile->binary.c_str(),
                               CapabilityName(cap), task.comm.c_str()));
  if (!profile->enforce) {
    return true;  // complain mode: log but allow
  }
  LogAudit(denials_.back());
  return false;
}

HookVerdict AppArmorModule::InodePermission(Task& task, const std::string& path,
                                            const Inode& inode, int may, bool* /*unused*/) {
  (void)inode;
  const AaProfile* profile = FindProfile(task.exe_path);
  if (profile == nullptr) {
    return HookVerdict::kDefault;
  }
  int granted = 0;
  for (const AaFileRule& rule : profile->file_rules) {
    if (GlobMatch(rule.glob, path)) {
      granted |= rule.allow_may;
    }
  }
  if ((granted & may) == may) {
    return HookVerdict::kDefault;  // profile permits; DAC still applies
  }
  denials_.push_back(StrFormat("apparmor: %s denied %s may=%d for %s", profile->binary.c_str(),
                               path.c_str(), may, task.comm.c_str()));
  if (!profile->enforce) {
    return HookVerdict::kDefault;
  }
  LogAudit(denials_.back());
  return HookVerdict::kDeny;
}

}  // namespace protego
