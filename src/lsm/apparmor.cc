#include "src/lsm/apparmor.h"

#include "src/base/strings.h"

namespace protego {

void AppArmorModule::LoadProfile(AaProfile profile) {
  std::lock_guard<std::mutex> lk(mu_);
  profiles_.Update([&](Profiles& profiles) {
    std::string key = profile.binary;
    profiles[key] = std::move(profile);
  });
  BumpPolicyGeneration();
}

void AppArmorModule::RemoveProfile(const std::string& binary) {
  std::lock_guard<std::mutex> lk(mu_);
  profiles_.Update([&](Profiles& profiles) { profiles.erase(binary); });
  BumpPolicyGeneration();
}

const AaProfile* AppArmorModule::FindProfile(const std::string& binary) const {
  const Profiles& profiles = profiles_.Read();
  auto it = profiles.find(binary);
  return it == profiles.end() ? nullptr : &it->second;
}

size_t AppArmorModule::profile_count() const {
  GraceDomain::Section section(profiles_.grace());
  return profiles_.Read().size();
}

bool AppArmorModule::CapablePermitted(const Task& task, Capability cap) {
  GraceDomain::Section section(profiles_.grace());
  const AaProfile* profile = FindProfile(task.exe_path);
  if (profile == nullptr || !profile->bound_caps) {
    return true;  // unconfined
  }
  if (profile->capability_bound.Has(cap)) {
    return true;
  }
  Audit(StrFormat("apparmor: %s denied %s for %s", profile->binary.c_str(),
                  CapabilityName(cap), task.comm.c_str()));
  return !profile->enforce;  // complain mode: audit but allow
}

HookVerdict AppArmorModule::InodePermission(Task& task, const std::string& path,
                                            const Inode& inode, int may, bool* /*unused*/) {
  (void)inode;
  GraceDomain::Section section(profiles_.grace());
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
  Audit(StrFormat("apparmor: %s denied %s may=%d for %s", profile->binary.c_str(),
                  path.c_str(), may, task.comm.c_str()));
  return profile->enforce ? HookVerdict::kDeny : HookVerdict::kDefault;
}

}  // namespace protego
