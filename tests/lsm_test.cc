// Unit tests for the LSM framework: verdict combination across stacked
// modules, commoncap, and the AppArmor baseline.

#include <gtest/gtest.h>

#include "src/base/strings.h"
#include "src/kernel/kernel.h"
#include "src/lsm/apparmor.h"
#include "src/lsm/capability_module.h"
#include "src/lsm/stack.h"

namespace protego {
namespace {

// A module with a fixed opinion on every hook, for combination tests.
class FixedModule : public SecurityModule {
 public:
  explicit FixedModule(HookVerdict verdict) : verdict_(verdict) {}
  const char* name() const override { return "fixed"; }
  HookVerdict SbMount(const Task&, const MountRequest&, bool*) override { return verdict_; }

 private:
  HookVerdict verdict_;
};

Task MakeTask(Uid uid, std::string exe = "/bin/x") {
  Task t;
  t.cred = Cred::ForUser(uid, uid);
  t.exe_path = std::move(exe);
  return t;
}

TEST(LsmStackTest, DenyBeatsAllowBeatsDefault) {
  MountRequest req;
  Task task = MakeTask(1000);
  {
    LsmStack stack;
    stack.Register(std::make_unique<FixedModule>(HookVerdict::kDefault));
    stack.Register(std::make_unique<FixedModule>(HookVerdict::kAllow));
    EXPECT_EQ(stack.SbMount(task, req), HookVerdict::kAllow);
  }
  {
    LsmStack stack;
    stack.Register(std::make_unique<FixedModule>(HookVerdict::kAllow));
    stack.Register(std::make_unique<FixedModule>(HookVerdict::kDeny));
    EXPECT_EQ(stack.SbMount(task, req), HookVerdict::kDeny);
  }
  {
    LsmStack stack;
    stack.Register(std::make_unique<FixedModule>(HookVerdict::kDefault));
    EXPECT_EQ(stack.SbMount(task, req), HookVerdict::kDefault);
  }
  {
    LsmStack stack;  // empty stack
    EXPECT_EQ(stack.SbMount(task, req), HookVerdict::kDefault);
  }
}

TEST(LsmStackTest, CapableIsConjunction) {
  GraceDomain grace;
  LsmStack stack;
  stack.Register(std::make_unique<CapabilityModule>());
  Task root = MakeTask(0);
  root.cred = Cred::Root();
  Task user = MakeTask(1000);
  EXPECT_TRUE(stack.Capable(root, Capability::kSysAdmin));
  EXPECT_FALSE(stack.Capable(user, Capability::kSysAdmin));
  // A confined profile further restricts even a capable task.
  auto apparmor = std::make_unique<AppArmorModule>(grace);
  AaProfile profile;
  profile.binary = "/bin/x";
  profile.bound_caps = true;
  profile.capability_bound = CapSet::Of({Capability::kNetRaw});
  apparmor->LoadProfile(profile);
  stack.Register(std::move(apparmor));
  EXPECT_FALSE(stack.Capable(root, Capability::kSysAdmin));
  EXPECT_TRUE(stack.Capable(root, Capability::kNetRaw));
}

TEST(LsmStackTest, FindLocatesModuleByName) {
  GraceDomain grace;
  LsmStack stack;
  stack.Register(std::make_unique<CapabilityModule>());
  stack.Register(std::make_unique<AppArmorModule>(grace));
  EXPECT_NE(stack.Find("apparmor"), nullptr);
  EXPECT_NE(stack.Find("capability"), nullptr);
  EXPECT_EQ(stack.Find("selinux"), nullptr);
  EXPECT_EQ(stack.size(), 2u);
}

// A fresh AppArmor module on `kernel`'s stack, whose denials the kernel's
// audit ring receives.
AppArmorModule& RegisterAppArmor(Kernel& kernel) {
  auto module = std::make_unique<AppArmorModule>(kernel.grace());
  AppArmorModule& aa = *module;
  kernel.lsm().Register(std::move(module));
  return aa;
}

// AppArmor denials in the kernel's audit ring.
size_t AppArmorRecords(const Kernel& kernel) {
  size_t n = 0;
  for (const std::string& record : kernel.audit_log()) {
    n += StartsWith(record, "apparmor: ") ? 1 : 0;
  }
  return n;
}

TEST(AppArmorTest, FileRulesConfineOnlyProfiledBinaries) {
  Kernel kernel;
  AppArmorModule& aa = RegisterAppArmor(kernel);
  AaProfile profile;
  profile.binary = "/usr/sbin/confined";
  profile.file_rules.push_back({"/var/lib/app/*", kMayRead | kMayWrite});
  profile.file_rules.push_back({"/etc/app.conf", kMayRead});
  aa.LoadProfile(profile);

  Inode inode;
  inode.mode = kIfReg | 0666;
  Task confined = MakeTask(1000, "/usr/sbin/confined");
  Task free_task = MakeTask(1000, "/usr/bin/other");

  EXPECT_EQ(aa.InodePermission(confined, "/var/lib/app/data", inode, kMayWrite, nullptr),
            HookVerdict::kDefault);
  EXPECT_EQ(aa.InodePermission(confined, "/etc/app.conf", inode, kMayRead, nullptr),
            HookVerdict::kDefault);
  EXPECT_EQ(aa.InodePermission(confined, "/etc/app.conf", inode, kMayWrite, nullptr),
            HookVerdict::kDeny);
  EXPECT_EQ(aa.InodePermission(confined, "/etc/shadow", inode, kMayRead, nullptr), HookVerdict::kDeny);
  // Unconfined binaries are untouched.
  EXPECT_EQ(aa.InodePermission(free_task, "/etc/shadow", inode, kMayRead, nullptr),
            HookVerdict::kDefault);
  EXPECT_GE(AppArmorRecords(kernel), 2u);
}

TEST(AppArmorTest, ComplainModeLogsButAllows) {
  Kernel kernel;
  AppArmorModule& aa = RegisterAppArmor(kernel);
  AaProfile profile;
  profile.binary = "/bin/learning";
  profile.enforce = false;
  profile.file_rules.push_back({"/nothing", kMayRead});
  aa.LoadProfile(profile);
  Inode inode;
  inode.mode = kIfReg | 0666;
  Task task = MakeTask(1000, "/bin/learning");
  EXPECT_EQ(aa.InodePermission(task, "/etc/anything", inode, kMayRead, nullptr),
            HookVerdict::kDefault);
  EXPECT_EQ(AppArmorRecords(kernel), 1u);  // audited anyway
}

TEST(AppArmorTest, ProfilesCanBeRemoved) {
  GraceDomain grace;
  AppArmorModule aa(grace);
  AaProfile profile;
  profile.binary = "/bin/tmp";
  aa.LoadProfile(profile);
  EXPECT_EQ(aa.profile_count(), 1u);
  aa.RemoveProfile("/bin/tmp");
  EXPECT_EQ(aa.profile_count(), 0u);
  EXPECT_EQ(aa.FindProfile("/bin/tmp"), nullptr);
}

TEST(CapSetTest, BasicOperations) {
  CapSet s = CapSet::Of({Capability::kSetuid, Capability::kNetRaw});
  EXPECT_TRUE(s.Has(Capability::kSetuid));
  EXPECT_FALSE(s.Has(Capability::kSysAdmin));
  s.Remove(Capability::kSetuid);
  EXPECT_FALSE(s.Has(Capability::kSetuid));
  EXPECT_EQ(CapSet::All().ToString().find("CAP_CHOWN"), 0u);
  EXPECT_EQ(CapSet{}.ToString(), "-");
  EXPECT_EQ(s.ToString(), "CAP_NET_RAW");
}

TEST(CredTest, RootGetsFullCaps) {
  Cred root = Cred::Root();
  EXPECT_TRUE(root.effective.Has(Capability::kSysAdmin));
  Cred user = Cred::ForUser(1000, 1000, {50, 115});
  EXPECT_TRUE(user.effective.Empty());
  EXPECT_TRUE(user.InGroup(50));
  EXPECT_TRUE(user.InGroup(1000));  // primary gid
  EXPECT_FALSE(user.InGroup(51));
  EXPECT_NE(user.ToString().find("uid=1000"), std::string::npos);
}

}  // namespace
}  // namespace protego
