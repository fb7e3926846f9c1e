// End-to-end smoke tests: boot both system configurations and exercise the
// headline scenario from the paper's §2 (an unprivileged user mounting the
// CD-ROM) plus basic session plumbing.

#include <gtest/gtest.h>

#include "src/sim/system.h"

namespace protego {
namespace {

TEST(SimSmoke, BootsInBothModes) {
  SimSystem linux_sys(SimMode::kLinux);
  SimSystem protego_sys(SimMode::kProtego);
  EXPECT_EQ(linux_sys.lsm(), nullptr);
  ASSERT_NE(protego_sys.lsm(), nullptr);
  // The monitoring daemon synced policy from /etc at boot.
  EXPECT_FALSE(protego_sys.lsm()->mount_policy().empty());
  EXPECT_FALSE(protego_sys.lsm()->bind_table().empty());
  EXPECT_FALSE(protego_sys.lsm()->delegation().rules.empty());
  EXPECT_TRUE(protego_sys.daemon()->errors().empty())
      << protego_sys.daemon()->errors().front();
}

TEST(SimSmoke, IdReportsIdentity) {
  for (SimMode mode : {SimMode::kLinux, SimMode::kProtego}) {
    SimSystem sys(mode);
    Task& alice = sys.Login("alice");
    auto out = sys.RunCapture(alice, "/usr/bin/id", {"id"});
    EXPECT_EQ(out.exit_code, 0) << SimModeName(mode);
    EXPECT_EQ(out.out, "uid=1000 gid=1000 euid=1000 egid=1000\n") << SimModeName(mode);
  }
}

TEST(SimSmoke, UserMountsCdromInBothModes) {
  for (SimMode mode : {SimMode::kLinux, SimMode::kProtego}) {
    SimSystem sys(mode);
    Task& alice = sys.Login("alice");
    auto out = sys.RunCapture(alice, "/bin/mount", {"mount", "/dev/cdrom"});
    ASSERT_EQ(out.exit_code, 0) << SimModeName(mode) << ": " << out.err;
    EXPECT_NE(out.out.find("mounted on /media/cdrom"), std::string::npos);
    // The media contents are visible.
    auto readme = sys.kernel().ReadWholeFile(alice, "/media/cdrom/README");
    ASSERT_TRUE(readme.ok()) << SimModeName(mode);
    EXPECT_NE(readme.value().find("protego-install-media"), std::string::npos);
    // ... and the user can unmount ("user" option: the mounter may).
    auto um = sys.RunCapture(alice, "/bin/umount", {"umount", "/media/cdrom"});
    EXPECT_EQ(um.exit_code, 0) << SimModeName(mode) << ": " << um.err;
  }
}

TEST(SimSmoke, UserCannotMountRootOnlyEntry) {
  for (SimMode mode : {SimMode::kLinux, SimMode::kProtego}) {
    SimSystem sys(mode);
    Task& alice = sys.Login("alice");
    auto out = sys.RunCapture(alice, "/bin/mount", {"mount", "/dev/sda2", "/mnt/backup"});
    EXPECT_NE(out.exit_code, 0) << SimModeName(mode);
    EXPECT_FALSE(sys.kernel().vfs().FindMount("/mnt/backup").has_value()) << SimModeName(mode);
  }
}

TEST(SimSmoke, SetuidBitGrantsRootOnlyInLinuxMode) {
  SimSystem linux_sys(SimMode::kLinux);
  Task& alice = linux_sys.Login("alice");
  auto st = linux_sys.kernel().Stat(alice, "/bin/mount");
  ASSERT_TRUE(st.ok());
  EXPECT_TRUE((st.value().mode & kSetUidBit) != 0);

  SimSystem protego_sys(SimMode::kProtego);
  Task& bob = protego_sys.Login("bob");
  auto st2 = protego_sys.kernel().Stat(bob, "/bin/mount");
  ASSERT_TRUE(st2.ok());
  EXPECT_TRUE((st2.value().mode & kSetUidBit) == 0);
}

TEST(SimSmoke, PingWorksForUsersInBothModes) {
  for (SimMode mode : {SimMode::kLinux, SimMode::kProtego}) {
    SimSystem sys(mode);
    Task& alice = sys.Login("alice");
    auto out = sys.RunCapture(alice, "/bin/ping", {"ping", "10.0.0.2", "2"});
    EXPECT_EQ(out.exit_code, 0) << SimModeName(mode) << ": " << out.err;
    EXPECT_NE(out.out.find("2 packets transmitted, 2 received"), std::string::npos)
        << SimModeName(mode) << "\n" << out.out;
  }
}

}  // namespace
}  // namespace protego
