// Edge-case tests for utilities not fully covered by the functional
// equivalence suite: eject, fusermount, dmcrypt-get-device, ssh-keysign,
// xserver, exim delivery, httpd, pkexec, and the coverage registry itself.

#include <gtest/gtest.h>

#include "src/sim/system.h"
#include "src/userland/coverage.h"
#include "src/userland/daemon_utils.h"

namespace protego {
namespace {

TEST(Eject, UnmountsMountedMediaInBothModes) {
  for (SimMode mode : {SimMode::kLinux, SimMode::kProtego}) {
    SimSystem sys(mode);
    Task& alice = sys.Login("alice");
    ASSERT_EQ(sys.RunCapture(alice, "/bin/mount", {"mount", "/dev/cdrom"}).exit_code, 0);
    auto out = sys.RunCapture(alice, "/usr/bin/eject", {"eject", "/dev/cdrom"});
    EXPECT_EQ(out.exit_code, 0) << SimModeName(mode) << out.err;
    EXPECT_FALSE(sys.kernel().vfs().FindMount("/media/cdrom").has_value());
  }
}

TEST(Fusermount, MountsUserOwnedMountpoint) {
  for (SimMode mode : {SimMode::kLinux, SimMode::kProtego}) {
    SimSystem sys(mode);
    Task& alice = sys.Login("alice");
    ASSERT_TRUE(sys.kernel().Mkdir(alice, "/home/alice/mnt", 0755).ok());
    auto out = sys.RunCapture(alice, "/usr/bin/fusermount", {"fusermount",
                                                             "/home/alice/mnt"});
    EXPECT_EQ(out.exit_code, 0) << SimModeName(mode) << out.err;
    auto hello = sys.kernel().ReadWholeFile(alice, "/home/alice/mnt/hello");
    EXPECT_TRUE(hello.ok()) << SimModeName(mode);
  }
}

TEST(Fusermount, RefusesForeignMountpoint) {
  for (SimMode mode : {SimMode::kLinux, SimMode::kProtego}) {
    SimSystem sys(mode);
    Task& bob = sys.Login("bob");
    // /home/alice/mnt belongs to alice; bob may not fuse-mount there.
    Task& root = sys.Login("root");
    (void)sys.kernel().Mkdir(root, "/home/alice/mnt", 0755);
    (void)sys.kernel().Chown(root, "/home/alice/mnt", 1000, 1000);
    auto out = sys.RunCapture(bob, "/usr/bin/fusermount", {"fusermount", "/home/alice/mnt"});
    EXPECT_NE(out.exit_code, 0) << SimModeName(mode);
  }
}

TEST(DmcryptGetDevice, SameAnswerBothModesKeyNeverPrinted) {
  std::string linux_out;
  for (SimMode mode : {SimMode::kLinux, SimMode::kProtego}) {
    SimSystem sys(mode);
    Task& alice = sys.Login("alice");
    auto out = sys.RunCapture(alice, "/usr/bin/dmcrypt-get-device",
                              {"dmcrypt-get-device", "dm-0"});
    EXPECT_EQ(out.exit_code, 0) << SimModeName(mode) << out.err;
    EXPECT_NE(out.out.find("/dev/sda3"), std::string::npos);
    EXPECT_EQ(out.out.find("deadbeef"), std::string::npos) << "key leaked!";
    if (mode == SimMode::kLinux) {
      linux_out = out.out;
    } else {
      EXPECT_EQ(out.out, linux_out);  // behavioural equivalence
    }
  }
}

TEST(DmcryptGetDevice, UnknownVolumeFails) {
  SimSystem sys(SimMode::kProtego);
  Task& alice = sys.Login("alice");
  auto out = sys.RunCapture(alice, "/usr/bin/dmcrypt-get-device",
                            {"dmcrypt-get-device", "dm-9"});
  EXPECT_NE(out.exit_code, 0);
}

TEST(SshKeysign, SignaturesMatchAcrossModes) {
  std::string linux_sig;
  for (SimMode mode : {SimMode::kLinux, SimMode::kProtego}) {
    SimSystem sys(mode);
    Task& alice = sys.Login("alice");
    auto out = sys.RunCapture(alice, "/usr/lib/ssh-keysign", {"ssh-keysign", "pubkey-blob"});
    ASSERT_EQ(out.exit_code, 0) << SimModeName(mode) << out.err;
    if (mode == SimMode::kLinux) {
      linux_sig = out.out;
    } else {
      EXPECT_EQ(out.out, linux_sig);  // same host key, same signature
    }
  }
}

TEST(Xserver, UnprivilegedUnderKmsOnly) {
  // Stock: works because the binary is setuid. Protego: works because KMS
  // (the kernel) owns video state. Both set the mode.
  for (SimMode mode : {SimMode::kLinux, SimMode::kProtego}) {
    SimSystem sys(mode);
    Task& alice = sys.Login("alice");
    auto out = sys.RunCapture(alice, "/usr/bin/xserver", {"xserver", "--mode=1920x1080"});
    EXPECT_EQ(out.exit_code, 0) << SimModeName(mode) << out.err;
    Task& root = sys.Login("root");
    EXPECT_EQ(sys.kernel().ReadWholeFile(root, "/sys/video/mode").value(), "1920x1080\n");
  }
  // KMS validates: garbage mode rejected (Protego only — stock X would have
  // happily programmed the hardware with it).
  SimSystem protego(SimMode::kProtego);
  Task& alice = protego.Login("alice");
  EXPECT_NE(protego.RunCapture(alice, "/usr/bin/xserver", {"xserver", "--mode=junk"})
                .exit_code,
            0);
}

TEST(Eximd, DeliversToGroupWritableSpool) {
  SimSystem sys(SimMode::kProtego);
  Task& exim = sys.Login("exim");
  auto out = sys.RunCapture(exim, "/usr/sbin/eximd",
                            {"eximd", "--deliver=alice:hello alice"});
  EXPECT_EQ(out.exit_code, 0) << out.err;
  EXPECT_NE(out.out.find("delivered to alice"), std::string::npos);
  Task& root = sys.Login("root");
  auto spool = sys.kernel().ReadWholeFile(root, "/var/mail/alice");
  EXPECT_NE(spool.value().find("hello alice"), std::string::npos);
  // exim (uid 101, group mail) wrote a file it does NOT own: the §4.4
  // file-permissions technique, no root required.
  EXPECT_EQ(sys.kernel().Stat(root, "/var/mail/alice").value().uid, 1000u);
}

TEST(Eximd, CannotStartAsRandomUserInProtegoMode) {
  SimSystem sys(SimMode::kProtego);
  Task& alice = sys.Login("alice");
  auto out = sys.RunCapture(alice, "/usr/sbin/eximd", {"eximd"});
  EXPECT_NE(out.exit_code, 0);  // port 25 is allocated to (eximd, exim)
}

TEST(Pkexec, DelegatesViaKernelRules) {
  SimSystem sys(SimMode::kProtego);
  // charlie's NOPASSWD id rule applies through pkexec too.
  Task& charlie = sys.Login("charlie");
  auto out = sys.RunCapture(charlie, "/usr/bin/pkexec", {"pkexec", "/usr/bin/id"});
  EXPECT_EQ(out.exit_code, 0) << out.err;
  EXPECT_NE(out.out.find("euid=0"), std::string::npos);
  // bob has no rule for cat-as-root.
  Task& bob = sys.Login("bob");
  auto denied = sys.RunCapture(bob, "/usr/bin/pkexec", {"pkexec", "/bin/cat", "/etc/shadow"});
  EXPECT_NE(denied.exit_code, 0);
}

TEST(CoverageRegistry, TracksDeclaredBlocksOnly) {
  Coverage& cov = Coverage::Get();
  cov.Declare("testbin", {"a", "b", "c", "d"});
  cov.ResetHits();
  cov.Hit("testbin", "a");
  cov.Hit("testbin", "a");          // duplicate hit counts once
  cov.Hit("testbin", "undeclared");  // ignored
  cov.Hit("otherbin", "a");          // unknown binary ignored
  EXPECT_DOUBLE_EQ(cov.Percent("testbin"), 25.0);
  EXPECT_EQ(cov.MissedBlocks("testbin"), (std::vector<std::string>{"b", "c", "d"}));
  EXPECT_DOUBLE_EQ(cov.Percent("nonexistent"), 0.0);
}

TEST(SetcapAlternative, FileCapsGrantWithoutSetuid) {
  // The paper's §3.1 "Capabilities" hardening technique: a binary launched
  // with setcap-style file capabilities instead of the setuid bit.
  SimSystem sys(SimMode::kLinux);
  Kernel& k = sys.kernel();
  (void)k.InstallBinary("/usr/bin/capping", 0755, kRootUid, kRootGid,
                        [](ProcessContext& ctx) {
                          auto fd = ctx.kernel.SocketCall(ctx.task, kAfInet, kSockRaw,
                                                          kProtoIcmp);
                          ctx.Out(fd.ok() ? "raw-ok" : "raw-denied");
                          return fd.ok() ? 0 : 1;
                        });
  Task& alice = sys.Login("alice");
  auto before = sys.RunCapture(alice, "/usr/bin/capping", {"capping"});
  EXPECT_EQ(before.out, "raw-denied");
  k.SetFileCaps("/usr/bin/capping", CapSet::Of({Capability::kNetRaw}));
  auto after = sys.RunCapture(alice, "/usr/bin/capping", {"capping"});
  EXPECT_EQ(after.out, "raw-ok");
}

}  // namespace
}  // namespace protego
