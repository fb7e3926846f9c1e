// Unit and integration tests for the Protego LSM itself: each policy engine
// (mount whitelist, bind table, delegation, file rules, route checks) plus
// the /proc configuration interface, exercised through a full SimSystem.

#include <gtest/gtest.h>

#include "src/base/strings.h"
#include "src/net/ioctl_codes.h"
#include "src/protego/proc_iface.h"
#include "src/sim/system.h"

namespace protego {
namespace {

class ProtegoLsmTest : public ::testing::Test {
 protected:
  ProtegoLsmTest() : sys_(SimMode::kProtego) {}
  SimSystem sys_;
};

// --- Bind table (§4.1.3) -----------------------------------------------------

TEST_F(ProtegoLsmTest, AllocatedPortBindableOnlyByItsInstance) {
  // The allocated instance binds without privilege.
  Task& exim = sys_.Login("exim");
  exim.exe_path = "/usr/sbin/eximd";
  auto fd = sys_.kernel().SocketCall(exim, kAfInet, kSockStream, 0);
  EXPECT_TRUE(sys_.kernel().BindCall(exim, fd.value(), 25).ok());

  // The right binary under the WRONG uid is refused.
  Task& alice = sys_.Login("alice");
  alice.exe_path = "/usr/sbin/eximd";
  auto fd2 = sys_.kernel().SocketCall(alice, kAfInet, kSockStream, 0);
  EXPECT_EQ(sys_.kernel().BindCall(alice, fd2.value(), 80).code(), Errno::kEACCES);

  // The wrong binary — even with root privilege — is refused: the
  // allocation is object policy, not a privilege check.
  Task& root = sys_.Login("root");
  root.exe_path = "/usr/sbin/httpd";
  auto fd3 = sys_.kernel().SocketCall(root, kAfInet, kSockStream, 0);
  EXPECT_EQ(sys_.kernel().BindCall(root, fd3.value(), 25).code(), Errno::kEACCES);

  // Unallocated low ports keep the legacy CAP_NET_BIND_SERVICE rule.
  auto fd4 = sys_.kernel().SocketCall(root, kAfInet, kSockStream, 0);
  EXPECT_TRUE(sys_.kernel().BindCall(root, fd4.value(), 443).ok());
  Task& bob = sys_.Login("bob");
  auto fd5 = sys_.kernel().SocketCall(bob, kAfInet, kSockStream, 0);
  EXPECT_EQ(sys_.kernel().BindCall(bob, fd5.value(), 444).code(), Errno::kEACCES);
  // High ports are free for everyone.
  EXPECT_TRUE(sys_.kernel().BindCall(bob, fd5.value(), 8080).ok());
}

TEST_F(ProtegoLsmTest, SecondAllocationOfSamePortCanBind) {
  // Regression: SocketBind used to deny at the FIRST entry whose port
  // matched, so a second (binary, uid) allocation of the same port was dead
  // policy. All allocations of a port must be scanned before denying.
  Kernel& k = sys_.kernel();
  Task& root = sys_.Login("root");
  ASSERT_TRUE(k.WriteWholeFile(root, "/proc/protego/ports",
                               "80 /usr/sbin/httpd 33\n"
                               "80 /usr/sbin/nginx 0\n")
                  .ok());

  // The SECOND allocation binds fine (pre-fix: the httpd entry denied it).
  Task& web = sys_.Login("root");
  web.exe_path = "/usr/sbin/nginx";
  auto fd = k.SocketCall(web, kAfInet, kSockStream, 0);
  EXPECT_TRUE(k.BindCall(web, fd.value(), 80).ok());
  ASSERT_TRUE(k.Close(web, fd.value()).ok());

  // The first allocation still binds, and non-allocated instances are still
  // refused.
  Task& www = sys_.Login("www-data");
  www.exe_path = "/usr/sbin/httpd";
  auto fd2 = k.SocketCall(www, kAfInet, kSockStream, 0);
  EXPECT_TRUE(k.BindCall(www, fd2.value(), 80).ok());
  Task& bob = sys_.Login("bob");
  bob.exe_path = "/usr/sbin/nginx";
  auto fd3 = k.SocketCall(bob, kAfInet, kSockStream, 0);
  EXPECT_EQ(k.BindCall(bob, fd3.value(), 80).code(), Errno::kEACCES);
}

// --- Mount whitelist (§4.2) ---------------------------------------------------

TEST_F(ProtegoLsmTest, MountWhitelistMatchesDeviceMountpointTypeOptions) {
  Task& alice = sys_.Login("alice");
  Kernel& k = sys_.kernel();
  // Whitelisted, with a privilege-reducing extra option.
  EXPECT_TRUE(k.Mount(alice, "/dev/cdrom", "/media/cdrom", "iso9660", {"ro", "nosuid"}).ok());
  EXPECT_TRUE(k.Umount(alice, "/media/cdrom").ok());
  // Wrong mountpoint / fstype / extra privileged option: refused.
  EXPECT_EQ(k.Mount(alice, "/dev/cdrom", "/media/usb", "iso9660", {"ro"}).code(),
            Errno::kEPERM);
  EXPECT_EQ(k.Mount(alice, "/dev/cdrom", "/media/cdrom", "vfat", {"ro"}).code(),
            Errno::kEPERM);
  EXPECT_EQ(k.Mount(alice, "/dev/cdrom", "/media/cdrom", "iso9660", {"rw"}).code(),
            Errno::kEPERM);
  // Glob entries work (the fuse rule covers /home/*/mnt).
  ASSERT_TRUE(k.Mkdir(alice, "/home/alice/mnt", 0755).ok());
  EXPECT_TRUE(k.Mount(alice, "fuse", "/home/alice/mnt", "fuse", {"rw", "user"}).ok());
}

TEST_F(ProtegoLsmTest, UmountHonorsMounterAndUsersOption) {
  Kernel& k = sys_.kernel();
  Task& alice = sys_.Login("alice");
  Task& bob = sys_.Login("bob");
  // "user" option: only the mounter (or root) may unmount.
  ASSERT_TRUE(k.Mount(alice, "/dev/cdrom", "/media/cdrom", "iso9660", {"ro"}).ok());
  EXPECT_EQ(k.Umount(bob, "/media/cdrom").code(), Errno::kEPERM);
  Task& root = sys_.Login("root");
  EXPECT_TRUE(k.Umount(root, "/media/cdrom").ok());
  // "users" option: anyone may unmount.
  ASSERT_TRUE(k.Mount(alice, "/dev/sdb1", "/media/usb", "vfat", {"rw"}).ok());
  EXPECT_TRUE(k.Umount(bob, "/media/usb").ok());
}

TEST_F(ProtegoLsmTest, UmountDecisionsCountedSeparatelyFromMounts) {
  // Regression: SbUmount verdicts used to fold into mount_allowed /
  // mount_denied, hiding unmount activity. They get their own counters.
  Kernel& k = sys_.kernel();
  Task& alice = sys_.Login("alice");
  Task& bob = sys_.Login("bob");
  const ProtegoStats& s = sys_.lsm()->stats();
  uint64_t mount_allowed = s.mount_allowed;
  uint64_t mount_denied = s.mount_denied;
  uint64_t umount_allowed = s.umount_allowed;
  uint64_t umount_denied = s.umount_denied;

  ASSERT_TRUE(k.Mount(alice, "/dev/cdrom", "/media/cdrom", "iso9660", {"ro"}).ok());
  EXPECT_EQ(k.Umount(bob, "/media/cdrom").code(), Errno::kEPERM);
  EXPECT_TRUE(k.Umount(alice, "/media/cdrom").ok());

  EXPECT_EQ(s.umount_allowed, umount_allowed + 1);
  EXPECT_EQ(s.umount_denied, umount_denied + 1);
  // Mount counters saw exactly the one mount, none of the umount traffic.
  EXPECT_EQ(s.mount_allowed, mount_allowed + 1);
  EXPECT_EQ(s.mount_denied, mount_denied);

  // The split shows up in /proc/protego/status.
  std::string status = k.ReadWholeFile(alice, "/proc/protego/status").value();
  EXPECT_NE(status.find(StrFormat("umount_allowed %llu\n",
                                  (unsigned long long)s.umount_allowed)),
            std::string::npos);
  EXPECT_NE(status.find(StrFormat("umount_denied %llu\n",
                                  (unsigned long long)s.umount_denied)),
            std::string::npos);
}

// --- Delegation (§4.3) ----------------------------------------------------------

TEST_F(ProtegoLsmTest, SetuidDefersWhenRestrictedRulesExist) {
  Task& bob = sys_.Login("bob");
  // bob has a command-restricted rule (lpr as alice): setuid returns 0 but
  // credentials do not change until exec.
  ASSERT_TRUE(sys_.kernel().Setuid(bob, 1000).ok());
  EXPECT_EQ(bob.cred.euid, 1001u);
  EXPECT_EQ(bob.cred.ruid, 1001u);
  EXPECT_TRUE(bob.pending_setuid.active);
  EXPECT_EQ(bob.pending_setuid.target_uid, 1000u);
}

TEST_F(ProtegoLsmTest, DeferredExecEnforcesCommandRestriction) {
  Kernel& k = sys_.kernel();
  Task& root = sys_.Login("root");
  (void)k.WriteWholeFile(root, "/home/alice/doc", "d", false, 0644);
  (void)k.Chown(root, "/home/alice/doc", 1000, 1000);

  Task& bob = sys_.Login("bob");
  bob.terminal->QueueInput("bobpw");
  ASSERT_TRUE(k.Setuid(bob, 1000).ok());
  auto code = k.Spawn(bob, "/usr/bin/lpr", {"/usr/bin/lpr", "/home/alice/doc"}, {});
  ASSERT_TRUE(code.ok());
  EXPECT_EQ(code.value(), 0);
  EXPECT_NE(bob.stdout_buf.find("as uid=1000"), std::string::npos);

  // An undelegated command fails AT EXEC with EACCES (§4.3's documented
  // error-behaviour change).
  Task& bob2 = sys_.Login("bob");
  bob2.terminal->QueueInput("bobpw");
  ASSERT_TRUE(k.Setuid(bob2, 1000).ok());
  auto denied = k.Spawn(bob2, "/bin/cat", {"/bin/cat", "/home/alice/doc"}, {});
  EXPECT_EQ(denied.code(), Errno::kEACCES);
}

TEST_F(ProtegoLsmTest, NoDelegationMeansLegacyEperm) {
  // www-data has no rules toward bob and no password: plain EPERM.
  Task& www = sys_.Login("www-data");
  EXPECT_EQ(sys_.kernel().Setuid(www, 1001).code(), Errno::kEPERM);
  EXPECT_FALSE(www.pending_setuid.active);
}

TEST_F(ProtegoLsmTest, EnvSanitizedAndFdsClosedAcrossTransition) {
  Kernel& k = sys_.kernel();
  (void)k.InstallBinary("/usr/bin/envdump", 0755, kRootUid, kRootGid,
                        [](ProcessContext& ctx) {
                          for (const auto& [key, value] : ctx.env) {
                            ctx.Out(key + "=" + value + ";");
                          }
                          ctx.Out(StrFormat("fds=%zu", ctx.task.fds.size()));
                          return 0;
                        });
  // Add an envdump rule for charlie.
  Task& root = sys_.Login("root");
  (void)k.WriteWholeFile(root, "/etc/sudoers.d/test",
                         "charlie ALL=(root) NOPASSWD: /usr/bin/envdump\n");

  Task& charlie = sys_.Login("charlie");
  (void)k.Open(charlie, "/etc/passwd", kORdOnly);  // an fd that must not leak
  ASSERT_TRUE(k.Setuid(charlie, 0).ok());
  auto code = k.Spawn(charlie, "/usr/bin/envdump", {"/usr/bin/envdump"},
                      {{"PATH", "/bin"}, {"LD_PRELOAD", "/tmp/evil.so"}, {"IFS", "x"}});
  ASSERT_TRUE(code.ok());
  EXPECT_NE(charlie.stdout_buf.find("PATH=/bin;"), std::string::npos);
  EXPECT_EQ(charlie.stdout_buf.find("LD_PRELOAD"), std::string::npos);
  EXPECT_EQ(charlie.stdout_buf.find("IFS"), std::string::npos);
  EXPECT_NE(charlie.stdout_buf.find("fds=0"), std::string::npos);
}

TEST_F(ProtegoLsmTest, GroupMembershipAllowsSetgid) {
  // alice is a member of staff (gid 50): no password needed.
  Task& alice = sys_.Login("alice");
  EXPECT_TRUE(sys_.kernel().Setgid(alice, 50).ok());
  EXPECT_EQ(alice.cred.egid, 50u);
  // bob is not a member; with the group password he joins, without he fails.
  Task& bob = sys_.Login("bob");
  bob.terminal->QueueInput("staffpw");
  EXPECT_TRUE(sys_.kernel().Setgid(bob, 50).ok());
  Task& bob2 = sys_.Login("bob");
  EXPECT_EQ(sys_.kernel().Setgid(bob2, 50).code(), Errno::kEPERM);
  // The mail group has no password: non-members always fail.
  Task& bob3 = sys_.Login("bob");
  bob3.terminal->QueueInput("anything");
  EXPECT_EQ(sys_.kernel().Setgid(bob3, 8).code(), Errno::kEPERM);
}

TEST_F(ProtegoLsmTest, AuthenticationRecencyWindow) {
  Task& alice = sys_.Login("alice");
  alice.terminal->QueueInput("alicepw");
  ASSERT_TRUE(sys_.kernel().Setuid(alice, 0).ok());  // %admin rule + password
  EXPECT_EQ(alice.cred.euid, 0u);

  // A sibling session on the same terminal inside the window: no password.
  Task& alice2 = sys_.kernel().CreateTask("alice2", Cred::ForUser(1000, 1000, {115, 50}),
                                          alice.terminal);
  sys_.kernel().clock().Advance(200);
  EXPECT_TRUE(sys_.kernel().Setuid(alice2, 0).ok());

  // Beyond the 5-minute window: a password is required again (none queued).
  Task& alice3 = sys_.kernel().CreateTask("alice3", Cred::ForUser(1000, 1000, {115, 50}),
                                          alice.terminal);
  sys_.kernel().clock().Advance(400);
  EXPECT_EQ(sys_.kernel().Setuid(alice3, 0).code(), Errno::kEPERM);
}

// --- File rules (§4.4 / §4.6) -----------------------------------------------------

TEST_F(ProtegoLsmTest, FileDelegationGrantsOnlyThatBinary) {
  Kernel& k = sys_.kernel();
  Task& alice = sys_.Login("alice");
  // Direct read: refused by DAC (root-owned 0600).
  EXPECT_EQ(k.ReadWholeFile(alice, "/etc/ssh/ssh_host_key").code(), Errno::kEACCES);
  // Via the delegated binary: the signature comes back.
  auto out = sys_.RunCapture(alice, "/usr/lib/ssh-keysign", {"ssh-keysign", "data"});
  EXPECT_EQ(out.exit_code, 0);
  EXPECT_EQ(out.out.find("signature "), 0u);
  // The delegation is read-only: even ssh-keysign cannot write the key.
  Task& forged = sys_.kernel().CreateTask("f", Cred::ForUser(1000, 1000), alice.terminal);
  forged.exe_path = "/usr/lib/ssh-keysign";
  EXPECT_EQ(k.WriteWholeFile(forged, "/etc/ssh/ssh_host_key", "evil").code(),
            Errno::kEACCES);
}

TEST_F(ProtegoLsmTest, ShadowFragmentsRequireReauthentication) {
  Kernel& k = sys_.kernel();
  Task& alice = sys_.Login("alice");
  // Even the OWNER must reauthenticate to read her shadow fragment.
  EXPECT_EQ(k.ReadWholeFile(alice, "/etc/shadows/alice").code(), Errno::kEACCES);
  Task& alice2 = sys_.Login("alice");
  alice2.terminal->QueueInput("alicepw");
  auto read = k.ReadWholeFile(alice2, "/etc/shadows/alice");
  EXPECT_TRUE(read.ok());
  // Freshly authenticated, a second read needs no password.
  EXPECT_TRUE(k.ReadWholeFile(alice2, "/etc/shadows/alice").ok());
  // Another user still fails on DAC even WITH authentication knowledge.
  Task& bob = sys_.Login("bob");
  bob.terminal->QueueInput("bobpw");
  EXPECT_EQ(k.ReadWholeFile(bob, "/etc/shadows/alice").code(), Errno::kEACCES);
}

TEST_F(ProtegoLsmTest, ReauthChallengesInvokingUserNotFileOwner) {
  // Regression: the reauth gate used to call EnsureAuthenticated with the
  // file owner's uid (inode.uid), so reading a reauth-gated ROOT-OWNED file
  // demanded root's password from an ordinary user. §4.6's challenge is for
  // the logged-in user's own password.
  Kernel& k = sys_.kernel();
  Task& root = sys_.Login("root");
  std::string sudoers = k.ReadWholeFile(root, "/proc/protego/sudoers").value();
  ASSERT_TRUE(k.WriteWholeFile(root, "/proc/protego/sudoers",
                               sudoers + "Reauth_Read /etc/secrets/*\n")
                  .ok());
  ASSERT_TRUE(k.Mkdir(root, "/etc/secrets", 0755).ok());
  ASSERT_TRUE(k.WriteWholeFile(root, "/etc/secrets/config", "s3cret", false, 0644).ok());

  // alice passes DAC (0644) and reauthenticates with HER OWN password.
  // Pre-fix, this prompted for root's password and "alicepw" was rejected.
  Task& alice = sys_.Login("alice");
  alice.terminal->QueueInput("alicepw");
  auto read = k.ReadWholeFile(alice, "/etc/secrets/config");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), "s3cret");

  // Without authenticating, the gate still denies.
  Task& alice2 = sys_.Login("alice");
  EXPECT_EQ(k.ReadWholeFile(alice2, "/etc/secrets/config").code(), Errno::kEACCES);
}

// --- PPP / routes (§4.1.2) ---------------------------------------------------------

TEST_F(ProtegoLsmTest, UserRoutesMustNotConflict) {
  Kernel& k = sys_.kernel();
  Task& alice = sys_.Login("alice");
  auto sock = k.SocketCall(alice, kAfInet, kSockDgram, 0);
  // Fresh address space: allowed.
  EXPECT_TRUE(k.Ioctl(alice, sock.value(), kSiocAddRt, "172.16.0.0/16 0.0.0.0 ppp0").ok());
  // Overlapping the LAN: refused.
  EXPECT_EQ(k.Ioctl(alice, sock.value(), kSiocAddRt, "10.0.0.0/16 0.0.0.0 ppp0").code(),
            Errno::kEPERM);
  // A user may remove only her own routes.
  EXPECT_TRUE(k.Ioctl(alice, sock.value(), kSiocDelRt, "172.16.0.0/16").ok());
  Task& bob = sys_.Login("bob");
  auto bob_sock = k.SocketCall(bob, kAfInet, kSockDgram, 0);
  EXPECT_EQ(k.Ioctl(bob, bob_sock.value(), kSiocDelRt, "10.0.0.0/24").code(), Errno::kEPERM);
}

TEST_F(ProtegoLsmTest, PppSafeOptionsOnlyForUsers) {
  Kernel& k = sys_.kernel();
  Task& alice = sys_.Login("alice");
  auto dev = k.Open(alice, "/dev/ppp", kORdWr);
  ASSERT_TRUE(dev.ok());
  auto unit = k.Ioctl(alice, dev.value(), kPppIocNewUnit, "");
  ASSERT_TRUE(unit.ok());
  EXPECT_TRUE(k.Ioctl(alice, dev.value(), kPppIocSFlags, "0 bsdcomp").ok());
  EXPECT_EQ(k.Ioctl(alice, dev.value(), kPppIocSFlags, "0 defaultroute").code(),
            Errno::kEPERM);
  // Root may set anything.
  Task& root = sys_.Login("root");
  auto rdev = k.Open(root, "/dev/ppp", kORdWr);
  EXPECT_TRUE(k.Ioctl(root, rdev.value(), kPppIocSFlags, "0 defaultroute").ok());
}

TEST_F(ProtegoLsmTest, InUsePppUnitProtectedFromOtherUsers) {
  Kernel& k = sys_.kernel();
  Task& alice = sys_.Login("alice");
  auto dev = k.Open(alice, "/dev/ppp", kORdWr);
  (void)k.Ioctl(alice, dev.value(), kPppIocNewUnit, "");
  ASSERT_TRUE(k.Ioctl(alice, dev.value(), kPppIocConnect, "0 172.16.0.1 172.16.0.2").ok());
  Task& bob = sys_.Login("bob");
  auto bdev = k.Open(bob, "/dev/ppp", kORdWr);
  EXPECT_EQ(k.Ioctl(bob, bdev.value(), kPppIocSFlags, "0 bsdcomp").code(), Errno::kEBUSY);
}

// --- /proc interface --------------------------------------------------------------

TEST_F(ProtegoLsmTest, ProcFilesParseValidateSwap) {
  Kernel& k = sys_.kernel();
  Task& root = sys_.Login("root");
  std::string before = k.ReadWholeFile(root, "/proc/protego/ports").value();
  EXPECT_EQ(k.WriteWholeFile(root, "/proc/protego/ports", "99999 /x 0\n").code(),
            Errno::kEINVAL);
  EXPECT_EQ(k.ReadWholeFile(root, "/proc/protego/ports").value(), before);
  ASSERT_TRUE(k.WriteWholeFile(root, "/proc/protego/ports", "25 /usr/sbin/eximd 101\n").ok());
  EXPECT_EQ(sys_.lsm()->bind_table().size(), 1u);
}

TEST_F(ProtegoLsmTest, ProcFilesAreRootOnly) {
  Kernel& k = sys_.kernel();
  Task& alice = sys_.Login("alice");
  EXPECT_EQ(k.ReadWholeFile(alice, "/proc/protego/sudoers").code(), Errno::kEACCES);
  EXPECT_EQ(k.WriteWholeFile(alice, "/proc/protego/mounts", "x /y ext4 user\n").code(),
            Errno::kEACCES);
  // The status file is world-readable.
  EXPECT_TRUE(k.ReadWholeFile(alice, "/proc/protego/status").ok());
}

TEST_F(ProtegoLsmTest, StatsCountDecisions) {
  Kernel& k = sys_.kernel();
  Task& alice = sys_.Login("alice");
  uint64_t allowed = sys_.lsm()->stats().mount_allowed;
  ASSERT_TRUE(k.Mount(alice, "/dev/cdrom", "/media/cdrom", "iso9660", {"ro"}).ok());
  EXPECT_EQ(sys_.lsm()->stats().mount_allowed, allowed + 1);
  uint64_t raw = sys_.lsm()->stats().raw_sockets_allowed;
  (void)k.SocketCall(alice, kAfInet, kSockRaw, kProtoIcmp);
  EXPECT_EQ(sys_.lsm()->stats().raw_sockets_allowed, raw + 1);
}

// --- dm-crypt (§4, Table 4) ---------------------------------------------------------

TEST_F(ProtegoLsmTest, DmCryptSysExposesDeviceIoctlStaysRoot) {
  Kernel& k = sys_.kernel();
  Task& alice = sys_.Login("alice");
  EXPECT_EQ(k.ReadWholeFile(alice, "/sys/block/dm-0/slaves").value(), "/dev/sda3\n");
  auto fd = k.Open(alice, "/dev/mapper/control", kORdWr);
  EXPECT_EQ(fd.code(), Errno::kEACCES);  // device node is 0600 root
  Task& root = sys_.Login("root");
  auto rfd = k.Open(root, "/dev/mapper/control", kORdWr);
  auto status = k.Ioctl(root, rfd.value(), kDmTableStatus, "dm-0");
  ASSERT_TRUE(status.ok());
  EXPECT_NE(status.value().find("key="), std::string::npos);  // the flawed interface
}

TEST_F(ProtegoLsmTest, UserDbProcRoundTrip) {
  UserDb db = sys_.lsm()->user_db();
  std::string serialized = SerializeUserDbSections(db);
  auto parsed = ParseUserDbSections(serialized);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().users().size(), db.users().size());
  EXPECT_EQ(parsed.value().groups().size(), db.groups().size());
  EXPECT_EQ(ParseUserDbSections("stray line\n").code(), Errno::kEINVAL);
}

}  // namespace
}  // namespace protego
