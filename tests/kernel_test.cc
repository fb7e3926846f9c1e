// Unit tests for the kernel syscall layer: permission enforcement, setuid
// execve semantics, capability recomputation, fd behaviour.

#include <gtest/gtest.h>

#include "src/base/strings.h"
#include "src/kernel/kernel.h"
#include "src/lsm/apparmor.h"
#include "src/lsm/capability_module.h"

namespace protego {
namespace {

// A bare kernel with commoncap only (no MAC) and a couple of files.
class KernelTest : public ::testing::Test {
 protected:
  KernelTest() {
    kernel_.lsm().Register(std::make_unique<CapabilityModule>());
    (void)kernel_.vfs().EnsureDirs("/etc");
    (void)kernel_.vfs().EnsureDirs("/tmp");
    kernel_.vfs().Resolve("/tmp").value()->inode().mode = kIfDir | 01777;
    (void)kernel_.vfs().CreateFile("/etc/secret", 0600, kRootUid, kRootGid, "top");
    (void)kernel_.vfs().CreateFile("/etc/public", 0644, kRootUid, kRootGid, "open");
  }

  Task& User(Uid uid) { return kernel_.CreateTask("u", Cred::ForUser(uid, uid), &terminal_); }
  Task& Root() { return kernel_.CreateTask("root", Cred::Root(), &terminal_); }

  Kernel kernel_;
  Terminal terminal_;
};

TEST_F(KernelTest, DacEnforcedOnOpen) {
  Task& alice = User(1000);
  EXPECT_EQ(kernel_.Open(alice, "/etc/secret", kORdOnly).code(), Errno::kEACCES);
  EXPECT_TRUE(kernel_.Open(alice, "/etc/public", kORdOnly).ok());
  EXPECT_EQ(kernel_.Open(alice, "/etc/public", kOWrOnly).code(), Errno::kEACCES);
  // Root overrides via CAP_DAC_OVERRIDE.
  Task& root = Root();
  EXPECT_TRUE(kernel_.Open(root, "/etc/secret", kORdWr).ok());
}

TEST_F(KernelTest, OpenCreateRequiresParentWrite) {
  Task& alice = User(1000);
  EXPECT_EQ(kernel_.Open(alice, "/etc/new", kOWrOnly | kOCreat).code(), Errno::kEACCES);
  auto fd = kernel_.Open(alice, "/tmp/mine", kOWrOnly | kOCreat, 0640);
  ASSERT_TRUE(fd.ok());
  auto st = kernel_.Stat(alice, "/tmp/mine");
  EXPECT_EQ(st.value().uid, 1000u);
  EXPECT_EQ(st.value().mode & kPermMask, 0640u);
  // O_EXCL on existing file.
  EXPECT_EQ(kernel_.Open(alice, "/tmp/mine", kOWrOnly | kOCreat | kOExcl).code(),
            Errno::kEEXIST);
}

TEST_F(KernelTest, ReadWriteOffsetsAndTrunc) {
  Task& alice = User(1000);
  ASSERT_TRUE(kernel_.WriteWholeFile(alice, "/tmp/f", "hello").ok());
  ASSERT_TRUE(kernel_.WriteWholeFile(alice, "/tmp/f", " more", /*append=*/true).ok());
  EXPECT_EQ(kernel_.ReadWholeFile(alice, "/tmp/f").value(), "hello more");
  ASSERT_TRUE(kernel_.WriteWholeFile(alice, "/tmp/f", "new").ok());  // O_TRUNC path
  EXPECT_EQ(kernel_.ReadWholeFile(alice, "/tmp/f").value(), "new");
  // Sequential reads consume; a second Read returns empty.
  auto fd = kernel_.Open(alice, "/tmp/f", kORdOnly);
  EXPECT_EQ(kernel_.Read(alice, fd.value()).value(), "new");
  EXPECT_EQ(kernel_.Read(alice, fd.value()).value(), "");
  EXPECT_EQ(kernel_.Read(alice, 999).code(), Errno::kEBADF);
}

TEST_F(KernelTest, ChmodChownRules) {
  Task& alice = User(1000);
  Task& bob = User(1001);
  ASSERT_TRUE(kernel_.WriteWholeFile(alice, "/tmp/owned", "x").ok());
  EXPECT_TRUE(kernel_.Chmod(alice, "/tmp/owned", 0600).ok());
  EXPECT_EQ(kernel_.Chmod(bob, "/tmp/owned", 0666).code(), Errno::kEPERM);
  EXPECT_EQ(kernel_.Chown(alice, "/tmp/owned", 1001, 1001).code(), Errno::kEPERM);
  Task& root = Root();
  EXPECT_TRUE(kernel_.Chown(root, "/tmp/owned", 1001, 1001).ok());
  EXPECT_EQ(kernel_.Stat(root, "/tmp/owned").value().uid, 1001u);
}

TEST_F(KernelTest, ChownClearsSetuidBit) {
  Task& root = Root();
  ASSERT_TRUE(kernel_.WriteWholeFile(root, "/tmp/suid", "x").ok());
  ASSERT_TRUE(kernel_.Chmod(root, "/tmp/suid", 04755).ok());
  EXPECT_TRUE((kernel_.Stat(root, "/tmp/suid").value().mode & kSetUidBit) != 0);
  ASSERT_TRUE(kernel_.Chown(root, "/tmp/suid", 1000, 1000).ok());
  EXPECT_TRUE((kernel_.Stat(root, "/tmp/suid").value().mode & kSetUidBit) == 0);
}

TEST_F(KernelTest, SetuidBitExecSemantics) {
  // A setuid-root probe binary reports the credentials it runs with.
  ASSERT_TRUE(kernel_
                  .InstallBinary("/bin/probe", 04755, kRootUid, kRootGid,
                                 [](ProcessContext& ctx) {
                                   const Cred& c = ctx.task.cred;
                                   ctx.Out(StrFormat("ruid=%u euid=%u suid=%u caps=%d\n",
                                                     c.ruid, c.euid, c.suid,
                                                     c.effective.Has(Capability::kSysAdmin)));
                                   return 0;
                                 })
                  .ok());
  Task& alice = User(1000);
  ASSERT_TRUE(kernel_.Spawn(alice, "/bin/probe", {"probe"}, {}).ok());
  // The setuid bit changed euid+suid, not ruid; euid 0 granted full caps.
  EXPECT_EQ(alice.stdout_buf, "ruid=1000 euid=0 suid=0 caps=1\n");
  // The parent's own credentials never changed.
  EXPECT_EQ(alice.cred.euid, 1000u);
}

TEST_F(KernelTest, NonSetuidExecKeepsCallerCreds) {
  ASSERT_TRUE(kernel_
                  .InstallBinary("/bin/plain", 0755, kRootUid, kRootGid,
                                 [](ProcessContext& ctx) {
                                   ctx.Out(StrFormat("euid=%u", ctx.task.cred.euid));
                                   return 0;
                                 })
                  .ok());
  Task& alice = User(1000);
  ASSERT_TRUE(kernel_.Spawn(alice, "/bin/plain", {"plain"}, {}).ok());
  EXPECT_EQ(alice.stdout_buf, "euid=1000");
}

TEST_F(KernelTest, ExecRequiresExecuteBitAndRegistration) {
  Task& alice = User(1000);
  (void)kernel_.vfs().CreateFile("/tmp/script", 0644, 1000, 1000, "data");
  EXPECT_EQ(kernel_.Spawn(alice, "/tmp/script", {"script"}, {}).code(), Errno::kEACCES);
  (void)kernel_.vfs().CreateFile("/tmp/unregistered", 0755, 1000, 1000, "x");
  EXPECT_EQ(kernel_.Spawn(alice, "/tmp/unregistered", {"u"}, {}).code(), Errno::kENOEXEC);
  EXPECT_EQ(kernel_.Spawn(alice, "/no/such", {"x"}, {}).code(), Errno::kENOENT);
}

TEST_F(KernelTest, SetuidDropsCapsFromRoot) {
  Task& root = Root();
  ASSERT_TRUE(kernel_.Setuid(root, 1000).ok());
  EXPECT_EQ(root.cred.ruid, 1000u);
  EXPECT_EQ(root.cred.euid, 1000u);
  EXPECT_EQ(root.cred.suid, 1000u);
  EXPECT_TRUE(root.cred.effective.Empty());
  EXPECT_TRUE(root.cred.permitted.Empty());
  // Once fully dropped, there is no way back.
  EXPECT_EQ(kernel_.Setuid(root, 0).code(), Errno::kEPERM);
}

TEST_F(KernelTest, SeteuidCanReturnToSavedUid) {
  // A setuid binary that dropped only its effective uid can regain it
  // through the saved uid (the classic temporary-drop pattern).
  Task& task = kernel_.CreateTask("t", Cred::ForUser(1000, 1000), nullptr);
  task.cred.euid = 0;
  task.cred.suid = 0;
  task.cred.effective = CapSet::All();
  task.cred.permitted = CapSet::All();
  ASSERT_TRUE(kernel_.Seteuid(task, 1000).ok());
  EXPECT_EQ(task.cred.euid, 1000u);
  EXPECT_TRUE(task.cred.effective.Empty());
  ASSERT_TRUE(kernel_.Seteuid(task, 0).ok());  // suid still 0
  EXPECT_EQ(task.cred.euid, 0u);
  EXPECT_EQ(task.cred.effective.bits(), task.cred.permitted.bits());
}

TEST_F(KernelTest, SetuidUnprivilegedRules) {
  Task& alice = User(1000);
  EXPECT_EQ(kernel_.Setuid(alice, 1001).code(), Errno::kEPERM);
  EXPECT_TRUE(kernel_.Setuid(alice, 1000).ok());  // to own uid is legal
  EXPECT_EQ(kernel_.Setgid(alice, 50).code(), Errno::kEPERM);
  EXPECT_TRUE(kernel_.Setgid(alice, 1000).ok());
  EXPECT_EQ(kernel_.Setgroups(alice, {1, 2}).code(), Errno::kEPERM);
}

TEST_F(KernelTest, CloexecFdsDropAtExec) {
  ASSERT_TRUE(kernel_
                  .InstallBinary("/bin/fdcount", 0755, kRootUid, kRootGid,
                                 [](ProcessContext& ctx) {
                                   ctx.Out(StrFormat("%zu", ctx.task.fds.size()));
                                   return 0;
                                 })
                  .ok());
  Task& alice = User(1000);
  ASSERT_TRUE(kernel_.Open(alice, "/etc/public", kORdOnly).ok());
  ASSERT_TRUE(kernel_.Open(alice, "/etc/public", kORdOnly | kOCloExec).ok());
  ASSERT_TRUE(kernel_.Spawn(alice, "/bin/fdcount", {"fdcount"}, {}).ok());
  EXPECT_EQ(alice.stdout_buf, "1");  // the cloexec fd vanished in the child
  EXPECT_EQ(alice.fds.size(), 2u);   // the parent keeps both
}

// A kernel dies with tasks that still hold files and bound and raw
// sockets. Each dying fd table folds its open-file count and releases its
// sockets into the Network, so both outlive the task table (run under
// ASan).
TEST(KernelTeardownTest, TasksStillHoldingSocketsAndFiles) {
  auto kernel = std::make_unique<Kernel>();
  Kernel& k = *kernel;
  k.lsm().Register(std::make_unique<CapabilityModule>());
  ASSERT_TRUE(k.vfs().CreateFile("/motd", 0644, kRootUid, kRootGid, "hi").ok());
  for (int t = 0; t < 3; ++t) {
    Task& task = k.CreateTask("holder", Cred::Root(), nullptr);
    auto bound = k.SocketCall(task, kAfInet, kSockDgram, 0);
    ASSERT_TRUE(bound.ok());
    ASSERT_TRUE(k.BindCall(task, bound.value(), static_cast<uint16_t>(26000 + t)).ok());
    ASSERT_TRUE(k.SocketCall(task, kAfInet, kSockRaw, kProtoIcmp).ok());
    ASSERT_TRUE(k.Open(task, "/motd", kORdOnly).ok());
  }
  EXPECT_EQ(k.OpenFileCount(), 9u);
  EXPECT_EQ(k.net().PortOwner(kProtoUdp, 26000), kRootUid);
  kernel.reset();
}

TEST_F(KernelTest, MkdirUnlinkRenamePermissions) {
  Task& alice = User(1000);
  EXPECT_EQ(kernel_.Mkdir(alice, "/etc/x", 0755).code(), Errno::kEACCES);
  EXPECT_TRUE(kernel_.Mkdir(alice, "/tmp/dir", 0755).ok());
  ASSERT_TRUE(kernel_.WriteWholeFile(alice, "/tmp/dir/f", "x").ok());
  EXPECT_EQ(kernel_.Rename(alice, "/tmp/dir/f", "/etc/f").code(), Errno::kEACCES);
  EXPECT_TRUE(kernel_.Rename(alice, "/tmp/dir/f", "/tmp/g").ok());
  EXPECT_EQ(kernel_.Unlink(alice, "/etc/public").code(), Errno::kEACCES);
  EXPECT_TRUE(kernel_.Unlink(alice, "/tmp/g").ok());
}

TEST_F(KernelTest, ReadDirListsSorted) {
  Task& root = Root();
  (void)kernel_.WriteWholeFile(root, "/tmp/b", "");
  (void)kernel_.WriteWholeFile(root, "/tmp/a", "");
  auto names = kernel_.ReadDir(root, "/tmp");
  ASSERT_TRUE(names.ok());
  ASSERT_GE(names.value().size(), 2u);
  EXPECT_EQ(names.value()[0], "a");
  EXPECT_EQ(kernel_.ReadDir(root, "/tmp/a").code(), Errno::kENOTDIR);
}

TEST_F(KernelTest, RelativePathsResolveAgainstCwd) {
  Task& alice = User(1000);
  alice.cwd = "/tmp";
  ASSERT_TRUE(kernel_.WriteWholeFile(alice, "rel.txt", "here").ok());
  EXPECT_EQ(kernel_.ReadWholeFile(alice, "/tmp/rel.txt").value(), "here");
  EXPECT_EQ(kernel_.ReadWholeFile(alice, "./rel.txt").value(), "here");
}

TEST_F(KernelTest, SpawnPropagatesExitCodeAndOutput) {
  ASSERT_TRUE(kernel_
                  .InstallBinary("/bin/fail7", 0755, kRootUid, kRootGid,
                                 [](ProcessContext& ctx) {
                                   ctx.Err("boom\n");
                                   return 7;
                                 })
                  .ok());
  Task& alice = User(1000);
  auto code = kernel_.Spawn(alice, "/bin/fail7", {"fail7"}, {});
  ASSERT_TRUE(code.ok());
  EXPECT_EQ(code.value(), 7);
  EXPECT_EQ(alice.stderr_buf, "boom\n");
}

// --- Policy decides on the object the kernel acts on ---------------------------

TEST_F(KernelTest, AppArmorDecidesOnTheSymlinkTarget) {
  auto apparmor = std::make_unique<AppArmorModule>(kernel_.grace());
  AaProfile profile;
  profile.binary = "/usr/bin/reader";
  profile.file_rules = {{"/tmp/*", kMayRead}};
  apparmor->LoadProfile(profile);
  kernel_.lsm().Register(std::move(apparmor));
  (void)kernel_.vfs().CreateSymlink("/tmp/ln", "/etc/public", kRootUid, kRootGid);
  (void)kernel_.vfs().CreateFile("/tmp/own", 0644, kRootUid, kRootGid, "mine");
  Task& root = Root();
  root.exe_path = "/usr/bin/reader";
  EXPECT_TRUE(kernel_.ReadWholeFile(root, "/tmp/own").ok());
  EXPECT_EQ(kernel_.ReadWholeFile(root, "/tmp/ln").code(), Errno::kEACCES);
  EXPECT_EQ(kernel_.ReadWholeFile(root, "/tmp/../etc/public").code(), Errno::kEACCES);
}

TEST_F(KernelTest, ExecThroughASymlinkRunsItsTarget) {
  std::string exe;
  ASSERT_TRUE(kernel_
                  .InstallBinary("/bin/ping", 0755, kRootUid, kRootGid,
                                 [&exe](ProcessContext& ctx) {
                                   exe = ctx.task.exe_path;
                                   return 7;
                                 })
                  .ok());
  (void)kernel_.vfs().CreateSymlink("/tmp/myping", "/bin/ping", kRootUid, kRootGid);
  Task& alice = User(1000);
  auto status = kernel_.Spawn(alice, "/tmp/myping", {"myping"}, {});
  ASSERT_TRUE(status.ok()) << status.error().ToString();
  EXPECT_EQ(status.value(), 7);
  EXPECT_EQ(exe, "/bin/ping");
}

TEST_F(KernelTest, MountThroughASymlinkRecordsTheTarget) {
  kernel_.RegisterFsType("tmpfs", [](const std::string&) -> Result<MountPopulator> {
    return MountPopulator();
  });
  (void)kernel_.vfs().EnsureDirs("/mnt/real");
  (void)kernel_.vfs().CreateSymlink("/mnt/alias", "/mnt/real", kRootUid, kRootGid);
  Task& root = Root();
  ASSERT_TRUE(kernel_.Mount(root, "none", "/mnt/alias", "tmpfs", {}).ok());
  EXPECT_EQ(kernel_.vfs().FormatMounts(), "none /mnt/real tmpfs defaults 0\n");
  EXPECT_TRUE(kernel_.Umount(root, "/mnt/real").ok());
  EXPECT_EQ(kernel_.vfs().FormatMounts(), "");
}

}  // namespace
}  // namespace protego
