// Remaining-corner tests: terminals, fd tables, ProcessContext helpers,
// nested-mount paths, and ioctl dispatch edges.

#include <gtest/gtest.h>

#include "src/base/strings.h"
#include "src/net/ioctl_codes.h"
#include "src/sim/system.h"

namespace protego {
namespace {

TEST(TerminalTest, InputQueueAndOutputCapture) {
  Terminal term;
  EXPECT_FALSE(term.ReadLine().has_value());
  term.QueueInput("first");
  term.QueueInput("second");
  EXPECT_EQ(term.ReadLine(), "first");
  EXPECT_EQ(term.ReadLine(), "second");
  EXPECT_FALSE(term.ReadLine().has_value());
  term.Write("hello ");
  term.Write("world");
  EXPECT_EQ(term.output(), "hello world");
  term.ClearOutput();
  EXPECT_TRUE(term.output().empty());
}

TEST(FdTableTest, InstallGetCloseSemantics) {
  GraceDomain grace;
  Network net(grace);
  FdTable table;
  FdEntry a;
  a.kind = FdEntry::Kind::kSocket;
  a.socket = net.CreateSocket(kAfInet, kSockDgram, 0, 1000, "/srv");
  ASSERT_TRUE(net.Bind(*a.socket, 4000).ok());
  const Socket* sock = a.socket.get();
  int fd_a = table.Install(std::move(a));
  FdEntry b;
  b.cloexec = true;
  int fd_b = table.Install(b);
  EXPECT_GE(fd_a, 3);  // 0/1/2 are stdio
  EXPECT_EQ(fd_b, fd_a + 1);
  ASSERT_NE(table.Get(fd_a), nullptr);
  EXPECT_EQ(table.Get(fd_a)->socket.get(), sock);
  EXPECT_EQ(table.Get(999), nullptr);
  table.CloseOnExec();
  EXPECT_EQ(table.Get(fd_b), nullptr);  // cloexec dropped
  EXPECT_NE(table.Get(fd_a), nullptr);  // survivor
  EXPECT_EQ(net.PortOwner(kProtoUdp, 4000), 1000u);
  EXPECT_TRUE(table.Close(fd_a).ok());
  // The table held the last reference: closing it released the port.
  EXPECT_FALSE(net.PortOwner(kProtoUdp, 4000).has_value());
  EXPECT_EQ(table.Close(fd_a).code(), Errno::kEBADF);
}

TEST(ProcessContextTest, FlagParsing) {
  SimSystem sys(SimMode::kProtego);
  Task& alice = sys.Login("alice");
  ProcessContext ctx{sys.kernel(), alice,
                     {"prog", "--user=bob", "--verbose", "positional"},
                     {}};
  EXPECT_EQ(ctx.Flag("user"), "bob");
  EXPECT_FALSE(ctx.Flag("missing").has_value());
  EXPECT_TRUE(ctx.HasFlag("verbose"));
  EXPECT_FALSE(ctx.HasFlag("user"));  // --user=... is not a bare flag
}

TEST(VfsNestedMounts, PathsResolveThroughTwoLevels) {
  Vfs vfs;
  ASSERT_TRUE(vfs.EnsureDirs("/outer").ok());
  ASSERT_TRUE(vfs.AddMount("/outer", "src1", "tmpfs", {}, 0, [](Vnode* root) {
                   Inode dir;
                   dir.mode = kIfDir | 0755;
                   (void)root->AddChild("inner", std::move(dir));
                 }).ok());
  ASSERT_TRUE(vfs.AddMount("/outer/inner", "src2", "tmpfs", {}, 0, [](Vnode* root) {
                   Inode f;
                   f.mode = kIfReg | 0644;
                   f.data = "deep";
                   (void)root->AddChild("f", std::move(f));
                 }).ok());
  auto node = vfs.Resolve("/outer/inner/f");
  ASSERT_TRUE(node.ok());
  EXPECT_EQ(vfs.PathOf(node.value()), "/outer/inner/f");
  EXPECT_EQ(vfs.ReadFile("/outer/inner/f").value(), "deep");
  // Inner must unmount before outer content reappears.
  ASSERT_TRUE(vfs.RemoveMount("/outer/inner").ok());
  EXPECT_EQ(vfs.Resolve("/outer/inner/f").code(), Errno::kENOENT);
  ASSERT_TRUE(vfs.RemoveMount("/outer").ok());
}

TEST(IoctlDispatch, EdgeErrnos) {
  SimSystem sys(SimMode::kProtego);
  Kernel& k = sys.kernel();
  Task& root = sys.Login("root");
  // ioctl on a regular file: ENOTTY.
  auto fd = k.Open(root, "/etc/hosts", kORdOnly);
  EXPECT_EQ(k.Ioctl(root, fd.value(), kPppIocNewUnit, "").code(), Errno::kENOTTY);
  // ioctl on a bad fd: EBADF.
  EXPECT_EQ(k.Ioctl(root, 999, kPppIocNewUnit, "").code(), Errno::kEBADF);
  // Unknown request on a socket: ENOTTY.
  auto sock = k.SocketCall(root, kAfInet, kSockDgram, 0);
  EXPECT_EQ(k.Ioctl(root, sock.value(), 0xDEAD, "").code(), Errno::kENOTTY);
  // Malformed route spec: EINVAL.
  EXPECT_EQ(k.Ioctl(root, sock.value(), kSiocAddRt, "nonsense").code(), Errno::kEINVAL);
  // Device without a driver: ENOTTY.
  auto dev = k.Open(root, "/dev/cdrom", kORdWr);
  EXPECT_EQ(k.Ioctl(root, dev.value(), 0x1234, "").code(), Errno::kENOTTY);
}

TEST(SimBootstrap, ModesShareTheSameUserset) {
  SimSystem linux_sys(SimMode::kLinux);
  SimSystem setcap_sys(SimMode::kSetcap);
  SimSystem protego_sys(SimMode::kProtego);
  for (SimSystem* sys : {&linux_sys, &setcap_sys, &protego_sys}) {
    EXPECT_EQ(sys->users().size(), 6u);
    EXPECT_NE(sys->FindUser("alice"), nullptr);
    EXPECT_EQ(sys->FindUser("alice")->uid, 1000u);
    EXPECT_EQ(sys->FindUser("mallory"), nullptr);
  }
  // Only the Protego system runs the trusted services and fragments.
  EXPECT_EQ(linux_sys.daemon(), nullptr);
  EXPECT_EQ(setcap_sys.lsm(), nullptr);
  ASSERT_NE(protego_sys.daemon(), nullptr);
  Task& root = protego_sys.Login("root");
  EXPECT_TRUE(protego_sys.kernel().Stat(root, "/etc/passwds/alice").ok());
  Task& lroot = linux_sys.Login("root");
  EXPECT_EQ(linux_sys.kernel().Stat(lroot, "/etc/passwds").code(), Errno::kENOENT);
}

TEST(HookVerdictNames, RenderForAudit) {
  EXPECT_STREQ(HookVerdictName(HookVerdict::kAllow), "ALLOW");
  EXPECT_STREQ(HookVerdictName(HookVerdict::kDeny), "DENY");
  EXPECT_STREQ(HookVerdictName(HookVerdict::kDefault), "DEFAULT");
  EXPECT_STREQ(FsEventName(FsEvent::kModified), "MODIFIED");
}

}  // namespace
}  // namespace protego
