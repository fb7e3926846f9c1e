// Tests for the namespace substrate (§4.6/§6): pre-3.8 vs 3.8+ semantics,
// the chromium-sandbox utility, isolation of sandbox networks, and the
// paper's argument that namespaces cannot replace Protego for SHARED
// resources.

#include <gtest/gtest.h>

#include "src/sim/system.h"
#include "src/userland/sandbox_utils.h"

namespace protego {
namespace {

TEST(Namespaces, Pre38RequiresSysAdmin) {
  SimSystem sys(SimMode::kLinux);  // models Linux 3.6
  Task& alice = sys.Login("alice");
  EXPECT_EQ(sys.kernel().Unshare(alice, Kernel::kCloneNewUser | Kernel::kCloneNewNet).code(),
            Errno::kEPERM);
  Task& root = sys.Login("root");
  EXPECT_TRUE(sys.kernel().Unshare(root, Kernel::kCloneNewNet).ok());
  EXPECT_NE(root.ns.net_ns, 0);
}

TEST(Namespaces, Post38UnprivilegedUserNamespaces) {
  SimSystem sys(SimMode::kProtego);  // models 3.8+ semantics
  Task& alice = sys.Login("alice");
  // A user namespace alone: free.
  EXPECT_TRUE(sys.kernel().Unshare(alice, Kernel::kCloneNewUser).ok());
  EXPECT_NE(alice.ns.user_ns, 0);
  // Network namespace inside the user namespace: also free.
  EXPECT_TRUE(sys.kernel().Unshare(alice, Kernel::kCloneNewNet).ok());
  EXPECT_NE(alice.ns.net_ns, 0);
  // But a network namespace WITHOUT a user namespace still needs privilege.
  Task& bob = sys.Login("bob");
  EXPECT_EQ(sys.kernel().Unshare(bob, Kernel::kCloneNewNet).code(), Errno::kEPERM);
  // Unknown flags are rejected.
  EXPECT_EQ(sys.kernel().Unshare(bob, 0x12345).code(), Errno::kEINVAL);
}

TEST(Namespaces, ChromiumSandboxSetuidOnOldKernelsUnprivilegedOnNew) {
  // Stock 3.6: the helper carries the setuid bit and still works.
  {
    SimSystem sys(SimMode::kLinux);
    Task& alice = sys.Login("alice");
    auto st = sys.kernel().Stat(alice, "/usr/lib/chromium-sandbox");
    EXPECT_TRUE((st.value().mode & kSetUidBit) != 0);
    auto out = sys.RunCapture(alice, "/usr/lib/chromium-sandbox", {"chromium-sandbox"});
    EXPECT_EQ(out.exit_code, 0) << out.err;
    EXPECT_NE(out.out.find("raw socket ok"), std::string::npos);
    EXPECT_NE(out.out.find("outside world unreachable"), std::string::npos);
  }
  // 3.8+ semantics: same behaviour, no setuid bit anywhere.
  {
    SimSystem sys(SimMode::kProtego);
    Task& alice = sys.Login("alice");
    auto st = sys.kernel().Stat(alice, "/usr/lib/chromium-sandbox");
    EXPECT_TRUE((st.value().mode & kSetUidBit) == 0);
    auto out = sys.RunCapture(alice, "/usr/lib/chromium-sandbox", {"chromium-sandbox"});
    EXPECT_EQ(out.exit_code, 0) << out.err;
    EXPECT_NE(out.out.find("raw socket ok"), std::string::npos);
    EXPECT_NE(out.out.find("bind 80 ok"), std::string::npos);
    EXPECT_NE(out.out.find("outside world unreachable"), std::string::npos);
  }
}

TEST(Namespaces, SandboxNetworkIsInvisibleFromOutside) {
  SimSystem sys(SimMode::kProtego);
  Kernel& k = sys.kernel();
  Task& alice = sys.Login("alice");
  ASSERT_TRUE(k.Unshare(alice, Kernel::kCloneNewUser | Kernel::kCloneNewNet).ok());

  // alice binds "port 80" in her sandbox...
  auto fd = k.SocketCall(alice, kAfInet, kSockStream, 0);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(k.BindCall(alice, fd.value(), 80).ok());
  // ...which does not appear in (or conflict with) the real port namespace.
  EXPECT_FALSE(k.net().PortOwner(kProtoTcp, 80, 0).has_value());
  Task& www = sys.Login("www-data");
  www.exe_path = "/usr/sbin/httpd";
  auto real = k.SocketCall(www, kAfInet, kSockStream, 0);
  EXPECT_TRUE(k.BindCall(www, real.value(), 80).ok());

  // Packets from the init namespace never reach the sandbox socket.
  Task& bob = sys.Login("bob");
  auto bob_fd = k.SocketCall(bob, kAfInet, kSockDgram, 0);
  Packet p;
  p.l4_proto = kProtoTcp;
  p.dst_ip = kLocalhostIp;
  p.dst_port = 80;
  (void)k.SendCall(bob, bob_fd.value(), p);
  auto got = k.RecvCall(alice, fd.value());
  EXPECT_FALSE(got.value().has_value());
}

// Regression: connect(2) ignored the socket's namespace, so a listener in
// one namespace accepted connections made from the other.
TEST(Namespaces, ConnectReachesListenersOnlyInTheCallersNamespace) {
  SimSystem sys(SimMode::kProtego);
  Kernel& k = sys.kernel();
  Task& alice = sys.Login("alice");
  ASSERT_TRUE(k.Unshare(alice, Kernel::kCloneNewUser | Kernel::kCloneNewNet).ok());
  Task& bob = sys.Login("bob");
  auto listen_on = [&k](Task& task, uint16_t port) {
    auto fd = k.SocketCall(task, kAfInet, kSockStream, 0);
    return fd.ok() && k.BindCall(task, fd.value(), port).ok() &&
           k.ListenCall(task, fd.value()).ok();
  };
  auto connect_to = [&k](Task& task, uint16_t port) {
    auto fd = k.SocketCall(task, kAfInet, kSockStream, 0);
    return fd.ok() ? k.ConnectCall(task, fd.value(), kLocalhostIp, port).code() : fd.code();
  };
  ASSERT_TRUE(listen_on(alice, 8080));  // inside the sandbox
  ASSERT_TRUE(listen_on(bob, 8081));    // in the init namespace

  EXPECT_EQ(connect_to(bob, 8080), Errno::kECONNREFUSED);
  EXPECT_EQ(connect_to(alice, 8081), Errno::kECONNREFUSED);
  // Each namespace still reaches its own listener.
  EXPECT_EQ(connect_to(alice, 8080), Errno::kOk);
  EXPECT_EQ(connect_to(bob, 8081), Errno::kOk);
}

// Regression: a sandbox socket connected to a remote host that send(2)
// from the same socket reported unreachable.
TEST(Namespaces, SandboxConnectHasNoRouteOut) {
  SimSystem sys(SimMode::kProtego);
  Kernel& k = sys.kernel();
  Task& bob = sys.Login("bob");
  auto outside = k.SocketCall(bob, kAfInet, kSockStream, 0);
  ASSERT_TRUE(outside.ok());
  EXPECT_TRUE(k.ConnectCall(bob, outside.value(), kSimWebServerIp, 80).ok());

  Task& alice = sys.Login("alice");
  ASSERT_TRUE(k.Unshare(alice, Kernel::kCloneNewUser | Kernel::kCloneNewNet).ok());
  auto fd = k.SocketCall(alice, kAfInet, kSockStream, 0);
  ASSERT_TRUE(fd.ok());
  EXPECT_EQ(k.ConnectCall(alice, fd.value(), kSimWebServerIp, 80).code(), Errno::kENETUNREACH);
  Packet p;
  p.l4_proto = kProtoTcp;
  p.dst_ip = kSimWebServerIp;
  p.dst_port = 80;
  EXPECT_EQ(k.SendCall(alice, fd.value(), p).code(), Errno::kENETUNREACH);
}

TEST(Namespaces, SandboxCapsDoNotReachSharedResources) {
  // §6: "namespaces cannot safely allow access to shared system resources,
  // such as passwd updating the password database."
  SimSystem sys(SimMode::kProtego);
  Kernel& k = sys.kernel();
  Task& alice = sys.Login("alice");
  ASSERT_TRUE(k.Unshare(alice, Kernel::kCloneNewUser | Kernel::kCloneNewNet).ok());
  // In-sandbox "privilege" grants nothing over init-namespace objects:
  EXPECT_EQ(k.ReadWholeFile(alice, "/etc/shadow").code(), Errno::kEACCES);
  EXPECT_EQ(k.WriteWholeFile(alice, "/etc/passwd", "pwned").code(), Errno::kEACCES);
  EXPECT_EQ(k.Setuid(alice, 0).code(), Errno::kEPERM);
  EXPECT_EQ(k.Mount(alice, "/dev/cdrom", "/etc", "iso9660", {"ro"}).code(), Errno::kEPERM);
  // ...while Protego's object policies still work for the same user.
  EXPECT_TRUE(k.Mount(alice, "/dev/cdrom", "/media/cdrom", "iso9660", {"ro"}).ok());
}

TEST(AtSetgid, QueuesJobsWithoutRoot) {
  for (SimMode mode : {SimMode::kLinux, SimMode::kProtego}) {
    SimSystem sys(mode);
    Task& alice = sys.Login("alice");
    auto st = sys.kernel().Stat(alice, "/usr/bin/at");
    EXPECT_TRUE((st.value().mode & kSetGidBit) != 0);
    EXPECT_TRUE((st.value().mode & kSetUidBit) == 0);  // never root
    auto out = sys.RunCapture(alice, "/usr/bin/at", {"at", "now+1h", "echo", "hi"});
    EXPECT_EQ(out.exit_code, 0) << SimModeName(mode) << out.err;
    // The queued job is owned by alice with group daemon.
    Task& root = sys.Login("root");
    auto names = sys.kernel().ReadDir(root, "/var/spool/atjobs");
    ASSERT_EQ(names.value().size(), 1u);
    auto job = sys.kernel().Stat(root, "/var/spool/atjobs/" + names.value()[0]);
    EXPECT_EQ(job.value().uid, 1000u);
    EXPECT_EQ(job.value().gid, kDaemonGid);
    // atq lists it back for alice.
    auto atq = sys.RunCapture(alice, "/usr/bin/atq", {"atq"});
    EXPECT_NE(atq.out.find("1 job(s)"), std::string::npos);
  }
}

TEST(AtSetgid, SpoolInaccessibleWithoutTheSetgidHelper) {
  SimSystem sys(SimMode::kProtego);
  Task& alice = sys.Login("alice");
  // Direct spool access (no setgid binary) is refused by DAC.
  EXPECT_EQ(sys.kernel().ReadDir(alice, "/var/spool/atjobs").code(), Errno::kEACCES);
  EXPECT_EQ(sys.kernel().WriteWholeFile(alice, "/var/spool/atjobs/evil", "x").code(),
            Errno::kEACCES);
}

TEST(AtSetgid, UsersSeeOnlyTheirOwnJobs) {
  SimSystem sys(SimMode::kProtego);
  Task& alice = sys.Login("alice");
  (void)sys.RunCapture(alice, "/usr/bin/at", {"at", "midnight", "backup"});
  sys.kernel().clock().Advance(1);
  Task& bob = sys.Login("bob");
  (void)sys.RunCapture(bob, "/usr/bin/at", {"at", "noon", "lunch"});
  auto alice_q = sys.RunCapture(sys.Login("alice"), "/usr/bin/atq", {"atq"});
  EXPECT_NE(alice_q.out.find("backup"), std::string::npos);
  EXPECT_EQ(alice_q.out.find("lunch"), std::string::npos);
  EXPECT_NE(alice_q.out.find("1 job(s)"), std::string::npos);
}

}  // namespace
}  // namespace protego
