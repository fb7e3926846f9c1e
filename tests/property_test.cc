// Property-based tests: parameterized sweeps over randomized or enumerated
// inputs asserting the system's core invariants.

#include <gtest/gtest.h>

#include "src/base/strings.h"
#include "src/net/ioctl_codes.h"
#include "src/protego/default_rules.h"
#include "src/sim/system.h"

namespace protego {
namespace {

// Deterministic splitmix64 for input generation.
uint64_t Next(uint64_t* s) {
  uint64_t z = (*s += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// --- Invariant: routing-conflict detection is symmetric and reflexive ------------

class RouteConflictProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RouteConflictProperty, SymmetricAndReflexive) {
  uint64_t seed = GetParam();
  RouteEntry a{static_cast<Ipv4>(Next(&seed)), static_cast<int>(Next(&seed) % 25 + 8), 0,
               "a", 0};
  RouteEntry b{static_cast<Ipv4>(Next(&seed)), static_cast<int>(Next(&seed) % 25 + 8), 0,
               "b", 0};
  GraceDomain grace;
  RoutingTable with_a(grace);
  ASSERT_TRUE(with_a.Add(a).ok());
  RoutingTable with_b(grace);
  ASSERT_TRUE(with_b.Add(b).ok());
  // Symmetry: a conflicts with b iff b conflicts with a.
  EXPECT_EQ(with_a.Conflicts(b), with_b.Conflicts(a)) << a.ToString() << " vs "
                                                      << b.ToString();
  // Reflexivity: every route conflicts with itself.
  EXPECT_TRUE(with_a.Conflicts(a));
  // Consistency with lookup: if b's network address routes via a's entry,
  // they overlap, so they must conflict.
  if (RoutingTable::PrefixContains(a.dst, a.prefix_len, b.dst)) {
    EXPECT_TRUE(with_a.Conflicts(b));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RouteConflictProperty, ::testing::Range<uint64_t>(1, 65));

// --- Invariant: the default raw ruleset never touches non-raw traffic -------------

class RawRulesetProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RawRulesetProperty, NonRawTrafficUnaffectedRawTcpAlwaysDropped) {
  uint64_t seed = GetParam() * 7919;
  GraceDomain grace;
  Netfilter nf(grace);
  InstallDefaultRawSocketRules(&nf);
  for (int i = 0; i < 64; ++i) {
    Packet p;
    int protos[] = {kProtoIcmp, kProtoTcp, kProtoUdp, kProtoArp};
    p.l4_proto = protos[Next(&seed) % 4];
    p.icmp_type = static_cast<int>(Next(&seed) % 16);
    p.src_port = static_cast<uint16_t>(Next(&seed) % 65536);
    p.dst_port = static_cast<uint16_t>(Next(&seed) % 65536);
    p.sender_uid = static_cast<Uid>(Next(&seed) % 3 + 1000);

    p.from_raw_socket = false;
    EXPECT_EQ(nf.Evaluate(NfChain::kOutput, p), NfVerdict::kAccept)
        << "non-raw packet dropped: " << p.ToString();

    p.from_raw_socket = true;
    NfVerdict raw_verdict = nf.Evaluate(NfChain::kOutput, p);
    if (p.l4_proto == kProtoTcp) {
      EXPECT_EQ(raw_verdict, NfVerdict::kDrop) << "raw TCP accepted: " << p.ToString();
    }
    if (p.l4_proto == kProtoIcmp &&
        (p.icmp_type == kIcmpEchoRequest || p.icmp_type == kIcmpEchoReply)) {
      EXPECT_EQ(raw_verdict, NfVerdict::kAccept) << "raw echo dropped: " << p.ToString();
    }
    if (p.l4_proto == kProtoArp) {
      EXPECT_EQ(raw_verdict, NfVerdict::kAccept);
    }
    if (p.l4_proto == kProtoUdp) {
      EXPECT_EQ(raw_verdict, p.dst_port >= 33434 ? NfVerdict::kAccept : NfVerdict::kDrop);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RawRulesetProperty, ::testing::Range<uint64_t>(1, 17));

// --- Invariant: DAC is monotone in the permission bits ----------------------------

class DacMonotonicityProperty : public ::testing::TestWithParam<uint32_t> {};

TEST_P(DacMonotonicityProperty, AddingBitsNeverRevokesAccess) {
  uint32_t perms = GetParam();
  Inode narrow;
  narrow.mode = kIfReg | perms;
  narrow.uid = 100;
  narrow.gid = 50;
  auto in_group = [](Gid g) { return g == 50; };
  for (uint32_t extra_bit = 1; extra_bit <= 0400; extra_bit <<= 1) {
    Inode wide = narrow;
    wide.mode |= extra_bit;
    for (Uid uid : {100u, 200u}) {
      for (int may : {kMayRead, kMayWrite, kMayExec, kMayRead | kMayWrite}) {
        if (DacPermits(narrow, uid, in_group, may)) {
          EXPECT_TRUE(DacPermits(wide, uid, in_group, may))
              << "perms " << std::oct << perms << " + bit " << extra_bit;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllPermCombos, DacMonotonicityProperty,
                         ::testing::Range<uint32_t>(0, 0777, 37));

// --- Invariant: deferred setuid never leaks credentials before exec ----------------

class DeferredSetuidProperty : public ::testing::TestWithParam<int> {};

TEST_P(DeferredSetuidProperty, NoObservableCredChangeBetweenSetuidAndExec) {
  SimSystem sys(SimMode::kProtego);
  Kernel& k = sys.kernel();
  // A fresh restricted rule per target index, so the transition defers.
  int index = GetParam();
  Task& root = sys.Login("root");
  Uid target = static_cast<Uid>(index % 2 == 0 ? 1000 : 1002);
  std::string target_name = target == 1000 ? "alice" : "charlie";
  (void)k.WriteWholeFile(root, "/etc/sudoers.d/prop",
                         "bob ALL=(" + target_name + ") NOPASSWD: /usr/bin/id\n");

  Task& bob = sys.Login("bob");
  Cred before = bob.cred;
  ASSERT_TRUE(k.Setuid(bob, target).ok());
  // INVARIANT: every observable credential is unchanged after the
  // "successful" setuid.
  EXPECT_EQ(bob.cred.ruid, before.ruid);
  EXPECT_EQ(bob.cred.euid, before.euid);
  EXPECT_EQ(bob.cred.suid, before.suid);
  EXPECT_EQ(bob.cred.fsuid, before.fsuid);
  EXPECT_EQ(bob.cred.effective.bits(), before.effective.bits());
  // A file owned by the target is still NOT accessible pre-exec.
  (void)k.WriteWholeFile(root, "/home/secret", "x", false, 0600);
  (void)k.Chown(root, "/home/secret", target, target);
  EXPECT_EQ(k.ReadWholeFile(bob, "/home/secret").code(), Errno::kEACCES);
  // The transition lands exactly at exec.
  auto code = k.Spawn(bob, "/usr/bin/id", {"/usr/bin/id"}, {});
  ASSERT_TRUE(code.ok());
  EXPECT_NE(bob.stdout_buf.find(StrFormat("euid=%u", target)), std::string::npos);
  // And the parent (post-fork semantics) is still bob.
  EXPECT_EQ(bob.cred.euid, 1001u);
}

INSTANTIATE_TEST_SUITE_P(Targets, DeferredSetuidProperty, ::testing::Range(0, 6));

// --- Invariant: glob matching basics hold over random strings ----------------------

class GlobProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GlobProperty, IdentityPrefixAndStarLaws) {
  uint64_t seed = GetParam() * 104729;
  for (int i = 0; i < 32; ++i) {
    std::string s;
    size_t len = Next(&seed) % 12;
    for (size_t j = 0; j < len; ++j) {
      s.push_back(static_cast<char>('a' + Next(&seed) % 4));
    }
    // Identity: every literal matches itself.
    EXPECT_TRUE(GlobMatch(s, s));
    // "*" matches everything.
    EXPECT_TRUE(GlobMatch("*", s));
    // prefix + "*" matches any extension of the prefix.
    if (!s.empty()) {
      std::string prefix = s.substr(0, s.size() / 2);
      EXPECT_TRUE(GlobMatch(prefix + "*", s));
      EXPECT_TRUE(GlobMatch("*" + s.substr(s.size() / 2), s));
    }
    // A '?' for each character matches.
    EXPECT_TRUE(GlobMatch(std::string(s.size(), '?'), s));
    EXPECT_FALSE(GlobMatch(std::string(s.size() + 1, '?'), s));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GlobProperty, ::testing::Range<uint64_t>(1, 17));

// --- Invariant: port allocations exclude everyone else, always ---------------------

class BindAllocationProperty : public ::testing::TestWithParam<int> {};

TEST_P(BindAllocationProperty, OnlyTheAllocatedInstanceEverBinds) {
  SimSystem sys(SimMode::kProtego);
  Kernel& k = sys.kernel();
  uint16_t port = GetParam() == 0 ? 25 : 80;
  const char* owner_bin = GetParam() == 0 ? "/usr/sbin/eximd" : "/usr/sbin/httpd";
  Uid owner_uid = GetParam() == 0 ? 101u : 33u;

  struct Attempt {
    const char* user;
    const char* binary;
  };
  const Attempt attempts[] = {
      {"alice", "/usr/sbin/eximd"}, {"alice", "/usr/sbin/httpd"}, {"alice", "/bin/sh"},
      {"root", "/usr/sbin/eximd"},  {"root", "/usr/sbin/httpd"},  {"root", "/bin/sh"},
      {"exim", "/usr/sbin/eximd"},  {"www-data", "/usr/sbin/httpd"},
  };
  for (const Attempt& attempt : attempts) {
    Task& task = sys.Login(attempt.user);
    task.exe_path = attempt.binary;
    auto fd = k.SocketCall(task, kAfInet, kSockStream, 0);
    ASSERT_TRUE(fd.ok());
    bool should_succeed =
        task.cred.euid == owner_uid && std::string(attempt.binary) == owner_bin;
    auto result = k.BindCall(task, fd.value(), port);
    EXPECT_EQ(result.ok(), should_succeed)
        << attempt.user << " via " << attempt.binary << " on port " << port;
    (void)k.Close(task, fd.value());
    sys.kernel().ReapTask(task.pid);
  }
}

INSTANTIATE_TEST_SUITE_P(Ports, BindAllocationProperty, ::testing::Range(0, 2));

}  // namespace
}  // namespace protego
