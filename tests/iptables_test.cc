// Tests for the iptables control path: rule grammar round-trips, the
// CAP_NET_ADMIN gate, live effect on traffic, and administrator workflow
// over the default Protego raw-socket rules.

#include <gtest/gtest.h>

#include "src/net/netfilter.h"
#include "src/protego/default_rules.h"
#include "src/sim/system.h"

namespace protego {
namespace {

TEST(NfRuleGrammar, RoundTripsEveryField) {
  const char* specs[] = {
      "chain=OUTPUT verdict=DROP",
      "chain=INPUT proto=udp dport=53:53 verdict=ACCEPT",
      "chain=OUTPUT proto=icmp icmptype=8 raw=1 verdict=ACCEPT comment=ping",
      "chain=OUTPUT dport=33434: raw=1 verdict=ACCEPT",
      "chain=OUTPUT spoofed-src=1 raw=1 verdict=DROP comment=antispoof",
      "chain=OUTPUT uid=1000 proto=tcp verdict=DROP",
  };
  for (const char* spec : specs) {
    auto rule = ParseNfRule(spec);
    ASSERT_TRUE(rule.ok()) << spec << ": " << rule.error().ToString();
    auto again = ParseNfRule(SerializeNfRule(rule.value()));
    ASSERT_TRUE(again.ok()) << SerializeNfRule(rule.value());
    EXPECT_EQ(SerializeNfRule(again.value()), SerializeNfRule(rule.value()));
  }
}

TEST(NfRuleGrammar, RejectsMalformedSpecs) {
  EXPECT_FALSE(ParseNfRule("").ok());                           // no chain/verdict
  EXPECT_FALSE(ParseNfRule("chain=OUTPUT").ok());               // no verdict
  EXPECT_FALSE(ParseNfRule("chain=SIDEWAYS verdict=DROP").ok());
  EXPECT_FALSE(ParseNfRule("chain=OUTPUT verdict=MAYBE").ok());
  EXPECT_FALSE(ParseNfRule("chain=OUTPUT dport=99999 verdict=DROP").ok());
  EXPECT_FALSE(ParseNfRule("chain=OUTPUT nonsense verdict=DROP").ok());
  EXPECT_FALSE(ParseNfRule("chain=OUTPUT color=red verdict=DROP").ok());
}

TEST(NfRuleGrammar, DefaultRulesSurviveTheWire) {
  // Every default Protego rule serializes and re-parses to an equivalent
  // rule (so `iptables -L` output is valid `-A` input).
  GraceDomain grace;
  Netfilter nf(grace);
  InstallDefaultRawSocketRules(&nf);
  for (const NfRule& rule : nf.rules()) {
    auto round = ParseNfRule(SerializeNfRule(rule));
    ASSERT_TRUE(round.ok()) << SerializeNfRule(rule);
    EXPECT_EQ(SerializeNfRule(round.value()), SerializeNfRule(rule));
  }
}

TEST(Iptables, RequiresNetAdmin) {
  SimSystem sys(SimMode::kProtego);
  Task& alice = sys.Login("alice");
  auto denied = sys.RunCapture(alice, "/sbin/iptables",
                               {"iptables", "-A", "chain=OUTPUT", "verdict=DROP"});
  EXPECT_NE(denied.exit_code, 0);
  auto listing = sys.RunCapture(alice, "/sbin/iptables", {"iptables", "-L"});
  EXPECT_NE(listing.exit_code, 0);
  Task& root = sys.Login("root");
  auto ok = sys.RunCapture(root, "/sbin/iptables", {"iptables", "-L"});
  EXPECT_EQ(ok.exit_code, 0) << ok.err;
  EXPECT_NE(ok.out.find(kProtegoRawRuleTag), std::string::npos);
}

TEST(Iptables, AdminRuleChangesTraffic) {
  SimSystem sys(SimMode::kProtego);
  Kernel& k = sys.kernel();
  Task& root = sys.Login("root");
  // Block all UDP to port 7777 system-wide.
  auto add = sys.RunCapture(root, "/sbin/iptables",
                            {"iptables", "-A", "chain=OUTPUT", "proto=udp", "dport=7777",
                             "verdict=DROP", "comment=testblock"});
  ASSERT_EQ(add.exit_code, 0) << add.err;

  Task& alice = sys.Login("alice");
  int server = k.SocketCall(alice, kAfInet, kSockDgram, 0).value();
  ASSERT_TRUE(k.BindCall(alice, server, 7777).ok());
  int client = k.SocketCall(alice, kAfInet, kSockDgram, 0).value();
  Packet p;
  p.l4_proto = kProtoUdp;
  p.dst_ip = kLocalhostIp;
  p.dst_port = 7777;
  (void)k.SendCall(alice, client, p);
  EXPECT_FALSE(k.RecvCall(alice, server).value().has_value());  // dropped

  // Delete the rule by its comment tag; traffic flows again.
  auto del = sys.RunCapture(root, "/sbin/iptables", {"iptables", "-D", "testblock"});
  ASSERT_EQ(del.exit_code, 0) << del.err;
  (void)k.SendCall(alice, client, p);
  EXPECT_TRUE(k.RecvCall(alice, server).value().has_value());
  // Deleting again reports the miss.
  EXPECT_NE(sys.RunCapture(root, "/sbin/iptables", {"iptables", "-D", "testblock"}).exit_code,
            0);
}

TEST(Iptables, AdminCanWidenTheRawPolicy) {
  // §4.1.1: "the rules may be changed by the administrator through the
  // iptables utility" — permit raw UDP to the gateway echo port.
  SimSystem sys(SimMode::kProtego);
  Kernel& k = sys.kernel();
  Task& alice = sys.Login("alice");
  int raw = k.SocketCall(alice, kAfInet, kSockRaw, kProtoUdp).value();
  Packet probe;
  probe.l4_proto = kProtoUdp;
  probe.dst_ip = kSimGatewayIp;
  probe.dst_port = 7;
  (void)k.SendCall(alice, raw, probe);
  EXPECT_FALSE(k.RecvCall(alice, raw).value().has_value());  // default: dropped

  Task& root = sys.Login("root");
  auto widen = sys.RunCapture(
      root, "/sbin/iptables",
      {"iptables", "-A", "chain=OUTPUT", "proto=udp", "dport=7", "raw=1",
       "verdict=ACCEPT", "comment=echo-probe"});
  ASSERT_EQ(widen.exit_code, 0) << widen.err;
  // First-match semantics: the new ACCEPT must come before the default
  // DROP, so re-ordering matters — the default set is appended at boot and
  // our -A appends after it. Verify the administrator can fix this by
  // removing and re-adding the defaults... or simply observe the packet is
  // still dropped (documenting first-match behaviour):
  (void)k.SendCall(alice, raw, probe);
  EXPECT_FALSE(k.RecvCall(alice, raw).value().has_value());
  // The effective workflow: drop the tagged default set, add the custom
  // accept, re-install the defaults (now evaluated after it).
  ASSERT_EQ(sys.RunCapture(root, "/sbin/iptables",
                           {"iptables", "-D", kProtegoRawRuleTag})
                .exit_code,
            0);
  InstallDefaultRawSocketRules(&k.net().netfilter());
  // Custom rule now precedes the defaults.
  (void)k.SendCall(alice, raw, probe);
  EXPECT_TRUE(k.RecvCall(alice, raw).value().has_value());
}

}  // namespace
}  // namespace protego
