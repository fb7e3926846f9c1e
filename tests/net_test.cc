// Unit tests for the network substrate: netfilter, routing, sockets, packet
// delivery, and remote-host behaviour.

#include <gtest/gtest.h>

#include "src/net/network.h"
#include "src/protego/default_rules.h"

namespace protego {
namespace {

Packet UdpPacket(Ipv4 dst, uint16_t dst_port, uint16_t src_port = 0) {
  Packet p;
  p.l4_proto = kProtoUdp;
  p.dst_ip = dst;
  p.dst_port = dst_port;
  p.src_port = src_port;
  return p;
}

TEST(NetfilterTest, FirstMatchWinsDefaultAccept) {
  GraceDomain grace;
  Netfilter nf(grace);
  Packet p = UdpPacket(kLocalhostIp, 53);
  EXPECT_EQ(nf.Evaluate(NfChain::kOutput, p), NfVerdict::kAccept);  // empty = accept

  NfRule drop;
  drop.chain = NfChain::kOutput;
  drop.match.l4_proto = kProtoUdp;
  drop.verdict = NfVerdict::kDrop;
  nf.Append(drop);
  EXPECT_EQ(nf.Evaluate(NfChain::kOutput, p), NfVerdict::kDrop);
  EXPECT_EQ(nf.Evaluate(NfChain::kInput, p), NfVerdict::kAccept);  // other chain

  NfRule accept_first;
  accept_first.chain = NfChain::kOutput;
  accept_first.match.l4_proto = kProtoUdp;
  accept_first.match.dst_port_min = 53;
  accept_first.match.dst_port_max = 53;
  accept_first.verdict = NfVerdict::kAccept;
  nf.Insert(accept_first);
  EXPECT_EQ(nf.Evaluate(NfChain::kOutput, p), NfVerdict::kAccept);
  EXPECT_EQ(nf.Evaluate(NfChain::kOutput, UdpPacket(kLocalhostIp, 54)), NfVerdict::kDrop);
}

TEST(NetfilterTest, DeleteByCommentAndCounters) {
  GraceDomain grace;
  Netfilter nf(grace);
  NfRule r;
  r.verdict = NfVerdict::kDrop;
  r.comment = "tagged";
  nf.Append(r);
  nf.Append(r);
  EXPECT_EQ(nf.RuleCount(NfChain::kOutput), 2u);
  (void)nf.Evaluate(NfChain::kOutput, UdpPacket(1, 1));
  EXPECT_EQ(nf.evaluated(), 1u);
  EXPECT_EQ(nf.dropped(), 1u);
  EXPECT_EQ(nf.DeleteByComment("tagged"), 2);
  EXPECT_EQ(nf.RuleCount(NfChain::kOutput), 0u);
}

TEST(NetfilterTest, SpoofedSourcePortMatch) {
  GraceDomain grace;
  Network net(grace);
  SocketRef victim = net.CreateSocket(kAfInet, kSockDgram, 0, /*owner=*/1000, "/bin/victim");
  ASSERT_TRUE(net.Bind(*victim, 4000).ok());

  NfRule rule;
  rule.chain = NfChain::kOutput;
  rule.match.src_port_owned_by_other = true;
  rule.verdict = NfVerdict::kDrop;
  net.netfilter().Append(rule);

  // Attacker (uid 1001) claims the victim's port: dropped.
  Packet forged = UdpPacket(kLocalhostIp, 9, /*src_port=*/4000);
  forged.sender_uid = 1001;
  EXPECT_EQ(net.netfilter().Evaluate(NfChain::kOutput, forged), NfVerdict::kDrop);
  // The owner herself is fine.
  forged.sender_uid = 1000;
  EXPECT_EQ(net.netfilter().Evaluate(NfChain::kOutput, forged), NfVerdict::kAccept);
  // Unbound ports are fine.
  Packet honest = UdpPacket(kLocalhostIp, 9, /*src_port=*/5000);
  honest.sender_uid = 1001;
  EXPECT_EQ(net.netfilter().Evaluate(NfChain::kOutput, honest), NfVerdict::kAccept);
}

TEST(DefaultRawRules, EncodeTheSafePacketSet) {
  GraceDomain grace;
  Netfilter nf(grace);
  Network net(grace);
  nf.set_port_owner_fn([&net](int proto, uint16_t port) { return net.PortOwner(proto, port); });
  InstallDefaultRawSocketRules(&nf);

  auto raw = [](int proto, int icmp_type, uint16_t dst_port) {
    Packet p;
    p.l4_proto = proto;
    p.icmp_type = icmp_type;
    p.dst_port = dst_port;
    p.from_raw_socket = true;
    return p;
  };
  // Safe: ICMP echo, traceroute UDP probes, ARP.
  EXPECT_EQ(nf.Evaluate(NfChain::kOutput, raw(kProtoIcmp, kIcmpEchoRequest, 0)),
            NfVerdict::kAccept);
  EXPECT_EQ(nf.Evaluate(NfChain::kOutput, raw(kProtoUdp, -1, 33435)), NfVerdict::kAccept);
  EXPECT_EQ(nf.Evaluate(NfChain::kOutput, raw(kProtoArp, -1, 0)), NfVerdict::kAccept);
  // Unsafe: raw TCP, low-port raw UDP, weird ICMP types.
  EXPECT_EQ(nf.Evaluate(NfChain::kOutput, raw(kProtoTcp, -1, 80)), NfVerdict::kDrop);
  EXPECT_EQ(nf.Evaluate(NfChain::kOutput, raw(kProtoUdp, -1, 53)), NfVerdict::kDrop);
  EXPECT_EQ(nf.Evaluate(NfChain::kOutput, raw(kProtoIcmp, kIcmpDestUnreachable, 0)),
            NfVerdict::kDrop);
  // Non-raw traffic is untouched by the raw ruleset.
  Packet normal = UdpPacket(kLocalhostIp, 53);
  EXPECT_EQ(nf.Evaluate(NfChain::kOutput, normal), NfVerdict::kAccept);
  // And the defaults can be removed wholesale.
  RemoveDefaultRawSocketRules(&nf);
  EXPECT_EQ(nf.Evaluate(NfChain::kOutput, raw(kProtoTcp, -1, 80)), NfVerdict::kAccept);
}

TEST(RoutingTest, LongestPrefixMatch) {
  GraceDomain grace;
  RoutingTable rt(grace);
  ASSERT_TRUE(rt.Add({MakeIp(10, 0, 0, 0), 8, 0, "eth0", 0}).ok());
  ASSERT_TRUE(rt.Add({MakeIp(10, 1, 0, 0), 16, MakeIp(10, 0, 0, 1), "eth1", 0}).ok());
  EXPECT_EQ(rt.Lookup(MakeIp(10, 1, 2, 3))->dev, "eth1");
  EXPECT_EQ(rt.Lookup(MakeIp(10, 2, 2, 3))->dev, "eth0");
  EXPECT_FALSE(rt.Lookup(MakeIp(11, 0, 0, 1)).has_value());
  // Default route catches everything.
  ASSERT_TRUE(rt.Add({0, 0, MakeIp(10, 0, 0, 1), "wan", 0}).ok());
  EXPECT_EQ(rt.Lookup(MakeIp(11, 0, 0, 1))->dev, "wan");
}

TEST(RoutingTest, ConflictIsOverlap) {
  GraceDomain grace;
  RoutingTable rt(grace);
  ASSERT_TRUE(rt.Add({MakeIp(10, 0, 0, 0), 24, 0, "eth0", 0}).ok());
  // Contained, containing, and equal prefixes all conflict.
  EXPECT_TRUE(rt.Conflicts({MakeIp(10, 0, 0, 128), 25, 0, "ppp0", 0}));
  EXPECT_TRUE(rt.Conflicts({MakeIp(10, 0, 0, 0), 16, 0, "ppp0", 0}));
  EXPECT_TRUE(rt.Conflicts({MakeIp(10, 0, 0, 0), 24, 0, "ppp0", 0}));
  // Disjoint space does not.
  EXPECT_FALSE(rt.Conflicts({MakeIp(172, 16, 0, 0), 16, 0, "ppp0", 0}));
  EXPECT_FALSE(rt.Conflicts({MakeIp(10, 0, 1, 0), 24, 0, "ppp0", 0}));
}

TEST(RoutingTest, AddRemoveErrnos) {
  GraceDomain grace;
  RoutingTable rt(grace);
  ASSERT_TRUE(rt.Add({MakeIp(10, 0, 0, 0), 24, 0, "eth0", 0}).ok());
  EXPECT_EQ(rt.Add({MakeIp(10, 0, 0, 0), 24, 0, "eth1", 0}).code(), Errno::kEEXIST);
  EXPECT_EQ(rt.Remove(MakeIp(10, 0, 0, 0), 16).code(), Errno::kESRCH);
  EXPECT_TRUE(rt.Remove(MakeIp(10, 0, 0, 0), 24).ok());
}

TEST(RoutingTest, ParseHelpers) {
  EXPECT_EQ(ParseIpv4("10.0.0.2"), MakeIp(10, 0, 0, 2));
  EXPECT_FALSE(ParseIpv4("10.0.0").has_value());
  EXPECT_FALSE(ParseIpv4("10.0.0.256").has_value());
  auto dst = ParseDstSpec("172.16.0.0/16");
  ASSERT_TRUE(dst.ok());
  EXPECT_EQ(dst.value().second, 16);
  EXPECT_EQ(ParseDstSpec("1.2.3.4").value().second, 32);
  EXPECT_EQ(ParseDstSpec("1.2.3.4/33").code(), Errno::kEINVAL);
  auto route = ParseRouteSpec("10.9.0.0/16 10.0.0.1 ppp0");
  ASSERT_TRUE(route.ok());
  EXPECT_EQ(route.value().dev, "ppp0");
  EXPECT_EQ(ParseRouteSpec("10.9.0.0/16 ppp0").code(), Errno::kEINVAL);
}

TEST(NetworkTest, BindConflictsAndPortOwner) {
  GraceDomain grace;
  Network net(grace);
  SocketRef a = net.CreateSocket(kAfInet, kSockStream, 0, 1000, "/a");
  SocketRef b = net.CreateSocket(kAfInet, kSockStream, 0, 1001, "/b");
  SocketRef u = net.CreateSocket(kAfInet, kSockDgram, 0, 1002, "/u");
  ASSERT_TRUE(net.Bind(*a, 80).ok());
  EXPECT_EQ(net.Bind(*b, 80).code(), Errno::kEADDRINUSE);
  // Different protocol, same number: fine.
  EXPECT_TRUE(net.Bind(*u, 80).ok());
  EXPECT_EQ(net.PortOwner(kProtoTcp, 80), 1000u);
  EXPECT_EQ(net.PortOwner(kProtoUdp, 80), 1002u);
  EXPECT_FALSE(net.PortOwner(kProtoTcp, 81).has_value());
  // Dropping the last reference releases the port.
  a.reset();
  EXPECT_FALSE(net.PortOwner(kProtoTcp, 80).has_value());
  EXPECT_TRUE(net.Bind(*b, 80).ok());
}

// A socket lives as long as any reference to it: one kept by a forked
// child's fd entry holds the port after the parent's goes.
TEST(NetworkTest, RefcountKeepsSharedSocketsAlive) {
  GraceDomain grace;
  Network net(grace);
  SocketRef parent = net.CreateSocket(kAfInet, kSockDgram, 0, 1000, "/x");
  ASSERT_TRUE(net.Bind(*parent, 5000).ok());
  SocketRef child = parent;
  parent.reset();
  EXPECT_EQ(net.PortOwner(kProtoUdp, 5000), 1000u);  // one reference remains
  child.reset();
  EXPECT_FALSE(net.PortOwner(kProtoUdp, 5000).has_value());
}

TEST(NetworkTest, LocalDeliveryToBoundSocket) {
  GraceDomain grace;
  Network net(grace);
  SocketRef server = net.CreateSocket(kAfInet, kSockDgram, 0, 1000, "/srv");
  ASSERT_TRUE(net.Bind(*server, 9999).ok());
  SocketRef client = net.CreateSocket(kAfInet, kSockDgram, 0, 1001, "/cli");
  Packet p = UdpPacket(kLocalhostIp, 9999);
  p.payload = "hi";
  ASSERT_TRUE(net.Send(*client, p).ok());
  auto got = net.Receive(*server);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->payload, "hi");
  EXPECT_EQ(got->sender_uid, 1001u);
  EXPECT_FALSE(net.Receive(*server).has_value());
}

// Regression: local delivery matched bound_port == dst_port, so a datagram
// to port 0 landed on every never-bound datagram socket in the namespace.
TEST(NetworkTest, DatagramToPortZeroReachesNoUnboundSocket) {
  GraceDomain grace;
  Network net(grace);
  SocketRef alice = net.CreateSocket(kAfInet, kSockDgram, 0, 1000, "/alice");
  SocketRef bob = net.CreateSocket(kAfInet, kSockDgram, 0, 1001, "/bob");
  ASSERT_TRUE(net.Send(*bob, UdpPacket(kLocalhostIp, 0)).ok());
  EXPECT_FALSE(net.Receive(*alice).has_value());
  EXPECT_FALSE(net.Receive(*bob).has_value());
  EXPECT_EQ(net.packets_delivered(), 0u);
}

TEST(NetworkTest, RemoteHostBehaviour) {
  GraceDomain grace;
  Network net(grace);
  RemoteHost host;
  host.ip = MakeIp(10, 0, 0, 2);
  host.hops_away = 3;
  host.udp_echo = {7};
  net.AddRemoteHost(host);
  ASSERT_TRUE(net.routes().Add({MakeIp(10, 0, 0, 0), 24, 0, "eth0", 0}).ok());

  SocketRef raw = net.CreateSocket(kAfInet, kSockRaw, kProtoIcmp, 1000, "/ping");
  // Echo round trip.
  Packet echo;
  echo.l4_proto = kProtoIcmp;
  echo.icmp_type = kIcmpEchoRequest;
  echo.dst_ip = host.ip;
  ASSERT_TRUE(net.Send(*raw, echo).ok());
  auto reply = net.Receive(*raw);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->icmp_type, kIcmpEchoReply);
  // TTL expiry en route (hops_away=3, ttl=1).
  SocketRef udp_raw = net.CreateSocket(kAfInet, kSockRaw, kProtoUdp, 1000, "/tr");
  Packet probe = UdpPacket(host.ip, 33435);
  probe.ttl = 1;
  probe.from_raw_socket = true;
  ASSERT_TRUE(net.Send(*udp_raw, probe).ok());
  // Remote replies are queued on the sending socket (how traceroute's raw
  // socket sees the ICMP error for its own probe).
  auto exceeded = net.Receive(*udp_raw);
  ASSERT_TRUE(exceeded.has_value());
  EXPECT_EQ(exceeded->icmp_type, kIcmpTimeExceeded);
  // Unroutable destination.
  Packet nowhere = UdpPacket(MakeIp(203, 0, 113, 5), 9);
  EXPECT_EQ(net.Send(*raw, nowhere).code(), Errno::kENETUNREACH);
}

TEST(NetworkTest, ConnectSemantics) {
  GraceDomain grace;
  Network net(grace);
  RemoteHost web;
  web.ip = MakeIp(93, 184, 216, 34);
  web.tcp_listening = {80};
  net.AddRemoteHost(web);
  ASSERT_TRUE(net.routes().Add({MakeIp(93, 184, 216, 0), 24, 0, "eth0", 0}).ok());

  SocketRef sock = net.CreateSocket(kAfInet, kSockStream, 0, 1000, "/c");
  EXPECT_TRUE(net.Connect(*sock, web.ip, 80).ok());
  EXPECT_TRUE(sock->connected);
  SocketRef sock2 = net.CreateSocket(kAfInet, kSockStream, 0, 1000, "/c");
  EXPECT_EQ(net.Connect(*sock2, web.ip, 81).code(), Errno::kECONNREFUSED);
  EXPECT_EQ(net.Connect(*sock2, MakeIp(93, 184, 217, 1), 80).code(), Errno::kENETUNREACH);
  // Local connect requires a listener.
  EXPECT_EQ(net.Connect(*sock2, kLocalhostIp, 8080).code(), Errno::kECONNREFUSED);
  SocketRef listener = net.CreateSocket(kAfInet, kSockStream, 0, 1000, "/l");
  ASSERT_TRUE(net.Bind(*listener, 8080).ok());
  ASSERT_TRUE(net.Listen(*listener).ok());
  EXPECT_TRUE(net.Connect(*sock2, kLocalhostIp, 8080).ok());
}

TEST(PppChannelTest, UnitsAllocateSequentially) {
  GraceDomain grace;
  Network net(grace);
  EXPECT_EQ(net.NewPppUnit().unit, 0);
  EXPECT_EQ(net.NewPppUnit().unit, 1);
  EXPECT_NE(net.FindPppUnit(0), nullptr);
  EXPECT_EQ(net.FindPppUnit(7), nullptr);
  EXPECT_EQ(net.FindPppUnit(-1), nullptr);
}

}  // namespace
}  // namespace protego
