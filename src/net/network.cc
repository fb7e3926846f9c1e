#include "src/net/network.h"

#include <algorithm>
#include <utility>

namespace protego {

namespace {

bool IsRawSocket(const Socket& sock) {
  return sock.type == kSockRaw || sock.family == kAfPacket;
}

int PortProto(const Socket& sock) { return sock.type == kSockStream ? kProtoTcp : kProtoUdp; }

uint64_t PortKey(int netns, int proto, uint16_t port) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(netns)) << 32) |
         (static_cast<uint64_t>(static_cast<uint16_t>(proto)) << 16) | port;
}

}  // namespace

Network::Network(GraceDomain& grace)
    : grace_(grace),
      netfilter_(grace),
      routes_(grace),
      raw_sockets_(grace),
      hosts_(grace),
      local_addrs_(grace, {kLocalhostIp}) {
  netfilter_.set_port_owner_fn(
      [this](int proto, uint16_t port) { return PortOwner(proto, port); });
  // Loopback is always routable.
  (void)routes_.Add(RouteEntry{MakeIp(127, 0, 0, 0), 8, 0, "lo", kRootUid});
}

SocketRef Network::CreateSocket(int family, int type, int protocol, Uid owner,
                                const std::string& owner_binary, int netns) {
  SocketRef sock(new Socket(), [this](Socket* dead) { Release(dead); });
  sock->family = family;
  sock->type = type;
  sock->protocol = protocol;
  sock->owner = owner;
  sock->owner_binary = owner_binary;
  sock->netns = netns;
  if (IsRawSocket(*sock)) {
    raw_sockets_.Update([&](std::vector<Socket*>& raw) { raw.push_back(sock.get()); });
  }
  return sock;
}

void Network::Release(Socket* sock) {
  // No reference remains, so nothing rebinds it; unhash it from every
  // index delivery can reach it through before freeing.
  if (IsRawSocket(*sock)) {
    raw_sockets_.Update([&](std::vector<Socket*>& raw) { std::erase(raw, sock); });
    // A delivery that loaded the old list may still be queueing on it.
    grace_.Retire(sock);
    return;
  }
  uint16_t port = 0;
  {
    std::lock_guard<std::mutex> lk(sock->mu);
    port = sock->bound_port;
  }
  if (port != 0) {
    Unhash(*sock, port);
  }
  delete sock;
}

void Network::Unhash(const Socket& sock, uint16_t port) {
  PortShard& shard = PortShardFor(port);
  std::lock_guard<std::mutex> lk(shard.mu);
  auto it = shard.owners.find(PortKey(sock.netns, PortProto(sock), port));
  if (it != shard.owners.end() && it->second == &sock) {
    shard.owners.erase(it);
  }
}

Result<Unit> Network::Bind(Socket& sock, uint16_t port) {
  if (port == 0) {
    return Error(Errno::kEINVAL, "bind to port 0");
  }
  const int proto = PortProto(sock);
  if (IsRawSocket(sock)) {
    // Raw sockets see traffic by protocol; a bound port is recorded but
    // never owned.
    if (PortOwner(proto, port, sock.netns).has_value()) {
      return Error(Errno::kEADDRINUSE);
    }
    std::lock_guard<std::mutex> lk(sock.mu);
    sock.bound_port = port;
    return OkUnit();
  }
  uint16_t old_port = 0;
  {
    PortShard& shard = PortShardFor(port);
    std::lock_guard<std::mutex> lk(shard.mu);
    if (!shard.owners.try_emplace(PortKey(sock.netns, proto, port), &sock).second) {
      return Error(Errno::kEADDRINUSE);
    }
    std::lock_guard<std::mutex> sock_lk(sock.mu);
    old_port = std::exchange(sock.bound_port, port);
  }
  // A rebind moves the socket: release the port it held before.
  if (old_port != 0) {
    Unhash(sock, old_port);
  }
  return OkUnit();
}

Result<Unit> Network::Listen(Socket& sock) {
  if (sock.type != kSockStream) {
    return Error(Errno::kEOPNOTSUPP);
  }
  std::lock_guard<std::mutex> lk(sock.mu);
  if (sock.bound_port == 0) {
    return Error(Errno::kEINVAL, "listen on unbound socket");
  }
  sock.listening = true;
  return OkUnit();
}

std::optional<Uid> Network::PortOwner(int proto, uint16_t port, int netns) const {
  const PortShard& shard = PortShardFor(port);
  std::lock_guard<std::mutex> lk(shard.mu);
  auto it = shard.owners.find(PortKey(netns, proto, port));
  if (it == shard.owners.end()) {
    return std::nullopt;
  }
  return it->second->owner;
}

Result<Unit> Network::Connect(Socket& sock, Ipv4 dst, uint16_t port) {
  if (sock.type != kSockStream) {
    return Error(Errno::kEOPNOTSUPP);
  }
  // A sandbox namespace has only its own loopback, as in Send().
  if (sock.netns != 0 && dst != kLocalhostIp) {
    return Error(Errno::kENETUNREACH, "no routes in this network namespace");
  }
  if (sock.netns != 0 || IsLocalAddress(dst)) {
    // Local destination: someone in this namespace must be listening.
    bool listening = false;
    {
      PortShard& shard = PortShardFor(port);
      std::lock_guard<std::mutex> lk(shard.mu);
      auto it = shard.owners.find(PortKey(sock.netns, kProtoTcp, port));
      if (it != shard.owners.end()) {
        std::lock_guard<std::mutex> peer_lk(it->second->mu);
        listening = it->second->listening;
      }
    }
    if (!listening) {
      return Error(Errno::kECONNREFUSED);
    }
  } else {
    if (!routes_.Lookup(dst).has_value()) {
      return Error(Errno::kENETUNREACH, IpToString(dst));
    }
    GraceDomain::Section section(grace_);
    const RemoteHost* host = FindHost(dst);
    if (host == nullptr) {
      return Error(Errno::kEHOSTUNREACH, IpToString(dst));
    }
    if (std::find(host->tcp_listening.begin(), host->tcp_listening.end(), port) ==
        host->tcp_listening.end()) {
      return Error(Errno::kECONNREFUSED);
    }
  }
  std::lock_guard<std::mutex> lk(sock.mu);
  sock.peer_ip = dst;
  sock.peer_port = port;
  sock.connected = true;
  return OkUnit();
}

bool Network::IsLocalAddress(Ipv4 ip) const {
  GraceDomain::Section section(grace_);
  const std::vector<Ipv4>& addrs = local_addrs_.Read();
  return std::find(addrs.begin(), addrs.end(), ip) != addrs.end();
}

void Network::AddLocalAddress(Ipv4 ip) {
  local_addrs_.Update([&](std::vector<Ipv4>& addrs) { addrs.push_back(ip); });
}

void Network::RemoveLocalAddress(Ipv4 ip) {
  local_addrs_.Update([&](std::vector<Ipv4>& addrs) { std::erase(addrs, ip); });
}

void Network::AddRemoteHost(RemoteHost host) {
  hosts_.Update([&](std::vector<RemoteHost>& hosts) { hosts.push_back(std::move(host)); });
}

const RemoteHost* Network::FindHost(Ipv4 ip) const {
  for (const RemoteHost& host : hosts_.Read()) {
    if (host.ip == ip) {
      return &host;
    }
  }
  return nullptr;
}

PppChannel& Network::NewPppUnit() {
  std::lock_guard<std::mutex> lk(ppp_mu_);
  PppChannel& chan = ppp_units_.emplace_back();
  chan.unit = static_cast<int>(ppp_units_.size()) - 1;
  return chan;
}

PppChannel* Network::FindPppUnit(int unit) {
  std::lock_guard<std::mutex> lk(ppp_mu_);
  if (unit < 0 || static_cast<size_t>(unit) >= ppp_units_.size()) {
    return nullptr;
  }
  return &ppp_units_[unit];
}

std::optional<Packet> Network::RemoteRespond(const RemoteHost& host, const Packet& packet) {
  // TTL check first: traceroute probes expire in transit.
  if (packet.ttl < host.hops_away) {
    Packet reply;
    reply.l4_proto = kProtoIcmp;
    reply.icmp_type = kIcmpTimeExceeded;
    // The expiring router is modeled as the first `ttl` hops toward the host.
    reply.src_ip = host.ip - (host.hops_away - packet.ttl);
    reply.dst_ip = packet.src_ip;
    reply.payload = packet.payload;
    return reply;
  }
  switch (packet.l4_proto) {
    case kProtoIcmp:
      if (packet.icmp_type == kIcmpEchoRequest && host.replies_icmp_echo) {
        Packet reply;
        reply.l4_proto = kProtoIcmp;
        reply.icmp_type = kIcmpEchoReply;
        reply.src_ip = host.ip;
        reply.dst_ip = packet.src_ip;
        reply.payload = packet.payload;
        return reply;
      }
      return std::nullopt;
    case kProtoArp:
      if (host.replies_arp) {
        Packet reply;
        reply.l4_proto = kProtoArp;
        reply.src_ip = host.ip;
        reply.dst_ip = packet.src_ip;
        reply.payload = "arp-reply";
        return reply;
      }
      return std::nullopt;
    case kProtoUdp: {
      if (std::find(host.udp_echo.begin(), host.udp_echo.end(), packet.dst_port) !=
          host.udp_echo.end()) {
        Packet reply;
        reply.l4_proto = kProtoUdp;
        reply.src_ip = host.ip;
        reply.dst_ip = packet.src_ip;
        reply.src_port = packet.dst_port;
        reply.dst_port = packet.src_port;
        reply.payload = packet.payload;
        return reply;
      }
      // Closed UDP port: port unreachable (traceroute's terminal signal).
      Packet reply;
      reply.l4_proto = kProtoIcmp;
      reply.icmp_type = kIcmpDestUnreachable;
      reply.src_ip = host.ip;
      reply.dst_ip = packet.src_ip;
      reply.payload = packet.payload;
      return reply;
    }
    default:
      return std::nullopt;
  }
}

void Network::DeliverLocal(const Packet& packet, int netns) {
  // Netfilter tables are per-namespace; fresh sandbox namespaces have none.
  if (netns == 0 && netfilter_.Evaluate(NfChain::kInput, packet) == NfVerdict::kDrop) {
    return;
  }
  if (packet.l4_proto == kProtoTcp || packet.l4_proto == kProtoUdp) {
    PortShard& shard = PortShardFor(packet.dst_port);
    std::lock_guard<std::mutex> lk(shard.mu);
    auto it = shard.owners.find(PortKey(netns, packet.l4_proto, packet.dst_port));
    if (it != shard.owners.end()) {
      std::lock_guard<std::mutex> sock_lk(it->second->mu);
      it->second->rx_queue.push_back(packet);
      AddOwned(tallies_.Mine().delivered);
    }
  }
  // Raw sockets see matching-protocol traffic (ICMP sniffing for ping).
  for (Socket* sock : raw_sockets_.Read()) {
    if (sock->netns == netns && (sock->protocol == 0 || sock->protocol == packet.l4_proto)) {
      std::lock_guard<std::mutex> sock_lk(sock->mu);
      sock->rx_queue.push_back(packet);
      AddOwned(tallies_.Mine().delivered);
    }
  }
}

Result<Unit> Network::Send(Socket& sock, Packet packet) {
  packet.sender_uid = sock.owner;
  packet.from_raw_socket = IsRawSocket(sock);
  if (!packet.from_raw_socket) {
    std::lock_guard<std::mutex> lk(sock.mu);
    if (sock.bound_port != 0) {
      packet.src_port = sock.bound_port;
    }
  }

  // One read section for the whole packet path: every snapshot below is
  // read inside it, and a raw socket delivery reaches stays allocated.
  GraceDomain::Section section(grace_);

  // A sandbox network namespace contains only its own loopback: local
  // delivery within the namespace works, the outside world does not exist
  // (§6: "a fake network with no routes to the outside world").
  if (sock.netns != 0) {
    if (packet.dst_ip == kLocalhostIp) {
      DeliverLocal(packet, sock.netns);
      return OkUnit();
    }
    return Error(Errno::kENETUNREACH, "no routes in this network namespace");
  }

  if (netfilter_.Evaluate(NfChain::kOutput, packet) == NfVerdict::kDrop) {
    // Silent drop, as on Linux: the syscall succeeds, the packet vanishes.
    return OkUnit();
  }

  if (IsLocalAddress(packet.dst_ip)) {
    DeliverLocal(packet, /*netns=*/0);
    return OkUnit();
  }

  if (!routes_.Lookup(packet.dst_ip).has_value()) {
    return Error(Errno::kENETUNREACH, IpToString(packet.dst_ip));
  }

  const RemoteHost* host = FindHost(packet.dst_ip);
  if (host == nullptr) {
    return OkUnit();  // routable but nobody home: packet lost
  }
  std::optional<Packet> reply = RemoteRespond(*host, packet);
  if (reply.has_value()) {
    reply->sender_uid = 0;
    if (netfilter_.Evaluate(NfChain::kInput, *reply) == NfVerdict::kAccept) {
      std::lock_guard<std::mutex> lk(sock.mu);
      sock.rx_queue.push_back(std::move(*reply));
      AddOwned(tallies_.Mine().delivered);
    }
  }
  return OkUnit();
}

std::optional<Packet> Network::Receive(Socket& sock) {
  std::lock_guard<std::mutex> lk(sock.mu);
  if (sock.rx_queue.empty()) {
    return std::nullopt;
  }
  Packet p = std::move(sock.rx_queue.front());
  sock.rx_queue.erase(sock.rx_queue.begin());
  return p;
}

}  // namespace protego
