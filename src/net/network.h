// The simulated network: sockets, the port namespace, packet transmission
// through netfilter and routing, simulated remote hosts, and PPP channels.
//
// Privilege checks (CAP_NET_RAW, CAP_NET_BIND_SERVICE, CAP_NET_ADMIN) are
// NOT here — the kernel syscall layer applies DAC/capability/LSM policy and
// then drives these primitives, mirroring the Linux layering.

#ifndef SRC_NET_NETWORK_H_
#define SRC_NET_NETWORK_H_

#include <array>
#include <atomic>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/base/grace.h"
#include "src/base/published.h"
#include "src/base/result.h"
#include "src/base/thread_shards.h"
#include "src/net/netfilter.h"
#include "src/net/packet.h"
#include "src/net/routing.h"

namespace protego {

// A socket endpoint. Identity fields are fixed at creation and read
// without a lock; the rest is guarded as annotated.
struct Socket {
  int family = 0;
  int type = 0;
  int protocol = 0;
  Uid owner = 0;
  std::string owner_binary;  // exe_path of the creating task
  int netns = 0;             // network namespace (0 = init; others are sandboxes)

  // Guards everything below.
  std::mutex mu;
  uint16_t bound_port = 0;   // 0 = unbound
  bool listening = false;
  Ipv4 peer_ip = 0;          // connected peer (TCP)
  uint16_t peer_port = 0;
  bool connected = false;
  std::vector<Packet> rx_queue;
};

// A counted reference to a socket, held by the fd entries that name it
// (fork copies it). The last one to go unhashes the socket from the port
// table and the raw list, then frees it, whichever way it goes: close,
// close-on-exec or task reap.
using SocketRef = std::shared_ptr<Socket>;

// Behaviour of a simulated remote host on the LAN/WAN.
struct RemoteHost {
  Ipv4 ip = 0;
  std::string name;
  bool replies_icmp_echo = true;
  bool replies_arp = true;
  std::vector<uint16_t> tcp_listening;  // ports accepting connections
  std::vector<uint16_t> udp_echo;      // ports echoing UDP
  int hops_away = 1;                   // for TTL/traceroute simulation
};

// A PPP channel (modem link). Created unconfigured; pppd configures it via
// ioctls and may then attach routes.
struct PppChannel {
  int unit = -1;
  bool configured = false;
  bool in_use = false;
  Uid configured_by = 0;
  bool compression = false;
  Ipv4 local_ip = 0;
  Ipv4 remote_ip = 0;
};

// Concurrency: no network-wide lock on the packet path. A syscall reaches
// its socket through the caller's own fd table, as Linux does
// (sockfd_lookup_light), so there is no socket table; the port table and
// the raw list are the only network-wide indexes.
//   - Port table: (netns, proto, port) -> bound socket, kShards shards
//     hashed by port. A shard's mutex stays held while a datagram is
//     queued on the owner, and the last release unhashes under it before
//     freeing, so delivery never touches a freed socket.
//   - Snapshots (Published, src/base/published.h): netfilter's rules, the
//     routing table, the local addresses, the remote hosts and the raw
//     list. Send opens one read section of the kernel's grace period for
//     the whole packet path and reads each at most once per packet, so a
//     packet takes no reader lock: it locks only its destination port's
//     shard and the receiving socket. Each snapshot serializes its own
//     writers, which publish edited copies; no lock stands beside it.
//   - A raw socket is freed through the grace period: delivery reaches it
//     from the raw list without a lock.
//   - Socket::mu: per-socket state (rx_queue, bound_port, listening, peer).
//   - ppp_mu_: the PPP units, mutable per-unit state on pppd's ioctl path.
// Lock order: port shard -> socket. Netfilter is never evaluated under a
// port shard, so its port-owner callback may take one.
class Network {
 public:
  // Snapshots and raw sockets retire through `grace`, the kernel's one
  // grace period (Kernel::grace()); standalone users pass their own. It
  // must outlive the Network and every SocketRef.
  explicit Network(GraceDomain& grace);

  // --- Sockets --------------------------------------------------------------

  // Allocates a socket (no privilege checks here) and returns the first
  // reference to it. `netns` scopes the socket: ports, delivery, routes,
  // and remote hosts are all per-namespace, and only namespace 0 reaches
  // the simulated outside world.
  SocketRef CreateSocket(int family, int type, int protocol, Uid owner,
                         const std::string& owner_binary, int netns = 0);

  // Binds to a port in the (proto, port) namespace. EADDRINUSE on conflict.
  Result<Unit> Bind(Socket& sock, uint16_t port);
  Result<Unit> Listen(Socket& sock);

  // Uid owning a bound socket for (proto, port) within `netns`; consulted
  // by netfilter's spoofing match and by bind.
  std::optional<Uid> PortOwner(int proto, uint16_t port, int netns = 0) const;

  // Allocates a fresh network-namespace id (unshare(CLONE_NEWNET)).
  int NewNetNamespace() { return next_netns_.fetch_add(1, std::memory_order_relaxed); }

  // Connects a stream socket; succeeds iff the destination is routable
  // from the socket's namespace and something is listening there.
  Result<Unit> Connect(Socket& sock, Ipv4 dst, uint16_t port);

  // --- Packet I/O -----------------------------------------------------------

  // Sends `packet` from `sock` inside one read section: stamps sender
  // metadata, runs the OUTPUT netfilter chain, routes, and delivers.
  // Replies generated by remote hosts (ICMP echo replies, TTL-exceeded, UDP
  // echoes) are queued on the sending socket. Returns EPERM if netfilter
  // dropped the packet is NOT Linux behaviour — drops are silent; the
  // packet just vanishes, matching real semantics. Returns ENETUNREACH
  // when no route exists.
  Result<Unit> Send(Socket& sock, Packet packet);

  // Pops the next received packet, if any.
  std::optional<Packet> Receive(Socket& sock);

  // --- Topology --------------------------------------------------------------

  void AddRemoteHost(RemoteHost host);

  // Local interface addresses (packets to these are delivered locally).
  void AddLocalAddress(Ipv4 ip);
  void RemoveLocalAddress(Ipv4 ip);
  bool IsLocalAddress(Ipv4 ip) const;

  // --- PPP -------------------------------------------------------------------

  // Allocates a new PPP unit (PPPIOCNEWUNIT). Units are never freed, so the
  // reference stays valid.
  PppChannel& NewPppUnit();
  PppChannel* FindPppUnit(int unit);

  // --- Subsystems ------------------------------------------------------------

  Netfilter& netfilter() { return netfilter_; }
  const Netfilter& netfilter() const { return netfilter_; }
  RoutingTable& routes() { return routes_; }
  const RoutingTable& routes() const { return routes_; }

  // Statistics (tests), summed over every thread's count: exact at
  // quiescence.
  uint64_t packets_delivered() const { return tallies_.Sum(&Tally::delivered); }
  uint64_t packets_dropped() const { return netfilter_.dropped(); }

 private:
  static constexpr size_t kShards = 16;

  struct alignas(64) PortShard {
    mutable std::mutex mu;
    std::unordered_map<uint64_t, Socket*> owners;  // keyed by PortKey()
  };

  PortShard& PortShardFor(uint16_t port) { return port_shards_[port % kShards]; }
  const PortShard& PortShardFor(uint16_t port) const { return port_shards_[port % kShards]; }

  // The last reference to `sock` is gone: unhash it, then free it.
  void Release(Socket* sock);
  // Removes the (netns, proto, port) entry if it still names `sock`.
  void Unhash(const Socket& sock, uint16_t port);
  // These two read snapshots: call them inside a read section.
  const RemoteHost* FindHost(Ipv4 ip) const;
  void DeliverLocal(const Packet& packet, int netns);
  std::optional<Packet> RemoteRespond(const RemoteHost& host, const Packet& packet);

  GraceDomain& grace_;
  Netfilter netfilter_;
  RoutingTable routes_;
  std::array<PortShard, kShards> port_shards_;

  Published<std::vector<Socket*>> raw_sockets_;
  Published<std::vector<RemoteHost>> hosts_;
  Published<std::vector<Ipv4>> local_addrs_;

  // A deque: FindPppUnit hands out pointers that must survive later
  // insertions (a vector's push_back would reallocate them away).
  std::mutex ppp_mu_;
  std::deque<PppChannel> ppp_units_;

  std::atomic<int> next_netns_{1};
  // One thread's delivered-packet count; only that thread writes it.
  struct Tally {
    std::atomic<uint64_t> delivered{0};
  };
  ThreadShards<Tally> tallies_;
};

}  // namespace protego

#endif  // SRC_NET_NETWORK_H_
