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
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/base/result.h"
#include "src/base/rw_lock.h"
#include "src/base/thread_shards.h"
#include "src/net/netfilter.h"
#include "src/net/packet.h"
#include "src/net/routing.h"

namespace protego {

// A socket endpoint. Identity fields are fixed at creation and read
// without a lock; the rest is guarded as annotated.
struct Socket {
  int id = 0;
  int family = 0;
  int type = 0;
  int protocol = 0;
  Uid owner = 0;
  std::string owner_binary;  // exe_path of the creating task
  int netns = 0;             // network namespace (0 = init; others are sandboxes)

  // fd-table references (fork shares endpoints); guarded by the socket
  // table shard that holds this id.
  int refcount = 1;

  // Guards everything below.
  std::mutex mu;
  uint16_t bound_port = 0;   // 0 = unbound
  bool listening = false;
  Ipv4 peer_ip = 0;          // connected peer (TCP)
  uint16_t peer_port = 0;
  bool connected = false;
  std::vector<Packet> rx_queue;
};

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

// Concurrency: Linux-style per-object locks instead of one network-wide
// lock, so tasks working on different sockets and ports do not serialize.
//   - Socket table: kShards id-hashed shards; a shard's mutex guards its
//     map and the refcounts of its sockets.
//   - Port table: (netns, proto, port) -> bound socket, kShards shards
//     hashed by port. A shard's mutex stays held while a datagram is
//     queued on the owner, and close unhashes under it before freeing, so
//     delivery never touches a freed socket.
//   - Raw list: raw/packet sockets, read-locked by delivery and
//     write-locked by create/close.
//   - Socket::mu: per-socket state (rx_queue, bound_port, listening, peer).
//   - topo_mu_: remote hosts, local addresses and PPP units.
// Lock order: port shard -> socket, raw list -> socket; socket-table
// shards and topo_mu_ are leaves. Netfilter is never evaluated under any
// of these locks, so its port-owner callback may take a port shard.
// Socket objects are owned by the table; a caller's fd reference keeps
// the Socket& it passes in alive.
class Network {
 public:
  Network();

  // --- Sockets --------------------------------------------------------------

  // Allocates a socket object (no privilege checks here). `netns` scopes
  // the socket: ports, delivery, routes, and remote hosts are all per-
  // namespace, and only namespace 0 reaches the simulated outside world.
  Socket& CreateSocket(int family, int type, int protocol, Uid owner,
                       const std::string& owner_binary, int netns = 0);
  Socket* FindSocket(int id);
  // Adds an fd-table reference (fork/dup).
  void RefSocket(int id);
  // Drops one reference; the endpoint (and its port) dies at zero.
  void DestroySocket(int id);

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

  // Sends `packet` from `sock`: stamps sender metadata, runs the OUTPUT
  // netfilter chain, routes, and delivers. Replies generated by remote
  // hosts (ICMP echo replies, TTL-exceeded, UDP echoes) are queued on the
  // sending socket. Returns EPERM if netfilter dropped the packet is NOT
  // Linux behaviour — drops are silent; the packet just vanishes, matching
  // real semantics. Returns ENETUNREACH when no route exists.
  Result<Unit> Send(Socket& sock, Packet packet);

  // Pops the next received packet, if any.
  std::optional<Packet> Receive(Socket& sock);

  // --- Topology --------------------------------------------------------------

  void AddRemoteHost(RemoteHost host);
  const RemoteHost* FindHost(Ipv4 ip) const;

  // Local interface addresses (packets to these are delivered locally).
  void AddLocalAddress(Ipv4 ip);
  bool IsLocalAddress(Ipv4 ip) const;

  // --- PPP -------------------------------------------------------------------

  // Allocates a new PPP unit (PPPIOCNEWUNIT).
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
  // Slow-path counts of the raw-socket and topology locks.
  LockCounts raw_lock_counts() const { return raw_mu_.counts(); }
  LockCounts topo_lock_counts() const { return topo_mu_.counts(); }

 private:
  static constexpr size_t kShards = 16;

  struct alignas(64) SocketShard {
    std::mutex mu;
    std::unordered_map<int, std::unique_ptr<Socket>> sockets;
  };
  struct alignas(64) PortShard {
    mutable std::mutex mu;
    std::unordered_map<uint64_t, Socket*> owners;  // keyed by PortKey()
  };

  SocketShard& SocketShardFor(int id) { return socket_shards_[static_cast<size_t>(id) % kShards]; }
  PortShard& PortShardFor(uint16_t port) { return port_shards_[port % kShards]; }
  const PortShard& PortShardFor(uint16_t port) const { return port_shards_[port % kShards]; }

  // Removes the (netns, proto, port) entry if it still names `sock`.
  void Unhash(const Socket& sock, uint16_t port);
  void DeliverLocal(const Packet& packet, int netns);
  std::optional<Packet> RemoteRespond(const RemoteHost& host, const Packet& packet);

  Netfilter netfilter_;
  RoutingTable routes_;
  std::array<SocketShard, kShards> socket_shards_;
  std::array<PortShard, kShards> port_shards_;

  RwLock raw_mu_;
  std::vector<Socket*> raw_sockets_;

  // deques: FindHost/NewPppUnit hand out pointers that must survive later
  // insertions (a vector's push_back would reallocate them away).
  mutable RwLock topo_mu_;
  std::deque<RemoteHost> hosts_;
  std::vector<Ipv4> local_addrs_;
  std::deque<PppChannel> ppp_units_;

  std::atomic<int> next_socket_id_{1};
  std::atomic<int> next_netns_{1};
  // One thread's delivered-packet count; only that thread writes it.
  struct Tally {
    std::atomic<uint64_t> delivered{0};
  };
  ThreadShards<Tally> tallies_;
};

}  // namespace protego

#endif  // SRC_NET_NETWORK_H_
