// IPv4 routing table with longest-prefix-match lookup and the overlap
// ("conflict") test Protego's ioctl hook applies to route additions from
// unprivileged pppd sessions (§4.1.2).

#ifndef SRC_NET_ROUTING_H_
#define SRC_NET_ROUTING_H_

#include <optional>
#include <string>
#include <vector>

#include "src/base/grace.h"
#include "src/base/published.h"
#include "src/base/result.h"
#include "src/net/packet.h"

namespace protego {

struct RouteEntry {
  Ipv4 dst = 0;          // network address
  int prefix_len = 0;    // 0..32 (0 = default route)
  Ipv4 gateway = 0;      // 0 = directly connected
  std::string dev;       // outgoing interface ("eth0", "ppp0")
  Uid added_by = kRootUid;

  std::string ToString() const;
};

class RoutingTable {
 public:
  // Table snapshots retire through `grace`, the kernel's one grace period
  // (Kernel::grace()); standalone users pass their own.
  explicit RoutingTable(GraceDomain& grace) : entries_(grace) {}

  // True if `candidate` overlaps any existing route: one network contains
  // the other. This is the paper's definition of a conflicting route — a new
  // PPP route may only cover address space that was previously unreachable.
  bool Conflicts(const RouteEntry& candidate) const;

  // Appends a route. EEXIST on an exact (dst,prefix) duplicate.
  Result<Unit> Add(RouteEntry entry);

  // Removes the exact (dst,prefix) route. ESRCH if absent (Linux uses
  // ESRCH for missing routes).
  Result<Unit> Remove(Ipv4 dst, int prefix_len);

  // Longest-prefix-match; nullopt when unroutable.
  std::optional<RouteEntry> Lookup(Ipv4 dst) const;

  // A copy of the current table.
  std::vector<RouteEntry> entries() const {
    GraceDomain::Section section(entries_.grace());
    return entries_.Read();
  }
  void Clear() { entries_.Publish({}); }

  static bool PrefixContains(Ipv4 net, int prefix_len, Ipv4 addr);

 private:
  // The table is one immutable snapshot (Published), as Linux reads its FIB
  // under RCU: Conflicts, Lookup and entries() read it inside a read
  // section and take no lock. Add, Remove and Clear serialize on the
  // snapshot's own writer mutex and publish an edited copy; Add's duplicate
  // and Remove's missing route decline the edit and publish nothing.
  // Protego's check-then-add (Conflicts in the ioctl hook, Add in the
  // handler) reads two snapshots and is itself a TOCTTOU window: that is the
  // semantic race the corpus exercises.
  Published<std::vector<RouteEntry>> entries_;
};

// Parses dotted-quad "a.b.c.d"; nullopt on malformed input.
std::optional<Ipv4> ParseIpv4(std::string_view s);

// Parses "a.b.c.d[/prefix]" (default /32).
Result<std::pair<Ipv4, int>> ParseDstSpec(std::string_view s);

// Parses a SIOCADDRT argument "dst[/prefix] gateway dev".
Result<RouteEntry> ParseRouteSpec(std::string_view arg);

}  // namespace protego

#endif  // SRC_NET_ROUTING_H_
