#include "src/net/routing.h"

#include "src/base/strings.h"

namespace protego {

std::string RouteEntry::ToString() const {
  return StrFormat("%s/%d via %s dev %s", IpToString(dst).c_str(), prefix_len,
                   IpToString(gateway).c_str(), dev.c_str());
}

bool RoutingTable::PrefixContains(Ipv4 net, int prefix_len, Ipv4 addr) {
  if (prefix_len == 0) {
    return true;
  }
  uint32_t mask = prefix_len >= 32 ? 0xffffffffu : ~((uint32_t{1} << (32 - prefix_len)) - 1);
  return (net & mask) == (addr & mask);
}

bool RoutingTable::Conflicts(const RouteEntry& candidate) const {
  GraceDomain::Section section(entries_.grace());
  for (const RouteEntry& e : entries_.Read()) {
    int shorter = std::min(e.prefix_len, candidate.prefix_len);
    if (PrefixContains(e.dst, shorter, candidate.dst) ||
        PrefixContains(candidate.dst, shorter, e.dst)) {
      return true;
    }
  }
  return false;
}

Result<Unit> RoutingTable::Add(RouteEntry entry) {
  const bool added = entries_.Update([&](std::vector<RouteEntry>& entries) {
    for (const RouteEntry& e : entries) {
      if (e.dst == entry.dst && e.prefix_len == entry.prefix_len) {
        return false;
      }
    }
    entries.push_back(std::move(entry));
    return true;
  });
  if (!added) {
    return Error(Errno::kEEXIST, entry.ToString());
  }
  return OkUnit();
}

Result<Unit> RoutingTable::Remove(Ipv4 dst, int prefix_len) {
  const bool removed = entries_.Update([&](std::vector<RouteEntry>& entries) {
    return std::erase_if(entries, [&](const RouteEntry& e) {
             return e.dst == dst && e.prefix_len == prefix_len;
           }) != 0;
  });
  if (!removed) {
    return Error(Errno::kESRCH, "no such route");
  }
  return OkUnit();
}

std::optional<RouteEntry> RoutingTable::Lookup(Ipv4 dst) const {
  GraceDomain::Section section(entries_.grace());
  const RouteEntry* best = nullptr;
  for (const RouteEntry& e : entries_.Read()) {
    if (PrefixContains(e.dst, e.prefix_len, dst)) {
      if (best == nullptr || e.prefix_len > best->prefix_len) {
        best = &e;
      }
    }
  }
  if (best == nullptr) {
    return std::nullopt;
  }
  return *best;
}

}  // namespace protego

namespace protego {

std::optional<Ipv4> ParseIpv4(std::string_view s) {
  std::vector<std::string> quads = Split(s, '.');
  if (quads.size() != 4) {
    return std::nullopt;
  }
  Ipv4 ip = 0;
  for (const std::string& q : quads) {
    auto v = ParseUint(q);
    if (!v || *v > 255) {
      return std::nullopt;
    }
    ip = (ip << 8) | static_cast<Ipv4>(*v);
  }
  return ip;
}

Result<std::pair<Ipv4, int>> ParseDstSpec(std::string_view s) {
  std::vector<std::string> parts = Split(s, '/');
  if (parts.empty() || parts.size() > 2) {
    return Error(Errno::kEINVAL, "dst spec: " + std::string(s));
  }
  auto ip = ParseIpv4(parts[0]);
  if (!ip) {
    return Error(Errno::kEINVAL, "dst spec: " + std::string(s));
  }
  int prefix = 32;
  if (parts.size() == 2) {
    auto p = ParseUint(parts[1]);
    if (!p || *p > 32) {
      return Error(Errno::kEINVAL, "dst spec: " + std::string(s));
    }
    prefix = static_cast<int>(*p);
  }
  return std::make_pair(*ip, prefix);
}

Result<RouteEntry> ParseRouteSpec(std::string_view arg) {
  std::vector<std::string> fields = SplitWhitespace(arg);
  if (fields.size() != 3) {
    return Error(Errno::kEINVAL, "route spec: " + std::string(arg));
  }
  ASSIGN_OR_RETURN(auto dst, ParseDstSpec(fields[0]));
  auto gw = ParseIpv4(fields[1]);
  if (!gw) {
    return Error(Errno::kEINVAL, "route spec: " + std::string(arg));
  }
  RouteEntry route;
  route.dst = dst.first;
  route.prefix_len = dst.second;
  route.gateway = *gw;
  route.dev = fields[2];
  return route;
}

}  // namespace protego
