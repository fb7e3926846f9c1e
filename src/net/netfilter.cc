#include "src/net/netfilter.h"

#include <algorithm>

#include "src/base/strings.h"

namespace protego {

std::string IpToString(Ipv4 ip) {
  return StrFormat("%u.%u.%u.%u", (ip >> 24) & 0xff, (ip >> 16) & 0xff, (ip >> 8) & 0xff,
                   ip & 0xff);
}

std::string Packet::ToString() const {
  std::string proto;
  switch (l4_proto) {
    case kProtoIcmp: proto = StrFormat("icmp(type=%d)", icmp_type); break;
    case kProtoTcp: proto = "tcp"; break;
    case kProtoUdp: proto = "udp"; break;
    case kProtoArp: proto = "arp"; break;
    default: proto = StrFormat("proto=%d", l4_proto); break;
  }
  return StrFormat("%s %s:%u -> %s:%u uid=%u%s", proto.c_str(), IpToString(src_ip).c_str(),
                   src_port, IpToString(dst_ip).c_str(), dst_port, sender_uid,
                   from_raw_socket ? " raw" : "");
}

void Netfilter::Append(NfRule rule) {
  rules_.Update([&](std::vector<NfRule>& rules) { rules.push_back(std::move(rule)); });
}

void Netfilter::Insert(NfRule rule) {
  rules_.Update(
      [&](std::vector<NfRule>& rules) { rules.insert(rules.begin(), std::move(rule)); });
}

int Netfilter::DeleteByComment(const std::string& comment) {
  size_t removed = 0;
  rules_.Update([&](std::vector<NfRule>& rules) {
    removed = std::erase_if(rules, [&](const NfRule& r) { return r.comment == comment; });
    return removed != 0;
  });
  return static_cast<int>(removed);
}

void Netfilter::Flush() { rules_.Publish({}); }

size_t Netfilter::RuleCount(NfChain chain) const {
  GraceDomain::Section section(rules_.grace());
  size_t n = 0;
  for (const NfRule& r : rules_.Read()) {
    if (r.chain == chain) {
      ++n;
    }
  }
  return n;
}

bool Netfilter::Matches(const NfMatch& match, const Packet& packet) const {
  // Raw-socket scoping first: it rejects most (rule, packet) pairs with one
  // compare, keeping the raw-socket ruleset nearly free for normal traffic.
  if (match.from_raw_socket && *match.from_raw_socket != packet.from_raw_socket) {
    return false;
  }
  if (match.l4_proto && *match.l4_proto != packet.l4_proto) {
    return false;
  }
  if (match.icmp_type && (packet.l4_proto != kProtoIcmp || *match.icmp_type != packet.icmp_type)) {
    return false;
  }
  if (match.dst_port_min && packet.dst_port < *match.dst_port_min) {
    return false;
  }
  if (match.dst_port_max && packet.dst_port > *match.dst_port_max) {
    return false;
  }
  if (match.sender_uid && *match.sender_uid != packet.sender_uid) {
    return false;
  }
  if (match.src_port_owned_by_other) {
    if (packet.l4_proto != kProtoTcp && packet.l4_proto != kProtoUdp) {
      return false;
    }
    if (!port_owner_) {
      return false;
    }
    std::optional<Uid> owner = port_owner_(packet.l4_proto, packet.src_port);
    if (!owner || *owner == packet.sender_uid) {
      return false;
    }
  }
  return true;
}

const char* Netfilter::ChainName(NfChain chain) const {
  return chain == NfChain::kOutput ? "OUTPUT" : "INPUT";
}

NfVerdict Netfilter::Evaluate(NfChain chain, const Packet& packet) const {
  LayerScope netfilter_scope(Layer::kNetfilter);
  Tally& tally = tallies_.Mine();
  AddOwned(tally.evaluated);
  // Fail closed: if chain evaluation faults, the packet is dropped — a
  // filtering layer that cannot decide must not pass traffic.
  if (faults_ != nullptr && faults_->any_enabled() &&
      faults_->Evaluate(FaultSite::kNetfilterEval) != Errno::kOk) {
    AddOwned(tally.dropped);
    AddOwned(tally.fail_closed_drops);
    if (tracer_ != nullptr && tracer_->ShouldEmit(TracepointId::kNetfilter)) {
      TraceSlot ev = tracer_->Emit(TracepointId::kNetfilter, 0);
      ev->sname = ChainName(chain);
      ev->sdetail = "DROP";
      ev->flags |= kTraceFlagDenied;
      ev->detail = "(fail-closed: fault injected)";
    }
    return NfVerdict::kDrop;
  }
  GraceDomain::Section section(rules_.grace());
  for (const NfRule& rule : rules_.Read()) {
    if (rule.chain != chain) {
      continue;
    }
    if (Matches(rule.match, packet)) {
      if (rule.verdict == NfVerdict::kDrop) {
        AddOwned(tally.dropped);
      }
      if (tracer_ != nullptr && tracer_->ShouldEmit(TracepointId::kNetfilter)) {
        TraceSlot ev = tracer_->Emit(TracepointId::kNetfilter, 0);
        ev->sname = ChainName(chain);
        ev->sdetail = rule.verdict == NfVerdict::kDrop ? "DROP" : "ACCEPT";
        if (rule.verdict == NfVerdict::kDrop) {
          ev->flags |= kTraceFlagDenied;
        }
        ev->detail = rule.comment;
      }
      return rule.verdict;
    }
  }
  if (tracer_ != nullptr && tracer_->ShouldEmit(TracepointId::kNetfilter)) {
    TraceSlot ev = tracer_->Emit(TracepointId::kNetfilter, 0);
    ev->sname = ChainName(chain);
    ev->sdetail = "ACCEPT";
    ev->detail = "(default policy)";
  }
  return NfVerdict::kAccept;  // default policy
}

std::string Netfilter::ListRules() const {
  GraceDomain::Section section(rules_.grace());
  std::string out;
  for (const NfRule& rule : rules_.Read()) {
    out += SerializeNfRule(rule);
    out += "\n";
  }
  return out;
}

std::string SerializeNfRule(const NfRule& rule) {
  std::string out = "chain=";
  out += rule.chain == NfChain::kOutput ? "OUTPUT" : "INPUT";
  const NfMatch& m = rule.match;
  if (m.l4_proto) {
    switch (*m.l4_proto) {
      case kProtoIcmp: out += " proto=icmp"; break;
      case kProtoTcp: out += " proto=tcp"; break;
      case kProtoUdp: out += " proto=udp"; break;
      case kProtoArp: out += " proto=arp"; break;
      default: out += StrFormat(" proto=%d", *m.l4_proto); break;
    }
  }
  if (m.icmp_type) {
    out += StrFormat(" icmptype=%d", *m.icmp_type);
  }
  if (m.dst_port_min || m.dst_port_max) {
    out += StrFormat(" dport=%u:%s", m.dst_port_min.value_or(0),
                     m.dst_port_max ? StrFormat("%u", *m.dst_port_max).c_str() : "");
  }
  if (m.sender_uid) {
    out += StrFormat(" uid=%u", *m.sender_uid);
  }
  if (m.from_raw_socket) {
    out += StrFormat(" raw=%d", *m.from_raw_socket ? 1 : 0);
  }
  if (m.src_port_owned_by_other) {
    out += " spoofed-src=1";
  }
  out += std::string(" verdict=") + (rule.verdict == NfVerdict::kDrop ? "DROP" : "ACCEPT");
  if (!rule.comment.empty()) {
    out += " comment=" + rule.comment;
  }
  return out;
}

Result<NfRule> ParseNfRule(std::string_view spec) {
  NfRule rule;
  bool have_chain = false;
  bool have_verdict = false;
  for (const std::string& token : SplitWhitespace(spec)) {
    size_t eq = token.find('=');
    if (eq == std::string::npos) {
      return Error(Errno::kEINVAL, "netfilter rule token: " + token);
    }
    std::string key = token.substr(0, eq);
    std::string value = token.substr(eq + 1);
    if (key == "chain") {
      if (value == "OUTPUT") {
        rule.chain = NfChain::kOutput;
      } else if (value == "INPUT") {
        rule.chain = NfChain::kInput;
      } else {
        return Error(Errno::kEINVAL, "netfilter chain: " + value);
      }
      have_chain = true;
    } else if (key == "proto") {
      if (value == "icmp") {
        rule.match.l4_proto = kProtoIcmp;
      } else if (value == "tcp") {
        rule.match.l4_proto = kProtoTcp;
      } else if (value == "udp") {
        rule.match.l4_proto = kProtoUdp;
      } else if (value == "arp") {
        rule.match.l4_proto = kProtoArp;
      } else {
        auto v = ParseUint(value);
        if (!v) {
          return Error(Errno::kEINVAL, "netfilter proto: " + value);
        }
        rule.match.l4_proto = static_cast<int>(*v);
      }
    } else if (key == "icmptype") {
      auto v = ParseUint(value);
      if (!v) {
        return Error(Errno::kEINVAL, "netfilter icmptype: " + value);
      }
      rule.match.icmp_type = static_cast<int>(*v);
    } else if (key == "dport") {
      auto range = Split(value, ':');
      if (range.size() == 1) {
        auto v = ParseUint(range[0]);
        if (!v || *v > 65535) {
          return Error(Errno::kEINVAL, "netfilter dport: " + value);
        }
        rule.match.dst_port_min = static_cast<uint16_t>(*v);
        rule.match.dst_port_max = static_cast<uint16_t>(*v);
      } else if (range.size() == 2) {
        if (!range[0].empty()) {
          auto lo = ParseUint(range[0]);
          if (!lo || *lo > 65535) {
            return Error(Errno::kEINVAL, "netfilter dport: " + value);
          }
          rule.match.dst_port_min = static_cast<uint16_t>(*lo);
        }
        if (!range[1].empty()) {
          auto hi = ParseUint(range[1]);
          if (!hi || *hi > 65535) {
            return Error(Errno::kEINVAL, "netfilter dport: " + value);
          }
          rule.match.dst_port_max = static_cast<uint16_t>(*hi);
        }
      } else {
        return Error(Errno::kEINVAL, "netfilter dport: " + value);
      }
    } else if (key == "uid") {
      auto v = ParseUint(value);
      if (!v) {
        return Error(Errno::kEINVAL, "netfilter uid: " + value);
      }
      rule.match.sender_uid = static_cast<Uid>(*v);
    } else if (key == "raw") {
      rule.match.from_raw_socket = value == "1";
    } else if (key == "spoofed-src") {
      rule.match.src_port_owned_by_other = value == "1";
    } else if (key == "verdict") {
      if (value == "ACCEPT") {
        rule.verdict = NfVerdict::kAccept;
      } else if (value == "DROP") {
        rule.verdict = NfVerdict::kDrop;
      } else {
        return Error(Errno::kEINVAL, "netfilter verdict: " + value);
      }
      have_verdict = true;
    } else if (key == "comment") {
      rule.comment = value;
    } else {
      return Error(Errno::kEINVAL, "netfilter key: " + key);
    }
  }
  if (!have_chain || !have_verdict) {
    return Error(Errno::kEINVAL, "netfilter rule needs chain= and verdict=");
  }
  return rule;
}

}  // namespace protego
