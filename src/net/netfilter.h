// The netfilter engine: ordered rule chains evaluated against every packet.
//
// Includes the paper's ~100-line extension for raw sockets (§4.1.1): rules
// can match on whether a packet was constructed via a raw/packet socket and
// on whether its claimed TCP/UDP source port is owned by a different user's
// socket (the spoofing case Protego's default ruleset drops).

#ifndef SRC_NET_NETFILTER_H_
#define SRC_NET_NETFILTER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/base/attribution.h"
#include "src/base/grace.h"
#include "src/base/published.h"
#include "src/base/result.h"
#include "src/base/thread_shards.h"
#include "src/base/tracepoint.h"
#include "src/fault/fault.h"
#include "src/net/packet.h"

namespace protego {

enum class NfChain {
  kOutput,
  kInput,
};

enum class NfVerdict {
  kAccept,
  kDrop,
};

// Rule match criteria; unset fields match anything.
struct NfMatch {
  std::optional<int> l4_proto;
  std::optional<int> icmp_type;
  std::optional<uint16_t> dst_port_min;
  std::optional<uint16_t> dst_port_max;
  std::optional<Uid> sender_uid;

  // --- Protego raw-socket extensions ---
  // Match only packets built through raw/packet sockets.
  std::optional<bool> from_raw_socket;
  // Match packets whose TCP/UDP source port is bound by a socket belonging
  // to a different uid than the sender (spoofing attempt).
  bool src_port_owned_by_other = false;
};

struct NfRule {
  NfChain chain = NfChain::kOutput;
  NfMatch match;
  NfVerdict verdict = NfVerdict::kAccept;
  std::string comment;
};

class Netfilter {
 public:
  // Rule snapshots retire through `grace`, the kernel's one grace period
  // (Kernel::grace()); standalone users pass their own.
  explicit Netfilter(GraceDomain& grace) : rules_(grace) {}

  // Resolves (proto, port) to the uid owning a bound socket, if any.
  // Installed by the Network so the spoofing match can consult port state.
  using PortOwnerFn = std::function<std::optional<Uid>(int proto, uint16_t port)>;

  void set_port_owner_fn(PortOwnerFn fn) { port_owner_ = std::move(fn); }

  // Attaches the kernel-wide tracer: every Evaluate() emits a kNetfilter
  // event (chain, verdict, matched rule) under the calling syscall's span.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  // Attaches the fault-injection registry. A fault at the netfilter_eval
  // site makes the chain fail CLOSED: the packet is dropped without
  // consulting any rule (counted in fail_closed_drops()).
  void set_faults(FaultRegistry* faults) { faults_ = faults; }

  // Appends a rule to its chain (iptables -A).
  void Append(NfRule rule);

  // Inserts at the head of its chain (iptables -I).
  void Insert(NfRule rule);

  // Removes all rules whose comment equals `comment`; returns count.
  int DeleteByComment(const std::string& comment);

  void Flush();
  size_t RuleCount(NfChain chain) const;

  // A copy of the current rules.
  std::vector<NfRule> rules() const {
    GraceDomain::Section section(rules_.grace());
    return rules_.Read();
  }

  // Runs `packet` through `chain`; first matching rule decides, default
  // policy ACCEPT. Opens its own read section, nested inside the caller's
  // when there is one (Network::Send opens one per packet path).
  NfVerdict Evaluate(NfChain chain, const Packet& packet) const;

  // One rule per line, in evaluation order (iptables -L).
  std::string ListRules() const;

  // Counters for tests/benchmarks, summed over every thread's tally: exact
  // at quiescence.
  uint64_t evaluated() const { return tallies_.Sum(&Tally::evaluated); }
  uint64_t dropped() const { return tallies_.Sum(&Tally::dropped); }
  // Packets dropped because a fault was injected mid-evaluation (subset of
  // dropped()).
  uint64_t fail_closed_drops() const { return tallies_.Sum(&Tally::fail_closed_drops); }

 private:
  bool Matches(const NfMatch& match, const Packet& packet) const;

  const char* ChainName(NfChain chain) const;

  // One thread's packet counts; only that thread writes them (AddOwned),
  // so evaluating a packet writes no line another thread writes.
  struct Tally {
    std::atomic<uint64_t> evaluated{0};
    std::atomic<uint64_t> dropped{0};
    std::atomic<uint64_t> fail_closed_drops{0};
  };

  // The rules are one immutable snapshot (Published), as Linux reads its
  // x_tables without a lock: Evaluate loads it once inside a read section
  // and takes no lock, so packets from many task threads write no shared
  // line. Rule edits (the iptables control path) serialize on the
  // snapshot's own writer mutex, copy the vector, edit the copy and publish
  // it; the old snapshot is freed after the grace period. The port-owner
  // callback runs inside the section and takes a Network port-table shard,
  // which no writer here ever holds.
  Published<std::vector<NfRule>> rules_;
  PortOwnerFn port_owner_;
  Tracer* tracer_ = nullptr;
  FaultRegistry* faults_ = nullptr;
  mutable ThreadShards<Tally> tallies_;
};

// Wire grammar for rules crossing the kernel boundary (the iptables
// control path). Token form, e.g.:
//   "chain=OUTPUT proto=udp dport=33434: raw=1 verdict=DROP comment=x"
// dport accepts "min:max", "min:" (open top), or a single port.
Result<NfRule> ParseNfRule(std::string_view spec);
std::string SerializeNfRule(const NfRule& rule);

}  // namespace protego

#endif  // SRC_NET_NETFILTER_H_
