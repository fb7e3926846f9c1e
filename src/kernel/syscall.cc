#include "src/kernel/syscall.h"

#include <algorithm>

#include "src/base/strings.h"

namespace protego {

const char* SysnoName(Sysno nr) {
  switch (nr) {
    case Sysno::kRead: return "read";
    case Sysno::kWrite: return "write";
    case Sysno::kOpen: return "open";
    case Sysno::kClose: return "close";
    case Sysno::kStat: return "stat";
    case Sysno::kIoctl: return "ioctl";
    case Sysno::kAccess: return "access";
    case Sysno::kGetPid: return "getpid";
    case Sysno::kSocket: return "socket";
    case Sysno::kConnect: return "connect";
    case Sysno::kSendTo: return "sendto";
    case Sysno::kRecvFrom: return "recvfrom";
    case Sysno::kBind: return "bind";
    case Sysno::kListen: return "listen";
    case Sysno::kClone: return "clone";
    case Sysno::kExecve: return "execve";
    case Sysno::kWait4: return "wait4";
    case Sysno::kFlock: return "flock";
    case Sysno::kGetDents: return "getdents";
    case Sysno::kRename: return "rename";
    case Sysno::kMkdir: return "mkdir";
    case Sysno::kUnlink: return "unlink";
    case Sysno::kSymlink: return "symlink";
    case Sysno::kChmod: return "chmod";
    case Sysno::kChown: return "chown";
    case Sysno::kGetRlimit: return "getrlimit";
    case Sysno::kSetRlimit: return "setrlimit";
    case Sysno::kSetuid: return "setuid";
    case Sysno::kSetgid: return "setgid";
    case Sysno::kSetreuid: return "setreuid";
    case Sysno::kSetgroups: return "setgroups";
    case Sysno::kMount: return "mount";
    case Sysno::kUmount2: return "umount2";
    case Sysno::kUnshare: return "unshare";
    case Sysno::kSeccomp: return "seccomp";
  }
  return "unknown";
}

const std::vector<Sysno>& AllSysnos() {
  static const std::vector<Sysno> kAll = {
      Sysno::kRead,      Sysno::kWrite,    Sysno::kOpen,     Sysno::kClose,
      Sysno::kStat,      Sysno::kIoctl,    Sysno::kAccess,   Sysno::kGetPid,
      Sysno::kSocket,    Sysno::kConnect,  Sysno::kSendTo,   Sysno::kRecvFrom,
      Sysno::kBind,      Sysno::kListen,   Sysno::kClone,    Sysno::kExecve,
      Sysno::kWait4,     Sysno::kFlock,    Sysno::kGetDents, Sysno::kRename,
      Sysno::kMkdir,     Sysno::kUnlink,   Sysno::kSymlink,  Sysno::kChmod,
      Sysno::kChown,     Sysno::kGetRlimit, Sysno::kSetuid,  Sysno::kSetgid,
      Sysno::kSetreuid,  Sysno::kSetgroups, Sysno::kSetRlimit, Sysno::kMount,
      Sysno::kUmount2,   Sysno::kUnshare,  Sysno::kSeccomp,
  };
  return kAll;
}

std::optional<Sysno> SysnoFromName(std::string_view name) {
  for (Sysno nr : AllSysnos()) {
    if (name == SysnoName(nr)) {
      return nr;
    }
  }
  return std::nullopt;
}

const char* SeccompCmpName(SeccompCmp cmp) {
  switch (cmp) {
    case SeccompCmp::kEq: return "eq";
    case SeccompCmp::kNe: return "ne";
    case SeccompCmp::kLt: return "lt";
    case SeccompCmp::kGe: return "ge";
    case SeccompCmp::kMaskedEq: return "masked_eq";
  }
  return "?";
}

namespace {

std::optional<SeccompCmp> CmpFromName(std::string_view s) {
  if (s == "eq") return SeccompCmp::kEq;
  if (s == "ne") return SeccompCmp::kNe;
  if (s == "lt") return SeccompCmp::kLt;
  if (s == "ge") return SeccompCmp::kGe;
  if (s == "masked_eq") return SeccompCmp::kMaskedEq;
  return std::nullopt;
}

// Accepts decimal or 0x-hex (Render emits masks in hex).
std::optional<uint64_t> ParseFilterUint(std::string_view s) {
  if (s.size() > 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X')) {
    uint64_t v = 0;
    for (char c : s.substr(2)) {
      int digit;
      if (c >= '0' && c <= '9') {
        digit = c - '0';
      } else if (c >= 'a' && c <= 'f') {
        digit = c - 'a' + 10;
      } else if (c >= 'A' && c <= 'F') {
        digit = c - 'A' + 10;
      } else {
        return std::nullopt;
      }
      v = (v << 4) | static_cast<uint64_t>(digit);
    }
    return v;
  }
  return ParseUint(s);
}

bool PredHolds(const SeccompPredicate& p, uint64_t arg) {
  switch (p.cmp) {
    case SeccompCmp::kEq: return arg == p.value;
    case SeccompCmp::kNe: return arg != p.value;
    case SeccompCmp::kLt: return arg < p.value;
    case SeccompCmp::kGe: return arg >= p.value;
    case SeccompCmp::kMaskedEq: return (arg & p.mask) == p.value;
  }
  return false;
}

// Splits on whitespace.
std::vector<std::string> FilterTokens(std::string_view line) {
  std::vector<std::string> toks;
  size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) {
      ++i;
    }
    size_t start = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t') {
      ++i;
    }
    if (i > start) {
      toks.emplace_back(line.substr(start, i - start));
    }
  }
  return toks;
}

}  // namespace

bool SysnoTakesPath(Sysno nr) {
  static constexpr Sysno kTakesPath[] = {
      Sysno::kOpen,  Sysno::kStat,    Sysno::kAccess,  Sysno::kGetDents, Sysno::kUnlink,
      Sysno::kMkdir, Sysno::kChmod,   Sysno::kChown,   Sysno::kRename,   Sysno::kSymlink,
      Sysno::kClone, Sysno::kExecve,  Sysno::kMount,   Sysno::kUmount2,
  };
  return std::find(std::begin(kTakesPath), std::end(kTakesPath), nr) != std::end(kTakesPath);
}

bool IsCanonicalClassEntry(std::string_view entry) {
  // "/tmp" and "/tmp/" probe alike: no empty, "." or ".." component.
  std::string probe = std::string(entry) + (EndsWith(entry, "/") ? "" : "/");
  return StartsWith(entry, "/") && (entry == "/" || (probe.find("//") == std::string::npos &&
                                                     probe.find("/./") == std::string::npos &&
                                                     probe.find("/../") == std::string::npos));
}

uint64_t PathClassOf(const std::vector<std::pair<std::string, uint64_t>>& classes,
                     std::string_view path) {
  uint64_t best = 0;
  size_t best_len = 0;
  for (const auto& [entry, id] : classes) {
    bool match = entry.back() == '/'
                     ? path.size() > entry.size() && path.compare(0, entry.size(), entry) == 0
                     : path == entry;
    if (match && entry.size() > best_len) {
      best = id;
      best_len = entry.size();
    }
  }
  return best;
}

SeccompFilter SeccompFilter::AllowList(const std::vector<Sysno>& allowed) {
  SeccompFilter f;
  for (Sysno nr : allowed) {
    f.allowed_.set(static_cast<size_t>(nr));
  }
  return f;
}

Result<SeccompFilter> SeccompFilter::FromSpec(const Spec& spec) {
  SeccompFilter f;
  f.allowed_ = spec.allowed;
  std::map<std::string, uint64_t> by_entry;
  std::map<uint64_t, std::string> by_id;
  for (const auto& [entry, id] : spec.path_classes) {
    if (!IsCanonicalClassEntry(entry)) {
      return Error(Errno::kEINVAL, "path class entry is not a canonical path: " + entry);
    }
    if (id == 0) {
      return Error(Errno::kEINVAL, "path class id 0 is reserved for 'no match'");
    }
    if (!by_entry.emplace(entry, id).second || !by_id.emplace(id, entry).second) {
      return Error(Errno::kEINVAL, "duplicate path class: " + entry);
    }
  }
  for (const auto& [nr, rules] : spec.rules) {
    if (nr >= kSysnoSlots || !spec.allowed[nr]) {
      return Error(Errno::kEINVAL,
                   StrFormat("rules for syscall %u which is not allowed", nr));
    }
    if (rules.empty()) {
      return Error(Errno::kEINVAL,
                   StrFormat("empty rule list for syscall %u (omit or deny instead)", nr));
    }
    for (const SeccompRule& rule : rules) {
      if (rule.preds.empty()) {
        return Error(Errno::kEINVAL, "rule with no predicates");
      }
      for (const SeccompPredicate& p : rule.preds) {
        if (p.arg > kSeccompArgPath) {
          return Error(Errno::kEINVAL, StrFormat("bad argument index %u", p.arg));
        }
        if (p.arg == kSeccompArgPath) {
          if (!SysnoTakesPath(static_cast<Sysno>(nr))) {
            return Error(Errno::kEINVAL,
                         StrFormat("path predicate on syscall %u, which takes no path", nr));
          }
          if (p.cmp != SeccompCmp::kEq) {
            return Error(Errno::kEINVAL,
                         "path-class predicates must use eq (intersection safety)");
          }
          if (by_id.count(p.value) == 0) {
            return Error(Errno::kEINVAL,
                         StrFormat("path predicate references unknown class %llu",
                                   (unsigned long long)p.value));
          }
        }
        if (p.cmp == SeccompCmp::kMaskedEq && (p.value & ~p.mask) != 0) {
          return Error(Errno::kEINVAL, "masked_eq value has bits outside the mask");
        }
      }
    }
    f.rules_[nr] = rules;
  }
  f.IndexRules();
  f.path_classes_ = spec.path_classes;
  return f;
}

void SeccompFilter::IndexRules() {
  has_rules_.reset();
  path_rules_.reset();
  for (const auto& [nr, rules] : rules_) {
    has_rules_.set(nr);
    for (const SeccompRule& rule : rules) {
      for (const SeccompPredicate& p : rule.preds) {
        path_rules_[nr] = path_rules_[nr] || p.arg == kSeccompArgPath;
      }
    }
  }
}

bool SeccompFilter::EvalRules(uint16_t nr, const SyscallArgs& args, uint64_t path_class,
                              uint32_t* rule_evals) const {
  auto it = rules_.find(nr);
  if (it == rules_.end()) {
    return true;  // has_rules_ bit without storage cannot happen; be safe
  }
  for (const SeccompRule& rule : it->second) {
    ++*rule_evals;
    bool match = true;
    for (const SeccompPredicate& p : rule.preds) {
      uint64_t arg = p.arg == kSeccompArgPath ? path_class : args.a[p.arg];
      if (!PredHolds(p, arg)) {
        match = false;
        break;
      }
    }
    if (match) {
      return true;
    }
  }
  return false;
}

size_t SeccompFilter::rule_count() const {
  size_t n = 0;
  for (const auto& [nr, rules] : rules_) {
    (void)nr;
    n += rules.size();
  }
  return n;
}

namespace {

// True when conjoining `preds` yields an obviously unsatisfiable rule —
// used to prune the intersection cross product. Conservative: rules it
// cannot prove contradictory are kept (they simply never match at runtime).
bool ObviouslyContradictory(const std::vector<SeccompPredicate>& preds) {
  for (size_t i = 0; i < preds.size(); ++i) {
    const SeccompPredicate& a = preds[i];
    if (a.cmp != SeccompCmp::kEq) {
      continue;
    }
    for (size_t j = 0; j < preds.size(); ++j) {
      if (i == j) {
        continue;
      }
      const SeccompPredicate& b = preds[j];
      if (b.arg != a.arg) {
        continue;
      }
      switch (b.cmp) {
        case SeccompCmp::kEq:
          if (b.value != a.value) return true;
          break;
        case SeccompCmp::kNe:
          if (b.value == a.value) return true;
          break;
        case SeccompCmp::kLt:
          if (a.value >= b.value) return true;
          break;
        case SeccompCmp::kGe:
          if (a.value < b.value) return true;
          break;
        case SeccompCmp::kMaskedEq:
          if ((a.value & b.mask) != b.value) return true;
          break;
      }
    }
  }
  return false;
}

void DedupePreds(std::vector<SeccompPredicate>& preds) {
  std::vector<SeccompPredicate> out;
  for (const SeccompPredicate& p : preds) {
    if (std::find(out.begin(), out.end(), p) == out.end()) {
      out.push_back(p);
    }
  }
  preds = std::move(out);
}

}  // namespace

void SeccompFilter::IntersectWith(const SeccompFilter& other) {
  allowed_ &= other.allowed_;
  if (!has_rules_.any() && !other.has_rules_.any()) {
    return;
  }

  // Merge the class tables by entry; remap both sides' class ids. Ids are
  // reassigned in sorted-entry order so identical merges render
  // identically.
  std::map<std::string, uint64_t> merged;  // entry -> new id
  for (const auto& [prefix, id] : path_classes_) {
    (void)id;
    merged.emplace(prefix, 0);
  }
  for (const auto& [prefix, id] : other.path_classes_) {
    (void)id;
    merged.emplace(prefix, 0);
  }
  uint64_t next_id = 1;
  for (auto& [prefix, id] : merged) {
    (void)prefix;
    id = next_id++;
  }
  auto remap = [&merged](const std::vector<std::pair<std::string, uint64_t>>& table,
                         const SeccompRule& rule) {
    SeccompRule out = rule;
    for (SeccompPredicate& p : out.preds) {
      if (p.arg == kSeccompArgPath) {
        for (const auto& [prefix, id] : table) {
          if (id == p.value) {
            p.value = merged.at(prefix);
            break;
          }
        }
      }
    }
    return out;
  };

  std::map<uint16_t, std::vector<SeccompRule>> result;
  for (size_t i = 0; i < kSysnoSlots; ++i) {
    if (!allowed_[i]) {
      continue;
    }
    uint16_t nr = static_cast<uint16_t>(i);
    bool mine = has_rules_[i];
    bool theirs = other.has_rules_[i];
    if (!mine && !theirs) {
      continue;
    }
    std::vector<SeccompRule> rules;
    if (mine && !theirs) {
      for (const SeccompRule& r : rules_.at(nr)) {
        rules.push_back(remap(path_classes_, r));
      }
    } else if (!mine && theirs) {
      for (const SeccompRule& r : other.rules_.at(nr)) {
        rules.push_back(remap(other.path_classes_, r));
      }
    } else {
      // Both constrain this syscall: the exact AND of two OR-of-AND lists
      // is the pairwise conjunction. Obvious contradictions are pruned; an
      // oversized product denies the syscall outright (still a tightening).
      for (const SeccompRule& ra : rules_.at(nr)) {
        SeccompRule a = remap(path_classes_, ra);
        for (const SeccompRule& rb : other.rules_.at(nr)) {
          SeccompRule conj = a;
          SeccompRule b = remap(other.path_classes_, rb);
          conj.preds.insert(conj.preds.end(), b.preds.begin(), b.preds.end());
          DedupePreds(conj.preds);
          if (ObviouslyContradictory(conj.preds)) {
            continue;
          }
          if (std::find(rules.begin(), rules.end(), conj) == rules.end()) {
            rules.push_back(std::move(conj));
          }
        }
      }
      if (rules.empty() || rules.size() > kMaxRulesPerSysno) {
        allowed_.reset(i);
        continue;
      }
    }
    result[nr] = std::move(rules);
  }
  rules_ = std::move(result);
  IndexRules();
  path_classes_.assign(merged.begin(), merged.end());
}

std::string SeccompFilter::Render() const {
  std::string out = "# seccomp-filter v1\n";
  // Classes render in id order (stable: ids are unique).
  std::map<uint64_t, std::string> by_id;
  for (const auto& [prefix, id] : path_classes_) {
    by_id[id] = prefix;
  }
  for (const auto& [id, prefix] : by_id) {
    out += StrFormat("class %llu %s\n", (unsigned long long)id, prefix.c_str());
  }
  for (Sysno nr : AllSysnos()) {
    size_t i = static_cast<size_t>(nr);
    if (!allowed_[i]) {
      continue;
    }
    if (!has_rules_[i]) {
      out += StrFormat("allow %s\n", SysnoName(nr));
      continue;
    }
    for (const SeccompRule& rule : rules_.at(static_cast<uint16_t>(i))) {
      out += StrFormat("allow %s if", SysnoName(nr));
      bool first = true;
      for (const SeccompPredicate& p : rule.preds) {
        if (!first) {
          out += " &&";
        }
        first = false;
        const char* slot = p.arg == kSeccompArgPath
                               ? "path"
                               : (p.arg == 0 ? "arg0" : (p.arg == 1 ? "arg1" : "arg2"));
        if (p.cmp == SeccompCmp::kMaskedEq) {
          out += StrFormat(" %s masked_eq 0x%llx 0x%llx", slot,
                           (unsigned long long)p.mask, (unsigned long long)p.value);
        } else {
          out += StrFormat(" %s %s %llu", slot, SeccompCmpName(p.cmp),
                           (unsigned long long)p.value);
        }
      }
      out += "\n";
    }
  }
  return out;
}

Result<SeccompFilter::Spec> SeccompFilter::ParseSpec(std::string_view text) {
  Spec spec;
  size_t pos = 0;
  int lineno = 0;
  while (pos <= text.size()) {
    size_t nl = text.find('\n', pos);
    std::string_view line =
        nl == std::string_view::npos ? text.substr(pos) : text.substr(pos, nl - pos);
    pos = nl == std::string_view::npos ? text.size() + 1 : nl + 1;
    ++lineno;
    size_t hash = line.find('#');
    if (hash != std::string_view::npos) {
      line = line.substr(0, hash);
    }
    std::vector<std::string> toks = FilterTokens(line);
    if (toks.empty()) {
      continue;
    }
    if (toks[0] == "class") {
      if (toks.size() != 3) {
        return Error(Errno::kEINVAL, StrFormat("line %d: class <id> <entry>", lineno));
      }
      std::optional<uint64_t> id = ParseFilterUint(toks[1]);
      if (!id.has_value() || *id == 0) {
        return Error(Errno::kEINVAL, StrFormat("line %d: bad class id", lineno));
      }
      spec.path_classes.emplace_back(toks[2], *id);
      continue;
    }
    if (toks[0] != "allow") {
      return Error(Errno::kEINVAL,
                   StrFormat("line %d: expected 'allow' or 'class'", lineno));
    }
    if (toks.size() < 2) {
      return Error(Errno::kEINVAL, StrFormat("line %d: allow <syscall>", lineno));
    }
    std::optional<Sysno> nr = SysnoFromName(toks[1]);
    if (!nr.has_value()) {
      return Error(Errno::kEINVAL,
                   StrFormat("line %d: unknown syscall '%s'", lineno, toks[1].c_str()));
    }
    uint16_t num = static_cast<uint16_t>(*nr);
    spec.allowed.set(num);
    if (toks.size() == 2) {
      continue;  // unconditional allow
    }
    if (toks[2] != "if") {
      return Error(Errno::kEINVAL, StrFormat("line %d: expected 'if'", lineno));
    }
    SeccompRule rule;
    size_t t = 3;
    while (t < toks.size()) {
      SeccompPredicate p;
      const std::string& slot = toks[t];
      if (slot == "path") {
        p.arg = kSeccompArgPath;
      } else if (slot == "arg0" || slot == "arg1" || slot == "arg2") {
        p.arg = static_cast<uint8_t>(slot[3] - '0');
      } else {
        return Error(Errno::kEINVAL,
                     StrFormat("line %d: bad argument slot '%s'", lineno, slot.c_str()));
      }
      if (t + 1 >= toks.size()) {
        return Error(Errno::kEINVAL, StrFormat("line %d: missing comparator", lineno));
      }
      std::optional<SeccompCmp> cmp = CmpFromName(toks[t + 1]);
      if (!cmp.has_value()) {
        return Error(Errno::kEINVAL, StrFormat("line %d: bad comparator '%s'", lineno,
                                               toks[t + 1].c_str()));
      }
      p.cmp = *cmp;
      size_t consumed;
      if (*cmp == SeccompCmp::kMaskedEq) {
        if (t + 3 >= toks.size()) {
          return Error(Errno::kEINVAL,
                       StrFormat("line %d: masked_eq <mask> <value>", lineno));
        }
        std::optional<uint64_t> mask = ParseFilterUint(toks[t + 2]);
        std::optional<uint64_t> value = ParseFilterUint(toks[t + 3]);
        if (!mask.has_value() || !value.has_value()) {
          return Error(Errno::kEINVAL, StrFormat("line %d: bad masked_eq operand", lineno));
        }
        p.mask = *mask;
        p.value = *value;
        consumed = 4;
      } else {
        if (t + 2 >= toks.size()) {
          return Error(Errno::kEINVAL, StrFormat("line %d: missing value", lineno));
        }
        std::optional<uint64_t> value = ParseFilterUint(toks[t + 2]);
        if (!value.has_value()) {
          return Error(Errno::kEINVAL, StrFormat("line %d: bad value '%s'", lineno,
                                                 toks[t + 2].c_str()));
        }
        p.value = *value;
        consumed = 3;
      }
      rule.preds.push_back(p);
      t += consumed;
      if (t < toks.size()) {
        if (toks[t] != "&&") {
          return Error(Errno::kEINVAL,
                       StrFormat("line %d: expected '&&' between predicates", lineno));
        }
        ++t;
      }
    }
    if (rule.preds.empty()) {
      return Error(Errno::kEINVAL, StrFormat("line %d: 'if' with no predicates", lineno));
    }
    spec.rules[num].push_back(std::move(rule));
  }
  return spec;
}

SyscallGate::SyscallRecord& SyscallGate::MyRecord(Sysno nr) {
  std::atomic<SyscallRecord*>& slot = shards_.Mine().records[static_cast<size_t>(nr)];
  SyscallRecord* rec = slot.load(std::memory_order_relaxed);  // this thread stores it
  if (rec == nullptr) {
    rec = new SyscallRecord();
    slot.store(rec, std::memory_order_release);
  }
  return *rec;
}

template <typename Fn>
void SyscallGate::ForEachRecord(Sysno nr, Fn&& fn) const {
  shards_.ForEach([&](GateShard& shard) {
    SyscallRecord* rec = shard.records[static_cast<size_t>(nr)].load(std::memory_order_acquire);
    if (rec != nullptr) {
      fn(*rec);
    }
  });
}

SyscallGate::PerSyscall SyscallGate::stats(Sysno nr) const {
  uint64_t calls = 0;
  uint64_t errors = 0;
  uint64_t denied = 0;
  uint64_t rule_evals = 0;
  Histogram lat_ns;
  ForEachRecord(nr, [&](const SyscallRecord& rec) {
    calls += rec.calls.load(std::memory_order_relaxed);
    errors += rec.errors.load(std::memory_order_relaxed);
    denied += rec.seccomp_denied.load(std::memory_order_relaxed);
    rule_evals += rec.rule_evals.load(std::memory_order_relaxed);
    lat_ns.Merge(rec.lat_ns);
  });
  // A prvalue aggregate: PerSyscall's atomics make it non-copyable.
  return PerSyscall{calls, errors, denied, rule_evals, lat_ns};
}

void SyscallGate::ExitSyscall(const CallFrame& frame, const std::string& comm,
                              std::string args, Errno err, uint64_t start_ns) {
  // No shared lock and no shared cache line: in parallel mode every task
  // thread retires syscalls into its own record.
  const Sysno nr = static_cast<Sysno>(frame.sysno);
  SyscallRecord& rec = MyRecord(nr);
  rec.CountCall();
  if (err != Errno::kOk) {
    AddOwned(rec.errors);
  }
  uint64_t dur_ns = 0;
  if (start_ns != 0) {
    dur_ns = MonotonicNanos() - start_ns;
    rec.lat_ns.Observe(dur_ns);
  }
  if (start_ns != 0 || frame.traced) {
    // Self-accounting: the reservoir update and the trace emission are the
    // observability pipeline's own cost, metered under the observer layer.
    LayerScope observer_scope(Layer::kObserver);
    if (start_ns != 0) {
      RecordExemplar(rec, dur_ns, frame.span, frame.pid);
    }
    if (frame.traced) {
      RecordTrace(frame, comm, std::move(args), err, dur_ns, /*seccomp_denied=*/false);
    }
  }
}

bool SyscallGate::CheckPath(std::string_view path) {
  CallFrame* frame = CallFrame::Current();
  if (frame == nullptr) {
    return true;
  }
  if (frame->path != nullptr) {
    frame->path->assign(path);
  }
  if (frame->filter == nullptr) {
    return true;
  }
  LayerScope seccomp_scope(Layer::kSeccomp);
  const Sysno nr = static_cast<Sysno>(frame->sysno);
  uint32_t evals = 0;
  frame->denied = !frame->filter->AllowsPath(nr, *frame->args, path, &evals);
  MyRecord(nr).rule_evals.fetch_add(evals, std::memory_order_relaxed);
  return !frame->denied;
}

void SyscallGate::RecordDenial(const CallFrame& frame, const std::string& comm,
                               std::string args) {
  // Seccomp-killed semantic (see the header): the call is counted, but its
  // latency is not — the body never ran. Same reasoning excludes it from
  // the tail-exemplar reservoir.
  const Sysno nr = static_cast<Sysno>(frame.sysno);
  SyscallRecord& rec = MyRecord(nr);
  rec.CountCall();
  rec.errors.fetch_add(1, std::memory_order_relaxed);
  rec.seccomp_denied.fetch_add(1, std::memory_order_relaxed);
  {
    LayerScope observer_scope(Layer::kObserver);
    if (frame.traced) {
      RecordTrace(frame, comm, std::move(args), Errno::kEPERM, /*dur_ns=*/0,
                  /*seccomp_denied=*/true);
    }
  }
  if (audit_sink_) {
    audit_sink_(StrFormat("seccomp: pid=%d comm=%s denied %s(%d)", frame.pid, comm.c_str(),
                          SysnoName(nr), frame.sysno));
  }
}

void SyscallGate::RecordTrace(const CallFrame& frame, const std::string& comm,
                              std::string args, Errno err, uint64_t dur_ns,
                              bool seccomp_denied) {
  // The call's frame is still the innermost, so Emit stamps its span and
  // parent: this event is the span root.
  TraceSlot ev = tracer_->Emit(TracepointId::kSyscall, frame.pid);
  ev->a = static_cast<uint64_t>(frame.sysno);
  ev->code = static_cast<int>(err);
  ev->dur = dur_ns;
  ev->sname = SysnoName(static_cast<Sysno>(frame.sysno));
  if (seccomp_denied) {
    ev->flags |= kTraceFlagSeccompDenied | kTraceFlagDenied;
  } else if (err != Errno::kOk) {
    ev->flags |= kTraceFlagDenied;
  }
  ev->comm.assign(comm);  // reuses the slot's capacity
  ev->detail = std::move(args);
}

void SyscallGate::RecordExemplar(SyscallRecord& rec, uint64_t dur_ns, uint64_t span,
                                 int pid) {
  SysnoExemplars& res = rec.exemplars;
  // Warm-reservoir fast path, read without the lock because only this
  // thread writes `used` and the min cache: only a call slower than the
  // cached minimum replaces a kept one.
  if (res.used == kExemplarSlots && dur_ns <= res.min_ns) {
    return;
  }
  std::lock_guard<std::mutex> lk(rec.exemplar_mu);
  if (res.used < kExemplarSlots) {
    res.slots[res.used++] = {dur_ns, span, pid};
  } else {
    size_t min_idx = 0;
    for (size_t i = 1; i < kExemplarSlots; ++i) {
      if (res.slots[i].dur_ns < res.slots[min_idx].dur_ns) {
        min_idx = i;
      }
    }
    res.slots[min_idx] = {dur_ns, span, pid};
  }
  if (res.used < kExemplarSlots) {
    return;  // min cache only matters once the reservoir is full
  }
  res.min_ns = res.slots[0].dur_ns;
  for (size_t i = 1; i < kExemplarSlots; ++i) {
    res.min_ns = std::min(res.min_ns, res.slots[i].dur_ns);
  }
}

std::vector<SyscallGate::ExemplarRecord> SyscallGate::ExemplarsFor(Sysno nr) const {
  std::vector<ExemplarRecord> all;
  ForEachRecord(nr, [&](SyscallRecord& rec) {
    std::lock_guard<std::mutex> lk(rec.exemplar_mu);
    all.insert(all.end(), rec.exemplars.slots, rec.exemplars.slots + rec.exemplars.used);
  });
  // Slowest first; span breaks ties so the merged top-K is stable.
  std::sort(all.begin(), all.end(), [](const ExemplarRecord& a, const ExemplarRecord& b) {
    if (a.dur_ns != b.dur_ns) return a.dur_ns > b.dur_ns;
    return a.span < b.span;
  });
  if (all.size() > kExemplarSlots) {
    all.resize(kExemplarSlots);
  }
  return all;
}

void SyscallGate::ResetStats() {
  for (Sysno nr : AllSysnos()) {
    ForEachRecord(nr, [](SyscallRecord& rec) {
      rec.calls.store(0, std::memory_order_relaxed);
      rec.errors.store(0, std::memory_order_relaxed);
      rec.seccomp_denied.store(0, std::memory_order_relaxed);
      rec.rule_evals.store(0, std::memory_order_relaxed);
      rec.lat_ns.Reset();
      std::lock_guard<std::mutex> lk(rec.exemplar_mu);
      rec.exemplars = SysnoExemplars{};
    });
  }
}

void SyscallGate::CollectMetrics(MetricsBuilder& b) const {
  for (Sysno nr : AllSysnos()) {
    const PerSyscall s = stats(nr);
    if (s.calls == 0) {
      continue;
    }
    MetricLabels labels = {{"syscall", SysnoName(nr)}};
    b.Counter("protego_syscall_calls_total", "Syscalls dispatched through the gate",
              labels, s.calls);
    b.Counter("protego_syscall_errors_total", "Syscalls that returned an errno", labels,
              s.errors);
    b.Counter("protego_syscall_seccomp_denied_total",
              "Syscalls killed by the task seccomp filter at entry", labels,
              s.seccomp_denied);
    if (s.rule_evals != 0) {
      b.Counter("protego_seccomp_rule_evals_total",
                "Argument-predicate rules evaluated by seccomp at entry", labels,
                s.rule_evals);
    }
    if (s.lat_ns.count() == 0) {
      continue;  // never timed
    }
    // The tail exemplars annotate the ns histogram: each kept slowest call
    // renders on the bucket line its duration falls into, with span and pid
    // labels for cross-referencing the trace.
    std::vector<MetricExemplar> exemplars;
    for (const ExemplarRecord& ex : ExemplarsFor(nr)) {
      exemplars.push_back(MetricExemplar{
          {{"span", StrFormat("%llu", (unsigned long long)ex.span)},
           {"pid", StrFormat("%d", ex.pid)}},
          ex.dur_ns});
    }
    b.HistoEx("protego_syscall_latency_ns",
              "Per-syscall wall-clock latency in nanoseconds (timed syscalls)", labels,
              s.lat_ns, std::move(exemplars));
  }
}

}  // namespace protego
