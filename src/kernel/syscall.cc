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

// Orders the prefix table longest-first so a linear scan finds the longest
// match; ties break lexicographically for byte-stable rendering.
void SortPathClasses(std::vector<std::pair<std::string, uint64_t>>& classes) {
  std::sort(classes.begin(), classes.end(),
            [](const auto& a, const auto& b) {
              if (a.first.size() != b.first.size()) {
                return a.first.size() > b.first.size();
              }
              return a.first < b.first;
            });
}

}  // namespace

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
  std::map<std::string, uint64_t> by_prefix;
  std::map<uint64_t, std::string> by_id;
  for (const auto& [prefix, id] : spec.path_classes) {
    if (prefix.empty() || prefix[0] != '/') {
      return Error(Errno::kEINVAL, "path class prefix must be absolute: " + prefix);
    }
    if (id == 0) {
      return Error(Errno::kEINVAL, "path class id 0 is reserved for 'no match'");
    }
    if (!by_prefix.emplace(prefix, id).second || !by_id.emplace(id, prefix).second) {
      return Error(Errno::kEINVAL, "duplicate path class: " + prefix);
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
    f.has_rules_.set(nr);
  }
  f.path_classes_ = spec.path_classes;
  SortPathClasses(f.path_classes_);
  return f;
}

uint64_t SeccompFilter::PathClassOf(const SyscallArgs& args) const {
  if (args.path == nullptr) {
    return 0;
  }
  const std::string* path = args.path;
  std::string abs;
  if (path->empty() || (*path)[0] != '/') {
    abs = (args.cwd != nullptr ? *args.cwd : std::string("/")) + "/" + *path;
    path = &abs;
  }
  for (const auto& [prefix, id] : path_classes_) {
    if (path->compare(0, prefix.size(), prefix) == 0) {
      return id;
    }
  }
  return 0;
}

bool SeccompFilter::EvalRules(uint16_t nr, const SyscallArgs& args,
                              uint32_t* rule_evals) const {
  auto it = rules_.find(nr);
  if (it == rules_.end()) {
    return true;  // has_rules_ bit without storage cannot happen; be safe
  }
  // The path class is resolved at most once per call, lazily: rule lists
  // without path predicates never touch the prefix table.
  uint64_t path_class = 0;
  bool path_resolved = false;
  for (const SeccompRule& rule : it->second) {
    ++*rule_evals;
    bool match = true;
    for (const SeccompPredicate& p : rule.preds) {
      uint64_t arg;
      if (p.arg == kSeccompArgPath) {
        if (!path_resolved) {
          path_class = PathClassOf(args);
          path_resolved = true;
        }
        arg = path_class;
      } else {
        arg = args.a[p.arg];
      }
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

  // Merge the prefix tables by prefix string; remap both sides' class ids.
  // Ids are reassigned in sorted-prefix order so identical merges render
  // identically.
  std::map<std::string, uint64_t> merged;  // prefix -> new id
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
  std::bitset<kSysnoSlots> result_has;
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
    result_has.set(i);
  }
  rules_ = std::move(result);
  has_rules_ = result_has;
  path_classes_.clear();
  for (const auto& [prefix, id] : merged) {
    path_classes_.emplace_back(prefix, id);
  }
  SortPathClasses(path_classes_);
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
        return Error(Errno::kEINVAL, StrFormat("line %d: class <id> <prefix>", lineno));
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

SyscallGate::SyscallGate(const Clock* clock) : clock_(clock) {
  static std::atomic<uint64_t> next_gate_id{1};
  id_ = next_gate_id.fetch_add(1, std::memory_order_relaxed);
  // Default all-set: with no explicit syscall filter, the global toggles
  // alone decide, which is exactly the pre-dispatch behavior.
  traced_syscalls_.set();
  timed_syscalls_.set();
}

void SyscallGate::RebuildDispatch(uint64_t tracer_gen) {
  std::lock_guard<std::mutex> lk(dispatch_mu_);
  uint64_t local_gen = local_gen_.load(std::memory_order_relaxed);
  bool tracing = tracer_ != nullptr && tracer_->enabled() &&
                 tracer_->point_enabled(TracepointId::kSyscall);
  bool sampled = tracing && tracer_->sample_rate(TracepointId::kSyscall) > 1;
  // Exemplars ride the tracer master switch (not the kSyscall point or the
  // traced set): the reservoir annotates the latency HISTOGRAMS, which
  // cover every syscall, and must keep catching tails for calls whose
  // trace is filtered or sampled away.
  bool exemplars = exemplars_enabled_ && tracer_ != nullptr && tracer_->enabled();
  for (size_t i = 0; i < kSysnoSlots; ++i) {
    uint8_t word = 0;
    if (tracing && traced_syscalls_[i]) {
      word |= kDispatchTrace;
      if (sampled) {
        word |= kDispatchSampled;
      }
    }
    if (exemplars) {
      word |= kDispatchExemplar;
    }
    if (wallclock_timing_ && timed_syscalls_[i]) {
      word |= kDispatchTimed;
    }
    dispatch_[i].store(word, std::memory_order_relaxed);
  }
  // Publish the generations the table was built from LAST: a racing reader
  // that sees them early at worst rebuilds once more.
  built_local_gen_.store(local_gen, std::memory_order_relaxed);
  built_tracer_gen_.store(tracer_gen, std::memory_order_relaxed);
}

uint64_t SyscallGate::TotalCalls() const {
  uint64_t total = 0;
  for (Sysno nr : AllSysnos()) {
    total += stats_[static_cast<size_t>(nr)].calls;
  }
  return total;
}

void SyscallGate::ExitSyscall(SyscallContext& ctx, Errno err) {
  uint64_t dur_ns = 0;
  uint64_t dur_ticks = clock_->Now() - ctx.start_tick;
  // Lock-free stats path: relaxed atomic increments, no shared lock. In
  // parallel mode every task thread retires syscalls through here.
  PerSyscall& s = stats_[static_cast<size_t>(ctx.nr)];
  s.calls.fetch_add(1, std::memory_order_relaxed);
  if (err != Errno::kOk) {
    s.errors.fetch_add(1, std::memory_order_relaxed);
  }
  s.lat_ticks.Observe(dur_ticks);
  if ((ctx.dispatch & kDispatchTimed) != 0) {
    dur_ns = MonotonicNanos() - ctx.start_ns;
    s.lat_ns.Observe(dur_ns);
  }
  if ((ctx.dispatch & kDispatchTrace) != 0) {
    // Self-accounting: the trace emission and reservoir update are the
    // observability pipeline's own cost, metered under the observer layer.
    LayerScope observer_scope(profiler_, Layer::kObserver);
    if ((ctx.dispatch & kDispatchExemplar) != 0) {
      RecordExemplar(ctx.nr, dur_ticks, dur_ns, ctx.span, ctx.pid);
    }
    RecordTrace(ctx, err, dur_ns, /*seccomp_denied=*/false);
  } else if ((ctx.dispatch & kDispatchExemplar) != 0) {
    // Untraced call, exemplars still armed: the budgeted always-on path.
    // No span to close and no root event to emit, so skip RecordTrace
    // entirely — the reservoir compare is the only observer work.
    LayerScope observer_scope(profiler_, Layer::kObserver);
    RecordExemplar(ctx.nr, dur_ticks, dur_ns, ctx.span, ctx.pid);
  }
  Tracer::SwapThreadMute(ctx.prev_muted);
}

void SyscallGate::RecordDenial(SyscallContext& ctx) {
  // Seccomp-killed semantic (see the header): the call is counted, but its
  // latency is not — the body never ran. Same reasoning excludes it from
  // the tail-exemplar reservoir.
  PerSyscall& s = stats_[static_cast<size_t>(ctx.nr)];
  s.calls.fetch_add(1, std::memory_order_relaxed);
  s.errors.fetch_add(1, std::memory_order_relaxed);
  s.seccomp_denied.fetch_add(1, std::memory_order_relaxed);
  {
    LayerScope observer_scope(profiler_, Layer::kObserver);
    RecordTrace(ctx, Errno::kEPERM, /*dur_ns=*/0, /*seccomp_denied=*/true);
  }
  if (audit_sink_) {
    audit_sink_(StrFormat("seccomp: pid=%d comm=%s denied %s(%d)", ctx.pid,
                          ctx.comm ? ctx.comm->c_str() : "?", SysnoName(ctx.nr),
                          static_cast<int>(ctx.nr)));
  }
}

void SyscallGate::RecordTrace(SyscallContext& ctx, Errno err, uint64_t dur_ns,
                              bool seccomp_denied) {
  if (tracer_ == nullptr) {
    return;
  }
  if ((ctx.dispatch & kDispatchTrace) != 0) {
    TraceEvent& ev = tracer_->EmitSpanRoot(TracepointId::kSyscall, ctx.pid, ctx.span);
    ev.a = static_cast<uint64_t>(ctx.nr);
    ev.code = static_cast<int>(err);
    ev.dur = dur_ns;
    ev.tick = ctx.start_tick;
    ev.sname = SysnoName(ctx.nr);
    if (seccomp_denied) {
      ev.flags |= kTraceFlagSeccompDenied | kTraceFlagDenied;
    } else if (err != Errno::kOk) {
      ev.flags |= kTraceFlagDenied;
    }
    if (ctx.comm != nullptr) {
      ev.comm.assign(*ctx.comm);  // reuses the slot's capacity
    } else {
      ev.comm.assign("?");
    }
    ev.detail = std::move(ctx.args);
  }
  if (ctx.span != 0) {
    tracer_->EndSpan(ctx.pid, ctx.span);
  }
}

SyscallGate::ExemplarShard& SyscallGate::MyExemplarShard() {
  struct TlCache {
    uint64_t gate_id = 0;
    ExemplarShard* shard = nullptr;
  };
  thread_local TlCache cache;
  if (cache.gate_id == id_) {
    return *cache.shard;
  }
  std::lock_guard<std::mutex> lk(exemplar_mu_);
  std::thread::id me = std::this_thread::get_id();
  for (const std::unique_ptr<ExemplarShard>& s : exemplar_shards_) {
    if (s->owner == me) {
      cache = {id_, s.get()};
      return *s;
    }
  }
  exemplar_shards_.push_back(std::make_unique<ExemplarShard>());
  ExemplarShard& shard = *exemplar_shards_.back();
  shard.owner = me;
  cache = {id_, &shard};
  return shard;
}

void SyscallGate::RecordExemplar(Sysno nr, uint64_t dur_ticks, uint64_t dur_ns,
                                 uint64_t span, int pid) {
  ExemplarShard& shard = MyExemplarShard();
  std::unique_ptr<SysnoExemplars>& slot = shard.per_sysno[static_cast<size_t>(nr)];
  if (slot == nullptr) {
    slot = std::make_unique<SysnoExemplars>();
  }
  SysnoExemplars& res = *slot;
  if (res.used < kExemplarSlots) {
    res.slots[res.used++] = {dur_ticks, dur_ns, span, pid};
  } else {
    // Warm-reservoir fast path: STRICTLY slower than the cached minimum
    // replaces it; ties keep the incumbent (earliest call wins), which is
    // what makes the kept set deterministic under a deterministic clock.
    if (dur_ticks < res.min_ticks ||
        (dur_ticks == res.min_ticks && dur_ns <= res.min_ns)) {
      return;
    }
    size_t min_idx = 0;
    for (size_t i = 1; i < kExemplarSlots; ++i) {
      const ExemplarRecord& a = res.slots[i];
      const ExemplarRecord& b = res.slots[min_idx];
      if (a.dur_ticks < b.dur_ticks ||
          (a.dur_ticks == b.dur_ticks && a.dur_ns < b.dur_ns)) {
        min_idx = i;
      }
    }
    res.slots[min_idx] = {dur_ticks, dur_ns, span, pid};
  }
  if (res.used < kExemplarSlots) {
    return;  // min cache only matters once the reservoir is full
  }
  res.min_ticks = res.slots[0].dur_ticks;
  res.min_ns = res.slots[0].dur_ns;
  for (size_t i = 1; i < kExemplarSlots; ++i) {
    const ExemplarRecord& a = res.slots[i];
    if (a.dur_ticks < res.min_ticks ||
        (a.dur_ticks == res.min_ticks && a.dur_ns < res.min_ns)) {
      res.min_ticks = a.dur_ticks;
      res.min_ns = a.dur_ns;
    }
  }
}

std::vector<SyscallGate::ExemplarRecord> SyscallGate::ExemplarsFor(Sysno nr) const {
  std::vector<ExemplarRecord> all;
  {
    std::lock_guard<std::mutex> lk(exemplar_mu_);
    for (const std::unique_ptr<ExemplarShard>& shard : exemplar_shards_) {
      const std::unique_ptr<SysnoExemplars>& res = shard->per_sysno[static_cast<size_t>(nr)];
      if (res == nullptr) {
        continue;
      }
      for (size_t i = 0; i < res->used; ++i) {
        all.push_back(res->slots[i]);
      }
    }
  }
  // Slowest first; span breaks ties so the merged top-K is stable.
  std::sort(all.begin(), all.end(), [](const ExemplarRecord& a, const ExemplarRecord& b) {
    if (a.dur_ticks != b.dur_ticks) return a.dur_ticks > b.dur_ticks;
    if (a.dur_ns != b.dur_ns) return a.dur_ns > b.dur_ns;
    return a.span < b.span;
  });
  if (all.size() > kExemplarSlots) {
    all.resize(kExemplarSlots);
  }
  return all;
}

std::vector<SyscallGate::TraceRecord> SyscallGate::TraceSnapshot() const {
  std::vector<TraceRecord> out;
  if (tracer_ == nullptr) {
    return out;
  }
  for (const TraceEvent& ev : tracer_->Snapshot()) {
    if (ev.tp != TracepointId::kSyscall) {
      continue;
    }
    TraceRecord rec;
    rec.seq = ev.seq;
    rec.tick = ev.tick;
    rec.pid = ev.pid;
    rec.nr = static_cast<Sysno>(ev.a);
    rec.err = static_cast<Errno>(ev.code);
    rec.dur_ns = ev.dur;
    rec.seccomp_denied = (ev.flags & kTraceFlagSeccompDenied) != 0;
    rec.comm = ev.comm;
    rec.args = ev.detail;
    out.push_back(std::move(rec));
  }
  return out;
}

void SyscallGate::ClearTrace() {
  if (tracer_ != nullptr) {
    tracer_->Clear();
  }
}

void SyscallGate::ResetStats() {
  for (PerSyscall& s : stats_) {
    s.calls.store(0, std::memory_order_relaxed);
    s.errors.store(0, std::memory_order_relaxed);
    s.seccomp_denied.store(0, std::memory_order_relaxed);
    s.rule_evals.store(0, std::memory_order_relaxed);
    s.lat_ticks.Reset();
    s.lat_ns.Reset();
  }
  std::lock_guard<std::mutex> lk(exemplar_mu_);
  for (const std::unique_ptr<ExemplarShard>& shard : exemplar_shards_) {
    for (std::unique_ptr<SysnoExemplars>& res : shard->per_sysno) {
      res.reset();
    }
  }
}

std::string SyscallGate::FormatTrace() const {
  return tracer_ != nullptr ? tracer_->Format() : std::string();
}

void SyscallGate::CollectMetrics(MetricsBuilder& b) const {
  for (Sysno nr : AllSysnos()) {
    const PerSyscall& s = stats_[static_cast<size_t>(nr)];
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
    // The tick histogram carries the tail exemplars: each kept slowest-call
    // record renders on the bucket line its duration falls into, with span
    // and pid labels for cross-referencing the trace.
    std::vector<MetricExemplar> exemplars;
    for (const ExemplarRecord& ex : ExemplarsFor(nr)) {
      exemplars.push_back(MetricExemplar{
          {{"span", StrFormat("%llu", (unsigned long long)ex.span)},
           {"pid", StrFormat("%d", ex.pid)}},
          ex.dur_ticks});
    }
    b.HistoEx("protego_syscall_latency_ticks",
              "Per-syscall latency in virtual clock ticks", labels, s.lat_ticks,
              std::move(exemplars));
    if (s.lat_ns.count() > 0) {
      b.Histo("protego_syscall_latency_ns",
              "Per-syscall wall-clock latency in nanoseconds (profiling runs)", labels,
              s.lat_ns);
    }
  }
}

}  // namespace protego
