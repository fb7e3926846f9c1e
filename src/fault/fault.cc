#include "src/fault/fault.h"

#include "src/base/call_frame.h"
#include "src/base/strings.h"

namespace protego {

namespace {

// Same generator as the deterministic scheduler's kRandom mode: replaying a
// recorded seed reproduces the identical draw sequence. The state advance is
// a single atomic fetch_add (splitmix64's whole point: the stream position
// is just state + n*gamma), so concurrent draws each get a distinct,
// deterministic position.
uint64_t SplitMix64(std::atomic<uint64_t>* state) {
  uint64_t z = state->fetch_add(0x9e3779b97f4a7c15ULL, std::memory_order_relaxed) +
               0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Process-unique registry ids: a TlsArm cached for a destroyed registry can
// never validate against a new registry allocated at the same address.
std::atomic<uint32_t> g_next_registry_id{1};

}  // namespace

thread_local FaultRegistry::TlsArm FaultRegistry::tls_arm_;

FaultRegistry::FaultRegistry()
    : id_(g_next_registry_id.fetch_add(1, std::memory_order_relaxed)) {}

void FaultRegistry::InvalidateArmMasks() {
  // Release pairs with the acquire in ArmKey(): a thread that sees the new
  // generation recomputes from the new configuration.
  arm_gen_.fetch_add(1, std::memory_order_release);
  tls_arm_.key = 0;  // this thread re-derives immediately
}

void FaultRegistry::RecomputeArmMask() {
  // Snapshot the key BEFORE reading configs: if a concurrent Configure()
  // bumps the generation mid-recompute, we store the pre-bump key with a
  // possibly mixed mask, the next Evaluate() sees a mismatch, and the work
  // is redone against the settled configuration.
  const uint64_t key = ArmKey();
  uint32_t mask = 0;
  uint32_t ctx_mask = 0;
  for (size_t i = 0; i < kFaultSiteCount; ++i) {
    const FaultConfig& c = sites_[i].config;
    if (!c.enabled) {
      continue;
    }
    if (c.pid >= 0 || c.sysno >= 0) {
      ctx_mask |= 1u << i;  // armed, but gated on the running call
    } else {
      mask |= 1u << i;
    }
  }
  tls_arm_.mask = mask;
  tls_arm_.ctx_mask = ctx_mask;
  tls_arm_.key = key;
}

const char* FaultSiteName(FaultSite site) {
  switch (site) {
    case FaultSite::kVfsVnodeAlloc: return "vfs_vnode_alloc";
    case FaultSite::kVfsBlockAlloc: return "vfs_block_alloc";
    case FaultSite::kFdAlloc: return "fd_alloc";
    case FaultSite::kSyscallEntry: return "syscall_entry";
    case FaultSite::kLsmHook: return "lsm_hook";
    case FaultSite::kNetfilterEval: return "netfilter_eval";
    case FaultSite::kPolicyCompile: return "policy_compile";
    case FaultSite::kAuthRoundTrip: return "auth_round_trip";
    case FaultSite::kCount: break;
  }
  return "?";
}

std::optional<FaultSite> FaultSiteFromName(std::string_view name) {
  for (size_t i = 0; i < kFaultSiteCount; ++i) {
    FaultSite site = static_cast<FaultSite>(i);
    if (name == FaultSiteName(site)) {
      return site;
    }
  }
  return std::nullopt;
}

Result<Unit> FaultRegistry::Configure(FaultSite site, const FaultConfig& config) {
  if (config.prob_den == 0 || config.prob_num > config.prob_den) {
    return Error(Errno::kEINVAL, "fault probability must be num/den with num <= den");
  }
  if (config.interval == 0) {
    return Error(Errno::kEINVAL, "fault interval must be >= 1");
  }
  if (config.error == Errno::kOk) {
    return Error(Errno::kEINVAL, "fault error must be a nonzero errno");
  }
  SiteState& st = sites_[static_cast<size_t>(site)];
  if (st.config.enabled && !config.enabled) {
    enabled_count_.fetch_sub(1, std::memory_order_relaxed);
  } else if (!st.config.enabled && config.enabled) {
    enabled_count_.fetch_add(1, std::memory_order_relaxed);
  }
  st.config = config;
  st.evaluations.store(0, std::memory_order_relaxed);
  st.matched.store(0, std::memory_order_relaxed);
  st.injected.store(0, std::memory_order_relaxed);
  st.rng.store(config.seed, std::memory_order_relaxed);
  InvalidateArmMasks();
  return OkUnit();
}

void FaultRegistry::Disable(FaultSite site) {
  SiteState& st = sites_[static_cast<size_t>(site)];
  if (st.config.enabled) {
    st.config.enabled = false;
    enabled_count_.fetch_sub(1, std::memory_order_relaxed);
    InvalidateArmMasks();
  }
}

void FaultRegistry::Reset() {
  for (SiteState& st : sites_) {
    st.config = FaultConfig{};
    st.evaluations.store(0, std::memory_order_relaxed);
    st.matched.store(0, std::memory_order_relaxed);
    st.injected.store(0, std::memory_order_relaxed);
    st.rng.store(0, std::memory_order_relaxed);
  }
  enabled_count_.store(0, std::memory_order_relaxed);
  InvalidateArmMasks();
}

Errno FaultRegistry::Evaluate(FaultSite site, int hook) {
  if (enabled_count_ == 0) {
    return Errno::kOk;  // the only cost with injection off: one load+branch
  }
  // Attribution starts after the disabled fast path so a registry with no
  // enabled sites keeps paying exactly one load+branch.
  LayerScope fault_scope(profiler_, Layer::kFaultRegistry);
  // Armed registry: one thread-local mask test decides whether this site can
  // inject. Sites that are not enabled return here without touching the
  // (shared, contended) site state; armed sites carrying a pid/sysno filter
  // re-check the running call and likewise decline untallied on a miss.
  if (tls_arm_.key != ArmKey()) {
    RecomputeArmMask();
  }
  const uint32_t bit = 1u << static_cast<size_t>(site);
  SiteState& st = sites_[static_cast<size_t>(site)];
  const FaultConfig& c = st.config;
  const CallFrame* frame = CallFrame::Current();
  const int pid = frame != nullptr ? frame->pid : 0;
  const int sysno = frame != nullptr ? frame->sysno : -1;
  if ((tls_arm_.mask & bit) == 0) {
    if ((tls_arm_.ctx_mask & bit) == 0) {
      return Errno::kOk;
    }
    if (c.pid >= 0 && pid != c.pid) {
      return Errno::kOk;
    }
    if (c.sysno >= 0 && sysno != c.sysno) {
      return Errno::kOk;
    }
  }
  const uint64_t eval_seq =
      st.evaluations.fetch_add(1, std::memory_order_relaxed) + 1;
  uint64_t match_seq = eval_seq;
  if (c.hook >= 0) {
    // The hook id is per-call (not per-context), so it cannot be folded
    // into the mask; sites without a hook filter skip the `matched` counter
    // entirely (it would always equal `evaluations`).
    if (hook != c.hook) {
      return Errno::kOk;
    }
    match_seq = st.matched.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  if (c.times != 0 && st.injected.load(std::memory_order_relaxed) >= c.times) {
    return Errno::kOk;
  }
  if (c.interval > 1 && match_seq % c.interval != 0) {
    return Errno::kOk;
  }
  if (c.prob_num < c.prob_den) {
    if (SplitMix64(&st.rng) % c.prob_den >= c.prob_num) {
      return Errno::kOk;
    }
  }
  uint64_t delivered;
  if (c.times != 0) {
    // Reserve a budget slot: concurrent winners CAS so the site delivers
    // exactly `times` faults, never more.
    uint64_t cur = st.injected.load(std::memory_order_relaxed);
    do {
      if (cur >= c.times) {
        return Errno::kOk;
      }
    } while (!st.injected.compare_exchange_weak(cur, cur + 1,
                                                std::memory_order_relaxed));
    delivered = cur + 1;
  } else {
    delivered = st.injected.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  if (tracer_ != nullptr && tracer_->ShouldEmit(TracepointId::kFaultInject)) {
    TraceSlot ev = tracer_->Emit(TracepointId::kFaultInject, pid);
    ev->sname = FaultSiteName(site);
    ev->sdetail = ErrnoName(c.error);
    ev->code = static_cast<int>(c.error);
    ev->flags = kTraceFlagDenied;
    ev->a = delivered;
  }
  return c.error;
}

Result<Unit> FaultRegistry::Check(FaultSite site, const char* what, int hook) {
  Errno e = Evaluate(site, hook);
  if (e == Errno::kOk) {
    return OkUnit();
  }
  return Error(e, StrFormat("fault-injected at %s", what));
}

uint64_t FaultRegistry::total_injected() const {
  uint64_t total = 0;
  for (const SiteState& st : sites_) {
    total += st.injected;
  }
  return total;
}

std::string FaultRegistry::Format() const {
  std::string out;
  for (size_t i = 0; i < kFaultSiteCount; ++i) {
    const SiteState& st = sites_[i];
    const FaultConfig& c = st.config;
    if (!c.enabled) {
      continue;
    }
    out += StrFormat("site=%s error=%s prob=%llu/%llu interval=%llu times=%llu seed=%llu",
                     FaultSiteName(static_cast<FaultSite>(i)), ErrnoName(c.error),
                     (unsigned long long)c.prob_num, (unsigned long long)c.prob_den,
                     (unsigned long long)c.interval, (unsigned long long)c.times,
                     (unsigned long long)c.seed);
    if (c.pid >= 0) {
      out += StrFormat(" pid=%d", c.pid);
    }
    if (c.sysno >= 0) {
      out += StrFormat(" sysno=%d", c.sysno);
    }
    if (c.hook >= 0) {
      out += StrFormat(" hook=%d", c.hook);
    }
    out += "\n";
  }
  for (size_t i = 0; i < kFaultSiteCount; ++i) {
    const SiteState& st = sites_[i];
    if (st.evaluations == 0 && st.injected == 0) {
      continue;
    }
    // Sites without a hook filter don't maintain `matched` (it always
    // equals `evaluations`); reconstruct it for the report.
    const uint64_t matched =
        st.config.hook >= 0 ? st.matched.load() : st.evaluations.load();
    out += StrFormat("# %s: evaluations=%llu matched=%llu injected=%llu\n",
                     FaultSiteName(static_cast<FaultSite>(i)),
                     (unsigned long long)st.evaluations, (unsigned long long)matched,
                     (unsigned long long)st.injected);
  }
  if (out.empty()) {
    out = "# no fault sites enabled\n";
  }
  return out;
}

void FaultRegistry::CollectMetrics(MetricsBuilder& mb) const {
  for (size_t i = 0; i < kFaultSiteCount; ++i) {
    const SiteState& st = sites_[i];
    const std::string site = FaultSiteName(static_cast<FaultSite>(i));
    mb.Counter("protego_fault_evaluations_total",
               "Fault-site evaluations while the site was enabled",
               {{"site", site}}, st.evaluations);
    mb.Counter("protego_fault_injections_total", "Faults actually injected",
               {{"site", site}}, st.injected);
  }
}

}  // namespace protego
