#include "src/fault/fault.h"

#include "src/base/call_frame.h"
#include "src/base/hash.h"
#include "src/base/strings.h"

namespace protego {

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
  st.armed.store(config.enabled, std::memory_order_release);
  return OkUnit();
}

void FaultRegistry::Disable(FaultSite site) {
  SiteState& st = sites_[static_cast<size_t>(site)];
  if (st.config.enabled) {
    st.config.enabled = false;
    st.armed.store(false, std::memory_order_release);
    enabled_count_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void FaultRegistry::Reset() {
  for (SiteState& st : sites_) {
    st.config = FaultConfig{};
    st.evaluations.store(0, std::memory_order_relaxed);
    st.matched.store(0, std::memory_order_relaxed);
    st.injected.store(0, std::memory_order_relaxed);
    st.rng.store(0, std::memory_order_relaxed);
    st.armed.store(false, std::memory_order_release);
  }
  enabled_count_.store(0, std::memory_order_relaxed);
}

Errno FaultRegistry::Evaluate(FaultSite site, int hook) {
  if (enabled_count_ == 0) {
    return Errno::kOk;  // the only cost with injection off: one load+branch
  }
  // Attribution starts after the disabled fast path so a registry with no
  // enabled sites keeps paying exactly one load+branch.
  LayerScope fault_scope(Layer::kFaultRegistry);
  // A site that is not armed, or whose pid/sysno filter misses the running
  // call, declines here without touching its (shared, contended) counters.
  SiteState& st = sites_[static_cast<size_t>(site)];
  if (!st.armed.load(std::memory_order_acquire)) {
    return Errno::kOk;
  }
  const FaultConfig& c = st.config;
  const CallFrame* frame = CallFrame::Current();
  const int pid = frame != nullptr ? frame->pid : 0;
  const int sysno = frame != nullptr ? frame->sysno : -1;
  if ((c.pid >= 0 && pid != c.pid) || (c.sysno >= 0 && sysno != c.sysno)) {
    return Errno::kOk;
  }
  const uint64_t eval_seq =
      st.evaluations.fetch_add(1, std::memory_order_relaxed) + 1;
  uint64_t match_seq = eval_seq;
  if (c.hook >= 0) {
    // The hook id is per-call, so a hook miss still counts as an
    // evaluation; sites without a hook filter skip the `matched` counter
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
    // The stream position is just state + n*gamma, so one fetch_add gives
    // each concurrent draw a distinct, deterministic position.
    const uint64_t state =
        st.rng.fetch_add(kSplitMix64Gamma, std::memory_order_relaxed) + kSplitMix64Gamma;
    if (SplitMix64Mix(state) % c.prob_den >= c.prob_num) {
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
