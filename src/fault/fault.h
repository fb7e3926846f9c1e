// Deterministic fault injection, modeled on Linux's CONFIG_FAULT_INJECTION
// (failslab / fail_page_alloc / fail_make_request).
//
// A FaultRegistry holds one slot per named fault *site* — a choke point in
// the kernel where an operation can be made to fail with a configured errno:
// VFS vnode allocation, VFS block allocation, fd-table slot allocation,
// syscall-gate entry, LSM hook dispatch, netfilter chain evaluation, policy
// table compilation, and the auth-service round trip. Instrumented code asks
// `Evaluate(site)` at the choke point; when the site's filters match and its
// probability/interval/times gates fire, the call returns the configured
// errno and the caller fails exactly as if the real resource had run out.
//
// Determinism is the whole point: probability decisions come from a per-site
// seeded splitmix64 stream (src/base/hash.h, the generator every seeded
// component draws from), interval/times counters are exact, and no
// wall-clock or global randomness is consulted. A recorded {seed,
// site-config} tuple replays to the identical injection sequence — under the
// deterministic scheduler, to the identical system state. Every injection is
// stamped into the decision trace via the kFaultInject tracepoint, so
// /proc/protego/trace shows *why* a syscall failed.
//
// Hot-path discipline: when no site is enabled, Evaluate() is one counter
// load and one branch (`enabled_count_ == 0`), so the disabled-site overhead
// on the syscall path is ≈ 0. When sites ARE armed, an evaluation reads the
// site's own `armed` flag first: a site that is not armed, or whose pid/sysno
// filter misses the running call (its CallFrame, src/base/call_frame.h),
// declines there without touching the site's shared counters (see
// bench/fault_bench).

#ifndef SRC_FAULT_FAULT_H_
#define SRC_FAULT_FAULT_H_

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "src/base/attribution.h"
#include "src/base/metrics.h"
#include "src/base/result.h"
#include "src/base/tracepoint.h"

namespace protego {

// The static inventory of fault sites. Adding a site means adding an id
// here, a name in fault.cc, and an Evaluate() call at the choke point.
enum class FaultSite : uint8_t {
  kVfsVnodeAlloc = 0,  // Vfs::LinkAt — vnode/inode allocation (ENOMEM)
  kVfsBlockAlloc,      // Vfs::WriteNode — data block allocation (ENOSPC)
  kFdAlloc,            // FdTable slot allocation (EMFILE/ENFILE)
  kSyscallEntry,       // SyscallGate::Run, before the syscall body
  kLsmHook,            // LsmStack dispatch — hooks fail CLOSED (deny)
  kNetfilterEval,      // Netfilter::Evaluate — chains fail CLOSED (drop)
  kPolicyCompile,      // PolicyEngine build during a /proc/protego swap
  kAuthRoundTrip,      // auth-service credential check round trip
  kCount,              // sentinel
};

inline constexpr size_t kFaultSiteCount = static_cast<size_t>(FaultSite::kCount);

const char* FaultSiteName(FaultSite site);
std::optional<FaultSite> FaultSiteFromName(std::string_view name);

// One site's configuration, set via /proc/protego/fault_inject. All gates
// are ANDed: an evaluation injects only if the pid/sysno/hook filters match,
// the times budget is not exhausted, the interval counter fires, and the
// probability draw succeeds.
struct FaultConfig {
  bool enabled = false;
  Errno error = Errno::kEIO;  // errno returned on injection
  // Inject with probability prob_num/prob_den (seeded splitmix64 draw).
  // Defaults to 1/1 = always.
  uint64_t prob_num = 1;
  uint64_t prob_den = 1;
  uint64_t interval = 1;  // inject on every Nth *matching* evaluation
  uint64_t times = 0;     // stop after N injections (0 = unlimited)
  int pid = -1;           // only this pid (-1 = any)
  int sysno = -1;         // only within this syscall (-1 = any)
  int hook = -1;          // only this LSM hook (kLsmHook site; -1 = any)
  uint64_t seed = 1;      // splitmix64 stream seed (recorded for replay)
};

// Evaluations of an armed registry inside a timed call run under a
// `fault_registry` attribution scope (the disabled fast path stays
// scope-free).
class FaultRegistry {
 public:
  FaultRegistry() = default;
  FaultRegistry(const FaultRegistry&) = delete;
  FaultRegistry& operator=(const FaultRegistry&) = delete;

  // Injections are stamped into the kernel-wide decision trace.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  // --- Configuration (the /proc/protego/fault_inject write side) ----------

  // Installs `config` for `site`, resetting the site's counters and seeding
  // its splitmix64 stream from config.seed. EINVAL on a zero denominator,
  // num > den, or a zero interval.
  Result<Unit> Configure(FaultSite site, const FaultConfig& config);

  // Disables one site (its counters are kept for post-mortem reads).
  void Disable(FaultSite site);

  // Disables every site and zeroes all counters.
  void Reset();

  const FaultConfig& config(FaultSite site) const {
    return sites_[static_cast<size_t>(site)].config;
  }

  // --- Hot path -------------------------------------------------------------

  // True iff at least one site is enabled; the guard instrumented code
  // tests before doing any per-site work.
  bool any_enabled() const { return enabled_count_ != 0; }

  // Evaluates `site` against the call running on this thread (its
  // CallFrame: pid and syscall; none = pid 0, no syscall). Returns kOk (no
  // fault) or the configured errno, in which case the injection has been
  // counted and traced. `hook` is the LSM hook id for kLsmHook evaluations.
  Errno Evaluate(FaultSite site, int hook = -1);

  // Result-shaped convenience: Error(errno, "fault-injected at <what>") on
  // injection, OkUnit() otherwise.
  Result<Unit> Check(FaultSite site, const char* what, int hook = -1);

  // --- Read side ------------------------------------------------------------

  // Evaluations that reached the site while it was enabled AND its
  // pid/sysno filters matched the running call (filter-excluded calls return
  // at the armed test without touching the site's counters).
  uint64_t evaluations(FaultSite site) const {
    return sites_[static_cast<size_t>(site)].evaluations;
  }
  uint64_t injected(FaultSite site) const {
    return sites_[static_cast<size_t>(site)].injected;
  }
  uint64_t total_injected() const;

  // The /proc/protego/fault_inject body: one re-writable directive line per
  // enabled site (the recorded {seed, site-config} tuple), followed by
  // per-site counter comments.
  std::string Format() const;

  // protego_fault_{evaluations,injections}_total{site=...} counters.
  void CollectMetrics(MetricsBuilder& mb) const;

 private:
  // Counters and the rng stream are relaxed atomics: parallel-mode tasks
  // cross armed sites concurrently. The interval/times/probability gates
  // stay exact under DetScheduler (fetch_adds serialize with the token) and
  // are reserved via CAS in parallel mode so a `times` budget never
  // over-delivers.
  struct SiteState {
    FaultConfig config;
    // config.enabled, stored with release after `config` is written;
    // Evaluate() loads it with acquire before it reads `config`.
    std::atomic<bool> armed{false};
    std::atomic<uint64_t> evaluations{0};  // passed the armed test (see above)
    std::atomic<uint64_t> matched{0};      // ...and passed the hook filter too
    std::atomic<uint64_t> injected{0};     // faults actually delivered
    std::atomic<uint64_t> rng{0};          // splitmix64 state, seeded at Configure()
  };

  Tracer* tracer_ = nullptr;
  std::atomic<size_t> enabled_count_{0};
  SiteState sites_[kFaultSiteCount];
};

}  // namespace protego

#endif  // SRC_FAULT_FAULT_H_
