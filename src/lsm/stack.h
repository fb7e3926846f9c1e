// Ordered composition of security modules, mirroring how Linux stacks the
// capability module ahead of the loaded LSM. The stack is what the kernel's
// syscall layer consults; swapping the stack is how the benchmarks compare
// "Linux + AppArmor" against "Linux + AppArmor + Protego".
//
// Every hook decides one way: each call walks the modules in order and
// combines their verdicts. The eight public hooks differ only in which
// module method they call; Dispatch() does the rest (count, time, fail
// closed on an injected fault, walk, trace).
//
// Observability (DESIGN.md §8): with a Tracer attached, every dispatch
// emits one kLsmHook event per consulted module (module name + verdict) and
// one kLsmDecision event for the combined verdict, all stamped with the
// calling syscall's decision span. Per-hook invocation counts, latency
// histograms, and per-module verdict tallies are reported via
// CollectMetrics().

#ifndef SRC_LSM_STACK_H_
#define SRC_LSM_STACK_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "src/base/attribution.h"
#include "src/base/clock.h"
#include "src/base/metrics.h"
#include "src/base/tracepoint.h"
#include "src/fault/fault.h"
#include "src/lsm/module.h"

namespace protego {

// Hook identities for per-hook invocation accounting.
enum class LsmHook : uint8_t {
  kInodePermission = 0,
  kSbMount,
  kSbUmount,
  kSocketCreate,
  kSocketBind,
  kTaskFixSetuid,
  kBprmCheck,
  kFileIoctl,
  kCount,  // sentinel
};

// "inode_permission", "sb_mount", ... — the hook's kernel-style name.
const char* LsmHookName(LsmHook hook);

class LsmStack {
 public:
  // Appends a module; earlier modules are consulted first.
  void Register(std::unique_ptr<SecurityModule> module);

  // Module by name, or nullptr. Used by /proc plumbing and tests.
  SecurityModule* Find(const char* name);

  // AND over modules: every module must permit the capability.
  bool Capable(const Task& task, Capability cap) const;

  // Combine per-hook verdicts: kDeny wins, then kAllow, then kDefault.
  HookVerdict InodePermission(Task& task, const std::string& path, const Inode& inode,
                              int may) const;
  HookVerdict SbMount(const Task& task, const MountRequest& req) const;
  HookVerdict SbUmount(const Task& task, const std::string& mountpoint) const;
  HookVerdict SocketCreate(const Task& task, const SocketRequest& req) const;
  HookVerdict SocketBind(const Task& task, const BindRequest& req) const;
  HookVerdict TaskFixSetuid(Task& task, const SetuidRequest& req,
                            SetuidDisposition* disposition) const;
  HookVerdict BprmCheck(Task& task, const std::string& path, const Inode& inode,
                        const std::vector<std::string>& argv, ExecControl* control) const;
  HookVerdict FileIoctl(const Task& task, const IoctlRequest& req) const;

  size_t size() const { return modules_.size(); }

  // Times the stack was consulted for `hook` since boot. Lets the syscall
  // gate tests prove seccomp denials short-circuit BEFORE any LSM work.
  uint64_t HookInvocations(LsmHook hook) const {
    return hook_counts_[static_cast<size_t>(hook)].load(std::memory_order_relaxed);
  }
  uint64_t TotalHookInvocations() const;

  // --- Observability ----------------------------------------------------------

  // Attaches the kernel-wide tracer (hook/decision events) and the virtual
  // clock (per-hook latency histograms). The Kernel wires this at boot.
  void AttachObservability(Tracer* tracer, const Clock* clock) {
    tracer_ = tracer;
    clock_ = clock;
  }

  // Attaches the per-layer latency profiler: each dispatch runs under an
  // `lsm` frame.
  void set_profiler(LayerProfiler* profiler) { profiler_ = profiler; }

  // Attaches the fault-injection registry. A fault injected at the kLsmHook
  // site makes the dispatch fail CLOSED — the combined verdict is kDeny, no
  // module is consulted, and the denial is counted in
  // fail_closed_denials(). Availability is sacrificed for safety: a hook
  // that cannot decide must refuse (the paper's core safety claim).
  void set_faults(FaultRegistry* faults) { faults_ = faults; }

  // Dispatches denied because a fault was injected at the hook site.
  uint64_t fail_closed_denials() const {
    return fail_closed_.load(std::memory_order_relaxed);
  }

  // Per-hook latency distribution in virtual clock ticks.
  const Histogram& HookLatency(LsmHook hook) const {
    return hook_lat_[static_cast<size_t>(hook)];
  }

  // Combined verdicts module `i` returned, indexed by HookVerdict value.
  uint64_t ModuleVerdicts(size_t module_index, HookVerdict v) const {
    return module_verdicts_[module_index][static_cast<size_t>(v)].load(
        std::memory_order_relaxed);
  }

  // Reports hook invocation counters, latency histograms, per-module
  // verdict tallies (protego_lsm_* families), and the policy generation.
  void CollectMetrics(MetricsBuilder& b) const;

  // Monotonic counter bumped on every successful policy swap; starts at 1.
  // Exported in /proc/protego/status and as a metrics gauge, and checked by
  // the swap-rollback tests (a failed swap must leave it unchanged).
  uint64_t policy_generation() const {
    return policy_generation_.load(std::memory_order_acquire);
  }
  void BumpPolicyGeneration() {
    policy_generation_.fetch_add(1, std::memory_order_release);
  }

 private:
  static HookVerdict Combine(HookVerdict acc, HookVerdict v);

  // The one dispatch path: counts and times the consultation, fails closed
  // on an injected fault, then calls `call(module)` on each module in
  // order, tallying and tracing each verdict, and traces the combination.
  template <typename Call>
  HookVerdict Dispatch(LsmHook hook, int pid, Call&& call) const;

  // The fail-closed gate every dispatch runs after counting: true when a
  // fault fired for `hook`, in which case the caller must return kDeny
  // immediately (the denial has been counted and traced).
  bool FaultDeny(LsmHook hook, int pid) const;

  // Emits the per-module kLsmHook event (no-op when the point is off).
  void TraceModule(LsmHook hook, const SecurityModule& module, HookVerdict v,
                   int pid) const;
  // Emits the combined kLsmDecision event.
  void TraceDecision(LsmHook hook, HookVerdict combined, int pid) const;

  std::vector<std::unique_ptr<SecurityModule>> modules_;
  // mutable: accounting from the const hook methods. All counters are
  // relaxed atomics — parallel-mode tasks dispatch hooks concurrently.
  mutable std::atomic<uint64_t> hook_counts_[static_cast<size_t>(LsmHook::kCount)] = {};
  mutable Histogram hook_lat_[static_cast<size_t>(LsmHook::kCount)];
  // Per-module verdict tallies, indexed [module][verdict]. A deque because
  // arrays of atomics are pinned in place (no relocation on growth).
  mutable std::deque<std::array<std::atomic<uint64_t>, 3>> module_verdicts_;

  Tracer* tracer_ = nullptr;
  const Clock* clock_ = nullptr;
  LayerProfiler* profiler_ = nullptr;
  FaultRegistry* faults_ = nullptr;
  mutable std::atomic<uint64_t> fail_closed_{0};  // fault-injected dispatches denied

  std::atomic<uint64_t> policy_generation_{1};
};

}  // namespace protego

#endif  // SRC_LSM_STACK_H_
