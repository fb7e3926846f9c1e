// The unified syscall entry path.
//
// Every public Kernel syscall routes through a single SyscallGate, mirroring
// Linux's syscall entry: a dispatch-table identity (Sysno, the Linux x86-64
// numbers), a per-call SyscallContext, and an EnterSyscall()/ExitSyscall()
// pair around the body. The gate is where cross-cutting policy and
// observability live, in this order:
//
//   1. seccomp-style filtering — a per-task filter, consulted BEFORE any
//      DAC or LSM work (as on Linux, where seccomp runs at syscall entry,
//      ahead of the security hooks). A filter is an allow bitset over
//      syscall numbers, optionally refined by per-syscall ARGUMENT RULES:
//      each rule is a conjunction of libseccomp-style predicates
//      (EQ/NE/LT/GE/MASKED_EQ on args 0-2, plus a pre-resolved path-class
//      comparison driven by a per-filter prefix table), and a syscall with
//      rules is allowed iff ANY rule matches. The number-only bitset test
//      stays the hot path; rule evaluation only runs for syscalls that
//      actually carry rules. Installation is a one-way latch: filters can
//      only ever be narrowed, never widened or removed — intersecting two
//      predicate filters conjoins their rule lists (cross product), so the
//      result admits only calls both filters admitted.
//   2. accounting — per-syscall hit/error counters and log2-bucket latency
//      histograms (exported at /proc/protego/metrics).
//   3. tracing — each call opens a decision span on the kernel-wide Tracer;
//      LSM/VFS/netfilter events emitted during the body are stamped with the
//      span id, and the syscall's own record (the span root) is emitted at
//      exit. /proc/protego/trace renders the resulting derivation trees.
//
// Seccomp-killed calls (the filter refuses the syscall at entry) follow ONE
// consistent semantic everywhere:
//   - stats: counted in calls, errors, and seccomp_denied;
//   - trace: recorded as a span root with the seccomp_denied flag and EPERM;
//   - latency: EXCLUDED from the histograms — the body never ran, so
//     a duration would be meaningless and would skew the distributions.
// So for any syscall: lat_ticks.count() == calls - seccomp_denied.
//
// The gate is deliberately cheap: counters are flat arrays indexed by
// syscall number, trace slots are preallocated and reused, and argument
// strings are only materialized when the syscall tracepoint is enabled.
//
// Per-syscall dispatch: instead of re-deriving "is tracing on? is this
// syscall in the traced set? is timing on?" from scattered flags on every
// call, the gate folds the whole observability configuration into one
// uint8_t dispatch word per syscall number (dispatch_[nr]), rebuilt lazily
// whenever the tracer's config generation or the gate's own local
// generation moves. The hot path then pays TWO relaxed generation loads
// plus ONE indexed byte load to learn everything it needs:
//
//   kDispatchTrace    — emit a span root for this call (set only when the
//                       master switch, the kSyscall point, AND the
//                       per-syscall traced bitset all agree);
//   kDispatchSampled  — tracing is head-sampled (rate > 1): draw from the
//                       per-thread seeded stream once at entry and, on a
//                       "drop" draw, clear kDispatchTrace before any span
//                       or argument work happens;
//   kDispatchTimed    — take the two monotonic clock reads (wallclock
//                       timing on AND this syscall in the timed bitset);
//   kDispatchExemplar — feed the tail-exemplar reservoir. Deliberately
//                       NOT affected by sampling: the reservoir's whole
//                       point is that the K slowest calls per syscall stay
//                       explainable even when head sampling dropped their
//                       trace.

#ifndef SRC_KERNEL_SYSCALL_H_
#define SRC_KERNEL_SYSCALL_H_

#include <atomic>
#include <bitset>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "src/base/attribution.h"
#include "src/base/clock.h"
#include "src/base/metrics.h"
#include "src/base/result.h"
#include "src/base/tracepoint.h"
#include "src/fault/fault.h"
#include "src/kernel/sched_iface.h"

namespace protego {

struct Task;
class MetricsBuilder;

// Syscall numbers, with Linux x86-64 values so traces read like strace.
// kClone stands in for the fork+execve+waitpid composite (Kernel::Spawn).
enum class Sysno : uint16_t {
  kRead = 0,
  kWrite = 1,
  kOpen = 2,
  kClose = 3,
  kStat = 4,
  kIoctl = 16,
  kAccess = 21,
  kGetPid = 39,
  kSocket = 41,
  kConnect = 42,
  kSendTo = 44,
  kRecvFrom = 45,
  kBind = 49,
  kListen = 50,
  kClone = 56,
  kExecve = 59,
  kWait4 = 61,  // Kernel::WaitPid (collect an async child's exit status)
  kFlock = 73,
  kGetDents = 78,
  kRename = 82,
  kMkdir = 83,
  kUnlink = 87,
  kSymlink = 88,
  kChmod = 90,
  kChown = 92,
  kGetRlimit = 97,
  kSetuid = 105,
  kSetgid = 106,
  kSetreuid = 113,  // Kernel::Seteuid (glibc implements seteuid via setreuid)
  kSetgroups = 116,
  kSetRlimit = 160,
  kMount = 165,
  kUmount2 = 166,
  kUnshare = 272,
  kSeccomp = 317,
};

// Dispatch-table width: one slot per possible syscall number.
inline constexpr size_t kSysnoSlots = 320;

// "open", "mount", ... — the strace-style name.
const char* SysnoName(Sysno nr);

// Reverse lookup for filter text and /proc command grammars.
std::optional<Sysno> SysnoFromName(std::string_view name);

// Every syscall number the gate dispatches, ascending (for serialization).
const std::vector<Sysno>& AllSysnos();

// Comparison operators for one argument predicate, mirroring libseccomp's
// SCMP_CMP_* set (SNIPPETS §1: SCMP_A0(SCMP_CMP_EQ, 3)).
enum class SeccompCmp : uint8_t {
  kEq,        // arg == value
  kNe,        // arg != value
  kLt,        // arg <  value
  kGe,        // arg >= value
  kMaskedEq,  // (arg & mask) == value
};

const char* SeccompCmpName(SeccompCmp cmp);

// The virtual argument slot holding the pre-resolved path class: the
// syscall's primary path argument mapped through the filter's prefix table
// (longest match wins; 0 = no prefix matched). Path-class predicates must
// use kEq — equality survives filter intersection (a merged prefix table
// can only steal matches, never create them), the other comparators would
// not.
inline constexpr uint8_t kSeccompArgPath = 3;

// One predicate over one argument slot.
struct SeccompPredicate {
  uint8_t arg = 0;  // 0..2 = raw args; kSeccompArgPath = path class
  SeccompCmp cmp = SeccompCmp::kEq;
  uint64_t value = 0;
  uint64_t mask = 0;  // kMaskedEq only

  bool operator==(const SeccompPredicate& o) const {
    return arg == o.arg && cmp == o.cmp && value == o.value && mask == o.mask;
  }
};

// A conjunction of predicates: the rule matches when every predicate holds.
// A syscall's rule list is a disjunction — any matching rule allows the call.
struct SeccompRule {
  std::vector<SeccompPredicate> preds;

  bool operator==(const SeccompRule& o) const { return preds == o.preds; }
};

// The raw argument view of one syscall, threaded from the Kernel wrappers
// through the gate so predicate filters (and the synthesis recorder) see
// the call the way strace would. All pointers borrow from the caller's
// frame and are only dereferenced on slow paths (rule evaluation against a
// path class, trace recording).
struct SyscallArgs {
  uint64_t a[3] = {0, 0, 0};
  const std::string* path = nullptr;  // primary path argument (possibly relative)
  const std::string* cwd = nullptr;   // resolution base for a relative path
  const std::string* str1 = nullptr;  // secondary string (mount source, rename dest, ...)
  const std::string* str2 = nullptr;  // tertiary string (mount fstype)
  const std::vector<std::string>* list = nullptr;  // argv / mount options
};

// A per-task seccomp-style filter: an allow bitset over syscall numbers,
// optionally refined with per-syscall argument rules. Tasks start with no
// filter (everything allowed); Kernel::SeccompSetFilter installs one, and
// reinstallation intersects with the existing filter so privilege can only
// ever shrink (the prctl-style one-way latch).
class SeccompFilter {
 public:
  // Conservative ceiling on the per-syscall rule list after intersection:
  // if the cross product of two rule lists exceeds this, the syscall is
  // denied outright (clearing the bit tightens, never widens).
  static constexpr size_t kMaxRulesPerSysno = 64;

  // The installable description of a filter. `rules` maps syscall number to
  // its OR-of-AND rule list; `path_classes` maps path prefixes to the class
  // ids path predicates compare against.
  struct Spec {
    std::bitset<kSysnoSlots> allowed;
    std::map<uint16_t, std::vector<SeccompRule>> rules;
    std::vector<std::pair<std::string, uint64_t>> path_classes;
  };

  SeccompFilter() = default;

  static SeccompFilter AllowList(const std::vector<Sysno>& allowed);

  // Validates and builds: rule sysnos must be allowed and in range, arg
  // indices 0..2 or kSeccompArgPath, path-class predicates kEq-only with a
  // class id present in `path_classes`, class ids nonzero and unique.
  static Result<SeccompFilter> FromSpec(const Spec& spec);

  // Parses the re-installable text rendering (see Render). Grammar:
  //   class <id> <prefix>
  //   allow <syscall>
  //   allow <syscall> if <pred> [&& <pred>]...
  //   <pred> := arg0|arg1|arg2|path eq|ne|lt|ge <uint>
  //           | arg0|arg1|arg2 masked_eq <mask> <value>
  // '#' starts a comment; values accept decimal or 0x-hex.
  static Result<Spec> ParseSpec(std::string_view text);

  // Number-only check (ignores argument rules): is the syscall admissible
  // for at least some arguments?
  bool Allows(Sysno nr) const { return allowed_[static_cast<size_t>(nr)]; }

  // Full check. For syscalls without rules this is the same single bitset
  // test as Allows(nr); otherwise evaluates the rule list and adds the
  // number of rules inspected to *rule_evals.
  bool AllowsArgs(Sysno nr, const SyscallArgs& args, uint32_t* rule_evals) const {
    size_t i = static_cast<size_t>(nr);
    if (!allowed_[i]) {
      return false;
    }
    if (!has_rules_[i]) {
      return true;
    }
    return EvalRules(static_cast<uint16_t>(i), args, rule_evals);
  }

  // The one-way latch: narrows this filter to the conjunction of both.
  // Bitsets intersect; where both sides carry rules for a syscall the rule
  // lists cross-multiply (every kept rule implies a rule of EACH side), and
  // prefix tables merge by prefix string with class ids remapped.
  void IntersectWith(const SeccompFilter& other);

  size_t allowed_count() const { return allowed_.count(); }
  bool has_any_rules() const { return has_rules_.any(); }
  size_t rule_count() const;
  const std::vector<std::pair<std::string, uint64_t>>& path_classes() const {
    return path_classes_;
  }

  // Renders the filter as re-installable policy text (ParseSpec-compatible,
  // byte-stable for identical filters).
  std::string Render() const;

 private:
  bool EvalRules(uint16_t nr, const SyscallArgs& args, uint32_t* rule_evals) const;
  // Longest-prefix match of the call's (absolutized) path argument against
  // the class table; 0 when there is no path or no prefix matches.
  uint64_t PathClassOf(const SyscallArgs& args) const;

  std::bitset<kSysnoSlots> allowed_;
  std::bitset<kSysnoSlots> has_rules_;
  std::map<uint16_t, std::vector<SeccompRule>> rules_;
  // Sorted by descending prefix length (then lexicographic) so the first
  // match is the longest.
  std::vector<std::pair<std::string, uint64_t>> path_classes_;
};

// Per-call state carried from EnterSyscall to ExitSyscall.
struct SyscallContext {
  Sysno nr{};
  int pid = 0;
  const std::string* comm = nullptr;  // borrowed from the task
  uint64_t start_tick = 0;            // virtual clock at entry
  uint64_t start_ns = 0;              // monotonic wall clock at entry (if timed)
  uint64_t span = 0;                  // decision span opened at entry (0 = untraced)
  uint8_t dispatch = 0;               // resolved dispatch word (kDispatch* bits)
  bool prev_muted = false;            // thread-mute state saved at entry
  std::string args;                   // formatted only when this call traces
};

class SyscallGate {
 public:
  static constexpr size_t kTraceCapacity = 256;

  // Dispatch-word bits (see the file comment). Resolved once per call.
  static constexpr uint8_t kDispatchTrace = 1 << 0;
  static constexpr uint8_t kDispatchExemplar = 1 << 1;
  static constexpr uint8_t kDispatchTimed = 1 << 2;
  static constexpr uint8_t kDispatchSampled = 1 << 3;

  // Tail-exemplar reservoir depth: the K slowest calls kept per syscall.
  static constexpr size_t kExemplarSlots = 4;

  // All fields are relaxed atomics: in parallel mode N task threads retire
  // syscalls concurrently, and the stats path must stay lock-free. Readers
  // (stats export, /proc) see per-field-consistent totals, which is the same
  // contract /proc/stat offers on SMP Linux.
  struct PerSyscall {
    std::atomic<uint64_t> calls{0};
    std::atomic<uint64_t> errors{0};          // calls that returned a nonzero errno
    std::atomic<uint64_t> seccomp_denied{0};  // refused by the task's filter (subset of errors)
    std::atomic<uint64_t> rule_evals{0};      // argument rules inspected by predicate filters
    Histogram lat_ticks;                      // virtual-clock latency distribution
    Histogram lat_ns;                         // wall-clock distribution (when timing is on)
  };

  // One syscall as the trace-driven synthesizer sees it: the caller's
  // identity, the raw argument words, and the string arguments copied out
  // (path absolutized against the task's cwd). Built only when a recorder
  // is attached.
  struct SyscallObservation {
    int pid = 0;
    Sysno nr{};
    Errno err = Errno::kOk;
    uint32_t ruid = 0;
    uint32_t euid = 0;
    uint64_t a0 = 0, a1 = 0, a2 = 0;
    std::string exe;   // task.exe_path at the time of the call
    std::string comm;
    std::string path;  // absolutized primary path argument ("" = none)
    std::string str1;
    std::string str2;
    std::vector<std::string> list;
  };
  using SyscallRecorder = std::function<void(const SyscallObservation&)>;

  // One row of the legacy structured trace view: the span-root (syscall)
  // events of the shared Tracer ring, reprojected into the pre-tracepoint
  // record shape. Kept so existing tests/tools keep working.
  struct TraceRecord {
    uint64_t seq = 0;
    uint64_t tick = 0;
    int pid = 0;
    Sysno nr{};
    Errno err = Errno::kOk;
    uint64_t dur_ns = 0;
    bool seccomp_denied = false;
    std::string comm;
    std::string args;
  };

  explicit SyscallGate(const Clock* clock);

  // Attaches the kernel-wide tracer (the Kernel does this at boot). Without
  // one, the gate still filters and accounts but emits no trace events.
  void set_tracer(Tracer* tracer) {
    tracer_ = tracer;
    BumpLocalGen();
  }
  Tracer* tracer() { return tracer_; }

  // Attaches the per-layer latency profiler. Detached (nullptr) or disabled,
  // every LayerScope on the entry path stays inert.
  void set_profiler(LayerProfiler* profiler) { profiler_ = profiler; }
  LayerProfiler* profiler() { return profiler_; }

  // Attaches the fault-injection registry: the gate stamps the per-call
  // {pid, sysno} fault context and evaluates the syscall_entry site before
  // running the body. Detached (nullptr) costs nothing.
  void set_faults(FaultRegistry* faults) { faults_ = faults; }
  FaultRegistry* faults() { return faults_; }

  // Attaches a deterministic scheduler: every syscall entry becomes a yield
  // point (the scheduler may hand the token to another task before the body
  // runs). Detached (nullptr) by default — the sequential fast path pays one
  // null check per syscall.
  void set_scheduler(TaskScheduler* scheduler) { scheduler_ = scheduler; }
  TaskScheduler* scheduler() { return scheduler_; }

  // Master switch. When off, the gate neither filters nor accounts — this
  // exists ONLY as the microbenchmark's no-gate baseline; a disabled gate
  // does not enforce seccomp filters.
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  // Tracing toggle: forwards to the shared Tracer's master switch (the
  // /proc/protego/trace "on"/"off" commands land here).
  bool trace_enabled() const { return tracer_ != nullptr && tracer_->enabled(); }
  void set_trace_enabled(bool on) {
    if (tracer_ != nullptr) {
      tracer_->set_enabled(on);
    }
  }

  // Wall-clock latency accounting (two monotonic clock reads per syscall).
  // Off by default — latency totals normally come from the free virtual
  // clock; profiling sessions opt in to nanosecond timing.
  bool wallclock_timing() const { return wallclock_timing_; }
  void set_wallclock_timing(bool on) {
    wallclock_timing_ = on;
    BumpLocalGen();
  }

  // --- Per-syscall traced/timed sets -----------------------------------------
  //
  // Both default to all-set, so the pre-existing global toggles behave
  // unchanged; /proc/protego/trace "?syscalls=mount,execve" narrows the
  // traced set to the control-plane calls the operator cares about, which
  // is what makes "always-on" affordable: untraced syscalls resolve a
  // dispatch word with the trace bit clear and never touch the span map.

  bool syscall_traced(Sysno nr) const {
    std::lock_guard<std::mutex> lk(dispatch_mu_);
    return traced_syscalls_[static_cast<size_t>(nr)];
  }
  void SetSyscallTraced(Sysno nr, bool traced) {
    std::lock_guard<std::mutex> lk(dispatch_mu_);
    traced_syscalls_[static_cast<size_t>(nr)] = traced;
    BumpLocalGen();
  }
  void SetAllSyscallsTraced(bool traced) {
    std::lock_guard<std::mutex> lk(dispatch_mu_);
    if (traced) {
      traced_syscalls_.set();
    } else {
      traced_syscalls_.reset();
    }
    BumpLocalGen();
  }

  bool syscall_timed(Sysno nr) const {
    std::lock_guard<std::mutex> lk(dispatch_mu_);
    return timed_syscalls_[static_cast<size_t>(nr)];
  }
  void SetSyscallTimed(Sysno nr, bool timed) {
    std::lock_guard<std::mutex> lk(dispatch_mu_);
    timed_syscalls_[static_cast<size_t>(nr)] = timed;
    BumpLocalGen();
  }
  void SetAllSyscallsTimed(bool timed) {
    std::lock_guard<std::mutex> lk(dispatch_mu_);
    if (timed) {
      timed_syscalls_.set();
    } else {
      timed_syscalls_.reset();
    }
    BumpLocalGen();
  }

  // Tail-exemplar reservoir toggle (on by default; costs one compare per
  // call once a syscall's reservoir is warm). Requires a tracer (exemplars
  // ride the tracer's master switch so a fully-off tracer pays nothing).
  bool exemplars_enabled() const { return exemplars_enabled_; }
  void set_exemplars_enabled(bool on) {
    exemplars_enabled_ = on;
    BumpLocalGen();
  }

  // One kept tail exemplar: the slowest calls per syscall, with enough
  // identity (span, pid) to cross-reference the trace.
  struct ExemplarRecord {
    uint64_t dur_ticks = 0;
    uint64_t dur_ns = 0;
    uint64_t span = 0;
    int pid = 0;
  };
  // Top-K exemplars for one syscall, slowest first (merged across thread
  // shards; exact when emitters are quiescent, like TraceSnapshot).
  std::vector<ExemplarRecord> ExemplarsFor(Sysno nr) const;

  // Resolves the dispatch word for one syscall number, rebuilding the table
  // first if either generation moved. Hot path: two relaxed loads and one
  // indexed byte load.
  uint8_t Dispatch(Sysno nr) {
    uint64_t tracer_gen = tracer_ != nullptr ? tracer_->config_gen() : 0;
    if (built_tracer_gen_.load(std::memory_order_relaxed) != tracer_gen ||
        built_local_gen_.load(std::memory_order_relaxed) !=
            local_gen_.load(std::memory_order_relaxed)) {
      RebuildDispatch(tracer_gen);
    }
    return dispatch_[static_cast<size_t>(nr)].load(std::memory_order_relaxed);
  }

  // Seccomp denials are forwarded here (the kernel wires this to Audit).
  void set_audit_sink(std::function<void(std::string)> sink) {
    audit_sink_ = std::move(sink);
  }

  // Attaches the trace-driven synthesis recorder: every retired syscall
  // (including seccomp denials) is mirrored to it as a SyscallObservation.
  // Detached (the default) the entry path pays one relaxed flag load. Must
  // only be swapped while no task threads are inside the gate; the recorder
  // itself must be thread-safe in parallel mode.
  void set_recorder(SyscallRecorder recorder) {
    recorder_ = std::move(recorder);
    has_recorder_.store(static_cast<bool>(recorder_), std::memory_order_release);
  }
  // Lets wrappers whose bodies consume their argument containers (execve
  // moves argv) make a recording copy only when someone is listening.
  bool recorder_attached() const {
    return has_recorder_.load(std::memory_order_relaxed);
  }

  const PerSyscall& stats(Sysno nr) const { return stats_[static_cast<size_t>(nr)]; }
  uint64_t TotalCalls() const;

  // Trace records (syscall span roots only), oldest first.
  std::vector<TraceRecord> TraceSnapshot() const;
  void ClearTrace();
  uint64_t trace_seq() const { return tracer_ != nullptr ? tracer_->seq() : 0; }
  // Events overwritten since the last clear (ring capacity exceeded).
  uint64_t trace_dropped() const { return tracer_ != nullptr ? tracer_->dropped() : 0; }

  // The /proc/protego/trace body.
  std::string FormatTrace() const;
  void ResetStats();

  // Reports per-syscall counters and latency histograms to the metrics
  // registry (protego_syscall_* families).
  void CollectMetrics(MetricsBuilder& b) const;

  // --- The entry path ---------------------------------------------------------
  //
  // Templated on the task type only to avoid a header cycle (task.h includes
  // this header for SeccompFilter); the single instantiation is Task.

  // Resolves the dispatch word for this call, applying the head-sampling
  // decision: when the syscall point is sampled (rate > 1), one draw from
  // the calling thread's seeded stream decides — a "drop" clears the trace
  // bit BEFORE any span or argument work, so sampled-out calls pay only the
  // draw. The exemplar bit survives sampling by design.
  uint8_t ResolveDispatch(Sysno nr) {
    uint8_t dispatch = Dispatch(nr);
    if ((dispatch & (kDispatchTrace | kDispatchSampled)) ==
            (kDispatchTrace | kDispatchSampled) &&
        !tracer_->SampleKeep(TracepointId::kSyscall)) {
      dispatch &= static_cast<uint8_t>(~kDispatchTrace);
    }
    return dispatch;
  }

  // Stamps the context, opens the decision span, and consults the task's
  // seccomp filter. Returns false (after recording the denial) if the filter
  // refuses the syscall — the caller must fail with EPERM without touching
  // DAC or the LSM stack. ctx.dispatch must already be resolved
  // (ResolveDispatch) — span bookkeeping keys off the trace bit, so calls
  // whose dispatch word says "no trace" never touch the span map.
  template <typename TaskT>
  bool EnterSyscall(SyscallContext& ctx, const TaskT& task, Sysno nr,
                    const SyscallArgs& sargs) {
    ctx.nr = nr;
    ctx.pid = task.pid;
    ctx.comm = &task.comm;
    ctx.start_tick = clock_->Now();
    if ((ctx.dispatch & kDispatchTrace) != 0) {
      ctx.span = tracer_->BeginSpan(ctx.pid);
    }
    // An untraced call mutes the span-scoped decision points for its
    // duration (they would be orphan noise and still pay sampling draws);
    // ExitSyscall / the denial path restore the saved state, so nested
    // syscalls compose.
    ctx.prev_muted = Tracer::SwapThreadMute((ctx.dispatch & kDispatchTrace) == 0);
    bool denied = false;
    if (task.seccomp != nullptr) {
      LayerScope seccomp_scope(profiler_, Layer::kSeccomp);
      uint32_t evals = 0;
      denied = !task.seccomp->AllowsArgs(nr, sargs, &evals);
      if (evals != 0) {
        stats_[static_cast<size_t>(nr)].rule_evals.fetch_add(evals,
                                                             std::memory_order_relaxed);
      }
    }
    if (denied) {
      RecordDenial(ctx);
      Tracer::SwapThreadMute(ctx.prev_muted);
      return false;
    }
    if ((ctx.dispatch & kDispatchTimed) != 0) {
      ctx.start_ns = MonotonicNanos();
    }
    return true;
  }

  // Accounts the completed syscall, emits the span-root trace event, and
  // closes the span.
  void ExitSyscall(SyscallContext& ctx, Errno err);

  // Wraps one syscall body. `sargs` is the raw argument view consumed by
  // predicate filters and the synthesis recorder; `args_fn() -> std::string`
  // is only invoked when the syscall tracepoint is enabled; `body() ->
  // Result<T>` is the pre-existing syscall implementation (DAC + LSM +
  // work).
  template <typename T, typename TaskT, typename ArgsFn, typename BodyFn>
  Result<T> Run(TaskT& task, Sysno nr, SyscallArgs sargs, ArgsFn&& args_fn,
                BodyFn&& body) {
    if (scheduler_ != nullptr) {
      // The yield point: under the deterministic scheduler every syscall
      // entry is a potential context switch, BEFORE any gate work, so the
      // trace/stats a schedule produces reflect the order the scheduler
      // chose.
      scheduler_->OnSyscallEntry(task.pid, nr);
    }
    if (!enabled_) {
      return body();
    }
    // The gate frame is the attribution ROOT: everything the syscall does
    // (seccomp, DAC, LSM, VFS, netfilter, the body, and the observability
    // pipeline itself) nests inside it, so summed per-layer self time
    // telescopes back to this frame's inclusive time.
    LayerScope gate_scope(profiler_, Layer::kGate);
    SyscallContext ctx;
    ctx.dispatch = ResolveDispatch(nr);
    if ((ctx.dispatch & kDispatchTrace) != 0) {
      ctx.args = args_fn();
    }
    sargs.cwd = &task.cwd;
    // Identity is captured at ENTRY: an execve must be attributed to the
    // image that issued it (whose filter admitted the call), not the image
    // it becomes, and a setuid to the credentials it held when it asked.
    EntrySnapshot snap;
    const bool recording = has_recorder_.load(std::memory_order_relaxed);
    if (recording) {
      snap = SnapshotTask(task);
    }
    if (!EnterSyscall(ctx, task, nr, sargs)) {
      if (recording) {
        RecordObservation(snap, nr, sargs, Errno::kEPERM);
      }
      return Error(Errno::kEPERM, std::string("seccomp: ") + SysnoName(nr));
    }
    if (faults_ != nullptr && faults_->any_enabled()) {
      // Stamp the fault context for the body's duration so pid/syscall
      // filters on nested sites (vfs/lsm/fd alloc) match this call. The
      // previous context is restored on exit — syscalls nest via
      // Spawn/Execve, and the outer call's filters must survive.
      FaultContext prev =
          faults_->SwapContext(FaultContext{task.pid, static_cast<int>(nr)});
      Errno fault = faults_->Evaluate(FaultSite::kSyscallEntry);
      if (fault != Errno::kOk) {
        ExitSyscall(ctx, fault);
        faults_->SwapContext(prev);
        return Error(fault,
                     std::string("fault-injected at syscall entry: ") + SysnoName(nr));
      }
      Result<T> r = body();
      ExitSyscall(ctx, r.code());
      faults_->SwapContext(prev);
      if (recording) {
        RecordObservation(snap, nr, sargs, r.code());
      }
      return r;
    }
    Result<T> r = body();
    ExitSyscall(ctx, r.code());
    if (recording) {
      RecordObservation(snap, nr, sargs, r.code());
    }
    return r;
  }

  // getpid(2) cannot fail, so it gets an infallible fast path. A filter that
  // denies getpid yields -1 (and the denial is traced) rather than an errno.
  template <typename TaskT>
  int RunGetPid(const TaskT& task) {
    if (scheduler_ != nullptr) {
      scheduler_->OnSyscallEntry(task.pid, Sysno::kGetPid);
    }
    if (!enabled_) {
      return task.pid;
    }
    LayerScope gate_scope(profiler_, Layer::kGate);
    SyscallContext ctx;
    ctx.dispatch = ResolveDispatch(Sysno::kGetPid);
    SyscallArgs sargs;
    EntrySnapshot snap;
    const bool recording = has_recorder_.load(std::memory_order_relaxed);
    if (recording) {
      snap = SnapshotTask(task);
    }
    if (!EnterSyscall(ctx, task, Sysno::kGetPid, sargs)) {
      if (recording) {
        RecordObservation(snap, Sysno::kGetPid, sargs, Errno::kEPERM);
      }
      return -1;
    }
    ExitSyscall(ctx, Errno::kOk);
    if (recording) {
      RecordObservation(snap, Sysno::kGetPid, sargs, Errno::kOk);
    }
    return task.pid;
  }

 private:
  // One syscall's tail reservoir: the K slowest calls seen by one thread.
  // min_* cache the smallest kept key so a warm reservoir rejects a typical
  // call with one compare.
  struct SysnoExemplars {
    ExemplarRecord slots[kExemplarSlots];
    size_t used = 0;
    uint64_t min_ticks = 0;
    uint64_t min_ns = 0;
  };
  // Per-thread exemplar shard (single writer, same discipline as the
  // Tracer's ring shards): per-sysno reservoirs allocated lazily, so a
  // thread that never calls mount never pays for a mount reservoir.
  struct ExemplarShard {
    std::thread::id owner;
    std::unique_ptr<SysnoExemplars> per_sysno[kSysnoSlots];
  };

  // The caller-side identity of one syscall, captured at entry (see Run).
  struct EntrySnapshot {
    int pid = 0;
    uint32_t ruid = 0;
    uint32_t euid = 0;
    std::string exe;
    std::string comm;
    std::string cwd;
  };
  template <typename TaskT>
  static EntrySnapshot SnapshotTask(const TaskT& task) {
    EntrySnapshot snap;
    snap.pid = task.pid;
    snap.ruid = task.cred.ruid;
    snap.euid = task.cred.euid;
    snap.exe = task.exe_path;
    snap.comm = task.comm;
    snap.cwd = task.cwd;
    return snap;
  }

  // Mirrors one retired call to the synthesis recorder. String arguments
  // are copied out here — the observation must outlive the caller's frame —
  // and a relative path is absolutized against the entry-time cwd so
  // enforcement and synthesis agree on path classes.
  void RecordObservation(const EntrySnapshot& snap, Sysno nr, const SyscallArgs& sargs,
                         Errno err) {
    SyscallObservation ob;
    ob.pid = snap.pid;
    ob.nr = nr;
    ob.err = err;
    ob.ruid = snap.ruid;
    ob.euid = snap.euid;
    ob.a0 = sargs.a[0];
    ob.a1 = sargs.a[1];
    ob.a2 = sargs.a[2];
    ob.exe = snap.exe;
    ob.comm = snap.comm;
    if (sargs.path != nullptr) {
      if (!sargs.path->empty() && (*sargs.path)[0] == '/') {
        ob.path = *sargs.path;
      } else {
        ob.path = snap.cwd + "/" + *sargs.path;
      }
    }
    if (sargs.str1 != nullptr) {
      ob.str1 = *sargs.str1;
    }
    if (sargs.str2 != nullptr) {
      ob.str2 = *sargs.str2;
    }
    if (sargs.list != nullptr) {
      ob.list = *sargs.list;
    }
    recorder_(ob);
  }

  void RecordDenial(SyscallContext& ctx);
  // Emits the span-root event for the completed call (consumes ctx.args)
  // and closes the span.
  void RecordTrace(SyscallContext& ctx, Errno err, uint64_t dur_ns, bool seccomp_denied);
  // Offers one completed call to the calling thread's tail reservoir.
  void RecordExemplar(Sysno nr, uint64_t dur_ticks, uint64_t dur_ns, uint64_t span,
                      int pid);
  ExemplarShard& MyExemplarShard();

  void BumpLocalGen() { local_gen_.fetch_add(1, std::memory_order_relaxed); }
  void RebuildDispatch(uint64_t tracer_gen);

  const Clock* clock_;
  Tracer* tracer_ = nullptr;
  FaultRegistry* faults_ = nullptr;
  TaskScheduler* scheduler_ = nullptr;
  LayerProfiler* profiler_ = nullptr;
  bool enabled_ = true;
  bool wallclock_timing_ = false;
  bool exemplars_enabled_ = true;
  PerSyscall stats_[kSysnoSlots] = {};
  std::function<void(std::string)> audit_sink_;
  SyscallRecorder recorder_;
  std::atomic<bool> has_recorder_{false};

  // --- Dispatch table ---------------------------------------------------------
  // dispatch_[nr] is the resolved word; the two built_* generations record
  // the configuration it was built from. local_gen_ covers gate-local knobs
  // (bitsets, timing, exemplars); the tracer's config_gen covers the master
  // switch, the point mask, and sample rates.
  std::atomic<uint8_t> dispatch_[kSysnoSlots] = {};
  std::atomic<uint64_t> local_gen_{1};
  std::atomic<uint64_t> built_local_gen_{0};
  std::atomic<uint64_t> built_tracer_gen_{~uint64_t{0}};
  mutable std::mutex dispatch_mu_;  // guards the bitsets and rebuilds
  std::bitset<kSysnoSlots> traced_syscalls_;
  std::bitset<kSysnoSlots> timed_syscalls_;

  // --- Exemplar reservoir -----------------------------------------------------
  uint64_t id_;  // process-unique, for the thread-local shard cache
  mutable std::mutex exemplar_mu_;  // guards exemplar_shards_ growth + reads
  std::vector<std::unique_ptr<ExemplarShard>> exemplar_shards_;
};

}  // namespace protego

#endif  // SRC_KERNEL_SYSCALL_H_
