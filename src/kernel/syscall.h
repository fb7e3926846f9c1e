// The unified syscall entry path.
//
// Every public Kernel syscall routes through a single SyscallGate, mirroring
// Linux's syscall entry: a dispatch-table identity (Sysno, the Linux x86-64
// numbers) and one call frame (src/base/call_frame.h) pushed at entry and
// popped at exit around the body. The gate is where cross-cutting policy and
// observability live, in this order:
//
//   1. seccomp-style filtering — a per-task filter, consulted BEFORE any
//      DAC or LSM work (as on Linux, where seccomp runs at syscall entry,
//      ahead of the security hooks). A filter is an allow bitset over
//      syscall numbers, optionally refined by per-syscall ARGUMENT RULES:
//      each rule is a conjunction of libseccomp-style predicates
//      (EQ/NE/LT/GE/MASKED_EQ on args 0-2, plus a path-class comparison
//      driven by a per-filter class table), and a syscall with rules is
//      allowed iff ANY rule matches. The number-only bitset test stays the
//      hot path; rule evaluation only runs for syscalls that actually carry
//      rules. A rule list with a path predicate waits for the body's path
//      walk (CheckPath): a string at entry is not yet the object the kernel
//      acts on (the TOCTTOU Canella et al. describe). Installation is a
//      one-way latch: filters can only ever be narrowed, never widened or
//      removed — intersecting two predicate filters conjoins their rule
//      lists (cross product), so the result admits only calls both admitted.
//   2. accounting — per-thread, per-syscall call and error counters, merged
//      on read (exported at /proc/protego/metrics), plus a wall-clock
//      latency histogram and tail exemplars for the syscalls in the timed set.
//   3. tracing — a traced call's frame opens a decision span on the
//      kernel-wide Tracer; LSM/VFS/netfilter events emitted during the body
//      are stamped with it, and the syscall's own record (the span root) is
//      emitted at exit. /proc/protego/trace renders the resulting derivation
//      trees.
//
// Seccomp-killed calls (the filter refuses the syscall at entry or at its
// path walk) follow ONE consistent semantic everywhere:
//   - stats: counted in calls, errors, and seccomp_denied;
//   - trace: recorded as a span root with the seccomp_denied flag and EPERM;
//   - latency: EXCLUDED from the histogram and the tail exemplars — the
//     body never ran, so a duration would be meaningless and would skew
//     the distribution.
// So for a syscall that stays in the timed set, lat_ns.count() equals
// calls - seccomp_denied.
//
// The gate is deliberately cheap: each thread writes only its own
// per-syscall records, trace slots are preallocated and reused, and argument
// strings are only materialized when the call is traced.
//
// The entry decision: each call decides once, at entry, whether it is
// traced and whether it is timed, from three inputs read with relaxed
// loads: the tracer's master switch, the traced and timed sets (atomic
// words over syscall numbers), and the syscall point's sample rate.
//   traced — the switch is on, the syscall is in the traced set, and, when
//            the point is head-sampled (rate > 1), one draw from the calling
//            thread's seeded stream keeps it. A traced call opens its span
//            and formats its arguments; an untraced one mutes the
//            span-scoped points inside it (Tracer::Enabled).
//   timed  — the syscall is in the timed set: take the two monotonic clock
//            reads, observe the nanosecond histogram, and feed the
//            tail-exemplar reservoir. Deliberately NOT affected by sampling:
//            the reservoir's whole point is that the K slowest calls per
//            syscall stay explainable even when head sampling dropped their
//            trace.

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
#include <utility>
#include <vector>

#include "src/base/attribution.h"
#include "src/base/call_frame.h"
#include "src/base/clock.h"
#include "src/base/metrics.h"
#include "src/base/result.h"
#include "src/base/thread_shards.h"
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

// The virtual argument slot holding the path class: the canonical path of
// the syscall's primary path argument looked up in the filter's class table
// (PathClassOf; 0 = no entry matched). Path-class predicates must use kEq —
// equality survives filter intersection (a merged class table can only
// steal matches, never create them), the other comparators would not — and
// only constrain syscalls that take a path.
inline constexpr uint8_t kSeccompArgPath = 3;

// The syscalls whose body walks a primary path argument, the only ones a
// path predicate may constrain (kClone walks the binary it will run).
bool SysnoTakesPath(Sysno nr);

// A class entry is a canonical absolute path: "/tmp/" matches every path
// beneath that directory, "/etc/motd" only that exact path.
bool IsCanonicalClassEntry(std::string_view entry);

// The id of the longest (most specific) entry matching canonical `path`, 0
// when none does: the one lookup the gate and the synthesizer share.
uint64_t PathClassOf(const std::vector<std::pair<std::string, uint64_t>>& classes,
                     std::string_view path);

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
// the call the way strace would; the path argument reaches the gate from the
// body's walk (SyscallGate::CheckPath). The pointers borrow from the
// caller's stack and are only read at entry, when a recorder is attached.
struct SyscallArgs {
  uint64_t a[3] = {0, 0, 0};
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
  // its OR-of-AND rule list; `path_classes` maps class entries (see
  // IsCanonicalClassEntry) to the ids path predicates compare against.
  struct Spec {
    std::bitset<kSysnoSlots> allowed;
    std::map<uint16_t, std::vector<SeccompRule>> rules;
    std::vector<std::pair<std::string, uint64_t>> path_classes;
  };

  SeccompFilter() = default;

  static SeccompFilter AllowList(const std::vector<Sysno>& allowed);

  // Validates and builds: rule sysnos must be allowed and in range, arg
  // indices 0..2 or kSeccompArgPath, path-class predicates kEq-only, on a
  // syscall that takes a path, with a class id present in `path_classes`;
  // class entries canonical, ids nonzero and unique.
  static Result<SeccompFilter> FromSpec(const Spec& spec);

  // Parses the re-installable text rendering (see Render). Grammar:
  //   class <id> <entry>
  //   allow <syscall>
  //   allow <syscall> if <pred> [&& <pred>]...
  //   <pred> := arg0|arg1|arg2|path eq|ne|lt|ge <uint>
  //           | arg0|arg1|arg2 masked_eq <mask> <value>
  // '#' starts a comment; values accept decimal or 0x-hex.
  static Result<Spec> ParseSpec(std::string_view text);

  // Number-only check (ignores argument rules): is the syscall admissible
  // for at least some arguments?
  bool Allows(Sysno nr) const { return allowed_[static_cast<size_t>(nr)]; }

  // The entry check: the bitset test, then the rule list — unless it has a
  // path predicate, which the walk decides (AllowsPath). Adds the number of
  // rules inspected to *rule_evals.
  bool AllowsArgs(Sysno nr, const SyscallArgs& args, uint32_t* rule_evals) const {
    size_t i = static_cast<size_t>(nr);
    if (!allowed_[i]) {
      return false;
    }
    if (!has_rules_[i] || path_rules_[i]) {
      return true;
    }
    return EvalRules(static_cast<uint16_t>(i), args, 0, rule_evals);
  }

  // Whether `nr`'s rules wait for the path walk.
  bool HasPathRules(Sysno nr) const { return path_rules_[static_cast<size_t>(nr)]; }

  // Evaluates `nr`'s rules with the class of the canonical path walked.
  bool AllowsPath(Sysno nr, const SyscallArgs& args, std::string_view path,
                  uint32_t* rule_evals) const {
    return EvalRules(static_cast<uint16_t>(nr), args, PathClassOf(path_classes_, path),
                     rule_evals);
  }

  // The one-way latch: narrows this filter to the conjunction of both.
  // Bitsets intersect; where both sides carry rules for a syscall the rule
  // lists cross-multiply (every kept rule implies a rule of EACH side), and
  // class tables merge by entry with class ids remapped.
  void IntersectWith(const SeccompFilter& other);

  size_t allowed_count() const { return allowed_.count(); }
  bool has_any_rules() const { return has_rules_.any(); }
  size_t rule_count() const;

  // Renders the filter as re-installable policy text (ParseSpec-compatible,
  // byte-stable for identical filters).
  std::string Render() const;

 private:
  // `path_class` is 0 at entry, where no evaluated list has a path predicate.
  bool EvalRules(uint16_t nr, const SyscallArgs& args, uint64_t path_class,
                 uint32_t* rule_evals) const;
  // Sets has_rules_ and path_rules_ from rules_.
  void IndexRules();

  std::bitset<kSysnoSlots> allowed_;
  std::bitset<kSysnoSlots> has_rules_;
  std::bitset<kSysnoSlots> path_rules_;  // rule lists with a path predicate
  std::map<uint16_t, std::vector<SeccompRule>> rules_;
  std::vector<std::pair<std::string, uint64_t>> path_classes_;
};

// A set of syscall numbers as atomic words: a writer flips a bit with one
// atomic op, and the entry path tests one with one relaxed load.
class SyscallSet {
 public:
  explicit SyscallSet(bool all) { SetAll(all); }

  bool Has(Sysno nr) const {
    size_t i = static_cast<size_t>(nr);
    return (words_[i / 64].load(std::memory_order_relaxed) >> (i % 64) & 1) != 0;
  }
  void Set(Sysno nr, bool on) {
    size_t i = static_cast<size_t>(nr);
    if (on) {
      words_[i / 64].fetch_or(uint64_t{1} << (i % 64), std::memory_order_relaxed);
    } else {
      words_[i / 64].fetch_and(~(uint64_t{1} << (i % 64)), std::memory_order_relaxed);
    }
  }
  void SetAll(bool on) {
    for (std::atomic<uint64_t>& word : words_) {
      word.store(on ? ~uint64_t{0} : 0, std::memory_order_relaxed);
    }
  }

 private:
  std::atomic<uint64_t> words_[(kSysnoSlots + 63) / 64];
};

class SyscallGate {
 public:
  static constexpr size_t kTraceCapacity = 256;

  // Tail-exemplar reservoir depth: the K slowest calls kept per syscall.
  static constexpr size_t kExemplarSlots = 4;

  // One syscall's totals merged across threads, returned by value from
  // stats(). Readers see per-field-consistent totals, the contract
  // /proc/stat offers on SMP Linux. The fields are atomics only so callers
  // written against live counters (`.calls.load(...)`) keep compiling.
  struct PerSyscall {
    std::atomic<uint64_t> calls{0};
    std::atomic<uint64_t> errors{0};          // calls that returned a nonzero errno
    std::atomic<uint64_t> seccomp_denied{0};  // refused by the task's filter (subset of errors)
    std::atomic<uint64_t> rule_evals{0};      // argument rules inspected by predicate filters
    Histogram lat_ns;                         // wall-clock distribution (timed calls only)
  };

  // One syscall as the trace-driven synthesizer sees it: the caller's
  // identity, the raw argument words, the canonical path its walk reached,
  // and the string arguments copied out. Built only when a recorder is
  // attached.
  struct SyscallObservation {
    int pid = 0;
    Sysno nr{};
    Errno err = Errno::kOk;
    uint32_t ruid = 0;
    uint32_t euid = 0;
    uint64_t a0 = 0, a1 = 0, a2 = 0;
    std::string exe;   // task.exe_path at the time of the call
    std::string comm;
    std::string path;  // canonical primary path ("" = the call walked none)
    std::string str1;
    std::string str2;
    std::vector<std::string> list;
  };
  using SyscallRecorder = std::function<void(const SyscallObservation&)>;

  // Attaches the kernel-wide tracer (the Kernel does this at boot). Without
  // one, the gate still filters and accounts but emits no trace events.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  // Attaches the per-layer latency profiler, which the entry decision puts
  // on the frame of every timed call: attribution follows the timed set.
  void set_profiler(LayerProfiler* profiler) { profiler_ = profiler; }

  // Attaches the fault-injection registry: the gate evaluates the
  // syscall_entry site before running the body (pid/syscall filters match
  // the call's frame). Detached (nullptr) costs nothing.
  void set_faults(FaultRegistry* faults) { faults_ = faults; }

  // Attaches a deterministic scheduler: every syscall entry becomes a yield
  // point (the scheduler may hand the token to another task before the body
  // runs). Detached (nullptr) by default — the sequential fast path pays one
  // null check per syscall.
  void set_scheduler(TaskScheduler* scheduler) { scheduler_ = scheduler; }
  TaskScheduler* scheduler() { return scheduler_; }

  // --- Per-syscall traced/timed sets -----------------------------------------
  //
  // The traced set defaults to all-set, so the tracer's own switches decide;
  // /proc/protego/trace "syscalls=mount,execve" narrows it to the
  // control-plane calls the operator cares about, which is what makes
  // "always-on" affordable: an untraced call opens no span and formats no
  // arguments.
  //
  // The timed set starts empty and is the one latency switch: a timed
  // syscall pays two monotonic clock reads, lands in
  // protego_syscall_latency_ns, feeds the tail-exemplar reservoir, and is
  // attributed layer by layer (/proc/protego/profile). "timed=mount" arms
  // mount(2).

  bool syscall_traced(Sysno nr) const { return traced_.Has(nr); }
  void SetSyscallTraced(Sysno nr, bool traced) { traced_.Set(nr, traced); }
  void SetAllSyscallsTraced(bool traced) { traced_.SetAll(traced); }

  bool syscall_timed(Sysno nr) const { return timed_.Has(nr); }
  void SetSyscallTimed(Sysno nr, bool timed) { timed_.Set(nr, timed); }
  void SetAllSyscallsTimed(bool timed) { timed_.SetAll(timed); }

  // One kept tail exemplar: the slowest calls per syscall, with enough
  // identity (span, pid) to cross-reference the trace.
  struct ExemplarRecord {
    uint64_t dur_ns = 0;
    uint64_t span = 0;
    int pid = 0;
  };
  // Top-K exemplars for one syscall, slowest first, merged across threads.
  // Only timed calls feed the reservoir.
  std::vector<ExemplarRecord> ExemplarsFor(Sysno nr) const;

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
  PerSyscall stats(Sysno nr) const;

  // Zeroes every record in place (emitters must be quiescent).
  void ResetStats();

  // Reports per-syscall counters and latency histograms to the metrics
  // registry (protego_syscall_* families).
  void CollectMetrics(MetricsBuilder& b) const;

  // --- The entry path ---------------------------------------------------------
  //
  // Templated on the task type only to avoid a header cycle (task.h includes
  // this header for SeccompFilter); the single instantiation is Task.

  // The kernel's path lookup hands over the canonical path of the running
  // call's primary argument: kept for the recorder, and classified for the
  // rules the filter left to the walk. False when they refuse the call: the
  // body fails with EPERM before DAC or any hook, accounted as a denial.
  bool CheckPath(std::string_view path);

  // Wraps one syscall body. `sargs` is the raw argument view consumed by
  // predicate filters and the synthesis recorder; `args_fn() -> std::string`
  // is only invoked when the call is traced; `body() -> Result<T>` is the
  // pre-existing syscall implementation (DAC + LSM + work).
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
    CallFrame frame(task.pid, static_cast<int>(nr));
    frame.args = &sargs;
    const bool timed = Decide(frame, nr);
    // The gate scope is the attribution ROOT of a timed call: everything
    // the syscall does (seccomp, DAC, LSM, VFS, netfilter, the body, and
    // the observability pipeline itself) nests inside it, so summed
    // per-layer self time telescopes back to this scope's inclusive time.
    LayerScope gate_scope(Layer::kGate);
    std::string args;
    if (frame.traced) {
      args = args_fn();
    }
    // The observation is captured at ENTRY: an execve must be attributed
    // to the image that issued it (whose filter admitted the call), not the
    // image it becomes, and a setuid to the credentials it held when it
    // asked; bodies may consume their argument containers.
    std::optional<SyscallObservation> ob;
    if (has_recorder_.load(std::memory_order_relaxed)) {
      ob = Observe(task, nr, sargs);
      frame.path = &ob->path;
    }
    if (!Admit(frame, task, nr, sargs)) {
      RecordDenial(frame, task.comm, std::move(args));
      if (ob) {
        Record(*ob, Errno::kEPERM);
      }
      return Error(Errno::kEPERM, std::string("seccomp: ") + SysnoName(nr));
    }
    const uint64_t start_ns = timed ? MonotonicNanos() : 0;
    if (faults_ != nullptr && faults_->any_enabled()) {
      Errno fault = faults_->Evaluate(FaultSite::kSyscallEntry);
      if (fault != Errno::kOk) {
        ExitSyscall(frame, task.comm, std::move(args), fault, start_ns);
        return Error(fault,
                     std::string("fault-injected at syscall entry: ") + SysnoName(nr));
      }
    }
    Result<T> r = body();
    if (frame.denied) {
      RecordDenial(frame, task.comm, std::move(args));
    } else {
      ExitSyscall(frame, task.comm, std::move(args), r.code(), start_ns);
    }
    if (ob) {
      Record(*ob, r.code());
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
    CallFrame frame(task.pid, static_cast<int>(Sysno::kGetPid));
    const bool timed = Decide(frame, Sysno::kGetPid);
    LayerScope gate_scope(Layer::kGate);
    SyscallArgs sargs;
    const bool allowed = Admit(frame, task, Sysno::kGetPid, sargs);
    if (allowed) {
      ExitSyscall(frame, task.comm, std::string(), Errno::kOk, timed ? MonotonicNanos() : 0);
    } else {
      RecordDenial(frame, task.comm, std::string());
    }
    // getpid has no body, so the task is as it was at entry.
    if (has_recorder_.load(std::memory_order_relaxed)) {
      SyscallObservation ob = Observe(task, Sysno::kGetPid, sargs);
      Record(ob, allowed ? Errno::kOk : Errno::kEPERM);
    }
    return allowed ? task.pid : -1;
  }

 private:
  // One syscall's tail reservoir: the K slowest calls seen by one thread.
  // min_ns caches the shortest kept duration so a warm reservoir rejects a
  // typical call with one compare.
  struct SysnoExemplars {
    ExemplarRecord slots[kExemplarSlots];
    size_t used = 0;
    uint64_t min_ns = 0;
  };
  // One thread's record of one syscall. Only that thread writes it; readers
  // merge the relaxed counters, and take exemplar_mu to copy the reservoir,
  // whose slots and fill count change only under it.
  struct alignas(64) SyscallRecord {
    std::atomic<uint64_t> calls{0};
    std::atomic<uint64_t> errors{0};
    std::atomic<uint64_t> seccomp_denied{0};
    std::atomic<uint64_t> rule_evals{0};
    Histogram lat_ns;
    std::mutex exemplar_mu;
    SysnoExemplars exemplars;

    // The single writer needs no locked add.
    void CountCall() { AddOwned(calls); }
  };
  // One thread's records by syscall number, each allocated on its first call
  // and published with a release store (a thread that never calls mount
  // never pays for a mount record); they live as long as the gate.
  struct GateShard {
    std::atomic<SyscallRecord*> records[kSysnoSlots] = {};
    ~GateShard() {
      for (std::atomic<SyscallRecord*>& rec : records) {
        delete rec.load(std::memory_order_relaxed);
      }
    }
  };

  // One call as the recorder sees it, captured at entry (see Run), strings
  // copied out: the observation outlives the caller's frame.
  template <typename TaskT>
  [[gnu::noinline]] static SyscallObservation Observe(const TaskT& task, Sysno nr,
                                                      const SyscallArgs& sargs) {
    SyscallObservation ob;
    ob.pid = task.pid;
    ob.nr = nr;
    ob.ruid = task.cred.ruid;
    ob.euid = task.cred.euid;
    ob.a0 = sargs.a[0];
    ob.a1 = sargs.a[1];
    ob.a2 = sargs.a[2];
    ob.exe = task.exe_path;
    ob.comm = task.comm;
    if (sargs.str1 != nullptr) {
      ob.str1 = *sargs.str1;
    }
    if (sargs.str2 != nullptr) {
      ob.str2 = *sargs.str2;
    }
    if (sargs.list != nullptr) {
      ob.list = *sargs.list;
    }
    return ob;
  }
  // Hands a retired call to the recorder.
  void Record(SyscallObservation& ob, Errno err) {
    ob.err = err;
    recorder_(ob);
  }

  // The entry decision (see the file comment): marks `frame` traced, and
  // opens its span, when the switch, the traced set and the sampling draw
  // agree; returns whether the call is timed, and puts the profiler on a
  // timed call's frame.
  bool Decide(CallFrame& frame, Sysno nr) {
    if (tracer_ != nullptr && tracer_->enabled() && traced_.Has(nr) &&
        tracer_->SampleKeep(TracepointId::kSyscall)) {
      tracer_->OpenSpan(frame);
    }
    if (!timed_.Has(nr)) {
      return false;
    }
    frame.profiler = profiler_;
    return true;
  }

  // Consults the task's seccomp filter at entry. A rule list that waits for
  // the path walk is left on the frame for CheckPath.
  template <typename TaskT>
  bool Admit(CallFrame& frame, const TaskT& task, Sysno nr, const SyscallArgs& sargs) {
    if (task.seccomp == nullptr) {
      return true;
    }
    LayerScope seccomp_scope(Layer::kSeccomp);
    uint32_t evals = 0;
    const bool allowed = task.seccomp->AllowsArgs(nr, sargs, &evals);
    if (evals != 0) {
      MyRecord(nr).rule_evals.fetch_add(evals, std::memory_order_relaxed);
    }
    if (allowed && task.seccomp->HasPathRules(nr)) {
      frame.filter = task.seccomp;
    }
    return allowed;
  }

  // Accounts the completed call and, when it is traced, emits its span root
  // (consuming `args`). `start_ns` is the entry's MonotonicNanos() for a
  // timed call (never 0: the clock counts from boot) and 0 for an untimed
  // one. A plain integer, not an optional: the optional's flag byte, stored
  // just before the call, stalls the 16-byte argument copy on every call.
  void ExitSyscall(const CallFrame& frame, const std::string& comm, std::string args,
                   Errno err, uint64_t start_ns);
  // Accounts and audits a seccomp-killed call.
  void RecordDenial(const CallFrame& frame, const std::string& comm, std::string args);
  // Emits the span-root event for a traced call.
  void RecordTrace(const CallFrame& frame, const std::string& comm, std::string args,
                   Errno err, uint64_t dur_ns, bool seccomp_denied);
  // Offers one completed call to the calling thread's tail reservoir.
  static void RecordExemplar(SyscallRecord& rec, uint64_t dur_ns, uint64_t span, int pid);
  SyscallRecord& MyRecord(Sysno nr);
  template <typename Fn>
  void ForEachRecord(Sysno nr, Fn&& fn) const;

  Tracer* tracer_ = nullptr;
  FaultRegistry* faults_ = nullptr;
  TaskScheduler* scheduler_ = nullptr;
  LayerProfiler* profiler_ = nullptr;
  ThreadShards<GateShard> shards_;
  std::function<void(std::string)> audit_sink_;
  SyscallRecorder recorder_;
  std::atomic<bool> has_recorder_{false};

  SyscallSet traced_{true};
  SyscallSet timed_{false};
};

}  // namespace protego

#endif  // SRC_KERNEL_SYSCALL_H_
