// Kernel-wide tracepoints: a static registry of typed decision points with
// per-point enable bits and a sharded structured event ring, modeled on
// ftrace/perf_events.
//
// Every instrumented site (syscall gate, LSM hook dispatch, VFS permission
// walks, netfilter verdicts, cred transitions) emits TraceEvents into the
// same logical ring, so /proc/protego/trace can interleave them in causal
// order.
//
// Causal decision spans: each syscall entry allocates a span id (a stack,
// since syscalls nest via Spawn/Execve). Every event emitted while a span is
// open is stamped with the innermost span id; the syscall's own event — the
// span root — is emitted at exit. The Format() renderer groups child events
// under their root, producing the full allow/deny derivation tree for one
// call: the strace line plus the hook verdicts underneath it.
//
// Parallel mode: the ring is sharded per emitting thread (ftrace's per-CPU
// buffers, on ThreadShards). Each shard has exactly one writer — the thread
// that owns it — and a mutex that writer holds only while it fills one
// event, so Snapshot/Format/Clear are safe during traffic; a global atomic
// sequence counter gives events a total order and Snapshot() merge-sorts the
// shards by it. Lock order: shard mutex, then the span map's mutex.
//
// Hot-path discipline: Enabled(tp) is a master-bit AND a per-point-bit test
// (two relaxed loads, one branch) — the only cost when tracing is off. Event
// slots are preallocated and reused; the name/detail/value fields that always
// come from string literals (hook names, module names, verdict names) are
// stored as const char* so the LSM fast path allocates nothing. Only
// free-form payloads (syscall args, paths, rule comments) use the
// std::string fields, which reuse slot capacity.

#ifndef SRC_BASE_TRACEPOINT_H_
#define SRC_BASE_TRACEPOINT_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/base/clock.h"
#include "src/base/thread_shards.h"

namespace protego {

// The static tracepoint registry. Adding a decision point means adding an
// id here and a renderer arm in tracepoint.cc.
enum class TracepointId : uint8_t {
  kSyscall = 0,     // syscall completion (the span root; strace-shaped)
  kLsmHook,         // one module's verdict for one hook dispatch
  kLsmDecision,     // the stack's combined verdict
  kCapable,         // security_capable() consultation
  kVfsPermission,   // DAC+LSM inode_permission walk outcome
  kVfsMount,        // mount table change (attach/detach)
  kNetfilter,       // chain verdict for one packet
  kCredChange,      // setuid/setgid/execve credential transition
  kContextSwitch,   // deterministic scheduler handed the token to a task
  kFileLock,        // advisory flock acquire/release/block outcome
  kFaultInject,     // deterministic fault-injection site fired
  kCount,           // sentinel
};

inline constexpr size_t kTracepointCount = static_cast<size_t>(TracepointId::kCount);

const char* TracepointName(TracepointId tp);

// TraceEvent.flags bits.
inline constexpr uint32_t kTraceFlagSeccompDenied = 1u << 0;  // killed at entry
inline constexpr uint32_t kTraceFlagDenied = 1u << 3;         // outcome was a refusal

// One ring slot. Which fields are meaningful depends on `tp`; the renderer
// in tracepoint.cc is the authoritative decoding.
struct TraceEvent {
  uint64_t seq = 0;     // monotonically increasing since last Clear()
  uint64_t tick = 0;    // virtual clock at emission
  uint64_t span = 0;    // innermost open span (0 = outside any syscall)
  uint64_t parent = 0;  // enclosing span (only meaningful for span roots)
  TracepointId tp = TracepointId::kSyscall;
  int pid = 0;
  int code = 0;         // errno (syscall/vfs) or boolean outcome (capable)
  uint32_t flags = 0;
  uint64_t a = 0;       // scalar payload: sysno, may-mask, capability, ...
  uint64_t dur = 0;     // nanoseconds (syscall roots, when timing is on)
  // Static-string payloads — MUST point at string literals or other
  // immortal storage; never freed, never copied.
  const char* sname = "";   // syscall/hook/chain/transition name
  const char* sdetail = ""; // module name, verdict, errno name
  const char* svalue = "";  // combined verdict, secondary outcome
  // Free-form payloads; assignment reuses the slot's capacity.
  std::string comm;
  std::string detail;  // syscall args, path, rule comment
};

// A claimed ring slot, returned by Tracer::Emit. It holds the slot's shard
// lock until destroyed, so readers never copy a half-filled event: fill it
// (ev->field = ...) and let it go. Never emit again while holding one.
class TraceSlot {
 public:
  TraceSlot(std::unique_lock<std::mutex> lock, TraceEvent* ev)
      : lock_(std::move(lock)), ev_(ev) {}
  TraceEvent* operator->() const { return ev_; }

 private:
  std::unique_lock<std::mutex> lock_;
  TraceEvent* ev_;
};

// Read-side filter for Format(), set via /proc/protego/trace writes
// ("?pid=N&syscall=name&span=N&since=N"). Default-constructed = match
// everything.
struct TraceFilter {
  int pid = -1;         // -1 = any
  std::string syscall;  // empty = any (matches the span root's name)
  uint64_t span = 0;    // 0 = any
  // Cursor for incremental polls: only top-level entries whose own seq is
  // >= since are rendered (a qualifying root still renders its whole
  // subtree, including child events emitted before the cursor). Pollers
  // chase the "# next:" trailer. 0 = no cursor.
  uint64_t since = 0;

  bool active() const {
    return pid >= 0 || !syscall.empty() || span != 0 || since != 0;
  }
};

class Tracer {
 public:
  explicit Tracer(const Clock* clock, size_t capacity);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Master switch (the /proc/protego/trace "on"/"off" toggle).
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
    BumpConfigGen();
  }

  // Per-point enable bits.
  bool point_enabled(TracepointId tp) const {
    return (point_mask_.load(std::memory_order_relaxed) &
            (1u << static_cast<unsigned>(tp))) != 0;
  }
  void set_point_enabled(TracepointId tp, bool on) {
    if (on) {
      point_mask_.fetch_or(1u << static_cast<unsigned>(tp), std::memory_order_relaxed);
    } else {
      point_mask_.fetch_and(~(1u << static_cast<unsigned>(tp)),
                            std::memory_order_relaxed);
    }
    BumpConfigGen();
  }

  // The hot-path guard every instrumented site tests before formatting
  // anything: master bit AND per-point bit.
  bool Enabled(TracepointId tp) const {
    return enabled_.load(std::memory_order_relaxed) &&
           (point_mask_.load(std::memory_order_relaxed) &
            (1u << static_cast<unsigned>(tp))) != 0;
  }

  // Bumped by every enable/sampling configuration change. Consumers that
  // precompute dispatch state from the tracer config (the syscall gate's
  // per-syscall dispatch table) cache this and rebuild lazily on mismatch.
  uint64_t config_gen() const { return config_gen_.load(std::memory_order_relaxed); }

  // --- Seeded sampling -------------------------------------------------------
  //
  // 1-in-N head sampling per tracepoint. Decisions come from per-shard
  // (per-thread) splitmix64 streams, all seeded from one recorded seed — so
  // a run is replayable exactly like the fault registry: one task = one OS
  // thread in both exec modes, each thread's draw sequence is a pure
  // function of (seed, that thread's event sequence), and the same seed
  // reproduces the identical keep/drop decisions run after run. A rate or
  // seed change reseeds every stream at its next draw.

  uint32_t sample_rate(TracepointId tp) const {
    return sample_rate_[static_cast<size_t>(tp)].load(std::memory_order_relaxed);
  }
  // rate <= 1 keeps every event (sampling off for that point).
  void set_sample_rate(TracepointId tp, uint32_t rate) {
    sample_rate_[static_cast<size_t>(tp)].store(rate == 0 ? 1 : rate,
                                                std::memory_order_relaxed);
    sample_gen_.fetch_add(1, std::memory_order_relaxed);
    BumpConfigGen();
  }
  void set_all_sample_rates(uint32_t rate);

  uint64_t sample_seed() const { return sample_seed_.load(std::memory_order_relaxed); }
  void set_sample_seed(uint64_t seed) {
    sample_seed_.store(seed, std::memory_order_relaxed);
    sample_gen_.fetch_add(1, std::memory_order_relaxed);
    BumpConfigGen();
  }

  // Draws this thread's next sampling decision for `tp`. True = keep. A
  // dropped event is tallied in sampled_out(tp). rate <= 1 is a single
  // relaxed load. NOTE: the draw is consumed even for points the caller
  // later decides not to emit — callers gate on Enabled() FIRST (ShouldEmit
  // does) so disabled points never consume stream positions.
  bool SampleKeep(TracepointId tp);

  // The emission guard for sampled sites: Enabled(tp) && SampleKeep(tp).
  bool ShouldEmit(TracepointId tp) {
    if (!Enabled(tp)) {
      return false;
    }
    if (tls_muted_ && tp != TracepointId::kContextSwitch &&
        tp != TracepointId::kFaultInject) {
      return false;
    }
    return SampleKeep(tp);
  }

  // --- Thread mute (per-syscall dispatch) ------------------------------------
  //
  // An untraced syscall (dispatch word with the trace bit clear) mutes the
  // span-scoped decision points on its thread for its duration: nested
  // hook/permission/netfilter events belong to the enclosing span, and with
  // no span open they would render as orphan noise while still paying a
  // sampling draw apiece — exactly the cost per-syscall dispatch exists to
  // avoid. Ambient points that legitimately fire outside spans (context
  // switches, fault injections) are exempt. The flag is a plain
  // thread_local — only one gate window is open on a thread at a time —
  // and nested syscalls (Spawn/Execve) save/restore the previous value.
  static bool SwapThreadMute(bool muted) {
    bool prev = tls_muted_;
    tls_muted_ = muted;
    return prev;
  }
  static bool ThreadMuted() { return tls_muted_; }

  // Events suppressed by sampling since boot (per tracepoint).
  uint64_t sampled_out(TracepointId tp) const {
    return sampled_out_[static_cast<size_t>(tp)].load(std::memory_order_relaxed);
  }
  uint64_t total_sampled_out() const;

  // --- Decision spans --------------------------------------------------------
  //
  // Span stacks are per-pid: under the deterministic scheduler two tasks'
  // syscalls interleave at yield points, and a single global stack would
  // nest task B's span under whatever task A still has open. Keying the
  // stack by pid keeps each derivation tree attached to the task that
  // produced it regardless of the schedule. In parallel mode the pid keying
  // doubles as thread keying (one task = one thread); the map itself is
  // mutex-guarded.

  // Opens a span nested inside `pid`'s current one; returns its id (never 0).
  uint64_t BeginSpan(int pid);
  // Closes `span`. Tolerates mismatched ids (pops only if it is innermost
  // for `pid`).
  void EndSpan(int pid, uint64_t span);
  // Innermost open span id for `pid`, or 0.
  uint64_t current_span(int pid) const;

  // --- Emission --------------------------------------------------------------

  // Claims the calling thread's next shard slot, stamps seq/tick/pid and
  // `pid`'s current span, and resets the payload fields. Callers fill in the
  // rest through the returned handle. Callers MUST gate on Enabled(tp)
  // themselves.
  TraceSlot Emit(TracepointId tp, int pid);

  // Emission variant for span roots (syscall exit): the event is stamped
  // with `span` itself (not the innermost open span) and with that span's
  // parent, so nested syscalls chain correctly.
  TraceSlot EmitSpanRoot(TracepointId tp, int pid, uint64_t span);

  // --- Read side -------------------------------------------------------------

  // Retained events, merged across shards, oldest first.
  std::vector<TraceEvent> Snapshot() const;
  void Clear();

  size_t capacity() const { return capacity_; }
  uint64_t seq() const { return seq_.load(std::memory_order_relaxed); }
  // Events overwritten since the last Clear(). With multiple shards this is
  // a lower bound (each shard retains up to `capacity_` events, but the
  // merged view is cropped to the newest `capacity_`).
  uint64_t dropped() const {
    uint64_t s = seq();
    return s > capacity_ ? s - capacity_ : 0;
  }

  void set_read_filter(TraceFilter filter) { read_filter_ = std::move(filter); }
  const TraceFilter& read_filter() const { return read_filter_; }

  // The /proc/protego/trace body: decision trees (span roots with their
  // child events indented beneath), oldest first, honoring read_filter().
  std::string Format() const;

 private:
  struct OpenSpan {
    uint64_t id = 0;
    uint64_t parent = 0;
  };

  // One per-thread ring, sized on first emission. `emitted` counts events
  // this shard's owner (the sole writer) wrote. `sample_state` is the
  // thread's private splitmix64 stream, lazily (re)seeded when its
  // `sample_key` no longer matches the tracer's sampling generation.
  struct Shard {
    std::mutex mu;  // guards ring and emitted
    std::vector<TraceEvent> ring;
    uint64_t emitted = 0;
    uint64_t sample_state = 0;
    uint64_t sample_key = 0;  // sampling generation the state was seeded for
  };

  void BumpConfigGen() { config_gen_.fetch_add(1, std::memory_order_relaxed); }

  const Clock* clock_;
  size_t capacity_;
  std::atomic<bool> enabled_{true};
  std::atomic<uint32_t> point_mask_{0};
  std::atomic<uint64_t> config_gen_{1};  // any enable/sampling config change
  std::atomic<uint64_t> sample_gen_{1};  // sampling rate/seed changes only
  std::atomic<uint64_t> sample_seed_{1};
  static thread_local bool tls_muted_;
  std::atomic<uint32_t> sample_rate_[kTracepointCount] = {};
  std::atomic<uint64_t> sampled_out_[kTracepointCount] = {};
  std::atomic<uint64_t> seq_{0};  // next global sequence number
  ThreadShards<Shard> shards_;
  mutable std::mutex spans_mu_;  // guards open_spans_ and next_span_
  uint64_t next_span_ = 1;       // span ids survive Clear() (spans may be open)
  std::unordered_map<int, std::vector<OpenSpan>> open_spans_;  // keyed by pid
  TraceFilter read_filter_;
};

}  // namespace protego

#endif  // SRC_BASE_TRACEPOINT_H_
