// Kernel-wide tracepoints: a static registry of typed decision points and
// a sharded structured event ring, modeled on ftrace/perf_events.
//
// Every instrumented site (syscall gate, LSM hook dispatch, VFS permission
// walks, netfilter verdicts, cred transitions) emits TraceEvents into the
// same logical ring, so /proc/protego/trace can interleave them in causal
// order.
//
// Causal decision spans: a span is a traced call frame (call_frame.h). The
// gate opens one for each traced syscall, chained to the innermost traced
// call of the same task on the thread. Every event is stamped with the span
// of the innermost frame on the emitting thread; the syscall's own event —
// the span root — is emitted at exit, while its frame is still innermost.
// The Format() renderer groups child events under their root, producing the
// full allow/deny derivation tree for one call: the strace line plus the
// hook verdicts underneath it.
//
// Parallel mode: the ring is sharded per emitting thread (ftrace's per-CPU
// buffers, on ThreadShards). Each shard has exactly one writer — the thread
// that owns it — and a mutex that writer holds only while it fills one
// event, so Snapshot/Format/Clear are safe during traffic; a global atomic
// sequence counter gives events a total order and Snapshot() merge-sorts the
// shards by it. Emission takes no other lock.
//
// Hot-path discipline: Enabled(tp) is the master switch (one relaxed load,
// one branch) — the only cost when tracing is off. Event slots are
// preallocated and reused; the name/detail/value fields that always come
// from string literals (hook names, module names, verdict names) are stored
// as const char* so the LSM fast path allocates nothing. Only free-form
// payloads (syscall args, paths, rule comments) use the std::string fields,
// which reuse slot capacity.

#ifndef SRC_BASE_TRACEPOINT_H_
#define SRC_BASE_TRACEPOINT_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "src/base/call_frame.h"
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
  uint64_t span = 0;    // the emitting call's span (0 = outside any traced call)
  uint64_t parent = 0;  // that span's parent (only meaningful for span roots)
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
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  // The hot-path guard every instrumented site tests before formatting
  // anything: the master switch, then the calling thread's frame — an
  // untraced call mutes the span-scoped points emitted inside it (they would
  // be orphan noise and still pay a sampling draw apiece). Context switches
  // and fault injections are ambient and never muted.
  bool Enabled(TracepointId tp) const {
    if (!enabled_.load(std::memory_order_relaxed)) {
      return false;
    }
    const CallFrame* frame = CallFrame::Current();
    return frame == nullptr || frame->traced || tp == TracepointId::kContextSwitch ||
           tp == TracepointId::kFaultInject;
  }

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
  }
  void set_all_sample_rates(uint32_t rate);

  uint64_t sample_seed() const { return sample_seed_.load(std::memory_order_relaxed); }
  void set_sample_seed(uint64_t seed) {
    sample_seed_.store(seed, std::memory_order_relaxed);
    sample_gen_.fetch_add(1, std::memory_order_relaxed);
  }

  // Draws this thread's next sampling decision for `tp`. True = keep. A
  // dropped event is tallied in sampled_out(tp). rate <= 1 is a single
  // relaxed load. NOTE: the draw is consumed even for points the caller
  // later decides not to emit — callers gate on Enabled() FIRST (ShouldEmit
  // does) so disabled points never consume stream positions.
  bool SampleKeep(TracepointId tp);

  // The emission guard for sampled sites: Enabled(tp) && SampleKeep(tp).
  bool ShouldEmit(TracepointId tp) { return Enabled(tp) && SampleKeep(tp); }

  // Events suppressed by sampling since boot (per tracepoint).
  uint64_t sampled_out(TracepointId tp) const {
    return sampled_out_[static_cast<size_t>(tp)].load(std::memory_order_relaxed);
  }
  uint64_t total_sampled_out() const;

  // --- Decision spans and emission -------------------------------------------

  // Marks `frame` traced and gives it a fresh span id (never 0), chained to
  // the innermost traced call of the same task above it.
  void OpenSpan(CallFrame& frame) {
    frame.traced = true;
    frame.span = next_span_.fetch_add(1, std::memory_order_relaxed);
    frame.parent = CallFrame::TracedSpan(frame.up, frame.pid);
  }

  // Claims the calling thread's next shard slot, stamps seq/tick/pid and the
  // span of the innermost frame on this thread (with its parent, so the
  // gate's exit event is the span root), and resets the payload fields.
  // Callers fill in the rest through the returned handle. Callers MUST gate
  // on Enabled(tp) themselves.
  TraceSlot Emit(TracepointId tp, int pid);

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

  // The filter is written by /proc/protego/trace writes and copied by
  // every read of the file, possibly on other threads: both go through
  // filter_mu_.
  void set_read_filter(TraceFilter filter) {
    std::lock_guard<std::mutex> lk(filter_mu_);
    read_filter_ = std::move(filter);
  }
  TraceFilter read_filter() const {
    std::lock_guard<std::mutex> lk(filter_mu_);
    return read_filter_;
  }

  // The /proc/protego/trace body: decision trees (span roots with their
  // child events indented beneath), oldest first, honoring read_filter().
  std::string Format() const;

 private:
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

  const Clock* clock_;
  size_t capacity_;
  std::atomic<bool> enabled_{true};
  std::atomic<uint64_t> sample_gen_{1};  // sampling rate/seed changes
  std::atomic<uint64_t> sample_seed_{1};
  std::atomic<uint32_t> sample_rate_[kTracepointCount] = {};
  std::atomic<uint64_t> sampled_out_[kTracepointCount] = {};
  std::atomic<uint64_t> seq_{0};  // next global sequence number
  ThreadShards<Shard> shards_;
  std::atomic<uint64_t> next_span_{1};  // survives Clear() (spans may be open)
  mutable std::mutex filter_mu_;
  TraceFilter read_filter_;
};

}  // namespace protego

#endif  // SRC_BASE_TRACEPOINT_H_
