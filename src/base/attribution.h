// Per-layer latency attribution: where does a timed syscall's time go?
//
// Attribution follows the timed set, the one latency switch: the gate puts
// the kernel's LayerProfiler on a timed call's CallFrame
// (src/base/call_frame.h), and a LayerScope opened while the innermost frame
// carries one becomes a layer frame — gate, seccomp filter, DAC, LSM module
// walk, VFS resolution, netfilter, fault registry, plus the observability
// pipeline's own bookkeeping. "timed=all" profiles every call, "timed=mount"
// only mounts. Scopes link to their parent through the call frame, which
// holds the innermost open one; a call nested inside another (Spawn's
// execve) starts from its caller's, so a timed nested call folds beneath the
// scope that made it and an untimed one stays part of that scope's self time.
//
// Each scope accumulates SELF time — its wall-clock duration minus the
// durations of the scopes nested inside it — so the per-layer totals
// telescope: summed over every layer they equal the total inclusive time of
// the root (gate) scopes. That identity is the self-check the observability
// bench enforces ("summed per-layer self-time within 10% of end-to-end span
// time").
//
// Each close also folds the scope's layer PATH (gate;lsm;vfs) into a
// fixed-size per-shard table, which /proc/protego/profile renders as a
// folded-stack profile — the flamegraph input format, one line per distinct
// path with its hit count and self nanoseconds.
//
// Accumulators live on ThreadShards: one single-writer shard per emitting
// thread. All of them are relaxed atomics, so a metrics scrape racing live
// scopes reads torn-free values; exact totals (like the trace ring) expect
// emitters to be quiescent. The folded table is open-addressed with a fixed
// slot count — no rehash, no allocation, no reader/writer UB — and paths
// beyond its capacity or deeper than kMaxDepth are counted as drops (a
// scope too deep to fold still keeps its self time).
//
// Self-time uses the monotonic wall clock, not the virtual clock: the
// virtual clock only moves when a test advances it, so layer attribution in
// ticks would read all-zero on every real workload. Consequently the ns
// totals vary run to run; the deterministic quantities (frame counts and
// the set of folded paths) are what the determinism tests compare.
//
// Outside a timed call a scope stays inert: it costs one thread-local load
// and a test of the frame's profiler pointer.

#ifndef SRC_BASE_ATTRIBUTION_H_
#define SRC_BASE_ATTRIBUTION_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "src/base/call_frame.h"
#include "src/base/metrics.h"
#include "src/base/thread_shards.h"

namespace protego {

// The attribution layers, in rough syscall-path order. Adding one means
// adding a name in attribution.cc and wrapping the code in a LayerScope.
enum class Layer : uint8_t {
  kGate = 0,        // syscall gate entry/exit bookkeeping (the root frame)
  kSeccomp,         // per-task seccomp filter consultation
  kDac,             // discretionary access control (mode bits + capability)
  kLsm,             // LSM stack module walk (hook dispatch)
  kVfs,             // VFS path resolution
  kNetfilter,       // netfilter chain evaluation
  kFaultRegistry,   // fault-injection site evaluation
  kObserver,        // the observability pipeline's own cost (self-accounting)
  kCount,           // sentinel
};

inline constexpr size_t kLayerCount = static_cast<size_t>(Layer::kCount);

const char* LayerName(Layer layer);

class LayerProfiler {
 public:
  // The deepest folded path: a path packs 4 bits per level into 64. Nested
  // Spawn/Execve chains re-enter the gate, so this allows several full
  // gate->leaf nestings.
  static constexpr size_t kMaxDepth = 16;
  // Folded-path table slots per shard. Distinct layer paths number in the
  // dozens (the layer alphabet is 8 wide and stacks are shallow), so 128
  // slots leave generous headroom; overflow is counted in dropped().
  static constexpr size_t kFoldedSlots = 128;

  LayerProfiler() = default;
  LayerProfiler(const LayerProfiler&) = delete;
  LayerProfiler& operator=(const LayerProfiler&) = delete;

  // --- Read side (merged across shards; exact when emitters are quiescent) --

  struct LayerTotals {
    uint64_t count = 0;    // frames closed for this layer
    uint64_t self_ns = 0;  // summed self time
    Histogram self_ns_hist;
  };
  LayerTotals Totals(Layer layer) const;

  // Inclusive wall time and count of root scopes. By the telescoping
  // identity, sum over layers of self_ns == root_ns when every scope closed.
  uint64_t root_ns() const;
  uint64_t root_count() const;
  // Frames too deep to fold, or lost to folded-table overflow.
  uint64_t dropped() const;

  struct FoldedEntry {
    std::string stack;  // "gate;lsm;vfs"
    uint64_t count = 0;
    uint64_t self_ns = 0;
  };
  // Merged folded profile, sorted by stack string for stable output.
  std::vector<FoldedEntry> Folded() const;

  // The /proc/protego/profile body: a per-layer self-time table (comment
  // lines) followed by folded-stack lines ("gate;lsm 42 123456").
  std::string FormatProfile() const;

  // Zeroes every shard's accumulators (emitters must be quiescent).
  void Reset();

  // protego_layer_self_time_ns{layer=...} histograms, per-layer entry
  // counters, root totals, and the observer self-accounting counter.
  void CollectMetrics(MetricsBuilder& b) const;

 private:
  friend class LayerScope;

  // One open-addressed folded-path cell. The owner thread is the only
  // writer; `path` is atomic so a concurrent reader never sees a torn key.
  struct FoldedCell {
    std::atomic<uint64_t> path{0};  // 0 = empty
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> self_ns{0};
  };

  struct Shard {
    Histogram self_ns[kLayerCount];  // per-layer self time; count() = frames
    FoldedCell folded[kFoldedSlots];
    std::atomic<uint64_t> root_ns{0};
    std::atomic<uint64_t> root_count{0};
    std::atomic<uint64_t> dropped{0};
  };

  static void Fold(Shard& shard, uint64_t path, uint64_t self_ns);
  static std::string PathString(uint64_t path);

  ThreadShards<Shard> shards_;
};

// RAII layer frame. Engagement is decided once, at construction: the scope
// opens only when the thread's innermost call is timed, and then closes
// into that call's profiler whatever the timed set becomes meanwhile.
class LayerScope {
 public:
  explicit LayerScope(Layer layer) {
    CallFrame* frame = CallFrame::Current();
    if (frame != nullptr && frame->profiler != nullptr) {
      Open(*frame, layer);
    }
  }
  ~LayerScope() {
    if (frame_ != nullptr) {
      Close();
    }
  }
  LayerScope(const LayerScope&) = delete;
  LayerScope& operator=(const LayerScope&) = delete;

 private:
  void Open(CallFrame& frame, Layer layer);
  void Close();

  CallFrame* frame_ = nullptr;  // the timed call this scope runs in; null = inert
  // Written by Open and read only by Close, so an inert scope, on every
  // untimed call, stores nothing but frame_.
  LayerScope* parent_;  // the enclosing open scope (nullptr = a root)
  uint64_t start_ns_;
  uint64_t child_ns_;  // inclusive time of closed child scopes
  uint64_t path_;      // packed layer path, 4 bits per level
  uint32_t depth_;     // 1 for a root
  Layer layer_;
};

}  // namespace protego

#endif  // SRC_BASE_ATTRIBUTION_H_
