// Per-layer latency attribution: where does a syscall's time actually go?
//
// A LayerProfiler maintains, per thread, a small stack of open layer frames
// (gate, seccomp filter, DAC, LSM module walk, VFS resolution, netfilter,
// fault registry, plus the observability pipeline's own bookkeeping). Each
// frame accumulates SELF time — its wall-clock duration minus the durations
// of the frames nested inside it — so the per-layer totals telescope: summed
// over every layer they equal the total inclusive time of the top-level
// (gate) frames. That identity is the self-check the observability bench
// enforces ("summed per-layer self-time within 10% of end-to-end span
// time").
//
// Each exit also folds the frame's layer PATH (gate;lsm;vfs)
// into a fixed-size per-shard table, which /proc/protego/profile renders as
// a folded-stack profile — the flamegraph input format, one line per
// distinct path with its hit count and self nanoseconds.
//
// Shard discipline mirrors the Tracer: one shard per emitting thread with a
// single writer, created under a mutex on first use and found through a
// thread-local one-entry cache keyed on the profiler's process-unique id.
// All accumulators are relaxed atomics, so a metrics scrape racing live
// frames reads torn-free values; exact totals (like the trace ring) expect
// emitters to be quiescent. The folded table is open-addressed with a fixed
// slot count — no rehash, no allocation, no reader/writer UB — and paths
// beyond its capacity or deeper than the frame stack are counted as drops,
// never silently lost.
//
// Self-time uses the monotonic wall clock, not the virtual clock: the
// virtual clock only moves when a test advances it, so layer attribution in
// ticks would read all-zero on every real workload. Consequently the ns
// totals vary run to run; the deterministic quantities (frame counts and
// the set of folded paths) are what the determinism tests compare.
//
// Disabled (the default), Enter/Exit are never called: LayerScope checks
// one relaxed atomic and stays inert, so the hot path pays a pointer test
// and a load per instrumented region.

#ifndef SRC_BASE_ATTRIBUTION_H_
#define SRC_BASE_ATTRIBUTION_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/base/metrics.h"

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
  // Frame stack depth per thread; nested Spawn/Execve chains re-enter the
  // gate, so the budget allows several full gate->leaf nestings.
  static constexpr size_t kMaxDepth = 16;
  // Folded-path table slots per shard. Distinct layer paths number in the
  // dozens (the layer alphabet is 8 wide and stacks are shallow), so 128
  // slots leave generous headroom; overflow is counted in dropped().
  static constexpr size_t kFoldedSlots = 128;

  LayerProfiler();
  LayerProfiler(const LayerProfiler&) = delete;
  LayerProfiler& operator=(const LayerProfiler&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  // Opens/closes a frame on the calling thread. Call only while enabled —
  // LayerScope (below) captures engagement at entry so a mid-span toggle
  // cannot unbalance the stack.
  void Enter(Layer layer);
  void Exit();

  // --- Read side (merged across shards; exact when emitters are quiescent) --

  struct LayerTotals {
    uint64_t count = 0;    // frames closed for this layer
    uint64_t self_ns = 0;  // summed self time
    Histogram self_ns_hist;
  };
  LayerTotals Totals(Layer layer) const;

  // Inclusive wall time and count of top-level frames (depth-0 exits). By
  // the telescoping identity, sum over layers of self_ns == root_ns when
  // every frame closed inside a root.
  uint64_t root_ns() const;
  uint64_t root_count() const;
  // Frames lost to stack-depth or folded-table overflow.
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
  struct Frame {
    Layer layer = Layer::kGate;
    uint64_t start_ns = 0;
    uint64_t child_ns = 0;  // inclusive time of already-closed children
    uint64_t path = 0;      // packed layer path, 4 bits per level
  };

  struct PerLayer {
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> self_ns{0};
    Histogram self_ns_hist;
  };

  // One open-addressed folded-path cell. The owner thread is the only
  // writer; `path` is atomic so a concurrent reader never sees a torn key.
  struct FoldedCell {
    std::atomic<uint64_t> path{0};  // 0 = empty
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> self_ns{0};
  };

  struct Shard {
    std::thread::id owner;
    Frame stack[kMaxDepth];
    size_t depth = 0;  // owner-thread only; may exceed kMaxDepth (overflow)
    PerLayer layers[kLayerCount];
    FoldedCell folded[kFoldedSlots];
    std::atomic<uint64_t> root_ns{0};
    std::atomic<uint64_t> root_count{0};
    std::atomic<uint64_t> dropped{0};
  };

  Shard& MyShard();
  static void Fold(Shard& shard, uint64_t path, uint64_t self_ns);
  static std::string PathString(uint64_t path);

  std::atomic<bool> enabled_{false};
  uint64_t id_;  // process-unique, for the thread-local shard cache
  mutable std::mutex shards_mu_;  // guards shards_ growth
  std::vector<std::unique_ptr<Shard>> shards_;
};

// RAII layer frame. Engagement is decided ONCE at construction (profiler
// attached and enabled), so a concurrent enable/disable cannot unbalance
// Enter/Exit pairs.
class LayerScope {
 public:
  LayerScope(LayerProfiler* profiler, Layer layer) {
    if (profiler != nullptr && profiler->enabled()) {
      profiler_ = profiler;
      profiler_->Enter(layer);
    }
  }
  ~LayerScope() {
    if (profiler_ != nullptr) {
      profiler_->Exit();
    }
  }
  LayerScope(const LayerScope&) = delete;
  LayerScope& operator=(const LayerScope&) = delete;

 private:
  LayerProfiler* profiler_ = nullptr;
};

}  // namespace protego

#endif  // SRC_BASE_ATTRIBUTION_H_
