#include "src/base/attribution.h"

#include <algorithm>
#include <map>

#include "src/base/clock.h"
#include "src/base/strings.h"

namespace protego {

namespace {

// 4 bits per path level: layer ordinal + 1 so an empty level is 0.
constexpr uint64_t kPathBits = 4;
static_assert(kLayerCount + 1 <= (1u << kPathBits), "layer ordinal must fit a path nibble");

}  // namespace

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kGate: return "gate";
    case Layer::kSeccomp: return "seccomp";
    case Layer::kDac: return "dac";
    case Layer::kLsm: return "lsm";
    case Layer::kVfs: return "vfs";
    case Layer::kNetfilter: return "netfilter";
    case Layer::kFaultRegistry: return "fault_registry";
    case Layer::kObserver: return "observer";
    case Layer::kCount: break;
  }
  return "?";
}

LayerProfiler::LayerProfiler() {
  static std::atomic<uint64_t> next_profiler_id{1};
  id_ = next_profiler_id.fetch_add(1, std::memory_order_relaxed);
}

LayerProfiler::Shard& LayerProfiler::MyShard() {
  struct TlCache {
    uint64_t profiler_id = 0;
    Shard* shard = nullptr;
  };
  thread_local TlCache cache;
  if (cache.profiler_id == id_) {
    return *cache.shard;
  }
  std::lock_guard<std::mutex> lk(shards_mu_);
  std::thread::id me = std::this_thread::get_id();
  for (const std::unique_ptr<Shard>& s : shards_) {
    if (s->owner == me) {
      cache = {id_, s.get()};
      return *s;
    }
  }
  shards_.push_back(std::make_unique<Shard>());
  Shard& shard = *shards_.back();
  shard.owner = me;
  cache = {id_, &shard};
  return shard;
}

void LayerProfiler::Enter(Layer layer) {
  Shard& shard = MyShard();
  if (shard.depth >= kMaxDepth) {
    // Too deep to attribute: count the drop but keep the stack balanced by
    // tracking the phantom depth (Exit decrements it back).
    shard.dropped.fetch_add(1, std::memory_order_relaxed);
    ++shard.depth;
    return;
  }
  Frame& f = shard.stack[shard.depth];
  f.layer = layer;
  f.start_ns = MonotonicNanos();
  f.child_ns = 0;
  uint64_t parent_path = shard.depth == 0 ? 0 : shard.stack[shard.depth - 1].path;
  f.path = (parent_path << kPathBits) | (static_cast<uint64_t>(layer) + 1);
  ++shard.depth;
}

void LayerProfiler::Exit() {
  Shard& shard = MyShard();
  if (shard.depth == 0) {
    return;  // unbalanced Exit (enable raced a scope); tolerate
  }
  --shard.depth;
  if (shard.depth >= kMaxDepth) {
    return;  // closing a phantom overflow frame
  }
  Frame& f = shard.stack[shard.depth];
  uint64_t dur = MonotonicNanos() - f.start_ns;
  uint64_t self = dur > f.child_ns ? dur - f.child_ns : 0;
  PerLayer& layer = shard.layers[static_cast<size_t>(f.layer)];
  layer.count.fetch_add(1, std::memory_order_relaxed);
  layer.self_ns.fetch_add(self, std::memory_order_relaxed);
  layer.self_ns_hist.Observe(self);
  Fold(shard, f.path, self);
  if (shard.depth == 0) {
    shard.root_ns.fetch_add(dur, std::memory_order_relaxed);
    shard.root_count.fetch_add(1, std::memory_order_relaxed);
  } else {
    shard.stack[shard.depth - 1].child_ns += dur;
  }
}

void LayerProfiler::Fold(Shard& shard, uint64_t path, uint64_t self_ns) {
  // Open addressing, single writer per shard. Fibonacci hashing spreads the
  // dense low-nibble paths across the table.
  size_t idx = static_cast<size_t>((path * 0x9e3779b97f4a7c15ull) >> 32) % kFoldedSlots;
  for (size_t probe = 0; probe < kFoldedSlots; ++probe) {
    FoldedCell& cell = shard.folded[(idx + probe) % kFoldedSlots];
    uint64_t key = cell.path.load(std::memory_order_relaxed);
    if (key == 0) {
      cell.path.store(path, std::memory_order_relaxed);
      key = path;
    }
    if (key == path) {
      cell.count.fetch_add(1, std::memory_order_relaxed);
      cell.self_ns.fetch_add(self_ns, std::memory_order_relaxed);
      return;
    }
  }
  shard.dropped.fetch_add(1, std::memory_order_relaxed);
}

std::string LayerProfiler::PathString(uint64_t path) {
  // Decode the nibbles root-first.
  uint64_t nibbles[kMaxDepth];
  size_t n = 0;
  while (path != 0 && n < kMaxDepth) {
    nibbles[n++] = path & ((1u << kPathBits) - 1);
    path >>= kPathBits;
  }
  std::string out;
  for (size_t i = n; i-- > 0;) {
    if (!out.empty()) {
      out += ";";
    }
    out += LayerName(static_cast<Layer>(nibbles[i] - 1));
  }
  return out;
}

LayerProfiler::LayerTotals LayerProfiler::Totals(Layer layer) const {
  LayerTotals out;
  std::lock_guard<std::mutex> lk(shards_mu_);
  for (const std::unique_ptr<Shard>& shard : shards_) {
    const PerLayer& pl = shard->layers[static_cast<size_t>(layer)];
    out.count += pl.count.load(std::memory_order_relaxed);
    out.self_ns += pl.self_ns.load(std::memory_order_relaxed);
    out.self_ns_hist.Merge(pl.self_ns_hist);
  }
  return out;
}

uint64_t LayerProfiler::root_ns() const {
  uint64_t total = 0;
  std::lock_guard<std::mutex> lk(shards_mu_);
  for (const std::unique_ptr<Shard>& shard : shards_) {
    total += shard->root_ns.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t LayerProfiler::root_count() const {
  uint64_t total = 0;
  std::lock_guard<std::mutex> lk(shards_mu_);
  for (const std::unique_ptr<Shard>& shard : shards_) {
    total += shard->root_count.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t LayerProfiler::dropped() const {
  uint64_t total = 0;
  std::lock_guard<std::mutex> lk(shards_mu_);
  for (const std::unique_ptr<Shard>& shard : shards_) {
    total += shard->dropped.load(std::memory_order_relaxed);
  }
  return total;
}

std::vector<LayerProfiler::FoldedEntry> LayerProfiler::Folded() const {
  std::map<uint64_t, FoldedEntry> merged;
  {
    std::lock_guard<std::mutex> lk(shards_mu_);
    for (const std::unique_ptr<Shard>& shard : shards_) {
      for (const FoldedCell& cell : shard->folded) {
        uint64_t path = cell.path.load(std::memory_order_relaxed);
        if (path == 0) {
          continue;
        }
        FoldedEntry& e = merged[path];
        e.count += cell.count.load(std::memory_order_relaxed);
        e.self_ns += cell.self_ns.load(std::memory_order_relaxed);
      }
    }
  }
  std::vector<FoldedEntry> out;
  out.reserve(merged.size());
  for (auto& [path, entry] : merged) {
    entry.stack = PathString(path);
    out.push_back(std::move(entry));
  }
  std::sort(out.begin(), out.end(),
            [](const FoldedEntry& a, const FoldedEntry& b) { return a.stack < b.stack; });
  return out;
}

std::string LayerProfiler::FormatProfile() const {
  std::string out;
  out += StrFormat("# layer-profile enabled=%d\n", enabled() ? 1 : 0);
  uint64_t self_total = 0;
  for (size_t i = 0; i < kLayerCount; ++i) {
    LayerTotals t = Totals(static_cast<Layer>(i));
    if (t.count == 0) {
      continue;
    }
    self_total += t.self_ns;
    out += StrFormat("# layer %s count=%llu self_ns=%llu\n",
                     LayerName(static_cast<Layer>(i)), (unsigned long long)t.count,
                     (unsigned long long)t.self_ns);
  }
  out += StrFormat("# roots count=%llu total_ns=%llu self_sum_ns=%llu dropped=%llu\n",
                   (unsigned long long)root_count(), (unsigned long long)root_ns(),
                   (unsigned long long)self_total, (unsigned long long)dropped());
  // Folded-stack body: flamegraph input, one "path count self_ns" per line.
  for (const FoldedEntry& e : Folded()) {
    out += StrFormat("%s %llu %llu\n", e.stack.c_str(), (unsigned long long)e.count,
                     (unsigned long long)e.self_ns);
  }
  return out;
}

void LayerProfiler::Reset() {
  std::lock_guard<std::mutex> lk(shards_mu_);
  for (const std::unique_ptr<Shard>& shard : shards_) {
    for (PerLayer& pl : shard->layers) {
      pl.count.store(0, std::memory_order_relaxed);
      pl.self_ns.store(0, std::memory_order_relaxed);
      pl.self_ns_hist.Reset();
    }
    for (FoldedCell& cell : shard->folded) {
      cell.path.store(0, std::memory_order_relaxed);
      cell.count.store(0, std::memory_order_relaxed);
      cell.self_ns.store(0, std::memory_order_relaxed);
    }
    shard->root_ns.store(0, std::memory_order_relaxed);
    shard->root_count.store(0, std::memory_order_relaxed);
    shard->dropped.store(0, std::memory_order_relaxed);
  }
}

void LayerProfiler::CollectMetrics(MetricsBuilder& b) const {
  uint64_t self_total = 0;
  for (size_t i = 0; i < kLayerCount; ++i) {
    Layer layer = static_cast<Layer>(i);
    LayerTotals t = Totals(layer);
    if (t.count == 0) {
      continue;
    }
    self_total += t.self_ns;
    MetricLabels labels = {{"layer", LayerName(layer)}};
    b.Counter("protego_layer_entries_total",
              "Attribution frames closed per layer", labels, t.count);
    b.Counter("protego_layer_self_ns_total",
              "Summed per-layer self time in nanoseconds", labels, t.self_ns);
    b.Histo("protego_layer_self_time_ns",
            "Per-frame layer self time in nanoseconds", labels, t.self_ns_hist);
  }
  b.Counter("protego_layer_root_ns_total",
            "Inclusive wall time of top-level attribution frames", {}, root_ns());
  b.Counter("protego_layer_root_frames_total",
            "Top-level attribution frames closed", {}, root_count());
  b.Counter("protego_layer_dropped_total",
            "Attribution frames lost to stack or folded-table overflow", {}, dropped());
  // The observer's self-accounting: the instrumentation cost the pipeline
  // metered on itself, plus its share of the attributed total.
  uint64_t observer_ns = Totals(Layer::kObserver).self_ns;
  b.Counter("protego_observer_self_ns_total",
            "Self time the observability pipeline spent on its own bookkeeping", {},
            observer_ns);
  uint64_t roots = root_ns();
  b.Gauge("protego_observer_overhead_ratio",
          "Observer self time as a fraction of attributed root time", {},
          roots > 0 ? static_cast<double>(observer_ns) / static_cast<double>(roots) : 0.0);
}

}  // namespace protego
