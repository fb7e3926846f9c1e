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

void LayerScope::Open(CallFrame& frame, Layer layer) {
  frame_ = &frame;
  parent_ = frame.scope;
  layer_ = layer;
  depth_ = parent_ == nullptr ? 1 : parent_->depth_ + 1;
  const uint64_t level = static_cast<uint64_t>(layer) + 1;
  path_ = parent_ == nullptr ? level : (parent_->path_ << kPathBits) | level;
  child_ns_ = 0;
  frame.scope = this;
  start_ns_ = MonotonicNanos();
}

void LayerScope::Close() {
  // Children ran inside [start_ns_, now), so their sum never exceeds dur.
  const uint64_t dur = MonotonicNanos() - start_ns_;
  const uint64_t self = dur - child_ns_;
  frame_->scope = parent_;
  LayerProfiler::Shard& shard = frame_->profiler->shards_.Mine();
  shard.self_ns[static_cast<size_t>(layer_)].Observe(self);
  if (depth_ <= LayerProfiler::kMaxDepth) {
    LayerProfiler::Fold(shard, path_, self);
  } else {
    shard.dropped.fetch_add(1, std::memory_order_relaxed);  // too deep to fold
  }
  if (parent_ == nullptr) {
    shard.root_ns.fetch_add(dur, std::memory_order_relaxed);
    shard.root_count.fetch_add(1, std::memory_order_relaxed);
  } else {
    parent_->child_ns_ += dur;
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
  shards_.ForEach([&](const Shard& shard) {
    out.self_ns_hist.Merge(shard.self_ns[static_cast<size_t>(layer)]);
  });
  out.count = out.self_ns_hist.count();
  out.self_ns = out.self_ns_hist.sum();
  return out;
}

uint64_t LayerProfiler::root_ns() const { return shards_.Sum(&Shard::root_ns); }

uint64_t LayerProfiler::root_count() const { return shards_.Sum(&Shard::root_count); }

uint64_t LayerProfiler::dropped() const { return shards_.Sum(&Shard::dropped); }

std::vector<LayerProfiler::FoldedEntry> LayerProfiler::Folded() const {
  std::map<uint64_t, FoldedEntry> merged;
  shards_.ForEach([&](const Shard& shard) {
    for (const FoldedCell& cell : shard.folded) {
      uint64_t path = cell.path.load(std::memory_order_relaxed);
      if (path == 0) {
        continue;
      }
      FoldedEntry& e = merged[path];
      e.count += cell.count.load(std::memory_order_relaxed);
      e.self_ns += cell.self_ns.load(std::memory_order_relaxed);
    }
  });
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
  shards_.ForEach([](Shard& shard) {
    for (Histogram& h : shard.self_ns) {
      h.Reset();
    }
    for (FoldedCell& cell : shard.folded) {
      cell.path.store(0, std::memory_order_relaxed);
      cell.count.store(0, std::memory_order_relaxed);
      cell.self_ns.store(0, std::memory_order_relaxed);
    }
    shard.root_ns.store(0, std::memory_order_relaxed);
    shard.root_count.store(0, std::memory_order_relaxed);
    shard.dropped.store(0, std::memory_order_relaxed);
  });
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
