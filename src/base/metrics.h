// The metrics registry: counters, gauges, and log2-bucket latency histograms,
// exported in Prometheus text exposition format (/proc/protego/metrics), plus
// a bounded JSON excerpt for bench artifacts.
//
// Design: instrumented components keep their own hot-path storage (the
// syscall gate's per-thread records, the LSM stack's per-thread hook
// tallies) and register a *collector* callback here. Export walks the
// collectors and assembles one consistent snapshot — so /proc/protego/metrics
// and the C++ accessors read the same underlying counters, with zero extra
// cost on the syscall path.
//
// Histogram is the embeddable hot-path type: fixed power-of-two buckets
// (0, 1, 2, 4, ..., 2^30, +Inf), one clz and three relaxed load/store
// pairs per Observe. Every histogram in the kernel has a single writer
// thread (the gate's per-thread syscall records, the layer profiler's
// per-thread shards); the atomics only let a scrape read it mid-traffic.

#ifndef SRC_BASE_METRICS_H_
#define SRC_BASE_METRICS_H_

#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/base/rw_lock.h"
#include "src/base/thread_shards.h"

namespace protego {

// Log2-bucket histogram. Upper bounds: 0, 1, 2, 4, ..., 2^30, +Inf.
// One writer at a time: Observe, Merge and assignment add with a relaxed
// load and store (AddOwned), not a locked add. Readers see a statistically
// consistent view (sum/count/buckets may momentarily disagree by one
// in-flight observation, which Prometheus scrape semantics tolerate); a
// Reset from another thread during traffic may be partly undone by an
// Observe in flight, as the gate's per-thread call counters may.
class Histogram {
 public:
  // Bucket 0 holds exact zeros; buckets 1..31 hold (2^(i-2), 2^(i-1)];
  // the last bucket is +Inf.
  static constexpr size_t kBuckets = 33;

  Histogram() = default;
  // Copying snapshots bucket-by-bucket with relaxed loads: the export path
  // copies live histograms while hot paths keep observing, and a scrape
  // momentarily off by an in-flight observation is fine.
  Histogram(const Histogram& other) { *this = other; }
  Histogram& operator=(const Histogram& other) {
    if (this == &other) {
      return *this;
    }
    for (size_t i = 0; i < kBuckets; ++i) {
      buckets_[i].store(other.buckets_[i].load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
    }
    sum_.store(other.sum_.load(std::memory_order_relaxed), std::memory_order_relaxed);
    count_.store(other.count_.load(std::memory_order_relaxed), std::memory_order_relaxed);
    return *this;
  }

  void Observe(uint64_t v) {
    AddOwned(buckets_[BucketIndex(v)]);
    AddOwned(sum_, v);
    AddOwned(count_);
  }

  static size_t BucketIndex(uint64_t v) {
    if (v == 0) {
      return 0;
    }
    size_t idx = 1 + static_cast<size_t>(std::bit_width(v - 1));
    return idx < kBuckets ? idx : kBuckets - 1;
  }

  // Upper bound of bucket `i`; the last is reported as "+Inf".
  static uint64_t BucketBound(size_t i) {
    return i == 0 ? 0 : uint64_t{1} << (i - 1);
  }

  uint64_t bucket(size_t i) const { return buckets_[i].load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }

  void Reset() {
    for (std::atomic<uint64_t>& b : buckets_) {
      b.store(0, std::memory_order_relaxed);
    }
    sum_.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
  }

  // Adds `other`'s buckets/sum/count into this histogram (relaxed loads on
  // both sides: used by sharded collectors merging per-thread histograms
  // into a local sum on the read path).
  void Merge(const Histogram& other) {
    for (size_t i = 0; i < kBuckets; ++i) {
      AddOwned(buckets_[i], other.buckets_[i].load(std::memory_order_relaxed));
    }
    AddOwned(sum_, other.sum_.load(std::memory_order_relaxed));
    AddOwned(count_, other.count_.load(std::memory_order_relaxed));
  }

 private:
  std::atomic<uint64_t> buckets_[kBuckets] = {};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> count_{0};
};

// Label set, e.g. {{"syscall", "open"}}. Order is preserved in the output.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

// One exemplar attached to a histogram sample: a concrete observation
// (value) with identifying labels (span id, pid), rendered OpenMetrics-
// style after the bucket line its value falls into:
//   name_bucket{...,le="64"} 12 # {span="17",pid="3"} 41
// The tail-exemplar reservoir uses this to pin the K slowest spans per
// syscall to their latency buckets, so a rare slow path stays explainable
// even when head sampling dropped its trace.
struct MetricExemplar {
  MetricLabels labels;
  uint64_t value = 0;
};

// Collectors report samples through this interface; the registry assembles
// them into families. Repeated calls with the same name append samples to
// the same family (help/type from the first call win).
class MetricsBuilder {
 public:
  virtual ~MetricsBuilder() = default;
  virtual void Counter(const std::string& name, const std::string& help,
                       MetricLabels labels, uint64_t value) = 0;
  virtual void Gauge(const std::string& name, const std::string& help,
                     MetricLabels labels, double value) = 0;
  virtual void Histo(const std::string& name, const std::string& help,
                     MetricLabels labels, const Histogram& h) = 0;
  // Histogram with exemplars.
  virtual void HistoEx(const std::string& name, const std::string& help,
                       MetricLabels labels, const Histogram& h,
                       std::vector<MetricExemplar> exemplars) = 0;
};

// One lock's two series: protego_lock_contended_total and
// protego_lock_wait_ns_total, labelled {lock}.
void CollectLock(MetricsBuilder& b, const char* lock, const LockCounts& counts);

class MetricsRegistry {
 public:
  using Collector = std::function<void(MetricsBuilder&)>;

  // Registers a collector invoked on every export, in registration order.
  // Thread-safe: a module may register while a task thread is exporting
  // /proc/protego/metrics, which snapshots the list under the same lock.
  void AddCollector(Collector collector) {
    std::lock_guard<std::mutex> lk(mu_);
    collectors_.push_back(std::move(collector));
  }

  size_t collector_count() const {
    std::lock_guard<std::mutex> lk(mu_);
    return collectors_.size();
  }

  // Prometheus text exposition format: # HELP / # TYPE headers, escaped
  // label values, cumulative histogram buckets ending in le="+Inf" plus
  // _sum and _count. Families are emitted sorted by name.
  std::string PrometheusText() const;

  // A stable, sorted, size-bounded JSON excerpt for embedding in bench
  // artifacts: families sorted by name, samples sorted by serialized
  // labels, at most `max_samples_per_family` samples each (with an
  // "omitted" count when truncated), and histograms reduced to
  // {count, sum} — so the blob diffs reviewably run to run.
  std::string JsonExcerpt(size_t max_samples_per_family) const;

 protected:
  // Snapshot for export: collectors run outside the lock (they may take
  // subsystem locks of their own).
  std::vector<Collector> SnapshotCollectors() const {
    std::lock_guard<std::mutex> lk(mu_);
    return collectors_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<Collector> collectors_;
};

}  // namespace protego

#endif  // SRC_BASE_METRICS_H_
