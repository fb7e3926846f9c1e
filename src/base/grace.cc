#include "src/base/grace.h"

#include <algorithm>

namespace protego {

GraceDomain::~GraceDomain() {
  shards_.ForEach([](Shard& shard) {
    for (const Retired& r : shard.retired) {
      r.free(r.object);
    }
  });
}

void GraceDomain::RetireRaw(const void* object, void (*free)(const void*)) {
  if (object == nullptr) {
    return;
  }
  Shard& shard = shards_.Mine();
  // The read-modify-write orders the caller's unpublish before the stamp.
  shard.pending.fetch_add(1, std::memory_order_seq_cst);
  const uint64_t stamp = epoch_.load(std::memory_order_seq_cst);
  size_t queued;
  {
    std::lock_guard<std::mutex> lk(shard.mu);
    shard.retired.push_back(Retired{object, free, stamp});
    queued = shard.retired.size();
  }
  if (queued % kBatch == 0) {
    Collect(&shard);
  }
}

bool GraceDomain::TryAdvance() {
  uint64_t epoch = epoch_.load(std::memory_order_acquire);
  bool behind = false;
  shards_.ForEach([&](Shard& shard) {
    const uint64_t announced = shard.active.load(std::memory_order_acquire);
    behind |= announced != 0 && announced != epoch;
  });
  return !behind &&
         epoch_.compare_exchange_strong(epoch, epoch + 1, std::memory_order_acq_rel);
}

void GraceDomain::Reclaim() { Collect(nullptr); }

void GraceDomain::Collect(Shard* only) {
  for (int step = 0; step < 2 && TryAdvance(); ++step) {
  }
  const uint64_t epoch = epoch_.load(std::memory_order_acquire);
  std::vector<Retired> ready;
  auto take = [&](Shard& shard) {
    std::lock_guard<std::mutex> lk(shard.mu);
    auto safe = std::partition(shard.retired.begin(), shard.retired.end(),
                               [&](const Retired& r) { return epoch - r.epoch < 2; });
    shard.pending.fetch_sub(shard.retired.end() - safe, std::memory_order_relaxed);
    ready.insert(ready.end(), safe, shard.retired.end());
    shard.retired.erase(safe, shard.retired.end());
  };
  if (only != nullptr) {
    take(*only);
  } else {
    shards_.ForEach(take);
  }
  for (const Retired& r : ready) {
    r.free(r.object);
  }
}

uint64_t GraceDomain::pending() const { return shards_.Sum(&Shard::pending); }

}  // namespace protego
