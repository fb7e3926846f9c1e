// ThreadShards<T>: one cache-line-aligned T per thread, merged by readers —
// Linux's percpu pattern applied to threads, so hot paths write only lines
// no other thread writes. The tracer's rings, the layer profiler's
// accumulators and the syscall gate's per-syscall records all live on it.
//
// Mine() finds the calling thread's shard through a thread-local one-entry
// cache (one per T) keyed by an id no other ThreadShards<T> ever gets, NOT
// the object's address: a kernel booted where a destroyed one lived (a
// thread that boots kernels one after another does this routinely) must
// not hit the stale entry, which points into the freed registry. A miss
// takes the registry lock and creates the shard on the thread's first use.
// Shards live as long as the object.
//
// ForEach() visits every shard under the same registry lock. The owner
// writes its shard without that lock, so whatever a reader loads from a
// shard must be atomic or guarded by a lock inside T. A counter only its
// owner writes takes AddOwned, a relaxed load and store with no locked
// instruction, and readers total it with Sum().

#ifndef SRC_BASE_THREAD_SHARDS_H_
#define SRC_BASE_THREAD_SHARDS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace protego {

// Adds `n` to a counter that only the calling thread writes, such as a field
// of its own shard. Readers on other threads load it relaxed.
inline void AddOwned(std::atomic<uint64_t>& counter, uint64_t n = 1) {
  counter.store(counter.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
}

template <typename T>
class ThreadShards {
 public:
  ThreadShards() : id_(NextId()) {}
  ThreadShards(const ThreadShards&) = delete;
  ThreadShards& operator=(const ThreadShards&) = delete;

  // The calling thread's shard, created on first use.
  T& Mine() {
    thread_local Cache cache;
    if (cache.id != id_) {
      cache = {id_, &Register()};
    }
    return *cache.shard;
  }

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    std::lock_guard<std::mutex> lk(mu_);
    for (const std::unique_ptr<Slot>& slot : slots_) {
      fn(slot->value);
    }
  }

  // One atomic counter of every shard, loaded relaxed and summed. `field`
  // is a pointer to the counter member or a callable returning it.
  template <typename Field>
  uint64_t Sum(Field field) const {
    uint64_t total = 0;
    ForEach([&](const T& shard) {
      total += std::invoke(field, shard).load(std::memory_order_relaxed);
    });
    return total;
  }

 private:
  // alignas(64): a shard shares no cache line with another thread's shard
  // or with a neighbouring heap object.
  struct alignas(64) Slot {
    std::thread::id owner;
    T value;
  };
  struct Cache {
    uint64_t id = 0;
    T* shard = nullptr;
  };

  static uint64_t NextId() {
    static std::atomic<uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
  }

  T& Register() {
    std::lock_guard<std::mutex> lk(mu_);
    const std::thread::id me = std::this_thread::get_id();
    for (const std::unique_ptr<Slot>& slot : slots_) {
      if (slot->owner == me) {
        return slot->value;
      }
    }
    slots_.push_back(std::make_unique<Slot>());
    slots_.back()->owner = me;
    return slots_.back()->value;
  }

  const uint64_t id_;
  mutable std::mutex mu_;  // guards slots_
  std::vector<std::unique_ptr<Slot>> slots_;
};

}  // namespace protego

#endif  // SRC_BASE_THREAD_SHARDS_H_
