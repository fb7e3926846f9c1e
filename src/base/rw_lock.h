// RwLock: the kernel's one reader-writer lock. Barging, writer-preferring,
// on one 32-bit word; every reader-writer lock in src/ is one of these.
//
// Why barging, and why no hand-off. The standard library's shared mutex is
// glibc's pthread_rwlock, which on a contended release wakes a sleeper and
// lets it own the lock before it has been scheduled. Mail's spool writers
// (create, rename, unlink under the VFS tree lock from four tasks) held the
// lock briefly, so that wake-up cost more than the work it guarded: the
// tasks convoyed behind it, and four ran at 0.41x the rate of one. Here
// unlock hands the lock to no one. It clears the held bit and, only when a
// waiter has parked, wakes every parked thread; whoever runs next, a woken
// waiter or a thread just arriving, takes the lock. Short critical sections
// then run back to back instead of a wake-up apart.
//
// Why writer-preferring. A writer that finds the lock held sets
// kWriterWaiting, which turns new readers away until a writer has had its
// turn, so a stream of readers cannot starve a writer. The price: a thread
// must not take one lock shared twice, since a writer arriving in between
// would wait on the first hold while the second waits on the writer. No
// caller does.
//
// Waiting. A contended acquirer retries for kSpins pauses, about as long
// as a short critical section, then sets kParked and sleeps on the word
// with std::atomic::wait. On mail on a 4-CPU host, 100 spins did as well
// as 1,000 and better than none. Unlock calls notify_all only when kParked
// was set, so an uncontended unlock never enters the kernel. A woken
// thread competes again like any other.
//
// Cost. Uncontended, lock and lock_shared are one CAS and each unlock one
// atomic read-modify-write, with no clock read. Only the slow path keeps
// statistics (counts()): the acquisitions that found the lock held against
// them, and how long they took from the first refusal to the acquisition,
// spinning and parked. Locks may share one LockStats: the VFS sums every
// directory lock into one.
//
// RwLock meets Lockable and SharedLockable, for std::unique_lock and
// std::shared_lock. Under ThreadSanitizer it is annotated as a mutex, so
// TSan orders its critical sections and checks lock order as it does for
// pthread locks.

#ifndef SRC_BASE_RW_LOCK_H_
#define SRC_BASE_RW_LOCK_H_

#include <atomic>
#include <cstdint>

#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#define PROTEGO_TSAN_MUTEX(call) call
#else
#define PROTEGO_TSAN_MUTEX(call)
#endif

namespace protego {

// Slow-path totals of one lock, or of several summed.
struct LockCounts {
  uint64_t contended = 0;  // acquisitions that found the lock held against them
  uint64_t wait_ns = 0;    // their summed wait, first refusal to acquisition
  LockCounts& operator+=(const LockCounts& other) {
    contended += other.contended;
    wait_ns += other.wait_ns;
    return *this;
  }
};

// Where a lock's slow path records (since construction).
struct LockStats {
  std::atomic<uint64_t> contended{0};
  std::atomic<uint64_t> wait_ns{0};
  LockCounts Read() const {
    return {contended.load(std::memory_order_relaxed), wait_ns.load(std::memory_order_relaxed)};
  }
};

class RwLock {
 public:
  RwLock() : RwLock(nullptr) {}
  // Records into `stats` (shared with other locks) instead of its own.
  explicit RwLock(LockStats* stats) : stats_(stats != nullptr ? stats : &own_) {
    PROTEGO_TSAN_MUTEX(__tsan_mutex_create(this, 0));
  }
  ~RwLock() { PROTEGO_TSAN_MUTEX(__tsan_mutex_destroy(this, 0)); }
  RwLock(const RwLock&) = delete;
  RwLock& operator=(const RwLock&) = delete;

  void lock() {
    PROTEGO_TSAN_MUTEX(__tsan_mutex_pre_lock(this, 0));
    uint32_t s = 0;
    if (!state_.compare_exchange_strong(s, kWriter, std::memory_order_acquire,
                                        std::memory_order_relaxed)) {
      LockSlow();
    }
    PROTEGO_TSAN_MUTEX(__tsan_mutex_post_lock(this, 0, 0));
  }

  bool try_lock() {
    PROTEGO_TSAN_MUTEX(__tsan_mutex_pre_lock(this, __tsan_mutex_try_lock));
    uint32_t s = state_.load(std::memory_order_relaxed);
    const bool ok = (s & (kWriter | kReaders)) == 0 &&
                    state_.compare_exchange_strong(s, (s & kParked) | kWriter,
                                                   std::memory_order_acquire,
                                                   std::memory_order_relaxed);
    PROTEGO_TSAN_MUTEX(__tsan_mutex_post_lock(
        this, ok ? __tsan_mutex_try_lock : __tsan_mutex_try_lock_failed, 0));
    return ok;
  }

  void unlock() {
    PROTEGO_TSAN_MUTEX(__tsan_mutex_pre_unlock(this, 0));
    if (state_.fetch_and(~(kWriter | kParked), std::memory_order_release) & kParked) {
      state_.notify_all();
    }
    PROTEGO_TSAN_MUTEX(__tsan_mutex_post_unlock(this, 0));
  }

  void lock_shared() {
    PROTEGO_TSAN_MUTEX(__tsan_mutex_pre_lock(this, __tsan_mutex_read_lock));
    uint32_t s = state_.load(std::memory_order_relaxed);
    if ((s & kBarsReaders) != 0 ||
        !state_.compare_exchange_weak(s, s + kReader, std::memory_order_acquire,
                                      std::memory_order_relaxed)) {
      LockSharedSlow();
    }
    PROTEGO_TSAN_MUTEX(__tsan_mutex_post_lock(this, __tsan_mutex_read_lock, 0));
  }

  bool try_lock_shared() {
    PROTEGO_TSAN_MUTEX(__tsan_mutex_pre_lock(this, __tsan_mutex_try_read_lock));
    uint32_t s = state_.load(std::memory_order_relaxed);
    bool ok = false;
    while (!ok && (s & kBarsReaders) == 0) {
      ok = state_.compare_exchange_weak(s, s + kReader, std::memory_order_acquire,
                                        std::memory_order_relaxed);
    }
    PROTEGO_TSAN_MUTEX(__tsan_mutex_post_lock(
        this, ok ? __tsan_mutex_try_read_lock : __tsan_mutex_try_read_lock_failed, 0));
    return ok;
  }

  void unlock_shared() {
    PROTEGO_TSAN_MUTEX(__tsan_mutex_pre_unlock(this, __tsan_mutex_read_lock));
    const uint32_t s = state_.fetch_sub(kReader, std::memory_order_release);
    // The last reader out wakes whoever parked: a writer waiting for the
    // readers to drain, or readers turned away by it.
    if ((s & (kReaders | kParked)) == (kReader | kParked)) {
      WakeParked();
    }
    PROTEGO_TSAN_MUTEX(__tsan_mutex_post_unlock(this, __tsan_mutex_read_lock));
  }

  // Acquisitions, shared or exclusive, that found the lock held against
  // them, and the nanoseconds they waited, from this lock's LockStats.
  uint64_t contended() const { return stats_->contended.load(std::memory_order_relaxed); }
  LockCounts counts() const { return stats_->Read(); }
  LockStats* stats() const { return stats_; }

 private:
  static constexpr uint32_t kWriter = 1;         // held exclusively
  static constexpr uint32_t kWriterWaiting = 2;  // new readers wait
  static constexpr uint32_t kParked = 4;         // someone sleeps on the word
  static constexpr uint32_t kReader = 8;         // one reader; the count is bits 3-31
  static constexpr uint32_t kReaders = ~(kReader - 1);
  static constexpr uint32_t kBarsReaders = kWriter | kWriterWaiting;
  static constexpr int kSpins = 100;

  void LockSlow();
  void LockSharedSlow();
  void WakeParked();

  std::atomic<uint32_t> state_{0};
  LockStats* const stats_;
  LockStats own_;
};

}  // namespace protego

#undef PROTEGO_TSAN_MUTEX

#endif  // SRC_BASE_RW_LOCK_H_
