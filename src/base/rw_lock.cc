#include "src/base/rw_lock.h"

#include <algorithm>

#include "src/base/clock.h"

namespace protego {

namespace {

void Pause() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

// Slow-path bookkeeping: the first refusal counts the acquisition as
// contended and starts its clock; Acquired() adds the wait. An acquisition
// that never met a holder (a spurious CAS failure) records nothing.
class SlowPathTimer {
 public:
  explicit SlowPathTimer(LockStats* stats) : stats_(stats) {}
  void Refused() {
    if (!refused_) {
      refused_ = true;
      start_ = MonotonicNanos();
      stats_->contended.fetch_add(1, std::memory_order_relaxed);
    }
  }
  void Acquired() {
    if (refused_) {
      stats_->wait_ns.fetch_add(MonotonicNanos() - start_, std::memory_order_relaxed);
    }
  }

 private:
  LockStats* const stats_;
  bool refused_ = false;
  uint64_t start_ = 0;
};

}  // namespace

void RwLock::LockSlow() {
  SlowPathTimer timer(stats_);
  for (int spins = 0;; spins = std::min(spins + 1, kSpins)) {
    uint32_t s = state_.load(std::memory_order_relaxed);
    // Free of holders: take it. kWriterWaiting goes (this writer has its
    // turn; any other waiting writer sets it again), kParked stays for
    // unlock to honour.
    while ((s & (kWriter | kReaders)) == 0) {
      if (state_.compare_exchange_weak(s, (s & kParked) | kWriter, std::memory_order_acquire,
                                       std::memory_order_relaxed)) {
        timer.Acquired();
        return;
      }
    }
    timer.Refused();
    // Held: turn new readers away at once, and park once the spin budget
    // is spent. The wait returns as soon as the word differs from `want`.
    const bool park = spins >= kSpins;
    const uint32_t want = s | kWriterWaiting | (park ? kParked : 0);
    if (want != s &&
        !state_.compare_exchange_weak(s, want, std::memory_order_relaxed)) {
      continue;
    }
    if (park) {
      state_.wait(want, std::memory_order_relaxed);
    } else {
      Pause();
    }
  }
}

void RwLock::LockSharedSlow() {
  SlowPathTimer timer(stats_);
  for (int spins = 0;; spins = std::min(spins + 1, kSpins)) {
    uint32_t s = state_.load(std::memory_order_relaxed);
    while ((s & kBarsReaders) == 0) {
      if (state_.compare_exchange_weak(s, s + kReader, std::memory_order_acquire,
                                       std::memory_order_relaxed)) {
        timer.Acquired();
        return;
      }
    }
    timer.Refused();
    const bool park = spins >= kSpins;
    if (!park) {
      Pause();
      continue;
    }
    const uint32_t want = s | kParked;
    if (want != s &&
        !state_.compare_exchange_weak(s, want, std::memory_order_relaxed)) {
      continue;
    }
    state_.wait(want, std::memory_order_relaxed);
  }
}

void RwLock::WakeParked() {
  // Waiters that still cannot enter set kParked again before they sleep.
  state_.fetch_and(~kParked, std::memory_order_relaxed);
  state_.notify_all();
}

}  // namespace protego
