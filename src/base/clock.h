// Deterministic virtual time for the simulated system.
//
// All authentication-recency decisions (the paper's 5-minute sudo window,
// §4.3) and file mtimes run off this clock so that tests can advance time
// explicitly and replays are reproducible.

#ifndef SRC_BASE_CLOCK_H_
#define SRC_BASE_CLOCK_H_

#include <atomic>
#include <cstdint>

namespace protego {

// Real monotonic wall-clock nanoseconds (std::chrono::steady_clock). The one
// latency clock: it serves both the syscall gate (timed syscalls' histograms
// and tail exemplars) and the layer profiler — never simulation semantics,
// which stay on the virtual Clock below.
uint64_t MonotonicNanos();

// Monotonic virtual clock with second granularity (matches the granularity
// sudo uses for its timestamp files).
class Clock {
 public:
  Clock() = default;

  // Current virtual time in seconds since simulation boot.
  uint64_t Now() const { return now_.load(std::memory_order_relaxed); }

  // Advances virtual time; never goes backwards.
  void Advance(uint64_t seconds) { now_.fetch_add(seconds, std::memory_order_relaxed); }

  // Resets to boot time. Only tests should call this.
  void Reset() { now_.store(0, std::memory_order_relaxed); }

 private:
  // Relaxed atomic: parallel-mode tasks stamp trace events and mtimes off
  // this clock while tests (or other tasks, via nanosleep-style advances)
  // move it forward.
  std::atomic<uint64_t> now_{0};
};

}  // namespace protego

#endif  // SRC_BASE_CLOCK_H_
