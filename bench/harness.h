// Shared measurement harness for the Table 5 reproduction and ablations.
//
// Methodology: each row measures the SAME operation on two freshly booted
// systems whose only difference is the LSM stack ("Linux + AppArmor" vs
// "+ Protego"), reporting mean ns/op and relative overhead. Iteration
// counts auto-scale until a row accumulates a minimum wall-clock budget,
// then the run is repeated to report a spread (the paper's +/- column).
// A row's op runs once on each system before it is timed, and the process
// exits 1 if any syscall in it fails: a row must time the call it names,
// not an error return.

#ifndef BENCH_HARNESS_H_
#define BENCH_HARNESS_H_

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "src/sim/system.h"

namespace protego {

struct Measurement {
  double mean_ns = 0;
  double best_ns = 0;    // fastest repeat — the stable cross-boot comparator
  double spread_ns = 0;  // half-width of min..max across repeats
  uint64_t iterations = 0;
};

// Times `op` (already bound to its system/state). `op` should perform ONE
// operation per call.
inline Measurement MeasureNs(const std::function<void()>& op, int repeats = 5,
                             double min_batch_ms = 10.0) {
  using Clock = std::chrono::steady_clock;
  // Warm-up + batch sizing.
  uint64_t batch = 1;
  for (;;) {
    auto start = Clock::now();
    for (uint64_t i = 0; i < batch; ++i) {
      op();
    }
    double ms = std::chrono::duration<double, std::milli>(Clock::now() - start).count();
    if (ms >= min_batch_ms || batch >= (1u << 22)) {
      break;
    }
    batch *= 4;
  }
  double best = 1e300;
  double worst = 0;
  double total = 0;
  for (int r = 0; r < repeats; ++r) {
    auto start = Clock::now();
    for (uint64_t i = 0; i < batch; ++i) {
      op();
    }
    double ns = std::chrono::duration<double, std::nano>(Clock::now() - start).count() /
                static_cast<double>(batch);
    best = std::min(best, ns);
    worst = std::max(worst, ns);
    total += ns;
  }
  Measurement m;
  m.mean_ns = total / repeats;
  m.best_ns = best;
  m.spread_ns = (worst - best) / 2.0;
  m.iterations = batch * static_cast<uint64_t>(repeats);
  return m;
}

// One comparison row: the op factory receives the system and its session
// task and returns the operation closure.
using OpFactory = std::function<std::function<void()>(SimSystem&, Task&)>;

struct ComparisonRow {
  std::string name;
  Measurement linux_m;
  Measurement protego_m;

  double OverheadPct() const {
    if (linux_m.mean_ns <= 0) {
      return 0;
    }
    return 100.0 * (protego_m.mean_ns - linux_m.mean_ns) / linux_m.mean_ns;
  }
};

// Errors the gate has returned so far, over every syscall.
inline uint64_t GateErrors(Kernel& k) {
  uint64_t n = 0;
  for (Sysno nr : AllSysnos()) {
    n += k.syscalls().stats(nr).errors.load(std::memory_order_relaxed);
  }
  return n;
}

inline Measurement MeasureOnFreshSystem(SimMode mode, const std::string& name,
                                        const OpFactory& factory,
                                        const std::string& session_user) {
  SimSystem sys(mode);
  Task& session = sys.Login(session_user);
  auto op = factory(sys, session);
  const uint64_t errors_before = GateErrors(sys.kernel());
  op();
  if (GateErrors(sys.kernel()) != errors_before) {
    std::fprintf(stderr, "the %s row's op fails on %s\n", name.c_str(), SimModeName(mode));
    std::exit(1);
  }
  return MeasureNs(op);
}

inline ComparisonRow CompareModes(const std::string& name, const OpFactory& factory,
                                  const std::string& session_user = "root") {
  ComparisonRow row;
  row.name = name;
  row.linux_m = MeasureOnFreshSystem(SimMode::kLinux, name, factory, session_user);
  row.protego_m = MeasureOnFreshSystem(SimMode::kProtego, name, factory, session_user);
  return row;
}

inline void PrintComparisonHeader(const char* unit) {
  std::printf("%-18s %12s %8s %12s %8s %8s\n", "Test", (std::string("Linux ") + unit).c_str(),
              "+/-", (std::string("Protego ") + unit).c_str(), "+/-", "% OH");
  std::printf("%s\n", std::string(72, '-').c_str());
}

inline void PrintComparisonRow(const ComparisonRow& row, double scale = 1e-3) {
  // scale 1e-3: ns -> us, matching lmbench's microsecond reporting.
  std::printf("%-18s %12.3f %8.3f %12.3f %8.3f %7.2f%%\n", row.name.c_str(),
              row.linux_m.mean_ns * scale, row.linux_m.spread_ns * scale,
              row.protego_m.mean_ns * scale, row.protego_m.spread_ns * scale,
              row.OverheadPct());
}

}  // namespace protego

#endif  // BENCH_HARNESS_H_
