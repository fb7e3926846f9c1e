// Order statistics, a seeded bootstrap, and the host fingerprint shared by
// the benchmark's phases.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// Linear-interpolated quantile, q in [0, 1]. 0 for an empty sample.
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

// One reported number with its unit, in report order.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

struct Interval {
  double lo = 0;
  double hi = 0;
};

// 95% percentile-bootstrap interval of the median of `v`, from `resamples`
// resamples drawn with a splitmix64 stream seeded from `seed`.
Interval BootstrapMedianCi(const std::vector<double>& v, uint64_t seed, int resamples = 2000);

// Peak resident set size of this process (VmHWM), in MiB.
double PeakRssMib();

// CPUs this process may run on, as nproc(1) counts them.
int Nproc();

// nproc, compiler, build type.
std::string HostFingerprint();

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
