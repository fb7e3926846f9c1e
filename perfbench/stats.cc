#include "stats.h"

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

namespace perfbench {

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

Interval BootstrapMedianCi(const std::vector<double>& v, uint64_t seed, int resamples) {
  if (v.empty()) {
    return {};
  }
  uint64_t state = seed ^ 0xb5ad4eceda1ce2a9ULL;
  auto next = [&state] {
    state += 0x9e3779b97f4a7c15ULL;
    uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  };
  std::vector<double> medians;
  medians.reserve(static_cast<size_t>(resamples));
  std::vector<double> sample(v.size());
  for (int r = 0; r < resamples; ++r) {
    for (double& x : sample) {
      x = v[next() % v.size()];
    }
    medians.push_back(Median(sample));
  }
  return {Quantile(medians, 0.025), Quantile(medians, 0.975)};
}

double PeakRssMib() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0;
  }
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  }
  return CPU_COUNT(&set);
}

std::string HostFingerprint() {
  return "nproc=" + std::to_string(Nproc()) +
         " compiler=\"" PERFBENCH_COMPILER "\" build_type=" PERFBENCH_BUILD_TYPE;
}

}  // namespace perfbench
