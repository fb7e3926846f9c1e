// Boots a Protego system, runs a small mixed workload, and dumps
// /proc/protego/metrics — and nothing else — to stdout.
//
// CI pipes this through tests/prometheus_check to validate that the
// exposition stays well-formed Prometheus text format:
//
//   $ ./build/examples/metrics_export | ./build/tests/prometheus_check

#include <cstdio>

#include "src/sim/system.h"

using namespace protego;

int main() {
  SimSystem sys(SimMode::kProtego);
  Kernel& kernel = sys.kernel();

  // Exercise every instrumented subsystem: syscalls, LSM hooks (allowed and
  // denied), netfilter, and a cred transition.
  Task& alice = sys.Login("alice");
  for (int i = 0; i < 100; ++i) {
    kernel.GetPid(alice);
  }
  (void)kernel.Open(alice, "/etc/shadow", kORdOnly);           // EACCES
  (void)kernel.Mount(alice, "/dev/sda1", "/mnt", "ext4", {});  // EPERM
  (void)sys.RunCapture(alice, "/bin/ping", {"ping", "10.0.0.2", "1"});

  Task& root = sys.Login("root");
  auto metrics = kernel.ReadWholeFile(root, "/proc/protego/metrics");
  if (!metrics.ok()) {
    std::fprintf(stderr, "metrics_export: %s\n", metrics.error().ToString().c_str());
    return 1;
  }
  std::fputs(metrics.value().c_str(), stdout);
  return 0;
}
