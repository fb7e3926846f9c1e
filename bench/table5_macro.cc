// Table 5 (macro rows): the Postal mail benchmark, the kernel-compile
// workload, and the ApacheBench concurrency sweep — re-hosted on the macro
// workload engine (src/workload), so the Table 5 reproduction, the engine's
// tests (tests/workload_test.cc) and perfbench's replay of the same mixes
// are the same op streams and cannot drift apart.
//
// The engine keeps all maintenance (spool provisioning, sessions, fixture
// writes) OUTSIDE the timed window — the old standalone rows measured
// spool truncation, Login("root"), and ReapTask inside the Postal loop —
// and every row is seeded and deterministic: both stacks replay the
// identical op stream, so the overhead column compares like with like.
//
// Honors PROTEGO_EXEC_MODE (deterministic | parallel) like every harness.

#include <cstdio>

#include "src/kernel/exec_mode.h"
#include "src/workload/workload.h"

namespace protego {
namespace {

using workload::CompareStacks;
using workload::Mix;
using workload::OverheadRow;
using workload::RelativeOverheadPct;
using workload::WorkloadSpec;

constexpr uint64_t kSeed = 42;

void Run() {
  const ExecMode mode = ExecModeFromEnv();
  std::printf("=== Table 5 reproduction: macro benchmarks (%s mode) ===\n\n",
              ExecModeName(mode));

  {
    // Postal drives the MTA's delivery loop; one engine unit = one message
    // (spool write + rename + the credential transitions).
    std::printf("--- Postal benchmark for Exim server (messages/min, higher is better) ---\n");
    WorkloadSpec spec;
    spec.mix = Mix::kMail;
    spec.tasks = 4;
    spec.total_ops = 64000;
    spec.seed = kSeed;
    spec.exec_mode = mode;
    OverheadRow row = CompareStacks(spec);
    const double linux_mpm = row.stock.units_per_sec * 60.0;
    const double protego_mpm = row.protego.units_per_sec * 60.0;
    std::printf("%-18s %12.0f %12.0f %7.2f%%  (paper: 0.04%%)\n", "Messages/min",
                linux_mpm, protego_mpm, RelativeOverheadPct(linux_mpm, protego_mpm));
  }

  {
    // One engine unit = one translation unit of the compile mix.
    std::printf("\n--- Kernel compile (seconds for the syscall-mix replay) ---\n");
    WorkloadSpec spec;
    spec.mix = Mix::kCompile;
    spec.tasks = 4;
    spec.total_ops = 144000;
    spec.seed = kSeed;
    spec.exec_mode = mode;
    OverheadRow row = CompareStacks(spec);
    std::printf("%-18s %12.3f %12.3f %7.2f%%  (paper: 1.44%%, claim: <2%%)\n", "time(s)",
                row.stock.wall_seconds, row.protego.wall_seconds,
                100.0 * (row.protego.wall_seconds - row.stock.wall_seconds) /
                    row.stock.wall_seconds);
  }

  {
    // One engine unit = one request/response exchange of a 1 KB page, so
    // units/sec IS the transfer rate in KB/s; the task count is the
    // concurrency knob.
    std::printf("\n--- ApacheBench (1KB page; paper overheads 2.6-4.0%%) ---\n");
    std::printf("%-18s %12s %12s %8s %12s %12s %8s\n", "concurrency", "linux ms/req",
                "prot ms/req", "%OH", "linux KB/s", "prot KB/s", "%OH");
    for (int concurrency : {25, 50, 100, 200}) {
      WorkloadSpec spec;
      spec.mix = Mix::kWebServe;
      spec.tasks = concurrency;
      spec.total_ops = 40000;
      spec.seed = kSeed;
      spec.exec_mode = mode;
      OverheadRow row = CompareStacks(spec);
      const double linux_ms =
          row.stock.units > 0
              ? row.stock.wall_seconds * 1000.0 / static_cast<double>(row.stock.units)
              : 0;
      const double protego_ms =
          row.protego.units > 0
              ? row.protego.wall_seconds * 1000.0 / static_cast<double>(row.protego.units)
              : 0;
      std::printf("%-18d %12.4f %12.4f %7.2f%% %12.0f %12.0f %7.2f%%\n", concurrency,
                  linux_ms, protego_ms,
                  linux_ms > 0 ? 100.0 * (protego_ms - linux_ms) / linux_ms : 0,
                  row.stock.units_per_sec, row.protego.units_per_sec,
                  RelativeOverheadPct(row.stock.units_per_sec, row.protego.units_per_sec));
    }
  }
}

}  // namespace
}  // namespace protego

int main() {
  protego::Run();
  return 0;
}
