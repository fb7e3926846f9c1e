// Macro workload engine: deterministic, seeded replays of the paper's
// evaluation workloads (Tables 5-7) at traffic scale.
//
// A WorkloadSpec names a syscall MIX — a fixed per-unit op sequence with
// seeded parameters (which header to stat, which recipient to deliver to) —
// plus a task count, a total op budget, and an execution mode. RunWorkload
// boots a SimSystem in the requested mode (stock Linux vs Protego), splits
// the budget into whole units across N concurrent tasks, drives them under
// either the deterministic scheduler or real OS threads, and reports
// throughput plus the per-syscall histogram the gate observed.
//
// Determinism contract: every unit issues exactly OpsPerUnit(mix) syscalls
// (failed ops still go through the gate and are counted issued), every
// task's parameters come from its own splitmix64 stream seeded from
// (spec.seed, task index), and all touched resources — spool directories,
// object files, ports — are task-private. So for a fixed spec the unit
// count, issued-op count, failure count, and syscall profile are identical
// run to run and identical across BOTH exec modes; only wall-clock numbers
// vary. That is what makes the engine usable as a regression gate: the
// overhead table regenerates bit-identically except for timings.
//
// The mixes (per unit):
//   kCompile     make(1)'s profile: 8 stats + 2 header open/read/close +
//                1 compiler spawn + object open/write/close — as alice on
//                both stacks. 18 ops.
//   kWebServe    a static server's profile: bind/close churn, page
//                open/read/close, and a request/response datagram exchange
//                — as root on stock Linux, as www-data under Protego (the
//                paper's deprivileged httpd). 10 ops.
//   kMail        an MTA spool delivery: seteuid to the recipient, write
//                the spool tmp file, rename into place, stat, unlink,
//                seteuid back — as root on stock Linux, as exim under
//                Protego, where both seteuid calls fail EPERM (the
//                transition the paper obviates) and are counted as failed
//                ops. 8 ops.
//   kSetuidBurst the §5 microbenchmark shape: tight seteuid toggles
//                interleaved with getpid and stat — as root on both
//                stacks. 6 ops.

#ifndef SRC_WORKLOAD_WORKLOAD_H_
#define SRC_WORKLOAD_WORKLOAD_H_

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "src/kernel/exec_mode.h"
#include "src/kernel/syscall.h"
#include "src/sim/system.h"

namespace protego::workload {

enum class Mix {
  kCompile = 0,
  kWebServe,
  kMail,
  kSetuidBurst,
};

inline constexpr int kMixCount = 4;

const char* MixName(Mix mix);
std::optional<Mix> MixFromName(std::string_view name);

// Exact syscalls one unit of `mix` issues (the unit bodies are structured
// so failures never short-circuit an op: a failed open still attempts the
// dependent write/close with fd -1, which the gate counts like any EBADF).
uint64_t OpsPerUnit(Mix mix);

struct WorkloadSpec {
  Mix mix = Mix::kCompile;
  int tasks = 8;              // concurrent sessions driving units
  uint64_t total_ops = 100000;  // op budget, rounded DOWN to whole units
                                // per task (tasks * units * OpsPerUnit)
  uint64_t seed = 1;          // parameter streams + DetScheduler seed
  ExecMode exec_mode = ExecMode::kDeterministic;

  // --- Observability knobs ----------------------------------------------------
  // Default: tracer fully off during the measured region (the engine prices
  // the syscall machinery, not trace formatting). With `trace` on, the
  // tracer stays enabled with every point's head-sampling rate set to
  // `sample_rate` (0 = keep everything) and its streams seeded from `seed`,
  // so sampling decisions replay run to run.
  bool trace = false;
  uint32_t sample_rate = 0;
  // Times every syscall, which also attributes each one layer by layer
  // (attribution follows the timed set); the report's attrib_* fields are
  // filled from the kernel's profiler.
  bool profile = false;
};

// Per-syscall call counts harvested from the gate over the timed region.
// Includes syscalls nested under Spawn/Execve (the compile mix's compiler
// children), so total() >= the workload-level issued count.
struct SyscallProfile {
  std::array<uint64_t, kSysnoSlots> calls{};

  uint64_t total() const;
  bool operator==(const SyscallProfile& other) const { return calls == other.calls; }
};

struct MixReport {
  Mix mix = Mix::kCompile;
  SimMode sim_mode = SimMode::kLinux;
  ExecMode exec_mode = ExecMode::kDeterministic;
  int tasks = 0;
  uint64_t seed = 0;
  uint64_t units = 0;       // work units completed (messages, TUs, requests)
  uint64_t ops_issued = 0;  // workload-level syscall attempts (== units * OpsPerUnit)
  uint64_t ops_failed = 0;  // attempts that returned an error
  double wall_seconds = 0;
  double ops_per_sec = 0;    // ops_issued / wall_seconds
  SyscallProfile profile;

  // Observability capture (meaningful when the spec's knobs were on).
  std::string metrics_text;        // full Prometheus export, post-run (trace||profile)
  uint64_t trace_sampled_out = 0;  // events dropped by head sampling
  uint64_t attrib_self_ns = 0;     // summed per-layer self time
  uint64_t attrib_root_ns = 0;     // inclusive time of gate-root frames;
                                   // telescoping: self ≈ root when profiled
};

// Boots SimSystem(sim_mode), provisions the mix's fixtures untimed (spool
// dirs, headers, pages, persistent sockets), then runs the spec's budget
// across `tasks` sessions under the spec's scheduler and measures only the
// unit-driving region.
MixReport RunWorkload(const WorkloadSpec& spec, SimMode sim_mode);

// Paper-style relative overhead from two throughputs, in percent: positive
// means the Protego stack is slower. 0 when the baseline is degenerate.
double RelativeOverheadPct(double stock_ops_per_sec, double protego_ops_per_sec);

// One row of the paper-style table: the same spec run on the stock stack
// (SimMode::kLinux) and under Protego, with the throughput delta.
struct OverheadRow {
  MixReport stock;
  MixReport protego;
  double overhead_pct = 0;  // RelativeOverheadPct over ops_per_sec
};

OverheadRow CompareStacks(const WorkloadSpec& spec);

}  // namespace protego::workload

#endif  // SRC_WORKLOAD_WORKLOAD_H_
