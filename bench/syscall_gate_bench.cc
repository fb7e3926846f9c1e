// Null-syscall (getpid) cost through the unified entry path, across gate
// configurations, emitted as BENCH_syscall_gate.json so the performance
// trajectory of the entry path is recorded per PR.
//
// Configurations measured:
//   no-gate              gate disabled: the raw body, the pre-refactor cost
//   stats                gate on, timed set empty, tracing off (call and
//                        error counters only)
//   stats+trace-filtered gate on, tracer master ON but the syscall point
//                        filtered out — the per-point check is hoisted before
//                        span bookkeeping and args formatting, so this must
//                        price like `stats`, not like `stats+trace`
//   stats+trace          gate on, tracing on (the default boot config)
//   stats+timing+trace   gate on, every syscall timed (ns histogram + tail
//                        exemplars), tracing on (profiling config)
//
// For scale, the same sweep runs over stat(2) — a real (path-resolving)
// syscall — showing what the gate costs on a non-null workload.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "src/base/clock.h"
#include "src/sim/system.h"

namespace protego {
namespace {

struct GateConfig {
  const char* name;
  bool enabled;
  bool timing;  // every syscall in the timed set
  bool trace;
  bool point_filtered;  // tracer master on, kSyscall point bit off
};

constexpr GateConfig kConfigs[] = {
    {"no-gate", false, false, false, false},
    {"stats", true, false, false, false},
    {"stats+trace-filtered", true, false, true, true},
    {"stats+trace", true, false, true, false},
    {"stats+timing+trace", true, true, true, false},
};

void Apply(SyscallGate& gate, Tracer& tracer, const GateConfig& cfg) {
  gate.set_enabled(cfg.enabled);
  gate.SetAllSyscallsTimed(cfg.timing);
  gate.set_trace_enabled(cfg.trace);
  tracer.set_point_enabled(TracepointId::kSyscall, !cfg.point_filtered);
}

// Best-of-reps median-free timing: run `iters` calls, repeat, keep the
// fastest rep (least scheduler noise).
template <typename Fn>
double NsPerOp(Fn&& fn, int iters, int reps) {
  double best = 1e18;
  for (int r = 0; r < reps; ++r) {
    uint64_t t0 = MonotonicNanos();
    for (int i = 0; i < iters; ++i) {
      fn();
    }
    uint64_t t1 = MonotonicNanos();
    best = std::min(best, static_cast<double>(t1 - t0) / iters);
  }
  return best;
}

struct Row {
  std::string syscall;
  std::string config;
  double ns_per_op = 0;
  double overhead_pct = 0;  // vs the no-gate row of the same syscall
};

}  // namespace
}  // namespace protego

int main(int argc, char** argv) {
  using namespace protego;
  const char* out_path = argc > 1 ? argv[1] : "BENCH_syscall_gate.json";
  constexpr int kIters = 200000;
  constexpr int kReps = 7;

  SimSystem sys(SimMode::kProtego);
  Task& task = sys.Login("alice");
  Kernel& k = sys.kernel();
  SyscallGate& gate = sys.syscalls();
  Tracer& tracer = k.tracer();

  std::vector<Row> rows;
  for (const char* which : {"getpid", "stat"}) {
    double baseline = 0;
    for (const GateConfig& cfg : kConfigs) {
      Apply(gate, tracer, cfg);
      double ns;
      if (std::string(which) == "getpid") {
        volatile int sink = 0;
        ns = NsPerOp([&] { sink = k.GetPid(task); }, kIters, kReps);
        (void)sink;
      } else {
        ns = NsPerOp([&] { (void)k.Stat(task, "/etc/hosts"); }, kIters / 10, kReps);
      }
      if (!cfg.enabled) {
        baseline = ns;
      }
      Row row;
      row.syscall = which;
      row.config = cfg.name;
      row.ns_per_op = ns;
      row.overhead_pct = baseline > 0 ? (ns - baseline) / baseline * 100.0 : 0;
      rows.push_back(row);
      std::printf("%-8s %-20s %8.2f ns/op  %+7.1f%%\n", which, cfg.name, ns,
                  row.overhead_pct);
    }
  }
  // Filter sweep: what does the task's seccomp filter itself cost on stat(2)?
  //   filter:none        no filter installed (the stats config above)
  //   filter:flat-bitset classic allow-list: one bitset test per call
  //   filter:predicate-miss  argument-aware filter whose rules target OTHER
  //                      syscalls — stat's has_rules bit is clear, so the
  //                      check must collapse to the same single bitset test
  //                      (the acceptance bar: within a few % of flat-bitset)
  //   filter:predicate-hit   rules ON stat: longest-prefix path classing
  //                      plus rule evaluation on every call, the worst case
  Apply(gate, tracer, kConfigs[1]);  // stats only: isolate filter cost
  const std::vector<Sysno> kStatSet = {Sysno::kStat,  Sysno::kOpen,  Sysno::kRead,
                                       Sysno::kClose, Sysno::kWrite, Sysno::kGetPid,
                                       Sysno::kSeccomp};
  auto predicate_spec = [&](bool rules_on_stat) {
    SeccompFilter::Spec spec;
    for (Sysno nr : kStatSet) {
      spec.allowed.set(static_cast<size_t>(nr));
    }
    spec.path_classes = {{"/etc", 1}, {"/tmp", 2}};
    Sysno target = rules_on_stat ? Sysno::kStat : Sysno::kOpen;
    spec.rules[static_cast<uint16_t>(target)] = {
        {{{kSeccompArgPath, SeccompCmp::kEq, 1, 0}}},
        {{{kSeccompArgPath, SeccompCmp::kEq, 2, 0}}},
    };
    return spec;
  };
  struct FilterConfig {
    const char* name;
    int kind;  // 0 = none, 1 = flat bitset, 2 = predicate miss, 3 = predicate hit
    Task* task = nullptr;
    double best_ns = 1e18;
  };
  std::vector<FilterConfig> filter_cfgs = {{"filter:none", 0},
                                           {"filter:flat-bitset", 1},
                                           {"filter:predicate-miss", 2},
                                           {"filter:predicate-hit", 3}};
  // Filters latch one-way, so every configuration measures a fresh task.
  for (FilterConfig& cfg : filter_cfgs) {
    cfg.task = &sys.Login("alice");
    bool installed = true;
    switch (cfg.kind) {
      case 1:
        installed = k.SeccompSetFilter(*cfg.task, kStatSet).ok();
        break;
      case 2:
        installed = k.SeccompSetFilterSpec(*cfg.task, predicate_spec(false)).ok();
        break;
      case 3:
        installed = k.SeccompSetFilterSpec(*cfg.task, predicate_spec(true)).ok();
        break;
      default:
        break;
    }
    if (!installed) {
      std::fprintf(stderr, "filter install failed for %s\n", cfg.name);
      return 1;
    }
  }
  // Interleave the configs inside each rep (observability_bench style): the
  // overhead ratios below compare measurements taken milliseconds apart, so
  // runner frequency drift cancels instead of landing on one config.
  for (int rep = 0; rep < kReps; ++rep) {
    for (FilterConfig& cfg : filter_cfgs) {
      Task& t = *cfg.task;
      cfg.best_ns =
          std::min(cfg.best_ns,
                   NsPerOp([&] { (void)k.Stat(t, "/etc/hosts"); }, kIters / 10, 1));
    }
  }
  double flat_ns = 0;
  for (const FilterConfig& cfg : filter_cfgs) {
    if (cfg.kind == 1) {
      flat_ns = cfg.best_ns;
    }
    Row row;
    row.syscall = "stat";
    row.config = cfg.name;
    row.ns_per_op = cfg.best_ns;
    row.overhead_pct = flat_ns > 0 ? (cfg.best_ns - flat_ns) / flat_ns * 100.0 : 0;
    rows.push_back(row);
    std::printf("%-8s %-22s %8.2f ns/op  %+7.1f%% vs flat-bitset\n", "stat", cfg.name,
                cfg.best_ns, row.overhead_pct);
  }

  Apply(gate, tracer, kConfigs[3]);  // restore boot defaults (stats+trace)

  FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"syscall_gate\",\n  \"unit\": \"ns/op\",\n");
  std::fprintf(f, "  \"iters\": %d,\n  \"reps\": %d,\n  \"rows\": [\n", kIters, kReps);
  for (size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(f,
                 "    {\"syscall\": \"%s\", \"config\": \"%s\", \"ns_per_op\": %.2f, "
                 "\"overhead_pct\": %.1f}%s\n",
                 rows[i].syscall.c_str(), rows[i].config.c_str(), rows[i].ns_per_op,
                 rows[i].overhead_pct, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path);
  return 0;
}
