// The outside-in traced replay: the workload module's compile, web-serve
// and mail unit bodies re-driven from the benchmark's own code, with a span
// recorded around every unit and every Kernel syscall it issues.
//
// The replay mirrors src/workload/workload.cc exactly — same sessions, same
// fixtures, same per-task splitmix64 parameter streams — so its per-syscall
// counts must equal RunWorkload's SyscallProfile for the same spec; the
// benchmark checks that. MixBed is the booted machine both the replay and
// the lower-layer probes run on.

#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/sim/system.h"
#include "src/workload/workload.h"

namespace perfbench {

using protego::SimMode;
using protego::workload::Mix;

// One timed interval. `parent` indexes the same task's span list (-1 for a
// root); `unit` is the task-local unit (or probe batch) the span belongs to.
struct Span {
  const char* name = "";
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int32_t parent = -1;
  uint32_t task = 0;
  uint64_t unit = 0;
};

// The per-task state of one driving session (mirrors the workload engine's).
struct TaskCtx {
  uint32_t index = 0;
  protego::Task* session = nullptr;
  uint64_t rng = 0;
  int srv_fd = -1;
  int cli_fd = -1;
  uint16_t srv_port = 0;
  uint16_t cli_port = 0;
  uint16_t churn_port = 0;
  std::string spool_dir;
  std::string spool_tmp;
  std::string spool_final;
  std::string obj_path;

  uint64_t units = 0;
  uint64_t issued = 0;
  uint64_t failed = 0;
  int32_t unit_span = -1;
  std::vector<Span> spans;
};

// The workload engine's parameter stream (splitmix64) and per-task seeding.
uint64_t NextRand(uint64_t& state);
uint64_t TaskSeed(uint64_t seed, int task_index);

// Session user of `mix` on `mode`'s stack, as the workload engine logs in.
const char* SessionUser(Mix mix, SimMode mode);

// A booted SimSystem with `tasks` sessions logged in and the mix's
// fixtures provisioned, exactly as RunWorkload prepares it.
class MixBed {
 public:
  MixBed(Mix mix, SimMode mode, int tasks, uint64_t seed);

  MixBed(const MixBed&) = delete;
  MixBed& operator=(const MixBed&) = delete;

  protego::SimSystem& sys() { return sys_; }
  protego::Kernel& kernel() { return sys_.kernel(); }
  protego::Task& root() { return *root_; }
  std::vector<TaskCtx>& ctxs() { return ctxs_; }

  // Files the mix's units read or write for task `t` (headers, pages, or
  // the task's spool directory).
  std::vector<std::string> FixturePaths(size_t t) const;

 private:
  Mix mix_;
  protego::SimSystem sys_;
  protego::Task* root_ = nullptr;
  std::vector<TaskCtx> ctxs_;
};

// Exact work counts read through the public MetricsRegistry.
struct WorkCounts {
  uint64_t gate_calls = 0;
  uint64_t vfs_resolves = 0;
  uint64_t lsm_hooks = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_bypasses = 0;
  uint64_t netfilter_evals = 0;

  static WorkCounts FromPrometheus(std::string_view text);
  WorkCounts operator-(const WorkCounts& o) const;
};

struct ReplayReport {
  uint64_t units = 0;
  uint64_t ops_issued = 0;
  uint64_t ops_failed = 0;
  double wall_seconds = 0;
  double ops_per_sec = 0;
  protego::workload::SyscallProfile profile;
  WorkCounts counts;                   // over the replay region only
  std::vector<double> syscall_ns;      // one per Kernel syscall span
  std::vector<std::vector<Span>> spans;  // per task, kept when asked for
  std::vector<double> scrape_us;       // PrometheusText() after the run
};

// Runs `spec` (parallel mode, kernel tracer off, as RunWorkload does) through
// the replica unit bodies on `mode`'s stack.
ReplayReport RunTracedReplay(const protego::workload::WorkloadSpec& spec, SimMode mode,
                             bool keep_spans);

// Writes spans as tab-separated `list task unit id parent name start_ns
// end_ns` rows, where `id` and `parent` index the span's own list. Returns
// false if the file cannot be written.
bool WriteSpans(const std::string& path, const std::vector<std::vector<Span>>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
