// Macro workload engine acceptance: exact op bookkeeping, seed determinism
// across repeated runs and both stacks, overhead-report math, and the
// parallel driver.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <ostream>
#include <string>
#include <vector>

#include "src/workload/workload.h"

namespace protego {
namespace {

using workload::CompareStacks;
using workload::Mix;
using workload::MixFromName;
using workload::MixName;
using workload::MixReport;
using workload::OpsPerUnit;
using workload::OverheadRow;
using workload::RelativeOverheadPct;
using workload::RunWorkload;
using workload::SyscallProfile;
using workload::WorkloadSpec;

WorkloadSpec SmallSpec(Mix mix) {
  WorkloadSpec spec;
  spec.mix = mix;
  spec.tasks = 2;
  spec.total_ops = 2000;
  spec.seed = 11;
  return spec;
}

TEST(MacroWorkload, MixNamesRoundTrip) {
  for (int i = 0; i < workload::kMixCount; ++i) {
    Mix mix = static_cast<Mix>(i);
    EXPECT_EQ(MixFromName(MixName(mix)), mix);
    EXPECT_GT(OpsPerUnit(mix), 0u);
  }
  EXPECT_FALSE(MixFromName("postal").has_value());
}

// Every unit issues exactly OpsPerUnit syscalls — failures never
// short-circuit an op — so the budget arithmetic is exact on both stacks.
TEST(MacroWorkload, OpBookkeepingIsExactOnBothStacks) {
  for (int i = 0; i < workload::kMixCount; ++i) {
    for (SimMode mode : {SimMode::kLinux, SimMode::kProtego}) {
      MixReport r = RunWorkload(SmallSpec(static_cast<Mix>(i)), mode);
      EXPECT_GT(r.units, 0u) << MixName(r.mix);
      EXPECT_EQ(r.ops_issued, r.units * OpsPerUnit(r.mix))
          << MixName(r.mix) << " on " << SimModeName(mode);
      // The gate saw at least every issued op (plus nested Spawn syscalls).
      EXPECT_GE(r.profile.total(), r.ops_issued)
          << MixName(r.mix) << " on " << SimModeName(mode);
    }
  }
}

// The determinism contract: a fixed (spec, seed) replays to identical
// units, op counts, failure counts, and syscall profile — twice in a row.
TEST(MacroWorkload, SameSeedReplaysIdenticalMixAndMetrics) {
  std::vector<WorkloadSpec> specs = {SmallSpec(Mix::kCompile), SmallSpec(Mix::kWebServe),
                                     SmallSpec(Mix::kMail)};
  WorkloadSpec probe;  // a second seed and budget on the exec-heavy mix
  probe.mix = Mix::kCompile;
  probe.tasks = 2;
  probe.total_ops = 4000;
  probe.seed = 7;
  specs.push_back(probe);
  for (const WorkloadSpec& spec : specs) {
    const std::string what =
        std::string(MixName(spec.mix)) + " seed " + std::to_string(spec.seed);
    MixReport a = RunWorkload(spec, SimMode::kProtego);
    MixReport b = RunWorkload(spec, SimMode::kProtego);
    EXPECT_EQ(a.units, b.units) << what;
    EXPECT_EQ(a.ops_issued, b.ops_issued) << what;
    EXPECT_EQ(a.ops_failed, b.ops_failed) << what;
    EXPECT_TRUE(a.profile == b.profile) << what;
  }
}

// Both stacks replay the identical op stream, which is what makes the
// overhead column a like-for-like comparison. This is the small shape
// (2 tasks, seed 11); StackPair below repeats the check at 8 tasks.
TEST(MacroWorkload, StockAndProtegoIssueIdenticalOpStreams) {
  OverheadRow row = CompareStacks(SmallSpec(Mix::kWebServe));
  EXPECT_EQ(row.stock.units, row.protego.units);
  EXPECT_EQ(row.stock.ops_issued, row.protego.ops_issued);
  EXPECT_GT(row.stock.ops_per_sec, 0.0);
  EXPECT_GT(row.protego.ops_per_sec, 0.0);
}

// The same check for every mix in both exec modes, at 8 tasks and a
// 24,000-op budget: enough units that each task runs many rounds and the
// parallel mode's threads overlap.
struct StackPairCase {
  Mix mix;
  ExecMode exec_mode;
};

void PrintTo(const StackPairCase& c, std::ostream* os) {
  *os << MixName(c.mix) << "/" << ExecModeName(c.exec_mode);
}

class StackPair : public ::testing::TestWithParam<StackPairCase> {};

TEST_P(StackPair, StockAndProtegoIssueIdenticalOpStreams) {
  WorkloadSpec spec;
  spec.mix = GetParam().mix;
  spec.exec_mode = GetParam().exec_mode;
  spec.tasks = 8;
  spec.total_ops = 24000;
  spec.seed = 1;
  OverheadRow row = CompareStacks(spec);
  for (const MixReport* r : {&row.stock, &row.protego}) {
    const char* stack = SimModeName(r->sim_mode);
    EXPECT_GT(r->units, 0u) << stack;
    EXPECT_EQ(r->ops_issued, r->units * OpsPerUnit(spec.mix)) << stack;
    // The gate saw at least every issued op (plus nested Spawn syscalls).
    EXPECT_GE(r->profile.total(), r->ops_issued) << stack;
    EXPECT_GT(r->ops_per_sec, 0.0) << stack;
  }
  EXPECT_EQ(row.stock.units, row.protego.units);
  EXPECT_EQ(row.stock.ops_issued, row.protego.ops_issued);
}

std::vector<StackPairCase> AllStackPairCases() {
  std::vector<StackPairCase> cases;
  for (int i = 0; i < workload::kMixCount; ++i) {
    for (ExecMode mode : {ExecMode::kDeterministic, ExecMode::kParallel}) {
      cases.push_back({static_cast<Mix>(i), mode});
    }
  }
  return cases;
}

// "web-serve" in deterministic mode -> "web_serve_deterministic".
std::string StackPairName(const ::testing::TestParamInfo<StackPairCase>& info) {
  std::string name =
      std::string(MixName(info.param.mix)) + "_" + ExecModeName(info.param.exec_mode);
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

INSTANTIATE_TEST_SUITE_P(MacroWorkload, StackPair, ::testing::ValuesIn(AllStackPairCases()),
                         StackPairName);

// The mail mix is the paper's story in miniature: on stock Linux the
// delivery loop seteuid()s into each recipient; under Protego the session
// is the unprivileged exim user and both per-delivery transitions fail
// EPERM (the obviated transition), counted as failed ops.
TEST(MacroWorkload, MailMixObviatesSetuidTransitionsUnderProtego) {
  WorkloadSpec spec = SmallSpec(Mix::kMail);
  MixReport stock = RunWorkload(spec, SimMode::kLinux);
  MixReport protego = RunWorkload(spec, SimMode::kProtego);
  EXPECT_EQ(stock.ops_failed, 0u);
  EXPECT_EQ(protego.ops_failed, 2 * protego.units);
}

TEST(MacroWorkload, ParallelModeRunsTheSameDeterministicBudget) {
  WorkloadSpec spec = SmallSpec(Mix::kMail);
  spec.tasks = 4;
  MixReport det = RunWorkload(spec, SimMode::kProtego);
  spec.exec_mode = ExecMode::kParallel;
  MixReport par = RunWorkload(spec, SimMode::kProtego);
  // Budgets are per-task, resources task-private: even under free-running
  // threads the op stream and profile must match the deterministic run.
  EXPECT_EQ(par.units, det.units);
  EXPECT_EQ(par.ops_issued, det.ops_issued);
  EXPECT_EQ(par.ops_failed, det.ops_failed);
  EXPECT_TRUE(par.profile == det.profile);
}

// Each mail task writes only its own spool, so four of them on real
// threads never meet on a tree lock: walks take none, and a spool's
// create, rename and unlink take only that spool's lock.
TEST(MacroWorkload, ParallelMailTasksNeverMeetOnATreeLock) {
  WorkloadSpec spec = SmallSpec(Mix::kMail);
  spec.tasks = 4;
  spec.total_ops = 16000;
  spec.exec_mode = ExecMode::kParallel;
  spec.trace = true;  // captures the metrics export
  MixReport r = RunWorkload(spec, SimMode::kProtego);
  EXPECT_EQ(r.ops_issued, r.units * OpsPerUnit(Mix::kMail));
  EXPECT_NE(r.metrics_text.find("protego_lock_contended_total{lock=\"vfs_tree\"} 0\n"),
            std::string::npos)
      << r.metrics_text;
}

// Honors PROTEGO_EXEC_MODE the way every harness does — under the CI
// parallel job this runs the engine on real OS threads.
TEST(MacroWorkload, RunsUnderAmbientExecMode) {
  WorkloadSpec spec = SmallSpec(Mix::kCompile);
  spec.exec_mode = ExecModeFromEnv();
  MixReport r = RunWorkload(spec, SimMode::kProtego);
  EXPECT_EQ(r.exec_mode, ExecModeFromEnv());
  EXPECT_EQ(r.ops_issued, r.units * OpsPerUnit(Mix::kCompile));
}

// --- Overhead-report math ----------------------------------------------------

TEST(OverheadMath, RelativeOverheadPct) {
  EXPECT_DOUBLE_EQ(RelativeOverheadPct(100.0, 80.0), 20.0);   // protego slower
  EXPECT_DOUBLE_EQ(RelativeOverheadPct(100.0, 125.0), -25.0); // protego faster
  EXPECT_DOUBLE_EQ(RelativeOverheadPct(100.0, 100.0), 0.0);
  EXPECT_DOUBLE_EQ(RelativeOverheadPct(0.0, 50.0), 0.0);      // degenerate base
}

TEST(OverheadMath, CompareStacksUsesOpsPerSec) {
  OverheadRow row = CompareStacks(SmallSpec(Mix::kSetuidBurst));
  EXPECT_DOUBLE_EQ(
      row.overhead_pct,
      RelativeOverheadPct(row.stock.ops_per_sec, row.protego.ops_per_sec));
}

// --- Profiles ----------------------------------------------------------------

TEST(SyscallProfileTest, FormatsAndCounts) {
  SyscallProfile p;
  p.calls[static_cast<size_t>(Sysno::kOpen)] = 3;
  p.calls[static_cast<size_t>(Sysno::kStat)] = 8;
  EXPECT_EQ(p.total(), 11u);
  SyscallProfile q = p;
  EXPECT_TRUE(p == q);
  q.calls[static_cast<size_t>(Sysno::kOpen)] = 4;
  EXPECT_FALSE(p == q);
  EXPECT_EQ(q.total(), 12u);
}

}  // namespace
}  // namespace protego
