// Always-on observability tests (DESIGN.md §12): the per-syscall dispatch
// word, seeded head sampling and its replay guarantee, the tail-exemplar
// reservoir, per-layer latency attribution and its telescoping identity,
// the /proc/protego/trace control commands and ?since cursor, the
// /proc/protego/profile file, and the size-bounded metrics JSON excerpt.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/attribution.h"
#include "src/kernel/kernel.h"
#include "src/lsm/capability_module.h"
#include "src/sim/system.h"
#include "src/workload/workload.h"
#include "tests/prometheus_lint.h"

namespace protego {
namespace {

// Advances the virtual clock by a one-shot step on the next
// inode_permission dispatch, giving the enclosing syscall an exact,
// test-chosen duration in ticks (the reservoir's ranking key).
class TickModule : public SecurityModule {
 public:
  explicit TickModule(Clock* clock) : clock_(clock) {}
  const char* name() const override { return "tick"; }

  HookVerdict InodePermission(Task& task, const std::string& path, const Inode& inode,
                              int may, bool* /*unused*/) override {
    (void)task;
    (void)path;
    (void)inode;
    (void)may;
    clock_->Advance(step_);
    step_ = 0;
    return HookVerdict::kDefault;
  }

  void set_step(uint64_t step) { step_ = step; }

 private:
  Clock* clock_;
  uint64_t step_ = 0;
};

class ObservabilityTest : public ::testing::Test {
 protected:
  ObservabilityTest() {
    kernel_.lsm().Register(std::make_unique<CapabilityModule>());
    auto tick = std::make_unique<TickModule>(&kernel_.clock());
    tick_ = tick.get();
    kernel_.lsm().Register(std::move(tick));
    (void)kernel_.vfs().EnsureDirs("/etc");
    (void)kernel_.vfs().CreateFile("/etc/passwd", 0644, kRootUid, kRootGid, "x");
  }

  Task& User(Uid uid) { return kernel_.CreateTask("u", Cred::ForUser(uid, uid), &terminal_); }

  Kernel kernel_;
  Terminal terminal_;
  TickModule* tick_ = nullptr;
};

// --- Per-syscall dispatch ----------------------------------------------------

TEST_F(ObservabilityTest, DispatchWordTracksConfiguration) {
  SyscallGate& gate = kernel_.syscalls();
  uint8_t d = gate.Dispatch(Sysno::kStat);
  EXPECT_NE(d & SyscallGate::kDispatchTrace, 0);
  EXPECT_NE(d & SyscallGate::kDispatchExemplar, 0);
  EXPECT_EQ(d & SyscallGate::kDispatchTimed, 0);
  EXPECT_EQ(d & SyscallGate::kDispatchSampled, 0);

  // Narrowing the traced set clears ONLY the narrowed syscall's trace bit.
  gate.SetSyscallTraced(Sysno::kStat, false);
  EXPECT_EQ(gate.Dispatch(Sysno::kStat) & SyscallGate::kDispatchTrace, 0);
  EXPECT_NE(gate.Dispatch(Sysno::kOpen) & SyscallGate::kDispatchTrace, 0);
  gate.SetSyscallTraced(Sysno::kStat, true);

  // Wall-clock timing honors the per-syscall timed set.
  gate.set_wallclock_timing(true);
  EXPECT_NE(gate.Dispatch(Sysno::kStat) & SyscallGate::kDispatchTimed, 0);
  gate.SetSyscallTimed(Sysno::kStat, false);
  EXPECT_EQ(gate.Dispatch(Sysno::kStat) & SyscallGate::kDispatchTimed, 0);
  EXPECT_NE(gate.Dispatch(Sysno::kOpen) & SyscallGate::kDispatchTimed, 0);
  gate.set_wallclock_timing(false);

  // A sampling rate on the syscall point sets the sampled bit.
  kernel_.tracer().set_sample_rate(TracepointId::kSyscall, 8);
  EXPECT_NE(gate.Dispatch(Sysno::kStat) & SyscallGate::kDispatchSampled, 0);
  kernel_.tracer().set_sample_rate(TracepointId::kSyscall, 0);
  EXPECT_EQ(gate.Dispatch(Sysno::kStat) & SyscallGate::kDispatchSampled, 0);

  // A fully-off tracer clears both the trace and exemplar bits.
  kernel_.tracer().set_enabled(false);
  d = gate.Dispatch(Sysno::kStat);
  EXPECT_EQ(d & SyscallGate::kDispatchTrace, 0);
  EXPECT_EQ(d & SyscallGate::kDispatchExemplar, 0);
  kernel_.tracer().set_enabled(true);
}

TEST_F(ObservabilityTest, UntracedSyscallsSkipTraceButKeepStats) {
  Task& alice = User(1000);
  SyscallGate& gate = kernel_.syscalls();

  ASSERT_TRUE(kernel_.Stat(alice, "/etc/passwd").ok());
  EXPECT_NE(gate.FormatTrace().find("stat("), std::string::npos);

  gate.ClearTrace();
  gate.SetAllSyscallsTraced(false);
  const uint64_t calls = gate.stats(Sysno::kStat).calls;
  ASSERT_TRUE(kernel_.Stat(alice, "/etc/passwd").ok());
  EXPECT_EQ(gate.FormatTrace().find("stat("), std::string::npos);
  EXPECT_EQ(gate.stats(Sysno::kStat).calls, calls + 1);

  // Re-widening restores emission.
  gate.SetSyscallTraced(Sysno::kStat, true);
  ASSERT_TRUE(kernel_.Stat(alice, "/etc/passwd").ok());
  EXPECT_NE(gate.FormatTrace().find("stat("), std::string::npos);
}

// --- Seeded sampling ---------------------------------------------------------

TEST(SamplingDeterminismTest, SameSeedSameDecisionsAcrossRuns) {
  auto run = []() {
    Kernel k;
    Terminal term;
    Task& t = k.CreateTask("u", Cred::ForUser(1000, 1000), &term);
    k.tracer().set_sample_seed(42);
    k.tracer().set_sample_rate(TracepointId::kSyscall, 3);
    for (int i = 0; i < 50; ++i) {
      (void)k.GetPid(t);
    }
    std::vector<uint64_t> kept;
    for (const TraceEvent& ev : k.tracer().Snapshot()) {
      if (ev.tp == TracepointId::kSyscall) {
        kept.push_back(ev.seq);
      }
    }
    return std::make_pair(kept, k.tracer().sampled_out(TracepointId::kSyscall));
  };

  auto [kept1, out1] = run();
  auto [kept2, out2] = run();
  auto [kept3, out3] = run();
  EXPECT_FALSE(kept1.empty());
  EXPECT_GT(out1, 0u);
  EXPECT_EQ(kept1, kept2);
  EXPECT_EQ(kept1, kept3);
  EXPECT_EQ(out1, out2);
  EXPECT_EQ(out1, out3);
}

TEST(SamplingDeterminismTest, DifferentSeedsDiverge) {
  auto run = [](uint64_t seed) {
    Kernel k;
    Terminal term;
    Task& t = k.CreateTask("u", Cred::ForUser(1000, 1000), &term);
    k.tracer().set_sample_seed(seed);
    k.tracer().set_sample_rate(TracepointId::kSyscall, 3);
    for (int i = 0; i < 200; ++i) {
      (void)k.GetPid(t);
    }
    std::vector<uint64_t> kept;
    for (const TraceEvent& ev : k.tracer().Snapshot()) {
      if (ev.tp == TracepointId::kSyscall) {
        kept.push_back(ev.seq);
      }
    }
    return kept;
  };
  EXPECT_NE(run(1), run(2));
}

// --- Tail-exemplar reservoir -------------------------------------------------

TEST_F(ObservabilityTest, ReservoirKeepsTheKSlowestCalls) {
  Task& alice = User(1000);
  for (uint64_t step : {5u, 1u, 9u, 3u, 7u, 2u, 8u}) {
    tick_->set_step(step);
    ASSERT_TRUE(kernel_.Access(alice, "/etc/passwd", kMayRead).ok());
  }
  auto ex = kernel_.syscalls().ExemplarsFor(Sysno::kAccess);
  ASSERT_EQ(ex.size(), SyscallGate::kExemplarSlots);
  EXPECT_EQ(ex[0].dur_ticks, 9u);
  EXPECT_EQ(ex[1].dur_ticks, 8u);
  EXPECT_EQ(ex[2].dur_ticks, 7u);
  EXPECT_EQ(ex[3].dur_ticks, 5u);
  for (const auto& e : ex) {
    EXPECT_NE(e.span, 0u);
    EXPECT_EQ(e.pid, alice.pid);
  }
}

TEST_F(ObservabilityTest, ReservoirTiesKeepTheIncumbent) {
  Task& alice = User(1000);
  for (int i = 0; i < 4; ++i) {
    tick_->set_step(6);
    ASSERT_TRUE(kernel_.Access(alice, "/etc/passwd", kMayRead).ok());
  }
  auto before = kernel_.syscalls().ExemplarsFor(Sysno::kAccess);
  ASSERT_EQ(before.size(), 4u);

  // An equal-duration fifth call must not displace any earlier exemplar.
  tick_->set_step(6);
  ASSERT_TRUE(kernel_.Access(alice, "/etc/passwd", kMayRead).ok());
  auto after = kernel_.syscalls().ExemplarsFor(Sysno::kAccess);
  ASSERT_EQ(after.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(before[i].span, after[i].span);
  }
}

TEST_F(ObservabilityTest, ResetStatsClearsReservoirAndDisableStopsCapture) {
  Task& alice = User(1000);
  tick_->set_step(4);
  ASSERT_TRUE(kernel_.Access(alice, "/etc/passwd", kMayRead).ok());
  EXPECT_FALSE(kernel_.syscalls().ExemplarsFor(Sysno::kAccess).empty());

  kernel_.syscalls().ResetStats();
  EXPECT_TRUE(kernel_.syscalls().ExemplarsFor(Sysno::kAccess).empty());

  kernel_.syscalls().set_exemplars_enabled(false);
  tick_->set_step(4);
  ASSERT_TRUE(kernel_.Access(alice, "/etc/passwd", kMayRead).ok());
  EXPECT_TRUE(kernel_.syscalls().ExemplarsFor(Sysno::kAccess).empty());
}

TEST_F(ObservabilityTest, ExemplarsEscapeHeadSampling) {
  // Rate so high every event is sampled out — the reservoir must still see
  // every call (its whole point is catching what sampling drops).
  kernel_.tracer().set_sample_rate(TracepointId::kSyscall, 1000000);
  kernel_.tracer().set_sample_seed(7);
  Task& alice = User(1000);
  kernel_.syscalls().ClearTrace();
  tick_->set_step(3);
  ASSERT_TRUE(kernel_.Access(alice, "/etc/passwd", kMayRead).ok());
  EXPECT_EQ(kernel_.syscalls().FormatTrace().find("access("), std::string::npos);
  ASSERT_EQ(kernel_.syscalls().ExemplarsFor(Sysno::kAccess).size(), 1u);
  EXPECT_EQ(kernel_.syscalls().ExemplarsFor(Sysno::kAccess)[0].dur_ticks, 3u);
}

// --- Per-layer latency attribution -------------------------------------------

TEST_F(ObservabilityTest, AttributionTelescopesAndFoldsPaths) {
  kernel_.profiler().set_enabled(true);
  Task& alice = User(1000);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(kernel_.Access(alice, "/etc/passwd", kMayRead).ok());
    (void)kernel_.GetPid(alice);
  }
  kernel_.profiler().set_enabled(false);

  const LayerProfiler& prof = kernel_.profiler();
  EXPECT_GT(prof.root_count(), 0u);
  EXPECT_EQ(prof.dropped(), 0u);
  uint64_t self_sum = 0;
  for (size_t i = 0; i < kLayerCount; ++i) {
    self_sum += prof.Totals(static_cast<Layer>(i)).self_ns;
  }
  // The telescoping identity: per-layer self times sum EXACTLY to the
  // inclusive time of the root frames (single-threaded, quiescent).
  EXPECT_EQ(self_sum, prof.root_ns());

  EXPECT_GT(prof.Totals(Layer::kGate).count, 0u);
  EXPECT_GT(prof.Totals(Layer::kLsm).count, 0u);
  EXPECT_GT(prof.Totals(Layer::kVfs).count, 0u);

  std::string profile = prof.FormatProfile();
  EXPECT_NE(profile.find("# layer-profile enabled=0"), std::string::npos);
  EXPECT_NE(profile.find("# layer gate"), std::string::npos);
  EXPECT_NE(profile.find("gate;"), std::string::npos);

  bool saw_lsm_path = false;
  for (const auto& entry : prof.Folded()) {
    if (entry.stack.find("gate;") == 0 && entry.stack.find("lsm") != std::string::npos) {
      saw_lsm_path = true;
      EXPECT_GT(entry.count, 0u);
    }
  }
  EXPECT_TRUE(saw_lsm_path);
}

TEST_F(ObservabilityTest, AttributionFrameCountsAreDeterministic) {
  auto run = []() {
    Kernel k;
    k.lsm().Register(std::make_unique<CapabilityModule>());
    (void)k.vfs().EnsureDirs("/etc");
    (void)k.vfs().CreateFile("/etc/passwd", 0644, kRootUid, kRootGid, "x");
    Terminal term;
    Task& t = k.CreateTask("u", Cred::ForUser(1000, 1000), &term);
    k.profiler().set_enabled(true);
    for (int i = 0; i < 10; ++i) {
      (void)k.Access(t, "/etc/passwd", kMayRead);
    }
    std::vector<std::pair<std::string, uint64_t>> folded;
    for (const auto& e : k.profiler().Folded()) {
      folded.emplace_back(e.stack, e.count);
    }
    std::vector<uint64_t> counts;
    for (size_t i = 0; i < kLayerCount; ++i) {
      counts.push_back(k.profiler().Totals(static_cast<Layer>(i)).count);
    }
    return std::make_pair(folded, counts);
  };
  auto [folded1, counts1] = run();
  auto [folded2, counts2] = run();
  EXPECT_FALSE(folded1.empty());
  EXPECT_EQ(folded1, folded2);
  EXPECT_EQ(counts1, counts2);
}

// --- /proc/protego interface -------------------------------------------------

class ObservabilityProcTest : public ::testing::Test {
 protected:
  ObservabilityProcTest() : sys_(SimMode::kProtego), root_(sys_.Login("root")) {}

  Result<Unit> WriteTrace(const std::string& cmd) {
    return sys_.kernel().WriteWholeFile(root_, "/proc/protego/trace", cmd);
  }

  SimSystem sys_;
  Task& root_;
};

TEST_F(ObservabilityProcTest, SinceCursorFiltersOldRootsAndAdvertisesNext) {
  Kernel& k = sys_.kernel();
  (void)k.GetPid(root_);
  (void)k.GetPid(root_);
  auto full = k.ReadWholeFile(root_, "/proc/protego/trace");
  ASSERT_TRUE(full.ok());
  EXPECT_NE(full.value().find("getpid("), std::string::npos);

  // Cursor at the current end: previous roots disappear, the next-cursor
  // trailer tells the poller where to resume.
  const uint64_t next = k.tracer().seq();
  ASSERT_TRUE(WriteTrace("?since=" + std::to_string(next)).ok());
  auto tail = k.ReadWholeFile(root_, "/proc/protego/trace");
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(tail.value().find("getpid("), std::string::npos);
  EXPECT_NE(tail.value().find("# next: "), std::string::npos);

  // Bare "since" resets the cursor; the old roots come back.
  ASSERT_TRUE(WriteTrace("?since").ok());
  auto again = k.ReadWholeFile(root_, "/proc/protego/trace");
  ASSERT_TRUE(again.ok());
  EXPECT_NE(again.value().find("getpid("), std::string::npos);

  EXPECT_EQ(WriteTrace("?since=junk").code(), Errno::kEINVAL);
}

TEST_F(ObservabilityProcTest, SampleSeedAndSetCommands) {
  Kernel& k = sys_.kernel();

  ASSERT_TRUE(WriteTrace("sample=all:8").ok());
  EXPECT_EQ(k.tracer().sample_rate(TracepointId::kSyscall), 8u);
  EXPECT_EQ(k.tracer().sample_rate(TracepointId::kLsmHook), 8u);
  ASSERT_TRUE(WriteTrace("sample=lsm_hook:4").ok());
  EXPECT_EQ(k.tracer().sample_rate(TracepointId::kLsmHook), 4u);
  EXPECT_EQ(k.tracer().sample_rate(TracepointId::kSyscall), 8u);
  ASSERT_TRUE(WriteTrace("sample=all:0").ok());

  EXPECT_EQ(WriteTrace("sample=bogus:4").code(), Errno::kEINVAL);
  EXPECT_EQ(WriteTrace("sample=all:x").code(), Errno::kEINVAL);
  EXPECT_EQ(WriteTrace("sample=all").code(), Errno::kEINVAL);

  ASSERT_TRUE(WriteTrace("seed=99").ok());
  EXPECT_EQ(k.tracer().sample_seed(), 99u);
  EXPECT_EQ(WriteTrace("seed=z").code(), Errno::kEINVAL);

  SyscallGate& gate = k.syscalls();
  ASSERT_TRUE(WriteTrace("syscalls=stat,open").ok());
  EXPECT_TRUE(gate.syscall_traced(Sysno::kStat));
  EXPECT_TRUE(gate.syscall_traced(Sysno::kOpen));
  EXPECT_FALSE(gate.syscall_traced(Sysno::kGetPid));
  ASSERT_TRUE(WriteTrace("syscalls=none").ok());
  EXPECT_FALSE(gate.syscall_traced(Sysno::kStat));
  ASSERT_TRUE(WriteTrace("syscalls=all").ok());
  EXPECT_TRUE(gate.syscall_traced(Sysno::kGetPid));

  // A bad name rejects the whole list — nothing is applied.
  EXPECT_EQ(WriteTrace("syscalls=stat,bogus").code(), Errno::kEINVAL);
  EXPECT_TRUE(gate.syscall_traced(Sysno::kGetPid));

  ASSERT_TRUE(WriteTrace("timed=mount").ok());
  EXPECT_TRUE(gate.syscall_timed(Sysno::kMount));
  EXPECT_FALSE(gate.syscall_timed(Sysno::kStat));
  ASSERT_TRUE(WriteTrace("timed=all").ok());

  EXPECT_EQ(WriteTrace("gibberish").code(), Errno::kEINVAL);
}

TEST_F(ObservabilityProcTest, ProfileFileTogglesAndRenders) {
  Kernel& k = sys_.kernel();
  EXPECT_FALSE(k.profiler().enabled());
  ASSERT_TRUE(k.WriteWholeFile(root_, "/proc/protego/profile", "on").ok());
  EXPECT_TRUE(k.profiler().enabled());

  // A denied mount exercises gate -> lsm under the profiler.
  Task& alice = sys_.Login("alice");
  (void)sys_.kernel().Mount(alice, "/dev/sdb1", "/mnt", "ext4", {});

  auto profile = k.ReadWholeFile(root_, "/proc/protego/profile");
  ASSERT_TRUE(profile.ok());
  EXPECT_NE(profile.value().find("# layer-profile enabled=1"), std::string::npos);
  EXPECT_NE(profile.value().find("gate"), std::string::npos);

  ASSERT_TRUE(k.WriteWholeFile(root_, "/proc/protego/profile", "off").ok());
  EXPECT_FALSE(k.profiler().enabled());
  ASSERT_TRUE(k.WriteWholeFile(root_, "/proc/protego/profile", "clear").ok());
  EXPECT_EQ(k.profiler().root_count(), 0u);
  EXPECT_EQ(k.WriteWholeFile(root_, "/proc/protego/profile", "bogus").code(),
            Errno::kEINVAL);
}

// --- Workload integration ----------------------------------------------------

workload::WorkloadSpec ObservedSpec(ExecMode mode) {
  workload::WorkloadSpec spec;
  spec.mix = workload::Mix::kWebServe;
  spec.tasks = 4;
  spec.total_ops = 2000;
  spec.seed = 7;
  spec.exec_mode = mode;
  spec.trace = true;
  spec.sample_rate = 16;
  spec.profile = true;
  return spec;
}

TEST(ObservabilityWorkloadTest, SampledRunReplaysUnderDetScheduler) {
  auto spec = ObservedSpec(ExecMode::kDeterministic);
  auto r1 = workload::RunWorkload(spec, SimMode::kProtego);
  auto r2 = workload::RunWorkload(spec, SimMode::kProtego);
  auto r3 = workload::RunWorkload(spec, SimMode::kProtego);
  EXPECT_GT(r1.trace_sampled_out, 0u);
  EXPECT_EQ(r1.trace_sampled_out, r2.trace_sampled_out);
  EXPECT_EQ(r1.trace_sampled_out, r3.trace_sampled_out);
  EXPECT_EQ(r1.profile, r2.profile);
  EXPECT_EQ(r1.profile, r3.profile);
}

TEST(ObservabilityWorkloadTest, SampledRunReplaysUnderParallelExec) {
  auto spec = ObservedSpec(ExecMode::kParallel);
  auto r1 = workload::RunWorkload(spec, SimMode::kProtego);
  auto r2 = workload::RunWorkload(spec, SimMode::kProtego);
  EXPECT_GT(r1.trace_sampled_out, 0u);
  EXPECT_EQ(r1.trace_sampled_out, r2.trace_sampled_out);
  EXPECT_EQ(r1.profile, r2.profile);
}

TEST(ObservabilityWorkloadTest, AttributionCoversTheRootTime) {
  auto r = workload::RunWorkload(ObservedSpec(ExecMode::kDeterministic),
                                 SimMode::kProtego);
  ASSERT_GT(r.attrib_root_ns, 0u);
  ASSERT_GT(r.attrib_self_ns, 0u);
  // The acceptance criterion: summed per-layer self time within 10% of the
  // end-to-end root time (the identity is exact; the slack covers frames
  // still open at snapshot, of which there are none post-Join).
  const double ratio =
      static_cast<double>(r.attrib_self_ns) / static_cast<double>(r.attrib_root_ns);
  EXPECT_GT(ratio, 0.9);
  EXPECT_LT(ratio, 1.1);
}

TEST(ObservabilityWorkloadTest, MacroMetricsExportPassesLintWithNewFamilies) {
  auto r = workload::RunWorkload(ObservedSpec(ExecMode::kDeterministic),
                                 SimMode::kProtego);
  ASSERT_FALSE(r.metrics_text.empty());
  auto err = prom::LintPrometheusText(r.metrics_text);
  EXPECT_FALSE(err.has_value()) << *err;
  EXPECT_NE(r.metrics_text.find("protego_layer_self_time"), std::string::npos);
  EXPECT_NE(r.metrics_text.find("protego_observer_self_ns_total"), std::string::npos);
  EXPECT_NE(r.metrics_text.find("protego_trace_sampled_out_total"), std::string::npos);
  // Bucket-line exemplars from the tail reservoir.
  EXPECT_NE(r.metrics_text.find(" # {"), std::string::npos);
}

// --- Metrics JSON excerpt ----------------------------------------------------

TEST_F(ObservabilityTest, JsonExcerptIsBoundedAndCountsOmissions) {
  Task& alice = User(1000);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(kernel_.Stat(alice, "/etc/passwd").ok());
    (void)kernel_.GetPid(alice);
  }
  std::string excerpt = kernel_.metrics().JsonExcerpt(1);
  EXPECT_NE(excerpt.find("\"omitted\""), std::string::npos);
  // Bounded: strictly smaller than the full export for a busy registry.
  EXPECT_LT(excerpt.size(), kernel_.metrics().Json().size());
  // Stable: two reads of an idle kernel render identically.
  EXPECT_EQ(excerpt, kernel_.metrics().JsonExcerpt(1));
}

}  // namespace
}  // namespace protego
