// perfbench: the macro benchmark — stock Linux + AppArmor against Protego
// on the workload engine's compile, web-serve and mail mixes, 4 tasks in
// ExecMode::kParallel, closed loop.
//
//   perfbench --workload <compile|web-serve|mail> --seed <n> --seconds <s>
//             --trace <0|1> [--span-out <file>]
//
// --trace 0 measures the end-to-end metrics from untraced RunWorkload runs,
// stock and Protego alternating within each repeat (which stack goes first
// alternates too), and prints the paper's Table 5 overhead with a bootstrap
// CI as information. --trace 1 runs the outside-in traced replay and the
// lower-layer probes and reports the per-layer metrics. Both modes check
// the outputs first; the last stdout line is one JSON object, and the exit
// code is 1 if any check failed.

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "probes.h"
#include "replay.h"
#include "stats.h"

namespace perfbench {
namespace {

using protego::ExecMode;
using protego::workload::MixName;
using protego::workload::MixReport;
using protego::workload::OpsPerUnit;
using protego::workload::RunWorkload;
using protego::workload::WorkloadSpec;

constexpr int kTasks = 4;
constexpr uint64_t kCheckOps = 4000;  // budget of the untimed check runs

struct Options {
  Mix mix = Mix::kCompile;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string span_out;
};

// Per-run op budgets: about 60 ms of timed region per RunWorkload call on a
// 4-core x86 VM, so one run of the benchmark holds hundreds of repeats and
// its medians are steady.
uint64_t OpsPerRun(Mix mix) {
  switch (mix) {
    case Mix::kCompile: return 160000;
    case Mix::kWebServe: return 80000;
    case Mix::kMail: return 15000;
    case Mix::kSetuidBurst: break;
  }
  return 0;
}

bool ParseArgs(int argc, char** argv, Options& o) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      auto mix = protego::workload::MixFromName(val);
      if (!mix.has_value() || *mix == Mix::kSetuidBurst) {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n", val);
        return false;
      }
      o.mix = *mix;
      have_workload = true;
    } else if (key == "--seed") {
      o.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      o.seconds = std::strtod(val, nullptr);
    } else if (key == "--trace") {
      o.trace = std::strcmp(val, "0") != 0;
    } else if (key == "--span-out") {
      o.span_out = val;
    } else {
      std::fprintf(stderr, "perfbench: unknown argument '%s'\n", key.c_str());
      return false;
    }
  }
  if (argc % 2 == 0 || !have_workload || !(o.seconds > 0)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <compile|web-serve|mail> --seed <n> "
                 "--seconds <s> --trace <0|1> [--span-out <file>]\n");
    return false;
  }
  return true;
}

// Collects failed output checks; any failure makes the run incorrect.
class Checks {
 public:
  void Expect(bool ok, const std::string& what) {
    if (!ok) {
      failures_.push_back(what);
    }
  }
  bool ok() const { return failures_.empty(); }
  void Print() const {
    for (const std::string& f : failures_) {
      std::printf("CHECK FAILED: %s\n", f.c_str());
    }
  }

 private:
  std::vector<std::string> failures_;
};

// Ops each run must fail: under Protego the mail session is the
// deprivileged exim user, so both seteuid calls of every delivery are
// refused EPERM — the transition the paper obviates. Everything else
// succeeds.
uint64_t ExpectedFailures(Mix mix, SimMode mode, uint64_t units) {
  return mix == Mix::kMail && mode == SimMode::kProtego ? 2 * units : 0;
}

const char* StackName(SimMode mode) { return mode == SimMode::kLinux ? "stock" : "protego"; }

std::string Where(const MixReport& r) {
  return std::string(MixName(r.mix)) + "/" + StackName(r.sim_mode) + "/" +
         protego::ExecModeName(r.exec_mode) + "/" + std::to_string(r.tasks) + "t";
}

void CheckReport(const MixReport& r, Checks& checks) {
  checks.Expect(r.ops_issued == r.units * OpsPerUnit(r.mix),
                Where(r) + ": ops_issued != units * OpsPerUnit");
  checks.Expect(r.profile.total() >= r.ops_issued,
                Where(r) + ": the gate saw fewer calls than were issued");
  checks.Expect(r.ops_failed == ExpectedFailures(r.mix, r.sim_mode, r.units),
                Where(r) + ": ops_failed " + std::to_string(r.ops_failed) + ", expected " +
                    std::to_string(ExpectedFailures(r.mix, r.sim_mode, r.units)));
}

// The op stream a run issued: units, attempts and the gate's histogram.
bool SameStream(const MixReport& a, const MixReport& b) {
  return a.units == b.units && a.ops_issued == b.ops_issued && a.profile == b.profile;
}

WorkloadSpec MakeSpec(const Options& o, int tasks, uint64_t ops, ExecMode mode) {
  WorkloadSpec spec;
  spec.mix = o.mix;
  spec.tasks = tasks;
  spec.total_ops = ops;
  spec.seed = o.seed;
  spec.exec_mode = mode;
  return spec;
}

// Untimed checks at a small budget: a same-seed DetScheduler replay is
// identical (and matches parallel mode's op stream), and the traced
// replay's per-syscall counts equal RunWorkload's profile on both stacks.
void RunSmallChecks(const Options& o, int tasks, Checks& checks) {
  const WorkloadSpec det = MakeSpec(o, tasks, kCheckOps, ExecMode::kDeterministic);
  const MixReport a = RunWorkload(det, SimMode::kProtego);
  const MixReport b = RunWorkload(det, SimMode::kProtego);
  CheckReport(a, checks);
  checks.Expect(SameStream(a, b) && a.ops_failed == b.ops_failed,
                Where(a) + ": same-seed DetScheduler replay differs");
  for (SimMode mode : {SimMode::kLinux, SimMode::kProtego}) {
    const WorkloadSpec par = MakeSpec(o, tasks, kCheckOps, ExecMode::kParallel);
    const MixReport r = RunWorkload(par, mode);
    CheckReport(r, checks);
    if (mode == SimMode::kProtego) {
      checks.Expect(SameStream(a, r) && a.ops_failed == r.ops_failed,
                    Where(r) + ": parallel op stream differs from the DetScheduler's");
    }
    const ReplayReport rep = RunTracedReplay(par, mode, false);
    checks.Expect(rep.profile == r.profile && rep.ops_issued == r.ops_issued &&
                      rep.ops_failed == r.ops_failed,
                  Where(r) + ": traced replay's syscall counts differ from RunWorkload's");
  }
}

std::string Num(double v) {
  if (!std::isfinite(v)) {
    v = 0;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintMetrics(const Metrics& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-34s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed, const Metrics& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max<uint64_t>(attempted, 1));
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + Num(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

// Tally of one stack's measured runs.
struct StackTally {
  uint64_t issued = 0;
  uint64_t failed = 0;
  uint64_t expected_failed = 0;

  void Add(const MixReport& r) {
    issued += r.ops_issued;
    failed += r.ops_failed;
    expected_failed += ExpectedFailures(r.mix, r.sim_mode, r.units);
  }
  uint64_t unexpected() const {
    return failed > expected_failed ? failed - expected_failed : expected_failed - failed;
  }
};

int RunEndToEnd(const Options& o, int tasks) {
  const uint64_t deadline = NowNs() + static_cast<uint64_t>(o.seconds * 1e9);
  Checks checks;
  RunSmallChecks(o, tasks, checks);

  const WorkloadSpec spec = MakeSpec(o, tasks, OpsPerRun(o.mix), ExecMode::kParallel);
  std::vector<double> stock_ops, protego_ops, setup, stock_setup, overhead;
  StackTally stock_tally, protego_tally;
  std::printf("%6s %-8s %14s %14s %10s %9s\n", "repeat", "first", "stock_ops/s",
              "protego_ops/s", "overhead%", "setup_s");
  for (int i = 0; i < 3 || NowNs() < deadline; ++i) {
    MixReport rep[2];
    double setup_s[2] = {0, 0};
    for (int j = 0; j < 2; ++j) {
      const int which = (i + j) % 2;  // 0 = stock, 1 = Protego
      const uint64_t t0 = NowNs();
      rep[which] = RunWorkload(spec, which == 0 ? SimMode::kLinux : SimMode::kProtego);
      setup_s[which] = static_cast<double>(NowNs() - t0) / 1e9 - rep[which].wall_seconds;
    }
    for (const MixReport& r : rep) {
      CheckReport(r, checks);
    }
    checks.Expect(SameStream(rep[0], rep[1]),
                  "repeat " + std::to_string(i) + ": stock and Protego op streams differ");
    stock_tally.Add(rep[0]);
    protego_tally.Add(rep[1]);
    stock_ops.push_back(rep[0].ops_per_sec);
    protego_ops.push_back(rep[1].ops_per_sec);
    stock_setup.push_back(setup_s[0]);
    setup.push_back(setup_s[1]);
    overhead.push_back(
        protego::workload::RelativeOverheadPct(rep[0].ops_per_sec, rep[1].ops_per_sec));
    std::printf("%6d %-8s %14.0f %14.0f %+10.2f %9.4f\n", i, i % 2 == 0 ? "stock" : "protego",
                rep[0].ops_per_sec, rep[1].ops_per_sec, overhead.back(), setup_s[1]);
  }
  const double peak_rss = PeakRssMib();

  const Interval ci = BootstrapMedianCi(overhead, o.seed);
  const double med_overhead = Median(overhead);
  std::printf("\nTable 5 row (informational, not gated): %s overhead_pct %+.2f%% "
              "[95%% bootstrap CI %+.2f, %+.2f] over %zu interleaved pairs; paper: <= 7.4%%; "
              "CI %s the envelope\n",
              MixName(o.mix), med_overhead, ci.lo, ci.hi, overhead.size(),
              ci.hi <= 7.4 ? "inside" : (ci.lo > 7.4 ? "above" : "straddles"));
  std::printf("ops_failed/ops_issued: stock %llu/%llu, protego %llu/%llu "
              "(expected protego failures: %llu)\n",
              (unsigned long long)stock_tally.failed, (unsigned long long)stock_tally.issued,
              (unsigned long long)protego_tally.failed, (unsigned long long)protego_tally.issued,
              (unsigned long long)protego_tally.expected_failed);
  std::printf("stock setup_s median %.4f (not a reported metric)\n", Median(stock_setup));

  Metrics metrics = {
      {"protego_ops_per_s", Median(protego_ops), "ops/s"},
      {"stock_ops_per_s", Median(stock_ops), "ops/s"},
      {"setup_s", Median(setup), "s"},
      {"peak_rss_mib", peak_rss, "MiB"},
  };
  std::printf("\nend-to-end metrics (median of %zu repeats):\n", setup.size());
  PrintMetrics(metrics);
  checks.Print();
  PrintResult(checks.ok(), stock_tally.issued + protego_tally.issued,
              stock_tally.unexpected() + protego_tally.unexpected(), metrics);
  return checks.ok() ? 0 : 1;
}

int RunTraced(const Options& o, int tasks) {
  const uint64_t deadline = NowNs() + static_cast<uint64_t>(o.seconds * 1e9);
  Checks checks;
  RunSmallChecks(o, tasks, checks);
  std::vector<Span> probe_spans;

  Metrics metrics;
  metrics.push_back({"sim.boot_ms.stock", MedianBootMs(SimMode::kLinux, 5, probe_spans), "ms"});
  metrics.push_back(
      {"sim.boot_ms.protego", MedianBootMs(SimMode::kProtego, 5, probe_spans), "ms"});
  {
    MixBed bed(o.mix, SimMode::kProtego, tasks, o.seed);
    std::string err;
    checks.Expect(RunLayerProbes(bed, tasks, metrics, probe_spans, err), "probes: " + err);
  }

  // Untraced 4-task and 1-task runs alternate with the traced replay, so
  // trace.overhead_pct and conc.scaling_4t compare like with like.
  const WorkloadSpec spec4 = MakeSpec(o, tasks, OpsPerRun(o.mix), ExecMode::kParallel);
  const WorkloadSpec spec1 = MakeSpec(o, 1, OpsPerRun(o.mix), ExecMode::kParallel);
  std::vector<double> untraced4, untraced1, traced, p50, p99, scrape;
  StackTally tally;
  ReplayReport first;
  protego::workload::SyscallProfile untraced_profile;
  for (int i = 0; i < 3 || NowNs() < deadline; ++i) {
    for (int j = 0; j < 3; ++j) {
      switch ((i + j) % 3) {
        case 0: {
          const MixReport r = RunWorkload(spec4, SimMode::kProtego);
          CheckReport(r, checks);
          tally.Add(r);
          untraced_profile = r.profile;
          untraced4.push_back(r.ops_per_sec);
          break;
        }
        case 1: {
          const MixReport r = RunWorkload(spec1, SimMode::kProtego);
          CheckReport(r, checks);
          tally.Add(r);
          untraced1.push_back(r.ops_per_sec);
          break;
        }
        case 2: {
          ReplayReport rep = RunTracedReplay(spec4, SimMode::kProtego, i == 0);
          traced.push_back(rep.ops_per_sec);
          p50.push_back(Quantile(rep.syscall_ns, 0.5));
          p99.push_back(Quantile(rep.syscall_ns, 0.99));
          scrape.insert(scrape.end(), rep.scrape_us.begin(), rep.scrape_us.end());
          tally.issued += rep.ops_issued;
          tally.failed += rep.ops_failed;
          tally.expected_failed += ExpectedFailures(o.mix, SimMode::kProtego, rep.units);
          checks.Expect(rep.ops_issued == rep.units * OpsPerUnit(o.mix) &&
                            rep.ops_failed ==
                                ExpectedFailures(o.mix, SimMode::kProtego, rep.units),
                        "traced replay: op bookkeeping differs from the engine's contract");
          if (i == 0) {
            first = std::move(rep);
          } else {
            checks.Expect(rep.profile == first.profile &&
                              rep.counts.gate_calls == first.counts.gate_calls &&
                              rep.counts.vfs_resolves == first.counts.vfs_resolves &&
                              rep.counts.lsm_hooks == first.counts.lsm_hooks &&
                              rep.counts.netfilter_evals == first.counts.netfilter_evals,
                          "traced replay: exact work counts differ between repeats");
          }
          break;
        }
      }
    }
  }
  checks.Expect(untraced_profile == first.profile,
                "traced replay's per-syscall counts differ from RunWorkload's profile");

  const double untraced = Median(untraced4);
  const WorkCounts& c = first.counts;
  const double ops = static_cast<double>(first.ops_issued);
  const double cache_base = static_cast<double>(c.cache_hits + c.cache_misses + c.cache_bypasses);
  Metrics layer = {
      {"kernel.syscall_ns.p50", Median(p50), "ns"},
      {"kernel.syscall_ns.p99", Median(p99), "ns"},
      {"kernel.syscall_spans", static_cast<double>(first.syscall_ns.size()), "count"},
      {"kernel.gate_calls", static_cast<double>(c.gate_calls), "count"},
      {"kernel.gate_calls_per_unit",
       static_cast<double>(c.gate_calls) / static_cast<double>(first.units), "calls/unit"},
      {"vfs.resolves", static_cast<double>(c.vfs_resolves), "count"},
      {"vfs.resolves_per_op", static_cast<double>(c.vfs_resolves) / ops, "resolves/op"},
      {"lsm.hooks", static_cast<double>(c.lsm_hooks), "count"},
      {"lsm.hooks_per_op", static_cast<double>(c.lsm_hooks) / ops, "hooks/op"},
      {"lsm.decision_cache.hits", static_cast<double>(c.cache_hits), "count"},
      {"lsm.decision_cache.misses", static_cast<double>(c.cache_misses), "count"},
      {"lsm.decision_cache.bypasses", static_cast<double>(c.cache_bypasses), "count"},
      {"lsm.decision_cache.hit_ratio",
       cache_base > 0 ? static_cast<double>(c.cache_hits) / cache_base : 0, "ratio"},
      {"net.netfilter_evals_per_op", static_cast<double>(c.netfilter_evals) / ops, "evals/op"},
      {"trace.units", static_cast<double>(first.units), "count"},
      {"trace.ops_issued", ops, "count"},
      {"trace.overhead_pct", 100.0 * (untraced - Median(traced)) / untraced, "%"},
      {"conc.ops_per_s.1t", Median(untraced1), "ops/s"},
      {"conc.ops_per_s.4t", untraced, "ops/s"},
      {"conc.scaling_4t", untraced / Median(untraced1), "x"},
      {"base.metrics_scrape_us", Median(scrape), "us"},
  };
  metrics.insert(metrics.end(), layer.begin(), layer.end());

  if (!o.span_out.empty()) {
    std::vector<std::vector<Span>> spans = std::move(first.spans);
    spans.push_back(std::move(probe_spans));
    checks.Expect(WriteSpans(o.span_out, spans), "cannot write spans to " + o.span_out);
  }

  std::printf("per-layer metrics (traced replay: %llu units, %llu ops; %zu replays):\n",
              (unsigned long long)first.units, (unsigned long long)first.ops_issued,
              traced.size());
  PrintMetrics(metrics);
  checks.Print();
  PrintResult(checks.ok(), tally.issued, tally.unexpected(), metrics);
  return checks.ok() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options o;
  if (!ParseArgs(argc, argv, o)) {
    return 2;
  }
  // Every repeat boots and tears down whole simulated machines. Keep the
  // freed memory in the process instead of handing it back to the kernel,
  // so repeats do not pay fresh page faults that a long-running system
  // would not (this removes a warm-up ramp of several seconds).
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  const int tasks = std::min(kTasks, Nproc());
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n", MixName(o.mix),
              (unsigned long long)o.seed, o.seconds, o.trace ? 1 : 0);
  std::printf("host: %s tasks=%d exec_mode=parallel ops_per_run=%llu\n",
              HostFingerprint().c_str(), tasks, (unsigned long long)OpsPerRun(o.mix));
  std::fflush(stdout);
  return o.trace ? RunTraced(o, tasks) : RunEndToEnd(o, tasks);
}
