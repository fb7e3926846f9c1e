// Tests for the trace-driven policy synthesizer (src/synth): determinism
// across repetitions and exec modes, minimality of the synthesized filters,
// rejection of held-out (never-observed) probes, closed-loop functional
// equivalence and CVE containment via the gating study, and Prometheus
// exposition-format lint of the synth + seccomp metric families.

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "src/base/metrics.h"
#include "src/config/bindconf.h"
#include "src/config/fstab.h"
#include "src/config/sudoers.h"
#include "src/study/synth_study.h"
#include "tests/prometheus_lint.h"

namespace protego::synth {
namespace {

constexpr uint64_t kSeed = 42;

// Synthesis walks the full workload under tracing, so share one policy
// across the cheap assertions below (the study test re-synthesizes on its
// own to prove determinism).
const SynthesizedPolicy& CachedPolicy() {
  static const SynthesizedPolicy* policy =
      new SynthesizedPolicy(SynthesizePolicy(kSeed, ExecMode::kDeterministic));
  return *policy;
}

TEST(SynthTest, StudyGatesGreen) {
  SynthStudyResult result = RunSynthStudy(kSeed);
  EXPECT_TRUE(result.determinism_ok);
  EXPECT_TRUE(result.functional_ok) << result.report;
  for (const std::string& name : result.functional_mismatches) {
    ADD_FAILURE() << "functional mismatch under synthesized policy: " << name;
  }
  EXPECT_TRUE(result.cves_contained);
  EXPECT_EQ(result.cve_escalated, 0);
  EXPECT_GE(result.cve_total, 40);
  EXPECT_TRUE(result.ok());
}

TEST(SynthTest, PolicyTextIsInstallableAndByteStable) {
  const SynthesizedPolicy& policy = CachedPolicy();
  // Every synthesized table must re-parse through the installable-config
  // grammar — a policy the proc interface would reject is useless.
  EXPECT_TRUE(ParseFstab(policy.mounts_text).ok());
  EXPECT_TRUE(ParseBindConf(policy.ports_text).ok());
  EXPECT_TRUE(ParseSudoers(policy.sudoers_text).ok());
  for (const UtilityFilter& f : policy.filters) {
    auto spec = SeccompFilter::ParseSpec(f.text);
    ASSERT_TRUE(spec.ok()) << f.exe;
    auto filter = SeccompFilter::FromSpec(spec.value());
    ASSERT_TRUE(filter.ok()) << f.exe;
    // Render is a fixed point: parse(render(x)) renders identically.
    EXPECT_EQ(filter.value().Render(), f.text) << f.exe;
  }
}

TEST(SynthTest, FiltersAreMinimalNotBlanket) {
  const SynthesizedPolicy& policy = CachedPolicy();
  ASSERT_FALSE(policy.filters.empty());
  for (const UtilityFilter& f : policy.filters) {
    auto filter = SeccompFilter::FromSpec(f.spec);
    ASSERT_TRUE(filter.ok()) << f.exe;
    // A trace-derived allow-list is a small fraction of the syscall table.
    EXPECT_LE(filter.value().allowed_count(), 24u) << f.exe;
    EXPECT_GE(filter.value().allowed_count(), 1u) << f.exe;
  }
  // The interesting utilities carry argument rules, not just number sets.
  for (const char* exe : {"/usr/bin/passwd", "/bin/su", "/usr/sbin/httpd"}) {
    const UtilityFilter* f = policy.FilterFor(exe);
    ASSERT_NE(f, nullptr) << exe;
    auto filter = SeccompFilter::FromSpec(f->spec);
    ASSERT_TRUE(filter.ok());
    EXPECT_TRUE(filter.value().has_any_rules()) << exe;
  }
}

TEST(SynthTest, HeldOutProbesAreRejected) {
  const SynthesizedPolicy& policy = CachedPolicy();

  // passwd never opened /etc/sudoers: the path predicate must refuse it
  // even though open(2) itself is on the allow list.
  {
    const UtilityFilter* f = policy.FilterFor("/usr/bin/passwd");
    ASSERT_NE(f, nullptr);
    auto filter = SeccompFilter::FromSpec(f->spec);
    ASSERT_TRUE(filter.ok());
    EXPECT_TRUE(filter.value().Allows(Sysno::kOpen));
    // open's rules carry path predicates, so the walk decides them.
    EXPECT_TRUE(filter.value().HasPathRules(Sysno::kOpen));
    SyscallArgs args;
    args.a[1] = static_cast<uint64_t>(kORdOnly);
    uint32_t evals = 0;
    EXPECT_FALSE(filter.value().AllowsPath(Sysno::kOpen, args, "/etc/sudoers", &evals));
    EXPECT_GT(evals, 0u);
  }

  // httpd only ever bound port 80: a held-out privileged port is refused.
  {
    const UtilityFilter* f = policy.FilterFor("/usr/sbin/httpd");
    ASSERT_NE(f, nullptr);
    auto filter = SeccompFilter::FromSpec(f->spec);
    ASSERT_TRUE(filter.ok());
    SyscallArgs args;
    args.a[0] = 3;
    args.a[1] = 443;
    uint32_t evals = 0;
    EXPECT_FALSE(filter.value().AllowsArgs(Sysno::kBind, args, &evals));
    args.a[1] = 80;
    EXPECT_TRUE(filter.value().AllowsArgs(Sysno::kBind, args, &evals));
  }

  // su only ever transitioned to uids seen in the workload: setuid(4242)
  // fails the argument predicate.
  {
    const UtilityFilter* f = policy.FilterFor("/bin/su");
    ASSERT_NE(f, nullptr);
    auto filter = SeccompFilter::FromSpec(f->spec);
    ASSERT_TRUE(filter.ok());
    SyscallArgs args;
    args.a[0] = 4242;
    uint32_t evals = 0;
    EXPECT_FALSE(filter.value().AllowsArgs(Sysno::kSetuid, args, &evals));
  }
}

TEST(SynthTest, SynthesizedTablesMatchStockSemantics) {
  const SynthesizedPolicy& policy = CachedPolicy();
  // The traced workload exercises both user-mountable fstab entries; the
  // synthesized rows must carry the options the LSM needs to re-grant them
  // (a row without user/users grants nothing to non-root).
  ASSERT_EQ(policy.mounts.size(), 2u);
  for (const FstabEntry& entry : policy.mounts) {
    EXPECT_TRUE(entry.UserMountable()) << entry.mountpoint;
  }
  // Privileged-port table: both daemons, correct target uids.
  std::set<std::pair<uint16_t, std::string>> ports;
  for (const BindConfEntry& e : policy.ports) {
    ports.insert({e.port, e.binary});
  }
  EXPECT_TRUE(ports.count({25, "/usr/sbin/eximd"}));
  EXPECT_TRUE(ports.count({80, "/usr/sbin/httpd"}));
  // Sudoers: the deferred (command-restricted) grants survive synthesis with
  // their auth semantics intact.
  bool bob_lpr = false, charlie_id = false;
  for (const SudoRule& rule : policy.sudoers.rules) {
    if (rule.user == "bob" && rule.RunasMatches("alice") && !rule.nopasswd) {
      bob_lpr = true;
    }
    if (rule.user == "charlie" && rule.RunasMatches("root") && rule.nopasswd) {
      charlie_id = true;
    }
  }
  EXPECT_TRUE(bob_lpr);
  EXPECT_TRUE(charlie_id);
}

TEST(SynthTest, MetricsFamiliesLintClean) {
  GlobalSynthStats().Reset();
  (void)CachedPolicy();  // ensure at least one synthesis pass is counted
  SynthesizedPolicy policy = SynthesizePolicy(kSeed, ExecMode::kDeterministic);
  MetricsRegistry registry;
  registry.AddCollector([](MetricsBuilder& b) { GlobalSynthStats().CollectMetrics(b); });
  std::string text = registry.PrometheusText();
  auto lint = prom::LintPrometheusText(text);
  EXPECT_FALSE(lint.has_value()) << *lint;
  EXPECT_NE(text.find("protego_synth_runs_total"), std::string::npos);
  EXPECT_NE(text.find("protego_synth_filters_total"), std::string::npos);
  EXPECT_NE(text.find("protego_synth_policy_rows_total"), std::string::npos);

  // The rule-eval counter crosses the kernel metrics surface once a
  // predicate filter actually evaluates rules: install the synthesized
  // policy and run one traced scenario, then lint the kernel exposition.
  SimSystem sys(SimMode::kProtego);
  ASSERT_TRUE(InstallSynthesized(sys, policy).ok());
  const std::vector<FunctionalScenario>& workload = SynthWorkload();
  ASSERT_FALSE(workload.empty());
  (void)workload.front().run(sys);
  std::string kernel_text = sys.kernel().metrics().PrometheusText();
  auto kernel_lint = prom::LintPrometheusText(kernel_text);
  EXPECT_FALSE(kernel_lint.has_value()) << *kernel_lint;
  EXPECT_NE(kernel_text.find("protego_seccomp_rule_evals_total"), std::string::npos);
}

}  // namespace
}  // namespace protego::synth
