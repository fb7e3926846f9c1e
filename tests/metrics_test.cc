// Metrics registry tests: histogram bucket math, Prometheus text exposition
// validity, JSON export, and the PR's identity requirement — the legacy
// /proc/protego/status counters and the registry must report the same
// numbers, because they read the same underlying storage.

#include "src/base/metrics.h"

#include <cmath>
#include <cstdlib>

#include "gtest/gtest.h"
#include "src/kernel/kernel.h"
#include "src/protego/protego_lsm.h"
#include "src/sim/system.h"
#include "tests/prometheus_lint.h"

namespace protego {
namespace {

TEST(HistogramTest, BucketMathIsLog2) {
  // Bucket 0 holds exact zeros; bucket i>0 has upper bound 2^(i-1).
  EXPECT_EQ(Histogram::BucketIndex(0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1), 1u);
  EXPECT_EQ(Histogram::BucketIndex(2), 2u);
  EXPECT_EQ(Histogram::BucketIndex(3), 3u);
  EXPECT_EQ(Histogram::BucketIndex(4), 3u);
  EXPECT_EQ(Histogram::BucketIndex(5), 4u);
  EXPECT_EQ(Histogram::BucketIndex(8), 4u);
  EXPECT_EQ(Histogram::BucketIndex(9), 5u);
  EXPECT_EQ(Histogram::BucketIndex(1u << 30), Histogram::kBuckets - 2);
  EXPECT_EQ(Histogram::BucketIndex((1u << 30) + 1), Histogram::kBuckets - 1);
  EXPECT_EQ(Histogram::BucketIndex(~uint64_t{0}), Histogram::kBuckets - 1);

  EXPECT_EQ(Histogram::BucketBound(0), 0u);
  EXPECT_EQ(Histogram::BucketBound(1), 1u);
  EXPECT_EQ(Histogram::BucketBound(5), 16u);

  // Every value must land in the bucket whose bound covers it.
  for (uint64_t v : {0ull, 1ull, 2ull, 3ull, 7ull, 100ull, 4096ull, 123456789ull}) {
    size_t idx = Histogram::BucketIndex(v);
    if (idx < Histogram::kBuckets - 1) {
      EXPECT_LE(v, Histogram::BucketBound(idx)) << v;
    }
    if (idx > 0) {
      EXPECT_GT(v, Histogram::BucketBound(idx - 1)) << v;
    }
  }
}

TEST(HistogramTest, ObserveSumCountReset) {
  Histogram h;
  h.Observe(0);
  h.Observe(3);
  h.Observe(3);
  h.Observe(1000);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 1006u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(Histogram::BucketIndex(3)), 2u);
  EXPECT_EQ(h.bucket(Histogram::BucketIndex(1000)), 1u);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.bucket(0), 0u);
}

// Extracts the value of the sample line starting with `prefix` (exact
// name{labels} match up to the space).
double SampleValue(const std::string& text, const std::string& prefix) {
  size_t pos = 0;
  while (pos < text.size()) {
    size_t nl = text.find('\n', pos);
    std::string line = text.substr(pos, nl - pos);
    pos = nl + 1;
    if (line.rfind(prefix + " ", 0) == 0) {
      return std::strtod(line.c_str() + prefix.size() + 1, nullptr);
    }
  }
  ADD_FAILURE() << "no sample " << prefix;
  return std::nan("");
}

TEST(MetricsRegistryTest, PrometheusTextIsValidAndComplete) {
  MetricsRegistry reg;
  Histogram h;
  h.Observe(0);
  h.Observe(3);
  h.Observe(70);
  reg.AddCollector([&h](MetricsBuilder& b) {
    b.Counter("test_requests_total", "Requests.", {{"path", "a\"b\\c\nd"}}, 7);
    b.Counter("test_requests_total", "Requests.", {{"path", "plain"}}, 2);
    b.Gauge("test_temperature", "Degrees.", {}, 21.5);
    b.Histo("test_latency_ticks", "Latency.", {{"op", "x"}}, h);
  });

  std::string text = reg.PrometheusText();
  auto lint = prom::LintPrometheusText(text);
  EXPECT_FALSE(lint.has_value()) << *lint;

  EXPECT_NE(text.find("# HELP test_requests_total Requests.\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE test_requests_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE test_temperature gauge\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE test_latency_ticks histogram\n"), std::string::npos);
  // Label escaping: backslash, quote, newline.
  EXPECT_NE(text.find("test_requests_total{path=\"a\\\"b\\\\c\\nd\"} 7\n"), std::string::npos);

  // Cumulative buckets: 0 -> 1, 4 -> 2, 128 -> 3, +Inf == _count == 3.
  EXPECT_EQ(SampleValue(text, "test_latency_ticks_bucket{op=\"x\",le=\"0\"}"), 1);
  EXPECT_EQ(SampleValue(text, "test_latency_ticks_bucket{op=\"x\",le=\"4\"}"), 2);
  EXPECT_EQ(SampleValue(text, "test_latency_ticks_bucket{op=\"x\",le=\"128\"}"), 3);
  EXPECT_EQ(SampleValue(text, "test_latency_ticks_bucket{op=\"x\",le=\"+Inf\"}"), 3);
  EXPECT_EQ(SampleValue(text, "test_latency_ticks_sum{op=\"x\"}"), 73);
  EXPECT_EQ(SampleValue(text, "test_latency_ticks_count{op=\"x\"}"), 3);
}

TEST(MetricsRegistryTest, JsonExportCarriesFamiliesAndBuckets) {
  MetricsRegistry reg;
  Histogram h;
  h.Observe(5);
  h.Observe(uint64_t{1} << 40);  // lands in the +Inf bucket
  reg.AddCollector([&h](MetricsBuilder& b) {
    b.Counter("c_total", "c", {{"k", "v"}}, 3);
    b.Histo("h_ticks", "h", {}, h);
  });
  std::string json = reg.Json();
  EXPECT_NE(json.find("\"families\""), std::string::npos);
  EXPECT_NE(json.find("\"c_total\""), std::string::npos);
  EXPECT_NE(json.find("\"h_ticks\""), std::string::npos);
  EXPECT_NE(json.find("\"count\""), std::string::npos);
  EXPECT_NE(json.find("\"+Inf\""), std::string::npos);
}

TEST(MetricsRegistryTest, LintRejectsMalformedExpositions) {
  EXPECT_TRUE(prom::LintPrometheusText("no newline at end").has_value());
  EXPECT_TRUE(prom::LintPrometheusText("bad-name{} 1\n").has_value());
  EXPECT_TRUE(prom::LintPrometheusText("x{l=unquoted} 1\n").has_value());
  EXPECT_TRUE(prom::LintPrometheusText("x 1 2 3\n").has_value());
  // Histogram without +Inf bucket.
  EXPECT_TRUE(prom::LintPrometheusText("# TYPE h histogram\n"
                                       "h_bucket{le=\"1\"} 1\n"
                                       "h_sum 1\nh_count 1\n")
                  .has_value());
  // Non-cumulative buckets.
  EXPECT_TRUE(prom::LintPrometheusText("# TYPE h histogram\n"
                                       "h_bucket{le=\"1\"} 5\n"
                                       "h_bucket{le=\"+Inf\"} 3\n"
                                       "h_sum 1\nh_count 3\n")
                  .has_value());
}

// The PR's identity requirement: the registry is a *view* over the same
// counters the legacy /proc files read, so the two can never disagree.
TEST(MetricsRegistryTest, LegacyCountersReadIdenticalValuesFromRegistry) {
  SimSystem sys(SimMode::kProtego);
  Kernel& kernel = sys.kernel();
  Task& alice = sys.Login("alice");

  // Generate traffic: successes, an EACCES failure, and a denied mount.
  for (int i = 0; i < 5; ++i) {
    kernel.GetPid(alice);
  }
  EXPECT_FALSE(kernel.Open(alice, "/etc/shadow", kORdOnly).ok());
  EXPECT_FALSE(kernel.Mount(alice, "/dev/sda1", "/mnt", "ext4", {}).ok());

  std::string text = kernel.metrics().PrometheusText();
  auto lint = prom::LintPrometheusText(text);
  EXPECT_FALSE(lint.has_value()) << *lint;

  const SyscallGate::PerSyscall& getpid = kernel.syscalls().stats(Sysno::kGetPid);
  EXPECT_EQ(SampleValue(text, "protego_syscall_calls_total{syscall=\"getpid\"}"),
            static_cast<double>(getpid.calls));
  const SyscallGate::PerSyscall& open = kernel.syscalls().stats(Sysno::kOpen);
  EXPECT_EQ(SampleValue(text, "protego_syscall_errors_total{syscall=\"open\"}"),
            static_cast<double>(open.errors));
  EXPECT_EQ(SampleValue(text, "protego_syscall_latency_ticks_count{syscall=\"getpid\"}"),
            static_cast<double>(getpid.lat_ticks.count()));

  EXPECT_EQ(SampleValue(text, "protego_policy_generation"),
            static_cast<double>(kernel.lsm().policy_generation()));

  ASSERT_NE(sys.lsm(), nullptr);
  EXPECT_EQ(SampleValue(text, "protego_policy_decisions_total{op=\"mount\",outcome=\"denied\"}"),
            static_cast<double>(sys.lsm()->stats().mount_denied));
  EXPECT_EQ(SampleValue(text, "protego_audit_dropped_total"),
            static_cast<double>(kernel.audit_dropped()));

  // Per-hook latency histograms exist for hooks that actually ran.
  EXPECT_NE(text.find("protego_lsm_hook_latency_ticks_bucket{hook=\"inode_permission\""),
            std::string::npos);
  EXPECT_NE(text.find("protego_lsm_hook_latency_ticks_bucket{hook=\"sb_mount\""),
            std::string::npos);

  // And the /proc view is byte-identical to the registry export.
  auto proc_text = kernel.vfs().ReadFile("/proc/protego/metrics");
  ASSERT_TRUE(proc_text.ok());
  // The two exports race only against intervening syscalls; none happened.
  EXPECT_EQ(proc_text.value(), kernel.metrics().PrometheusText());
}

}  // namespace
}  // namespace protego
