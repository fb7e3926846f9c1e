// Ablation benchmarks for the design choices DESIGN.md calls out:
//   1. per-hook cost as the LSM stack deepens (0..3 modules)
//   2. parse-validate-swap policy reload cost vs table size
//   3. monitoring-daemon sync latency vs configuration size
//   4. netfilter raw-rule cost on non-raw traffic (the fast-path claim)

#include <cstdio>

#include "bench/harness.h"
#include "src/base/strings.h"
#include "src/lsm/apparmor.h"
#include "src/lsm/capability_module.h"
#include "src/protego/protego_lsm.h"

namespace protego {
namespace {

void HookDepthAblation() {
  std::printf("--- Ablation 1: hook-mediated syscall cost vs LSM stack depth ---\n");
  std::printf("%-34s %14s %14s\n", "stack", "setuid ns/op", "bind ns/op");
  // Custom kernels with 0..N modules; both ops traverse task_fix_setuid /
  // socket_bind plus capable(), so every added module is on the hot path.
  for (int depth = 0; depth <= 3; ++depth) {
    Kernel kernel;
    if (depth >= 1) {
      kernel.lsm().Register(std::make_unique<CapabilityModule>());
    }
    if (depth >= 2) {
      kernel.lsm().Register(std::make_unique<AppArmorModule>(kernel.grace()));
    }
    if (depth >= 3) {
      kernel.lsm().Register(std::make_unique<ProtegoLsm>(&kernel));
    }
    Task& root = kernel.CreateTask("bench", Cred::Root(), nullptr);
    Measurement setuid_m = MeasureNs([&]() { (void)kernel.Setuid(root, kRootUid); });
    Measurement bind_m = MeasureNs([&]() {
      auto fd = kernel.SocketCall(root, kAfInet, kSockStream, 0);
      (void)kernel.BindCall(root, fd.value(), 8080);
      (void)kernel.Close(root, fd.value());
    });
    const char* label[] = {"none", "capability", "capability+apparmor",
                           "capability+apparmor+protego"};
    std::printf("%-34s %14.1f %14.1f\n", label[depth], setuid_m.mean_ns, bind_m.mean_ns);
  }
}

void PolicyReloadAblation() {
  std::printf("\n--- Ablation 2: /proc/protego/mounts reload cost vs table size ---\n");
  std::printf("%-12s %14s\n", "entries", "reload ns");
  for (int entries : {1, 10, 100, 1000}) {
    SimSystem sys(SimMode::kProtego);
    Task& root = sys.Login("root");
    std::string table;
    for (int i = 0; i < entries; ++i) {
      table += StrFormat("/dev/loop%d /media/m%d ext4 ro,user\n", i, i);
    }
    Measurement m = MeasureNs(
        [&]() { (void)sys.kernel().WriteWholeFile(root, "/proc/protego/mounts", table); },
        /*repeats=*/3, /*min_batch_ms=*/5.0);
    std::printf("%-12d %14.0f\n", entries, m.mean_ns);
  }
}

void DaemonSyncAblation() {
  std::printf("\n--- Ablation 3: monitoring-daemon fstab sync latency vs file size ---\n");
  std::printf("%-12s %14s %10s\n", "entries", "sync ns", "syncs");
  for (int entries : {1, 10, 100, 1000}) {
    SimSystem sys(SimMode::kProtego);
    Task& root = sys.Login("root");
    std::string fstab = "/dev/sda1 / ext4 defaults\n";
    for (int i = 0; i < entries; ++i) {
      fstab += StrFormat("/dev/loop%d /media/m%d ext4 ro,user\n", i, i);
    }
    uint64_t before = sys.daemon()->sync_count();
    // Each write fires the watch; the daemon re-reads, validates, pushes.
    Measurement m = MeasureNs(
        [&]() { (void)sys.kernel().WriteWholeFile(root, "/etc/fstab", fstab); },
        /*repeats=*/3, /*min_batch_ms=*/5.0);
    std::printf("%-12d %14.0f %10llu\n", entries, m.mean_ns,
                static_cast<unsigned long long>(sys.daemon()->sync_count() - before));
  }
}

void RawRuleFastPathAblation() {
  std::printf("\n--- Ablation 4: netfilter raw-ruleset tax on NORMAL traffic ---\n");
  std::printf("%-26s %14s\n", "configuration", "udp send ns");
  for (bool with_rules : {false, true}) {
    SimSystem sys(SimMode::kProtego);
    if (!with_rules) {
      sys.kernel().net().netfilter().Flush();
    }
    Task& task = sys.Login("alice");
    Kernel& k = sys.kernel();
    int client = k.SocketCall(task, kAfInet, kSockDgram, 0).value();
    (void)k.BindCall(task, client, 9000);
    int server = k.SocketCall(task, kAfInet, kSockDgram, 0).value();
    (void)k.BindCall(task, server, 9001);
    Measurement m = MeasureNs([&]() {
      Packet p;
      p.l4_proto = kProtoUdp;
      p.dst_ip = kLocalhostIp;
      p.dst_port = 9001;
      (void)k.SendCall(task, client, p);
      (void)k.RecvCall(task, server);
    });
    std::printf("%-26s %14.1f\n", with_rules ? "8 raw-socket rules" : "no rules", m.mean_ns);
  }
}

}  // namespace
}  // namespace protego

int main() {
  std::printf("=== Ablation benchmarks ===\n\n");
  protego::HookDepthAblation();
  protego::PolicyReloadAblation();
  protego::DaemonSyncAblation();
  protego::RawRuleFastPathAblation();
  return 0;
}
