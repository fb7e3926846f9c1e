// Table 5 (microbenchmark rows): the lmbench-style suite, including the
// paper's 5 additional tests exercising the modified system calls
// (mount/umount, setuid, setgid, ioctl, bind).
//
// Reporting: absolute times are simulated-kernel nanoseconds, so the raw
// overhead percentage exaggerates (a 10 ns hook on a 20 ns simulated
// setuid is 50%, while the same 10 ns on the real 0.82 us setuid is ~1%).
// The harness therefore also reports a CALIBRATED overhead — the measured
// Protego delta in ns divided by the paper's Linux baseline for that row —
// which is the apples-to-apples number to compare with the paper's % OH.

#include <cstdio>

#include "bench/harness.h"
#include "src/net/ioctl_codes.h"

namespace protego {
namespace {

std::string MakePayload(size_t size) { return std::string(size, 'x'); }

struct RowSpec {
  const char* name;
  double paper_linux_us;  // Table 5's Linux column
  double paper_oh_pct;    // Table 5's % OH column
  OpFactory factory;
};

void RunMicro() {
  std::vector<RowSpec> specs;

  specs.push_back({"syscall", 0.04, 0.00, [](SimSystem& sys, Task& task) {
                     Kernel* k = &sys.kernel();
                     Task* t = &task;
                     return std::function<void()>([k, t]() { (void)k->GetPid(*t); });
                   }});

  specs.push_back({"read", 0.09, 0.00, [](SimSystem& sys, Task& task) {
                     Kernel* k = &sys.kernel();
                     Task* t = &task;
                     int fd = k->Open(task, "/etc/hosts", kORdOnly).value();
                     FdEntry* entry = task.fds.Get(fd);
                     return std::function<void()>([k, t, fd, entry]() {
                       entry->file->offset = 0;
                       (void)k->Read(*t, fd);
                     });
                   }});

  specs.push_back({"write", 0.09, 0.00, [](SimSystem& sys, Task& task) {
                     Kernel* k = &sys.kernel();
                     Task* t = &task;
                     (void)k->WriteWholeFile(task, "/tmp/bench.dat", "seed");
                     int fd = k->Open(task, "/tmp/bench.dat", kOWrOnly).value();
                     FdEntry* entry = task.fds.Get(fd);
                     return std::function<void()>([k, t, fd, entry]() {
                       entry->file->offset = 0;
                       (void)k->Write(*t, fd, "data");
                     });
                   }});

  specs.push_back({"stat", 0.34, -2.94, [](SimSystem& sys, Task& task) {
                     Kernel* k = &sys.kernel();
                     Task* t = &task;
                     return std::function<void()>([k, t]() { (void)k->Stat(*t, "/etc/hosts"); });
                   }});

  specs.push_back({"open/close", 1.17, 0.00, [](SimSystem& sys, Task& task) {
                     Kernel* k = &sys.kernel();
                     Task* t = &task;
                     return std::function<void()>([k, t]() {
                       int fd = k->Open(*t, "/etc/hosts", kORdOnly).value();
                       (void)k->Close(*t, fd);
                     });
                   }});

  specs.push_back({"mount/umnt", 525.15, 1.13, [](SimSystem& sys, Task& task) {
                     Kernel* k = &sys.kernel();
                     Task* t = &task;
                     return std::function<void()>([k, t]() {
                       (void)k->Mount(*t, "/dev/cdrom", "/media/cdrom", "iso9660", {"ro"});
                       (void)k->Umount(*t, "/media/cdrom");
                     });
                   }});

  specs.push_back({"setuid", 0.82, 1.22, [](SimSystem& sys, Task& task) {
                     Kernel* k = &sys.kernel();
                     Task* t = &task;
                     return std::function<void()>([k, t]() { (void)k->Setuid(*t, kRootUid); });
                   }});

  specs.push_back({"setgid", 0.82, 1.22, [](SimSystem& sys, Task& task) {
                     Kernel* k = &sys.kernel();
                     Task* t = &task;
                     return std::function<void()>([k, t]() { (void)k->Setgid(*t, kRootGid); });
                   }});

  specs.push_back({"ioctl", 2.76, 0.72, [](SimSystem& sys, Task& task) {
                     Kernel* k = &sys.kernel();
                     Task* t = &task;
                     int fd = k->Open(task, "/dev/ppp", kORdWr).value();
                     (void)k->Ioctl(task, fd, kPppIocNewUnit, "");
                     return std::function<void()>(
                         [k, t, fd]() { (void)k->Ioctl(*t, fd, kPppIocSFlags, "0 novj"); });
                   }});

  specs.push_back({"bind", 1.77, 2.25, [](SimSystem& sys, Task& task) {
                     Kernel* k = &sys.kernel();
                     Task* t = &task;
                     return std::function<void()>([k, t]() {
                       int fd = k->SocketCall(*t, kAfInet, kSockStream, 0).value();
                       (void)k->BindCall(*t, fd, 8080);
                       (void)k->Close(*t, fd);
                     });
                   }});

  specs.push_back({"fork+exit", 159.0, -0.63, [](SimSystem& sys, Task& task) {
                     Kernel* k = &sys.kernel();
                     Task* t = &task;
                     return std::function<void()>([k, t]() {
                       Task& child = k->CreateTask("child", t->cred, t->terminal, t->pid);
                       k->ReapTask(child.pid);
                     });
                   }});

  specs.push_back({"fork+execve", 554.0, 3.43, [](SimSystem& sys, Task& task) {
                     Kernel* k = &sys.kernel();
                     Task* t = &task;
                     return std::function<void()>([k, t]() {
                       t->stdout_buf.clear();
                       t->terminal->ClearOutput();
                       (void)k->Spawn(*t, "/usr/bin/id", {"id"}, {});
                     });
                   }});

  specs.push_back({"fork+/bin/sh", 1360.0, 3.90, [](SimSystem& sys, Task& task) {
                     Kernel* k = &sys.kernel();
                     Task* t = &task;
                     return std::function<void()>([k, t]() {
                       t->stdout_buf.clear();
                       t->terminal->ClearOutput();
                       (void)k->Spawn(*t, "/bin/sh", {"sh", "-c", "x"}, {});
                     });
                   }});

  specs.push_back({"0KB create+del", 9.50, -3.0, [](SimSystem& sys, Task& task) {
                     Kernel* k = &sys.kernel();
                     Task* t = &task;
                     return std::function<void()>([k, t]() {
                       int fd = k->Open(*t, "/tmp/f0", kOWrOnly | kOCreat).value();
                       (void)k->Close(*t, fd);
                       (void)k->Unlink(*t, "/tmp/f0");
                     });
                   }});

  specs.push_back({"10KB create+del", 16.90, -1.3, [](SimSystem& sys, Task& task) {
                     Kernel* k = &sys.kernel();
                     Task* t = &task;
                     std::string payload = MakePayload(10 * 1024);
                     return std::function<void()>([k, t, payload]() {
                       (void)k->WriteWholeFile(*t, "/tmp/f10k", payload);
                       (void)k->Unlink(*t, "/tmp/f10k");
                     });
                   }});

  specs.push_back({"AF_UNIX/pipe lat", 9.30, 4.19, [](SimSystem& sys, Task& task) {
                     Kernel* k = &sys.kernel();
                     Task* t = &task;
                     int server = k->SocketCall(task, kAfInet, kSockDgram, 0).value();
                     (void)k->BindCall(task, server, 5353);
                     int client = k->SocketCall(task, kAfInet, kSockDgram, 0).value();
                     return std::function<void()>([k, t, server, client]() {
                       Packet p;
                       p.l4_proto = kProtoUdp;
                       p.dst_ip = kLocalhostIp;
                       p.dst_port = 5353;
                       p.payload = "ping";
                       (void)k->SendCall(*t, client, p);
                       (void)k->RecvCall(*t, server);
                     });
                   }});

  specs.push_back({"TCP connect", 18.0, 3.05, [](SimSystem& sys, Task& task) {
                     Kernel* k = &sys.kernel();
                     Task* t = &task;
                     return std::function<void()>([k, t]() {
                       int fd = k->SocketCall(*t, kAfInet, kSockStream, 0).value();
                       (void)k->ConnectCall(*t, fd, kSimWebServerIp, 80);
                       (void)k->Close(*t, fd);
                     });
                   }});

  specs.push_back({"Local UDP lat", 16.70, 7.19, [](SimSystem& sys, Task& task) {
                     Kernel* k = &sys.kernel();
                     Task* t = &task;
                     int server = k->SocketCall(task, kAfInet, kSockDgram, 0).value();
                     (void)k->BindCall(task, server, 6000);
                     int client = k->SocketCall(task, kAfInet, kSockDgram, 0).value();
                     (void)k->BindCall(task, client, 6001);
                     return std::function<void()>([k, t, server, client]() {
                       Packet p;
                       p.l4_proto = kProtoUdp;
                       p.dst_ip = kLocalhostIp;
                       p.dst_port = 6000;
                       (void)k->SendCall(*t, client, p);
                       (void)k->RecvCall(*t, server);
                       Packet reply;
                       reply.l4_proto = kProtoUdp;
                       reply.dst_ip = kLocalhostIp;
                       reply.dst_port = 6001;
                       (void)k->SendCall(*t, server, reply);
                       (void)k->RecvCall(*t, client);
                     });
                   }});

  specs.push_back({"Rem. UDP lat", 543.60, 6.38, [](SimSystem& sys, Task& task) {
                     Kernel* k = &sys.kernel();
                     Task* t = &task;
                     int client = k->SocketCall(task, kAfInet, kSockDgram, 0).value();
                     (void)k->BindCall(task, client, 6100);
                     return std::function<void()>([k, t, client]() {
                       Packet p;
                       p.l4_proto = kProtoUdp;
                       p.dst_ip = kSimGatewayIp;
                       p.dst_port = 7;  // the gateway's echo service
                       (void)k->SendCall(*t, client, p);
                       (void)k->RecvCall(*t, client);
                     });
                   }});

  std::printf("=== Table 5 reproduction: lmbench-style microbenchmarks ===\n");
  std::printf("sim columns: this simulator (us/op). delta: Protego-sim minus Linux-sim.\n");
  std::printf("calib %%OH: measured delta applied to the paper's real Linux baseline\n");
  std::printf("(the apples-to-apples column; compare with 'paper %%OH').\n\n");
  std::printf("%-18s %10s %10s %9s %10s %10s\n", "Test", "linux(sim)", "prot(sim)",
              "delta(ns)", "calib %OH", "paper %OH");
  std::printf("%s\n", std::string(72, '-').c_str());

  double max_calib = 0;
  for (const RowSpec& spec : specs) {
    ComparisonRow row = CompareModes(spec.name, spec.factory);
    // Compare fastest repeats: allocator/layout noise between two separately
    // booted systems otherwise dominates ns-scale rows.
    double delta_ns = row.protego_m.best_ns - row.linux_m.best_ns;
    double calib = 100.0 * delta_ns / (spec.paper_linux_us * 1000.0);
    max_calib = std::max(max_calib, calib);
    std::printf("%-18s %10.3f %10.3f %9.1f %9.2f%% %9.2f%%\n", spec.name,
                row.linux_m.mean_ns / 1000.0, row.protego_m.mean_ns / 1000.0, delta_ns, calib,
                spec.paper_oh_pct);
  }

  // Bandwidth row (MB/s, higher is better).
  {
    constexpr size_t kChunk = 64 * 1024;
    OpFactory factory = [](SimSystem& sys, Task& task) {
      Kernel* k = &sys.kernel();
      Task* t = &task;
      std::string payload = MakePayload(kChunk);
      return std::function<void()>([k, t, payload]() {
        (void)k->WriteWholeFile(*t, "/tmp/bw.dat", payload);
        (void)k->ReadWholeFile(*t, "/tmp/bw.dat");
      });
    };
    ComparisonRow row = CompareModes("BW", factory);
    double linux_mbps = (2.0 * kChunk) / (row.linux_m.mean_ns / 1e9) / 1e6;
    double protego_mbps = (2.0 * kChunk) / (row.protego_m.mean_ns / 1e9) / 1e6;
    std::printf("%-18s %10.1f %10.1f %9s %9.2f%% %9.2f%%  (MB/s, higher is better)\n",
                "BW (MB/s)", linux_mbps, protego_mbps, "-",
                100.0 * (linux_mbps - protego_mbps) / linux_mbps, 2.74);
  }

  std::printf("\nRows without a simulator analog (sig install/overhead, protection fault)\n");
  std::printf("are omitted; the paper reports 0.00%% overhead for them.\n");
  std::printf("Max calibrated overhead across rows: %.2f%% (paper: <= 7.4%%)\n", max_calib);
}

}  // namespace
}  // namespace protego

int main() {
  protego::RunMicro();
  return 0;
}
