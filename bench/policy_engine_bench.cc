// Policy-engine cost per LSM hook decision across policy-table sizes,
// emitted as BENCH_policy_engine.json: one row per hook and table size.
//
// Each hook is probed through the LSM stack with a fixed request against
// tables of 16 / 256 / 4096 entries. Probes are chosen to isolate the
// table-walk cost: the bind probe matches the LAST allocation of its port
// (allow, no audit call); the mount and inode probes match nothing (deny /
// fall-through, no audit call).

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "src/base/clock.h"
#include "src/base/strings.h"
#include "src/config/bindconf.h"
#include "src/config/fstab.h"
#include "src/config/sudoers.h"
#include "src/sim/system.h"

namespace protego {
namespace {

constexpr int kSizes[] = {16, 256, 4096};

// Best-of-reps timing, same scheme as syscall_gate_bench.
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
  std::string hook;
  int size = 0;
  double ns_per_op = 0;
};

Task MakeBenchTask(Uid uid, std::string exe) {
  Task t;
  t.cred = Cred::ForUser(uid, uid);
  t.exe_path = std::move(exe);
  return t;
}

}  // namespace
}  // namespace protego

int main(int argc, char** argv) {
  using namespace protego;
  const char* out_path = argc > 1 ? argv[1] : "BENCH_policy_engine.json";
  constexpr int kReps = 5;

  SimSystem sys(SimMode::kProtego);
  ProtegoLsm* protego_lsm = sys.lsm();
  LsmStack& stack = sys.kernel().lsm();
  // Tracing off for the measurement: this bench isolates policy-engine cost,
  // and its numbers are compared against the pre-tracepoint baseline.
  // (observability_bench measures the tracing overhead itself.)
  sys.kernel().tracer().set_enabled(false);

  std::vector<Row> rows;
  for (int size : kSizes) {
    // Synthesize size-entry tables through the real parsers, so the bench
    // exercises exactly what a /proc/protego swap installs.
    std::string bind_conf, fstab, sudoers;
    for (int i = 0; i < size; ++i) {
      bind_conf += StrFormat("%d /srv/app%d %d\n", 1 + (i % 1023), i, i % 60000);
      fstab += StrFormat("/dev/disk%d /media/m%d ext4 rw,user 0 0\n", i, i);
      sudoers += StrFormat("File_Delegate /usr/lib/helper%d /var/lib/app%d/* r\n", i, i);
    }
    protego_lsm->SetBindTable(ParseBindConf(bind_conf).take()).take();
    protego_lsm->SetMountPolicy(ParseFstab(fstab).take()).take();
    protego_lsm->SetDelegation(ParseSudoers(sudoers).take()).take();

    // Bind probe: the LAST allocation in the table (a bucket hit).
    const int last = size - 1;
    Task bind_task = MakeBenchTask(last % 60000, StrFormat("/srv/app%d", last));
    BindRequest bind_req;
    bind_req.port = static_cast<uint16_t>(1 + (last % 1023));
    bind_req.binary_path = bind_task.exe_path;

    // Mount / inode probes: match nothing (index miss).
    Task mount_task = MakeBenchTask(1000, "/bin/mount");
    MountRequest mount_req;
    mount_req.source = "/dev/nonexistent";
    mount_req.mountpoint = "/media/nonexistent";
    mount_req.fstype = "ext4";
    mount_req.options = {"ro"};

    Task inode_task = MakeBenchTask(1000, "/bin/sh");
    Inode inode;
    inode.mode = kIfReg | 0644;

    const int iters = 200000;
    const struct {
      const char* hook;
      double ns;
    } probes[] = {
        {"socket_bind",
         NsPerOp([&] { (void)stack.SocketBind(bind_task, bind_req); }, iters, kReps)},
        {"sb_mount", NsPerOp([&] { (void)stack.SbMount(mount_task, mount_req); }, iters, kReps)},
        {"inode_permission",
         NsPerOp([&] { (void)stack.InodePermission(inode_task, "/etc/hosts", inode, kMayRead); },
                 iters, kReps)},
    };
    for (const auto& probe : probes) {
      rows.push_back(Row{probe.hook, size, probe.ns});
      std::printf("%-17s n=%-5d %9.2f ns/op\n", probe.hook, size, probe.ns);
    }
  }
  sys.kernel().tracer().set_enabled(true);

  FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"policy_engine\",\n  \"unit\": \"ns/op\",\n");
  std::fprintf(f, "  \"reps\": %d,\n  \"rows\": [\n", kReps);
  for (size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(f,
                 "    {\"hook\": \"%s\", \"table_entries\": %d, \"ns_per_op\": %.2f}%s\n",
                 rows[i].hook.c_str(), rows[i].size, rows[i].ns_per_op,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path);
  return 0;
}
