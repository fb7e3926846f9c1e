// Fault injector: arm a fault site through /proc/protego/fault_inject, run
// the quickstart workload into the fault, and read the fault-annotated
// decision trace that explains the denial.
//
//   $ ./build/examples/fault_injector
//
// Everything here is driven through the real control files — the same
// workflow an operator would use on a live system:
//
//   1. write a directive:   site=lsm_hook error=EIO hook=sb_mount times=1
//   2. run the workload:    mount /dev/cdrom   (alice, normally allowed)
//   3. observe fail-closed: the hook reports EPERM, not the injected EIO
//   4. read the why:        /proc/protego/trace shows the fault event
//                           stamped inside the mount(2) decision span
//   5. replay:              the read side of fault_inject is itself a valid
//                           directive file — the recorded {seed, config}
//                           tuple reproduces the run exactly.

#include <cstdio>

#include "src/sim/system.h"

using namespace protego;

int main() {
  SimSystem sys(SimMode::kProtego);
  Kernel& k = sys.kernel();
  Task& root = sys.Login("root");
  Task& alice = sys.Login("alice");

  // 1. Arm one shot of EIO inside the sb_mount LSM hook.
  const char* directive = "site=lsm_hook error=EIO hook=sb_mount times=1\n";
  std::printf("# echo '%.*s' > /proc/protego/fault_inject\n",
              static_cast<int>(std::string_view(directive).size() - 1), directive);
  auto armed = k.WriteWholeFile(root, "/proc/protego/fault_inject", directive);
  if (!armed.ok()) {
    std::fprintf(stderr, "arming failed: %s\n", armed.error().ToString().c_str());
    return 1;
  }
  (void)k.WriteWholeFile(root, "/proc/protego/trace", "clear");

  // 2. Drive the quickstart mount into the fault. The fstab "user" entry
  // normally allows this; the faulted hook must fail CLOSED (EPERM), never
  // leak the injected errno as an allow.
  auto out = sys.RunCapture(alice, "/bin/mount", {"mount", "/dev/cdrom"});
  std::printf("\n$ mount /dev/cdrom        (fault armed)\n");
  std::printf("exit=%d\n%s%s", out.exit_code, out.out.c_str(), out.err.c_str());
  std::printf("mounted: %s\n", k.vfs().FindMount("/media/cdrom").has_value() ? "yes" : "no");

  // 3. The fault-annotated denial tree. The utility ran via execve, so its
  // whole derivation — config reads, then the mount(2) span with the
  // fault:lsm_hook event right where the verdict flipped to DENY — hangs
  // under the execve root span.
  (void)k.WriteWholeFile(root, "/proc/protego/trace", "?syscall=execve");
  auto trace = k.ReadWholeFile(root, "/proc/protego/trace");
  std::printf("\n/proc/protego/trace (filtered: ?syscall=execve):\n%s",
              trace.value_or("<unreadable>").c_str());
  (void)k.WriteWholeFile(root, "/proc/protego/trace", "?");

  // 4. The control file's read side is the replay tuple: directives plus
  // counter comments.
  auto state = k.ReadWholeFile(root, "/proc/protego/fault_inject");
  std::printf("\n/proc/protego/fault_inject:\n%s", state.value_or("<unreadable>").c_str());

  // 5. The one-shot budget is spent; the same mount now succeeds.
  auto retry = sys.RunCapture(alice, "/bin/mount", {"mount", "/dev/cdrom"});
  std::printf("\n$ mount /dev/cdrom        (budget spent)\nexit=%d\n%s", retry.exit_code,
              retry.out.c_str());
  std::printf("mounted: %s\n", k.vfs().FindMount("/media/cdrom").has_value() ? "yes" : "no");

  bool ok = out.exit_code != 0 && k.faults().injected(FaultSite::kLsmHook) == 1 &&
            retry.exit_code == 0;
  if (!ok) {
    std::fprintf(stderr, "demo invariants violated\n");
    return 1;
  }
  return 0;
}
