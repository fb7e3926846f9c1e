// Quickstart: boot a Protego system, act as an unprivileged user, and watch
// the kernel enforce the policies that used to live in setuid binaries.
//
//   $ ./build/examples/quickstart

#include <cstdio>

#include "src/sim/system.h"

using namespace protego;

int main() {
  std::printf("Booting a Protego system (kernel + LSM + trusted services + userland)...\n");
  SimSystem sys(SimMode::kProtego);

  // A login session for an ordinary user.
  Task& alice = sys.Login("alice");
  std::printf("Logged in: alice (uid=%u). No setuid binaries anywhere:\n", alice.cred.ruid);
  for (const char* bin : {"/bin/mount", "/bin/ping", "/usr/bin/sudo", "/usr/bin/passwd"}) {
    auto st = sys.kernel().Stat(alice, bin);
    std::printf("  %-16s mode %04o (setuid bit: %s)\n", bin, st.value().mode & kPermMask,
                (st.value().mode & kSetUidBit) ? "SET" : "clear");
  }

  // 1. Mount the CD-ROM: the fstab "user" entry is enforced by the kernel.
  auto mount = sys.RunCapture(alice, "/bin/mount", {"mount", "/dev/cdrom"});
  std::printf("\n$ mount /dev/cdrom\n%s", mount.out.c_str());

  // 2. Ping: raw sockets without privilege, filtered by netfilter.
  auto ping = sys.RunCapture(alice, "/bin/ping", {"ping", "10.0.0.2", "1"});
  std::printf("\n$ ping 10.0.0.2\n%s", ping.out.c_str());

  // 3. But the kernel still refuses what policy does not grant.
  auto bad = sys.kernel().Mount(alice, "/dev/cdrom", "/etc", "iso9660", {"ro"});
  std::printf("\n$ mount /dev/cdrom /etc   (direct syscall)\n  -> %s\n",
              bad.ok() ? "allowed?!" : bad.error().ToString().c_str());

  // 4. The kernel's view of its own decisions.
  Task& root = sys.Login("root");
  auto status = sys.kernel().ReadWholeFile(root, "/proc/protego/status");
  std::printf("\n/proc/protego/status:\n%s", status.value_or("<unreadable>").c_str());

  // 5. WHY was that mount refused? Every syscall opens a decision span;
  // /proc/protego/trace renders the full derivation tree — the strace-shaped
  // record plus each LSM module's verdict beneath it. Filter to mount(2).
  (void)sys.kernel().WriteWholeFile(root, "/proc/protego/trace", "clear");
  auto denied = sys.kernel().Mount(alice, "/dev/sda1", "/home", "ext4", {});
  (void)denied;
  (void)sys.kernel().WriteWholeFile(root, "/proc/protego/trace", "?syscall=mount");
  auto trace = sys.kernel().ReadWholeFile(root, "/proc/protego/trace");
  std::printf("\n/proc/protego/trace (filtered: ?syscall=mount):\n%s",
              trace.value_or("<unreadable>").c_str());
  (void)sys.kernel().WriteWholeFile(root, "/proc/protego/trace", "?");

  // 6. And the same counters as Prometheus metrics (excerpt). Every syscall
  // above went through the unified entry path, which counts and times it.
  auto metrics = sys.kernel().ReadWholeFile(root, "/proc/protego/metrics");
  std::string excerpt;
  size_t lines = 0;
  for (size_t pos = 0; pos < metrics.value_or("").size() && lines < 12;) {
    size_t nl = metrics.value().find('\n', pos);
    std::string line = metrics.value().substr(pos, nl - pos);
    pos = nl + 1;
    if (line.rfind("protego_policy_decisions_total", 0) == 0 ||
        line.rfind("protego_syscall_latency_ticks_bucket{syscall=\"mount\"", 0) == 0) {
      excerpt += line + "\n";
      ++lines;
    }
  }
  std::printf("\n/proc/protego/metrics (excerpt):\n%s", excerpt.c_str());
  return 0;
}
