#include "src/study/policy_matrix.h"

#include "src/base/strings.h"
#include "src/net/ioctl_codes.h"

namespace protego {

namespace {

PolicyScenarioResult SocketScenario(SimSystem& sys) {
  PolicyScenarioResult r;
  Task& alice = sys.Login("alice");
  // Permitted: an unprivileged user sends safe ICMP over a raw socket.
  auto ping = sys.RunCapture(alice, "/bin/ping", {"ping", "10.0.0.2", "1"});
  r.permitted_case_ok =
      ping.exit_code == 0 && ping.out.find("1 packets transmitted, 1 received") !=
                                  std::string::npos;
  // Forbidden: a raw socket spoofing TCP from another process's port. The
  // packet is dropped by the netfilter extension, so the victim socket
  // never sees it.
  Task& attacker = sys.Login("bob");
  auto victim_fd = sys.kernel().SocketCall(alice, kAfInet, kSockStream, 0);
  bool spoof_blocked = false;
  if (victim_fd.ok() && sys.kernel().BindCall(alice, victim_fd.value(), 8080).ok()) {
    auto raw = sys.kernel().SocketCall(attacker, kAfInet, kSockRaw, kProtoTcp);
    if (raw.ok()) {
      Packet spoof;
      spoof.l4_proto = kProtoTcp;
      spoof.src_port = 8080;  // alice's port
      spoof.dst_ip = kLocalhostIp;
      spoof.dst_port = 9;
      uint64_t dropped_before = sys.kernel().net().packets_dropped();
      (void)sys.kernel().SendCall(attacker, raw.value(), spoof);
      spoof_blocked = sys.kernel().net().packets_dropped() > dropped_before;
    }
  }
  r.forbidden_case_ok = spoof_blocked;
  r.detail = "raw ICMP allowed; spoofed-src TCP dropped by netfilter";
  return r;
}

PolicyScenarioResult PppScenario(SimSystem& sys) {
  PolicyScenarioResult r;
  Task& alice = sys.Login("alice");
  // Permitted: configure an unused modem and add a non-conflicting route.
  auto ok = sys.RunCapture(alice, "/usr/sbin/pppd",
                           {"pppd", "--opt=bsdcomp", "--connect=172.16.0.1,172.16.0.2",
                            "--route=172.16.0.0/16"});
  r.permitted_case_ok = ok.exit_code == 0;
  // Forbidden: a route that conflicts with the existing LAN route.
  auto bad = sys.RunCapture(alice, "/usr/sbin/pppd",
                            {"pppd", "--connect=172.17.0.1,172.17.0.2",
                             "--route=10.0.0.0/16"});
  r.forbidden_case_ok = bad.exit_code != 0;
  r.detail = "non-conflicting route added; conflicting route refused";
  return r;
}

PolicyScenarioResult DmcryptScenario(SimSystem& sys) {
  PolicyScenarioResult r;
  Task& alice = sys.Login("alice");
  auto out = sys.RunCapture(alice, "/usr/bin/dmcrypt-get-device", {"dmcrypt-get-device",
                                                                   "dm-0"});
  r.permitted_case_ok = out.exit_code == 0 && out.out.find("/dev/sda3") != std::string::npos;
  // Forbidden: the key must not be obtainable by an unprivileged user.
  bool key_leaked = out.out.find("deadbeef") != std::string::npos;
  auto fd = sys.kernel().Open(alice, "/dev/mapper/control", kORdWr);
  bool ioctl_blocked = true;
  if (fd.ok()) {
    auto status = sys.kernel().Ioctl(alice, fd.value(), kDmTableStatus, "dm-0");
    ioctl_blocked = !status.ok();
  }
  r.forbidden_case_ok = !key_leaked && ioctl_blocked;
  r.detail = "device name via /sys; key-bearing ioctl still EPERM";
  return r;
}

PolicyScenarioResult BindScenario(SimSystem& sys) {
  PolicyScenarioResult r;
  // Permitted: the allocated instance binds its low port without privilege.
  Task& exim = sys.Login("exim");
  auto ok = sys.RunCapture(exim, "/usr/sbin/eximd", {"eximd"});
  r.permitted_case_ok = ok.exit_code == 0 && ok.out.find("listening on port 25") !=
                                                  std::string::npos;
  // Forbidden: another binary cannot squat on the allocated port — not even
  // with root privilege.
  Task& root = sys.Login("root");
  auto bad = sys.RunCapture(root, "/usr/sbin/httpd", {"httpd", "--port=25"});
  r.forbidden_case_ok = bad.exit_code != 0;
  r.detail = "exim binds 25 unprivileged; httpd (even as root) cannot";
  return r;
}

PolicyScenarioResult MountScenario(SimSystem& sys) {
  PolicyScenarioResult r;
  Task& alice = sys.Login("alice");
  auto ok = sys.RunCapture(alice, "/bin/mount", {"mount", "/dev/cdrom"});
  bool mounted = sys.kernel().vfs().FindMount("/media/cdrom").has_value();
  (void)sys.RunCapture(alice, "/bin/umount", {"umount", "/media/cdrom"});
  r.permitted_case_ok = ok.exit_code == 0 && mounted;
  // Forbidden: mounting over a trusted directory.
  auto bad = sys.kernel().Mount(alice, "/dev/cdrom", "/etc", "iso9660", {"ro"});
  r.forbidden_case_ok = !bad.ok();
  r.detail = "whitelisted cdrom mount works; mount over /etc refused";
  return r;
}

PolicyScenarioResult SetuidScenario(SimSystem& sys) {
  PolicyScenarioResult r;
  // Permitted: bob runs lpr as alice under the delegation rule.
  Task& root = sys.Login("root");
  (void)sys.kernel().WriteWholeFile(root, "/home/alice/doc.txt", "hello", false, 0644);
  (void)sys.kernel().Chown(root, "/home/alice/doc.txt", 1000, 1000);
  Task& bob = sys.Login("bob");
  bob.terminal->QueueInput("bobpw");
  auto ok = sys.RunCapture(bob, "/usr/bin/sudo",
                           {"sudo", "--user=alice", "/usr/bin/lpr", "/home/alice/doc.txt"});
  r.permitted_case_ok =
      ok.exit_code == 0 && ok.out.find("as uid=1000") != std::string::npos;
  // Forbidden: bob cannot run anything else as alice (least privilege),
  // even though stock sudo would have given his process full root first.
  Task& bob2 = sys.Login("bob");
  bob2.terminal->QueueInput("bobpw");
  auto bad = sys.RunCapture(bob2, "/usr/bin/sudo",
                            {"sudo", "--user=alice", "/bin/cat", "/home/alice/doc.txt"});
  r.forbidden_case_ok = bad.exit_code != 0;
  r.detail = "delegated lpr works; undelegated cat as alice refused";
  return r;
}

PolicyScenarioResult CredentialDbScenario(SimSystem& sys) {
  PolicyScenarioResult r;
  // Permitted: alice changes her own shell without privilege.
  Task& alice = sys.Login("alice");
  auto ok = sys.RunCapture(alice, "/usr/bin/chsh", {"chsh", "/bin/bash"});
  r.permitted_case_ok = ok.exit_code == 0;
  // Forbidden: alice cannot modify bob's record.
  auto bad = sys.RunCapture(alice, "/usr/bin/chsh", {"chsh", "/bin/bash", "bob"});
  bool fragment_safe = true;
  auto direct = sys.kernel().WriteWholeFile(alice, "/etc/passwds/bob", "bob:x:0:0:::/bin/sh\n");
  fragment_safe = !direct.ok();
  r.forbidden_case_ok = bad.exit_code != 0 && fragment_safe;
  r.detail = "own record editable; other records protected by DAC";
  return r;
}

PolicyScenarioResult HostKeyScenario(SimSystem& sys) {
  PolicyScenarioResult r;
  Task& alice = sys.Login("alice");
  auto ok = sys.RunCapture(alice, "/usr/lib/ssh-keysign", {"ssh-keysign", "alice-pubkey"});
  r.permitted_case_ok = ok.exit_code == 0 && ok.out.find("signature ") == 0;
  // Forbidden: alice cannot read the host key itself, with any tool.
  auto bad = sys.kernel().ReadWholeFile(alice, "/etc/ssh/ssh_host_key");
  r.forbidden_case_ok = !bad.ok();
  r.detail = "signature obtainable; key unreadable outside ssh-keysign";
  return r;
}

PolicyScenarioResult VideoScenario(SimSystem& sys) {
  PolicyScenarioResult r;
  Task& alice = sys.Login("alice");
  auto ok = sys.RunCapture(alice, "/usr/bin/xserver", {"xserver", "--mode=1280x1024"});
  r.permitted_case_ok = ok.exit_code == 0;
  // Forbidden: garbage video state is rejected by the kernel (KMS), so a
  // misbehaving X cannot wedge the hardware.
  auto bad = sys.RunCapture(alice, "/usr/bin/xserver", {"xserver", "--mode=garbage"});
  r.forbidden_case_ok = bad.exit_code != 0;
  r.detail = "unprivileged X sets a valid mode; invalid mode rejected by KMS";
  return r;
}

}  // namespace

const std::vector<PolicyMatrixRow>& PolicyMatrix() {
  static const std::vector<PolicyMatrixRow> kMatrix = {
      {"socket", "ping, ping6, arping, mtr, traceroute6 iputils",
       "Creating raw or packet sockets requires CAP_NET_RAW.",
       "Users may send and receive safe, non TCP/UDP packets, such as ICMP.",
       "Raw sockets allow one to send packets that appear to come from a socket owned by "
       "another process.",
       "Allow any user to create a raw or packet socket, but outgoing packets are subject to "
       "firewall rules that filter unsafe packets.",
       SocketScenario},
      {"ioctl (ppp)", "pppd",
       "Only the administrator may configure modem hardware or modify routing tables.",
       "A user may configure a modem (if not in use) and add routes that don't conflict with "
       "existing routes.",
       "Protect the integrity of routes for unrelated applications.",
       "Add LSM hooks that verify routes do not conflict with old rules when requested by "
       "non-root users.",
       PppScenario},
      {"ioctl (dmcrypt)", "dmcrypt-get-device",
       "Require CAP_SYS_ADMIN to read dmcrypt metadata.",
       "Any user may read the public portion of dmcrypt metadata (e.g., device set).",
       "The same ioctl discloses both the physical devices and the encryption keys.",
       "Abandon this ioctl for a /sys file that only discloses the physical devices.",
       DmcryptScenario},
      {"bind", "procmail, sensible-mda, exim4",
       "Require CAP_NET_BIND_SERVICE to bind to ports < 1024.",
       "Mail server should generally run without root privilege.",
       "Prevent untrustworthy applications from running on well-known ports.",
       "System policies allocating low-numbered ports to specific (binary, userid) pairs.",
       BindScenario},
      {"mount, umount", "fusermount, mount, umount",
       "Mounting or unmounting a file system requires CAP_SYS_ADMIN.",
       "Any user may mount or unmount entries in /etc/fstab with the user(s) option.",
       "Protect the integrity of trusted directories (e.g., /etc, /lib).",
       "Add LSM hooks that permit anyone to mount a white-listed file system with safe "
       "locations and options.",
       MountScenario},
      {"setuid, setgid",
       "polkit-agent-helper-1, sudo, pkexec, dbus-daemon-launch-helper, su, sudoedit, newgrp",
       "Only allowed with CAP_SETUID.",
       "Permit delegation of commands as configured by administrator, in some cases require "
       "recent reauthentication.",
       "Require authentication and authorization to execute as another user.",
       "Add LSM hooks that check delegation rules encoded in files like /etc/sudoers, and a "
       "kernel abstraction for recency.",
       SetuidScenario},
      {"credential databases", "chfn, chsh, gpasswd, lppasswd, passwd",
       "Only root can modify these files (or read /etc/shadow).",
       "A user may change her own entry to update password, shell, etc.",
       "Prevent users from accessing or modifying each other's accounts.",
       "Fragment the database to per-user or per-group configuration files, matching DAC "
       "granularity.",
       CredentialDbScenario},
      {"host private ssh key", "ssh-keysign",
       "Only root may read the key (FS permissions).",
       "Allow non-root users to sign their public key with the host key.",
       "A user should be able to acquire a host key signature without copying the host key.",
       "Restrict file access to specific binaries instead of, or in addition to, user IDs.",
       HostKeyScenario},
      {"video driver control state", "X",
       "Root must set the video card control state, required by older drivers.",
       "Any user may start an X server.",
       "An untrustworthy application could misconfigure another application's video state.",
       "Linux now context switches video devices in the kernel, called KMS.",
       VideoScenario},
  };
  return kMatrix;
}

}  // namespace protego
