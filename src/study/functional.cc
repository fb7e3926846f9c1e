#include "src/study/functional.h"

#include "src/base/hash.h"
#include "src/base/strings.h"
#include "src/config/passwd_db.h"

namespace protego {

void Step(SimSystem& sys, Task& session, std::string* transcript, const std::string& label,
          const std::string& path, std::vector<std::string> argv,
          std::vector<std::string> terminal_input) {
  for (std::string& line : terminal_input) {
    session.terminal->QueueInput(std::move(line));
  }
  auto out = sys.RunCapture(session, path, std::move(argv));
  // What the command left unread must not answer the next one's prompt.
  while (session.terminal->ReadLine().has_value()) {
  }
  *transcript += StrFormat("[%s] exit=%d stderr=%s\n", label.c_str(), out.exit_code,
                           out.err.empty() ? "empty" : "present");
  *transcript += out.out;
  if (!EndsWith(*transcript, "\n")) {
    *transcript += "\n";
  }
}

void Probe(std::string* transcript, const std::string& label, const std::string& value) {
  *transcript += "[probe:" + label + "] " + value + "\n";
}

namespace {

// Reads the current shadow hash for `user`, from whichever database this
// mode maintains (the monitoring daemon keeps them in sync under Protego,
// so /etc/shadow works for both — which is itself part of the test).
std::string ShadowHashOf(SimSystem& sys, const std::string& user) {
  Task& root = sys.Login("root");
  auto content = sys.kernel().ReadWholeFile(root, "/etc/shadow");
  if (!content.ok()) {
    return "<unreadable>";
  }
  auto entries = ParseShadow(content.value());
  if (entries.ok()) {
    for (const ShadowEntry& e : entries.value()) {
      if (e.name == user) {
        return e.hash;
      }
    }
  }
  return "<absent>";
}

std::string PasswdFieldOf(SimSystem& sys, const std::string& user, int field) {
  Task& root = sys.Login("root");
  auto content = sys.kernel().ReadWholeFile(root, "/etc/passwd");
  if (!content.ok()) {
    return "<unreadable>";
  }
  for (const std::string& line : Split(content.value(), '\n')) {
    auto f = Split(line, ':');
    if (f.size() == 7 && f[0] == user) {
      return f[static_cast<size_t>(field)];
    }
  }
  return "<absent>";
}

// "yes" when a filesystem is mounted at `mountpoint`.
const char* Mounted(SimSystem& sys, const char* mountpoint) {
  return sys.kernel().vfs().FindMount(mountpoint).has_value() ? "yes" : "no";
}

// --- Scenarios -----------------------------------------------------------------

std::string MountLifecycle(SimSystem& sys) {
  std::string t;
  Task& alice = sys.Login("alice");
  Step(sys, alice, &t, "mount-cdrom", "/bin/mount", {"mount", "/dev/cdrom"});
  Probe(&t, "mounted", Mounted(sys, "/media/cdrom"));
  Step(sys, alice, &t, "read-media", "/bin/cat", {"cat", "/media/cdrom/README"});
  Step(sys, alice, &t, "umount-cdrom", "/bin/umount", {"umount", "/media/cdrom"});
  Probe(&t, "mounted-after", Mounted(sys, "/media/cdrom"));
  Step(sys, alice, &t, "mount-denied", "/bin/mount", {"mount", "/dev/sda2", "/mnt/backup"});
  Step(sys, alice, &t, "mount-usage", "/bin/mount", {"mount"});
  Step(sys, alice, &t, "mount-unknown", "/bin/mount", {"mount", "/dev/nosuch"});
  // A corrupted fstab must fail cleanly (and, under Protego, leave the
  // in-kernel whitelist untouched thanks to parse-validate-swap).
  Task& root = sys.Login("root");
  auto saved_fstab = sys.kernel().ReadWholeFile(root, "/etc/fstab");
  (void)sys.kernel().WriteWholeFile(root, "/etc/fstab", "this is : not fstab");
  Step(sys, alice, &t, "mount-bad-fstab", "/bin/mount", {"mount", "/dev/cdrom"});
  (void)sys.kernel().WriteWholeFile(root, "/etc/fstab", saved_fstab.value_or(""));
  Step(sys, alice, &t, "umount-not-mounted", "/bin/umount", {"umount", "/media/usb"});
  Step(sys, alice, &t, "umount-usage", "/bin/umount", {"umount"});
  return t;
}

std::string UmountUsersOption(SimSystem& sys) {
  // "users": anyone may unmount, not just the mounter.
  std::string t;
  Task& alice = sys.Login("alice");
  Task& bob = sys.Login("bob");
  Step(sys, alice, &t, "alice-mounts-usb", "/bin/mount", {"mount", "/dev/sdb1"});
  Step(sys, bob, &t, "bob-unmounts-usb", "/bin/umount", {"umount", "/media/usb"});
  Probe(&t, "usb-mounted", Mounted(sys, "/media/usb"));
  // "user" (cdrom): a different user may NOT unmount.
  Step(sys, alice, &t, "alice-mounts-cdrom", "/bin/mount", {"mount", "/dev/cdrom"});
  Step(sys, bob, &t, "bob-cannot-unmount", "/bin/umount", {"umount", "/media/cdrom"});
  Probe(&t, "cdrom-still-mounted", Mounted(sys, "/media/cdrom"));
  Step(sys, alice, &t, "alice-unmounts", "/bin/umount", {"umount", "/media/cdrom"});
  return t;
}

std::string PingFamily(SimSystem& sys) {
  std::string t;
  Task& alice = sys.Login("alice");
  Step(sys, alice, &t, "ping-gateway", "/bin/ping", {"ping", "10.0.0.2", "2"});
  // Routable subnet, but nobody home: the probe times out.
  Step(sys, alice, &t, "ping-silent-host", "/bin/ping", {"ping", "10.0.0.99", "1"});
  Step(sys, alice, &t, "ping-usage", "/bin/ping", {"ping"});
  Step(sys, alice, &t, "ping-bad-host", "/bin/ping", {"ping", "not-an-ip"});
  Step(sys, alice, &t, "ping-unroutable", "/bin/ping", {"ping", "203.0.113.9", "1"});
  Step(sys, alice, &t, "traceroute-web", "/usr/bin/traceroute", {"traceroute", "93.184.216.34"});
  Step(sys, alice, &t, "arping-gateway", "/usr/bin/arping", {"arping", "10.0.0.2"});
  Step(sys, alice, &t, "mtr-gateway", "/usr/bin/mtr", {"mtr", "10.0.0.2"});
  return t;
}

std::string SudoNopasswd(SimSystem& sys) {
  std::string t;
  Task& charlie = sys.Login("charlie");
  Step(sys, charlie, &t, "charlie-id-as-root", "/usr/bin/sudo", {"sudo", "/usr/bin/id"});
  return t;
}

std::string SudoAdminWithPassword(SimSystem& sys) {
  std::string t;
  Task& alice = sys.Login("alice");
  Step(sys, alice, &t, "alice-admin-id", "/usr/bin/sudo", {"sudo", "/usr/bin/id"},
       {"alicepw"});
  // Within the 5-minute window: no password needed.
  Step(sys, alice, &t, "alice-admin-id-recent", "/usr/bin/sudo", {"sudo", "/usr/bin/id"});
  // After the window expires, authentication is required again (and the
  // queue is empty, so it fails).
  sys.kernel().clock().Advance(600);
  Step(sys, alice, &t, "alice-admin-id-expired", "/usr/bin/sudo", {"sudo", "/usr/bin/id"});
  return t;
}

std::string SudoDelegation(SimSystem& sys) {
  std::string t;
  Task& root = sys.Login("root");
  (void)sys.kernel().WriteWholeFile(root, "/home/alice/doc.txt", "hello", false, 0644);
  (void)sys.kernel().Chown(root, "/home/alice/doc.txt", 1000, 1000);
  Task& bob = sys.Login("bob");
  Step(sys, bob, &t, "bob-lpr-as-alice", "/usr/bin/sudo",
       {"sudo", "--user=alice", "/usr/bin/lpr", "/home/alice/doc.txt"}, {"bobpw"});
  Step(sys, bob, &t, "bob-cat-as-alice-denied", "/usr/bin/sudo",
       {"sudo", "--user=alice", "/bin/cat", "/home/alice/doc.txt"});
  Step(sys, bob, &t, "bob-unknown-user", "/usr/bin/sudo",
       {"sudo", "--user=nosuch", "/usr/bin/id"});
  Step(sys, bob, &t, "sudo-usage", "/usr/bin/sudo", {"sudo"});
  return t;
}

std::string SuFlows(SimSystem& sys) {
  std::string t;
  Task& alice = sys.Login("alice");
  Step(sys, alice, &t, "alice-su-bob", "/bin/su", {"su", "bob"}, {"bobpw"});
  Step(sys, alice, &t, "alice-su-bob-badpw", "/bin/su", {"su", "bob"},
       {"wrong", "wrong", "wrong"});
  Step(sys, alice, &t, "su-unknown", "/bin/su", {"su", "nosuch"});
  Step(sys, alice, &t, "alice-su-bob-cmd", "/bin/su", {"su", "bob", "/usr/bin/id"},
       {"bobpw"});
  return t;
}

std::string NewgrpFlows(SimSystem& sys) {
  std::string t;
  Task& alice = sys.Login("alice");
  // alice is a listed member of staff: no password needed.
  Step(sys, alice, &t, "alice-newgrp-staff", "/usr/bin/newgrp", {"newgrp", "staff"});
  // bob is not a member; staff is password-protected.
  Task& bob = sys.Login("bob");
  Step(sys, bob, &t, "bob-newgrp-staff-pw", "/usr/bin/newgrp", {"newgrp", "staff"},
       {"staffpw"});
  Task& bob2 = sys.Login("bob");
  Step(sys, bob2, &t, "bob-newgrp-staff-bad", "/usr/bin/newgrp", {"newgrp", "staff"},
       {"wrong", "wrong", "wrong"});
  // mail has no group password and bob is not a member: always refused.
  Task& bob3 = sys.Login("bob");
  Step(sys, bob3, &t, "bob-newgrp-mail", "/usr/bin/newgrp", {"newgrp", "mail"});
  Step(sys, bob3, &t, "newgrp-unknown", "/usr/bin/newgrp", {"newgrp", "nosuch"});
  Step(sys, bob3, &t, "newgrp-usage", "/usr/bin/newgrp", {"newgrp"});
  return t;
}

std::string PasswdChange(SimSystem& sys) {
  std::string t;
  std::string before = ShadowHashOf(sys, "alice");
  Task& alice = sys.Login("alice");
  Step(sys, alice, &t, "alice-passwd", "/usr/bin/passwd", {"passwd"},
       {"alicepw", "newsecret"});
  std::string after = ShadowHashOf(sys, "alice");
  Probe(&t, "hash-changed", before != after ? "yes" : "no");
  Probe(&t, "new-password-verifies", VerifyPassword("newsecret", after) ? "yes" : "no");
  Probe(&t, "old-password-verifies", VerifyPassword("alicepw", after) ? "yes" : "no");
  // bob cannot change alice's password.
  Task& bob = sys.Login("bob");
  Step(sys, bob, &t, "bob-passwd-alice-denied", "/usr/bin/passwd", {"passwd", "alice"});
  Probe(&t, "alice-hash-intact", ShadowHashOf(sys, "alice") == after ? "yes" : "no");
  // Wrong current password: the change is refused.
  Task& charlie = sys.Login("charlie");
  Step(sys, charlie, &t, "charlie-passwd-badpw", "/usr/bin/passwd", {"passwd"}, {"wrong"});
  // (Named temporary sidesteps GCC 12's -Wrestrict false positive,
  // PR105651, on the inlined string append.)
  std::string charlie_hash = ShadowHashOf(sys, "charlie");
  Probe(&t, "charlie-password-unchanged",
        VerifyPassword("charliepw", charlie_hash) ? "yes" : "no");
  // A process whose uid has no account cannot use passwd at all.
  Task& ghost = sys.kernel().CreateTask("ghost", Cred::ForUser(5000, 5000), bob.terminal);
  ghost.cwd = "/";
  Step(sys, ghost, &t, "ghost-passwd", "/usr/bin/passwd", {"passwd"});
  return t;
}

std::string ChshChfn(SimSystem& sys) {
  std::string t;
  Task& alice = sys.Login("alice");
  Step(sys, alice, &t, "chsh-valid", "/usr/bin/chsh", {"chsh", "/bin/bash"});
  Probe(&t, "shell", PasswdFieldOf(sys, "alice", 6));
  Step(sys, alice, &t, "chsh-invalid", "/usr/bin/chsh", {"chsh", "/bin/evil"});
  Probe(&t, "shell-unchanged", PasswdFieldOf(sys, "alice", 6));
  Step(sys, alice, &t, "chsh-other-denied", "/usr/bin/chsh", {"chsh", "/bin/bash", "bob"});
  Probe(&t, "bob-shell", PasswdFieldOf(sys, "bob", 6));
  Step(sys, alice, &t, "chfn-self", "/usr/bin/chfn", {"chfn", "Alice A. Alison"});
  Probe(&t, "gecos", PasswdFieldOf(sys, "alice", 4));
  Step(sys, alice, &t, "chfn-other-denied", "/usr/bin/chfn", {"chfn", "Evil", "bob"});
  Step(sys, alice, &t, "chsh-usage", "/usr/bin/chsh", {"chsh"});
  Step(sys, alice, &t, "chfn-usage", "/usr/bin/chfn", {"chfn"});
  // Even root cannot edit a record that does not exist.
  Task& root = sys.Login("root");
  Step(sys, root, &t, "root-chsh-ghost", "/usr/bin/chsh", {"chsh", "/bin/bash", "ghost"});
  Step(sys, root, &t, "root-chfn-ghost", "/usr/bin/chfn", {"chfn", "Ghost", "ghost"});
  return t;
}

std::string GpasswdFlows(SimSystem& sys) {
  std::string t;
  // alice administers staff (first member).
  Task& alice = sys.Login("alice");
  Step(sys, alice, &t, "alice-gpasswd-staff", "/usr/bin/gpasswd",
       {"gpasswd", "staff", "newgrouppw"});
  // The new group password admits non-members via newgrp.
  Task& bob = sys.Login("bob");
  Step(sys, bob, &t, "bob-newgrp-newpw", "/usr/bin/newgrp", {"newgrp", "staff"},
       {"newgrouppw"});
  // bob administers nothing.
  Task& bob2 = sys.Login("bob");
  Step(sys, bob2, &t, "bob-gpasswd-denied", "/usr/bin/gpasswd",
       {"gpasswd", "staff", "evilpw"});
  Step(sys, bob2, &t, "gpasswd-unknown", "/usr/bin/gpasswd", {"gpasswd", "nosuch", "x"});
  Step(sys, bob2, &t, "gpasswd-usage", "/usr/bin/gpasswd", {"gpasswd"});
  return t;
}

std::string SudoeditFlow(SimSystem& sys) {
  std::string t;
  Task& alice = sys.Login("alice");
  Step(sys, alice, &t, "alice-sudoedit-motd", "/usr/bin/sudoedit", {"sudoedit", "/etc/motd"},
       {"Welcome to protego!", "alicepw"});
  Task& root = sys.Login("root");
  auto motd = sys.kernel().ReadWholeFile(root, "/etc/motd");
  Probe(&t, "motd", motd.ok() ? std::string(Trim(motd.value())) : "<absent>");
  // bob has no rule covering tee on /etc.
  Task& bob = sys.Login("bob");
  Step(sys, bob, &t, "bob-sudoedit-denied", "/usr/bin/sudoedit", {"sudoedit", "/etc/motd"},
       {"Evil contents", "bobpw"});
  Step(sys, bob, &t, "sudoedit-usage", "/usr/bin/sudoedit", {"sudoedit"});
  return t;
}

std::string VipwFlow(SimSystem& sys) {
  std::string t;
  Task& root = sys.Login("root");
  Step(sys, root, &t, "root-vipw", "/usr/sbin/vipw", {"vipw"},
       {"charlie:x:1002:1002:Charles:/home/charlie:/bin/bash"});
  Probe(&t, "charlie-shell", PasswdFieldOf(sys, "charlie", 6));
  Step(sys, root, &t, "vipw-bad-record", "/usr/sbin/vipw", {"vipw"}, {"not-a-record"});
  return t;
}

}  // namespace

const std::vector<FunctionalScenario>& FunctionalSuite() {
  static const std::vector<FunctionalScenario> kSuite = {
      {"mount_lifecycle", MountLifecycle},
      {"umount_users_option", UmountUsersOption},
      {"ping_family", PingFamily},
      {"sudo_nopasswd", SudoNopasswd},
      {"sudo_admin_password", SudoAdminWithPassword},
      {"sudo_delegation", SudoDelegation},
      {"su_flows", SuFlows},
      {"newgrp_flows", NewgrpFlows},
      {"passwd_change", PasswdChange},
      {"chsh_chfn", ChshChfn},
      {"gpasswd_flows", GpasswdFlows},
      {"sudoedit_flow", SudoeditFlow},
      {"vipw_flow", VipwFlow},
  };
  return kSuite;
}

std::string NormalizeTranscript(const std::string& transcript) {
  std::string out;
  for (const std::string& raw_line : Split(transcript, '\n')) {
    std::string line = raw_line;
    // Prompts have no trailing newline, so program output may share the
    // line; strip the prompt text and keep the rest.
    for (const char* prompt_head : {"[sudo] password for ", "[protego] password for "}) {
      size_t pos = line.find(prompt_head);
      while (pos != std::string::npos) {
        size_t colon = line.find(": ", pos);
        if (colon == std::string::npos) {
          line.erase(pos);
          break;
        }
        line.erase(pos, colon + 2 - pos);
        pos = line.find(prompt_head);
      }
    }
    for (const char* literal :
         {"Current password: ", "New password: ", "Password: ", "Sorry, try again."}) {
      size_t pos;
      while ((pos = line.find(literal)) != std::string::npos) {
        line.erase(pos, std::string(literal).size());
      }
    }
    if (Trim(line).empty()) {
      continue;
    }
    out += line;
    out += "\n";
  }
  return out;
}

std::vector<EquivalenceResult> RunEquivalenceSuite() {
  std::vector<EquivalenceResult> results;
  for (const FunctionalScenario& scenario : FunctionalSuite()) {
    EquivalenceResult r;
    r.name = scenario.name;
    {
      SimSystem linux_sys(SimMode::kLinux);
      r.linux_transcript = NormalizeTranscript(scenario.run(linux_sys));
    }
    {
      SimSystem protego_sys(SimMode::kProtego);
      r.protego_transcript = NormalizeTranscript(scenario.run(protego_sys));
    }
    r.equivalent = r.linux_transcript == r.protego_transcript;
    results.push_back(std::move(r));
  }
  return results;
}

}  // namespace protego
