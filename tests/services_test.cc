// Unit tests for the trusted services: the authentication utility and the
// monitoring daemon.

#include <gtest/gtest.h>

#include "src/base/hash.h"
#include "src/base/strings.h"
#include "src/conc/explore.h"
#include "src/config/fstab.h"
#include "src/userland/daemon_utils.h"
#include "src/protego/protego_lsm.h"
#include "src/sim/system.h"

namespace protego {
namespace {

class ServicesTest : public ::testing::Test {
 protected:
  ServicesTest() : sys_(SimMode::kProtego) {}
  SimSystem sys_;
};

TEST_F(ServicesTest, AuthVerifiesAgainstShadowFragment) {
  Task& alice = sys_.Login("alice");
  alice.terminal->QueueInput("alicepw");
  auto who = sys_.auth()->Authenticate(alice, {1000});
  ASSERT_TRUE(who.has_value());
  EXPECT_EQ(*who, 1000u);
  EXPECT_TRUE(alice.auth_times.count(1000));
  EXPECT_GE(sys_.auth()->successes(), 1u);
}

TEST_F(ServicesTest, AuthTriesThreeTimesThenFails) {
  Task& alice = sys_.Login("alice");
  alice.terminal->QueueInput("wrong1");
  alice.terminal->QueueInput("wrong2");
  alice.terminal->QueueInput("wrong3");
  alice.terminal->QueueInput("alicepw");  // too late: attempts exhausted
  EXPECT_FALSE(sys_.auth()->Authenticate(alice, {1000}).has_value());
  EXPECT_EQ(alice.terminal->ReadLine(), "alicepw");  // 4th line never consumed
}

TEST_F(ServicesTest, AuthMultiCandidateMatchesTypedPassword) {
  Task& bob = sys_.Login("bob");
  bob.terminal->QueueInput("alicepw");  // bob types ALICE's password
  auto who = sys_.auth()->Authenticate(bob, {1001, 1000});
  ASSERT_TRUE(who.has_value());
  EXPECT_EQ(*who, 1000u);
  // The prompt named both candidates.
  EXPECT_NE(bob.terminal->output().find("bob or alice"), std::string::npos);
}

TEST_F(ServicesTest, AuthGroupAccountsUseGroupPassword) {
  Task& bob = sys_.Login("bob");
  bob.terminal->QueueInput("staffpw");
  auto who = sys_.auth()->Authenticate(bob, {kGroupAuthBase + 50});
  ASSERT_TRUE(who.has_value());
  EXPECT_NE(bob.terminal->output().find("group staff"), std::string::npos);
}

TEST_F(ServicesTest, AuthRejectsLockedAndUnknownAccounts) {
  // exim's account has no password (locked).
  Task& who = sys_.Login("alice");
  who.terminal->QueueInput("anything");
  EXPECT_FALSE(sys_.auth()->Authenticate(who, {kEximUid}).has_value());
  EXPECT_FALSE(sys_.auth()->Authenticate(who, {55555}).has_value());
  // A task with no terminal cannot authenticate.
  Task& headless = sys_.kernel().CreateTask("d", Cred::ForUser(1000, 1000), nullptr);
  EXPECT_FALSE(sys_.auth()->Authenticate(headless, {1000}).has_value());
}

TEST_F(ServicesTest, DaemonPushesFstabChangesToKernel) {
  Kernel& k = sys_.kernel();
  Task& root = sys_.Login("root");
  size_t before = sys_.lsm()->mount_policy().size();
  auto fstab = k.ReadWholeFile(root, "/etc/fstab").value();
  ASSERT_TRUE(k.WriteWholeFile(root, "/etc/fstab",
                               fstab + "/dev/sdc1 /media/extra ext4 ro,user\n")
                  .ok());
  EXPECT_EQ(sys_.lsm()->mount_policy().size(), before + 1);
  // And the new entry is live: alice can use it immediately.
  (void)k.Mkdir(root, "/media/extra", 0755);
  (void)k.vfs().CreateDevice("/dev/sdc1", 0660, kRootUid, kRootGid, true, 8, 33);
  Task& alice = sys_.Login("alice");
  EXPECT_TRUE(k.Mount(alice, "/dev/sdc1", "/media/extra", "ext4", {"ro"}).ok());
}

TEST_F(ServicesTest, DaemonKeepsOldPolicyOnBadConfig) {
  Kernel& k = sys_.kernel();
  Task& root = sys_.Login("root");
  size_t before = sys_.lsm()->mount_policy().size();
  size_t errors_before = sys_.daemon()->errors().size();
  ASSERT_TRUE(k.WriteWholeFile(root, "/etc/fstab", "completely broken\n").ok());
  EXPECT_EQ(sys_.lsm()->mount_policy().size(), before);  // old policy survives
  EXPECT_GT(sys_.daemon()->errors().size(), errors_before);
}

TEST_F(ServicesTest, DaemonRegeneratesLegacyFilesFromFragments) {
  Kernel& k = sys_.kernel();
  Task& alice = sys_.Login("alice");
  // alice edits her fragment directly (as vipw would).
  auto line = k.ReadWholeFile(alice, "/etc/passwds/alice").value();
  std::string updated(Trim(line));
  size_t last_colon = updated.rfind(':');
  updated = updated.substr(0, last_colon + 1) + "/bin/bash";
  ASSERT_TRUE(k.WriteWholeFile(alice, "/etc/passwds/alice", updated + "\n").ok());
  // The daemon rebuilt the legacy shared file.
  Task& root = sys_.Login("root");
  auto legacy = k.ReadWholeFile(root, "/etc/passwd").value();
  EXPECT_NE(legacy.find("alice:x:1000:1000:alice:/home/alice:/bin/bash"),
            std::string::npos);
  // And the kernel's user database snapshot.
  EXPECT_EQ(sys_.lsm()->user_db().FindUser("alice")->shell, "/bin/bash");
}

TEST_F(ServicesTest, DaemonPicksUpSudoersFragmentCreation) {
  Kernel& k = sys_.kernel();
  Task& root = sys_.Login("root");
  size_t rules_before = sys_.lsm()->delegation().rules.size();
  ASSERT_TRUE(k.WriteWholeFile(root, "/etc/sudoers.d/zz-extra",
                               "bob ALL=(charlie) NOPASSWD: /usr/bin/id\n")
                  .ok());
  EXPECT_EQ(sys_.lsm()->delegation().rules.size(), rules_before + 1);
  // The rule is immediately enforceable.
  Task& bob = sys_.Login("bob");
  auto out = sys_.RunCapture(bob, "/usr/bin/sudo",
                             {"sudo", "--user=charlie", "/usr/bin/id"});
  EXPECT_EQ(out.exit_code, 0);
  EXPECT_NE(out.out.find("euid=1002"), std::string::npos);
}

TEST_F(ServicesTest, DaemonStopsWatching) {
  Kernel& k = sys_.kernel();
  Task& root = sys_.Login("root");
  sys_.daemon()->Stop();
  size_t before = sys_.lsm()->mount_policy().size();
  ASSERT_TRUE(k.WriteWholeFile(root, "/etc/fstab", "/dev/x /m ext4 user\n").ok());
  EXPECT_EQ(sys_.lsm()->mount_policy().size(), before);  // no watch, no sync
  // An explicit SyncAll still works.
  ASSERT_TRUE(sys_.daemon()->SyncAll().ok());
  EXPECT_EQ(sys_.lsm()->mount_policy().size(), 1u);
}

TEST_F(ServicesTest, PasswdChangeFlowsThroughDaemonToLegacyShadow) {
  Kernel& k = sys_.kernel();
  Task& alice = sys_.Login("alice");
  alice.terminal->QueueInput("alicepw");   // kernel reauth gate
  alice.terminal->QueueInput("brandnew");  // new password
  auto out = sys_.RunCapture(alice, "/usr/bin/passwd", {"passwd"});
  ASSERT_EQ(out.exit_code, 0) << out.err;
  // The legacy shared shadow now verifies the NEW password.
  Task& root = sys_.Login("root");
  auto legacy = k.ReadWholeFile(root, "/etc/shadow").value();
  bool found = false;
  for (const std::string& line : Split(legacy, '\n')) {
    auto f = Split(line, ':');
    if (f.size() >= 2 && f[0] == "alice") {
      EXPECT_TRUE(VerifyPassword("brandnew", f[1]));
      EXPECT_FALSE(VerifyPassword("alicepw", f[1]));
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

// Two root tasks edit two different watched files under 64 seeded random
// schedules; both edits must reach the kernel tables in every one.
// Regression: an event that arrived while another task's sync was still
// running returned without syncing, so in 63 of the 64 schedules one of
// the two edits never reached /proc/protego.
class ConcurrentConfigEdits : public conc::ScenarioRun {
 public:
  ConcurrentConfigEdits() : sys_(SimMode::kProtego) {}

  Kernel& kernel() override { return sys_.kernel(); }

  void RegisterTasks(TaskScheduler& sched) override {
    Task& a = sys_.Login("root");
    Task& b = sys_.Login("root");
    sched.StartTask(a.pid, [this, &a] {
      (void)kernel().WriteWholeFile(a, "/etc/fstab", "/dev/sdc1 /media/stick vfat rw,user\n",
                                    /*append=*/true);
    });
    sched.StartTask(b.pid, [this, &b] {
      (void)kernel().WriteWholeFile(b, "/etc/bind", "443 /usr/sbin/httpsd 33\n",
                                    /*append=*/true);
    });
  }

  std::optional<std::string> CheckInvariant() override {
    Task& root = sys_.Login("root");
    auto mounts = kernel().ReadWholeFile(root, "/proc/protego/mounts");
    auto ports = kernel().ReadWholeFile(root, "/proc/protego/ports");
    if (!mounts.ok() || mounts.value().find("/media/stick") == std::string::npos) {
      return "the fstab edit never reached /proc/protego/mounts";
    }
    if (!ports.ok() || ports.value().find("/usr/sbin/httpsd") == std::string::npos) {
      return "the bind edit never reached /proc/protego/ports";
    }
    return std::nullopt;
  }

 private:
  SimSystem sys_;
};

TEST(MonitorDaemonRace, ConcurrentEditsOfTwoFilesBothSync) {
  conc::ExploreOptions options;
  options.mode = conc::ExploreMode::kRandom;
  options.num_seeds = 64;
  conc::ExploreResult result =
      conc::Explore([] { return std::make_unique<ConcurrentConfigEdits>(); }, options);
  EXPECT_FALSE(result.violation_found)
      << result.detail << " under " << conc::FormatTrace(result.violating);
  EXPECT_EQ(result.schedules_run, 64u);
}

// Two root tasks append to the same watched file at once under 64 seeded
// random schedules; /proc/protego/mounts must end up matching the file in
// every one. Regression: each edit's sync read the file and published it
// on its own, so a sync that read only the first edit could publish after
// the sync that read both.
class ConcurrentEditsOfOneFile : public conc::ScenarioRun {
 public:
  ConcurrentEditsOfOneFile() : sys_(SimMode::kProtego) {}

  Kernel& kernel() override { return sys_.kernel(); }

  void RegisterTasks(TaskScheduler& sched) override {
    for (int i = 0; i < 2; ++i) {
      Task& task = sys_.Login("root");
      sched.StartTask(task.pid, [this, &task, i] {
        (void)kernel().WriteWholeFile(
            task, "/etc/fstab", StrFormat("/dev/sdc%d /media/stick%d vfat rw,user\n", i, i),
            /*append=*/true);
      });
    }
  }

  std::optional<std::string> CheckInvariant() override {
    Task& root = sys_.Login("root");
    auto fstab = kernel().ReadWholeFile(root, "/etc/fstab");
    auto mounts = kernel().ReadWholeFile(root, "/proc/protego/mounts");
    if (!fstab.ok() || !mounts.ok()) {
      return "cannot read /etc/fstab or /proc/protego/mounts";
    }
    auto parsed = ParseFstab(fstab.value());
    if (!parsed.ok() || mounts.value() != SerializeFstab(parsed.value())) {
      return "/proc/protego/mounts does not match /etc/fstab:\n" + mounts.value();
    }
    return std::nullopt;
  }

 private:
  SimSystem sys_;
};

TEST(MonitorDaemonRace, ConcurrentEditsOfOneFileApplyInOrder) {
  conc::ExploreOptions options;
  options.mode = conc::ExploreMode::kRandom;
  options.num_seeds = 64;
  conc::ExploreResult result =
      conc::Explore([] { return std::make_unique<ConcurrentEditsOfOneFile>(); }, options);
  EXPECT_FALSE(result.violation_found)
      << result.detail << " under " << conc::FormatTrace(result.violating);
  EXPECT_EQ(result.schedules_run, 64u);
}

}  // namespace
}  // namespace protego
