// Property tests over the configuration formats (serialize/parse fixpoints,
// comment-insensitivity) and randomized mount/umount sequences.

#include <gtest/gtest.h>

#include "src/base/lexer.h"
#include "src/base/strings.h"
#include "src/config/bindconf.h"
#include "src/config/fstab.h"
#include "src/config/sudoers.h"
#include "src/sim/system.h"

namespace protego {
namespace {

uint64_t Next(uint64_t* s) {
  uint64_t z = (*s += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::string Name(uint64_t* s) {
  static const char* kNames[] = {"alice", "bob", "charlie", "dave", "erin", "frank"};
  return kNames[Next(s) % 6];
}

class FstabFixpoint : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FstabFixpoint, SerializeParseSerializeIsStable) {
  uint64_t seed = GetParam() * 31337;
  std::vector<FstabEntry> entries;
  size_t n = Next(&seed) % 8 + 1;
  for (size_t i = 0; i < n; ++i) {
    FstabEntry e;
    e.device = "/dev/dev" + std::to_string(Next(&seed) % 10);
    e.mountpoint = "/mnt/m" + std::to_string(i);
    e.fstype = (Next(&seed) % 2) ? "ext4" : "iso9660";
    e.options = {"ro"};
    if (Next(&seed) % 2) {
      e.options.push_back("user");
    }
    if (Next(&seed) % 3 == 0) {
      e.options.push_back("nosuid");
    }
    entries.push_back(std::move(e));
  }
  std::string once = SerializeFstab(entries);
  auto parsed = ParseFstab(once);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(SerializeFstab(parsed.value()), once);
  // Comments and blank lines are semantically invisible.
  std::string noisy = "# header\n\n" + once + "\n  # trailer\n";
  auto parsed_noisy = ParseFstab(noisy);
  ASSERT_TRUE(parsed_noisy.ok());
  EXPECT_EQ(SerializeFstab(parsed_noisy.value()), once);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FstabFixpoint, ::testing::Range<uint64_t>(1, 25));

class SudoersFixpoint : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SudoersFixpoint, SerializeParseSerializeIsStable) {
  uint64_t seed = GetParam() * 7907;
  SudoersPolicy policy;
  policy.timestamp_timeout_sec = (Next(&seed) % 20 + 1) * 60;
  size_t n = Next(&seed) % 6 + 1;
  for (size_t i = 0; i < n; ++i) {
    SudoRule rule;
    rule.user = (Next(&seed) % 4 == 0) ? "ALL" : Name(&seed);
    rule.runas = {(Next(&seed) % 3 == 0) ? "ALL" : Name(&seed)};
    switch (Next(&seed) % 3) {
      case 0: rule.nopasswd = true; break;
      case 1: rule.targetpw = true; break;
      default: break;
    }
    rule.commands = {(Next(&seed) % 2) ? "ALL" : "/usr/bin/cmd" + std::to_string(i) + " *"};
    policy.rules.push_back(std::move(rule));
  }
  if (Next(&seed) % 2) {
    policy.password_groups.push_back("staff");
  }
  if (Next(&seed) % 2) {
    policy.file_delegations.push_back({"/usr/lib/tool", "/etc/secret*", kMayRead});
  }
  if (Next(&seed) % 2) {
    policy.reauth_read_globs.push_back("/etc/shadows/*");
  }
  std::string once = SerializeSudoers(policy);
  auto parsed = ParseSudoers(once);
  ASSERT_TRUE(parsed.ok()) << once;
  EXPECT_EQ(SerializeSudoers(parsed.value()), once);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SudoersFixpoint, ::testing::Range<uint64_t>(1, 25));

class BindConfFixpoint : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BindConfFixpoint, SerializeParseSerializeIsStable) {
  uint64_t seed = GetParam() * 65537;
  std::vector<BindConfEntry> entries;
  size_t n = Next(&seed) % 6 + 1;
  for (size_t i = 0; i < n; ++i) {
    BindConfEntry e;
    e.port = static_cast<uint16_t>(25 + i * 37 % 990);
    e.binary = "/usr/sbin/svc" + std::to_string(i);
    e.uid = static_cast<Uid>(Next(&seed) % 2000);
    entries.push_back(std::move(e));
  }
  std::string once = SerializeBindConf(entries);
  auto parsed = ParseBindConf(once);
  ASSERT_TRUE(parsed.ok()) << once;
  EXPECT_EQ(SerializeBindConf(parsed.value()), once);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BindConfFixpoint, ::testing::Range<uint64_t>(1, 17));

// Randomized mount/umount sequences: whatever an adversarial sequence of
// unprivileged calls does, the mount table only ever contains whitelisted
// (or root-made) mounts, and /proc/mounts stays consistent with it.
class MountSequenceProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MountSequenceProperty, TableOnlyEverHoldsWhitelistedMounts) {
  uint64_t seed = GetParam() * 48271;
  SimSystem sys(SimMode::kProtego);
  Kernel& k = sys.kernel();
  Task& alice = sys.Login("alice");
  Task& bob = sys.Login("bob");

  const char* devices[] = {"/dev/cdrom", "/dev/sdb1", "/dev/sda2", "/dev/nosuch"};
  const char* points[] = {"/media/cdrom", "/media/usb", "/mnt/backup", "/etc", "/tmp"};
  const char* types[] = {"iso9660", "vfat", "ext4"};

  for (int step = 0; step < 40; ++step) {
    Task& actor = (Next(&seed) % 2) ? alice : bob;
    if (Next(&seed) % 3 == 0) {
      (void)k.Umount(actor, points[Next(&seed) % 5]);
    } else {
      (void)k.Mount(actor, devices[Next(&seed) % 4], points[Next(&seed) % 5],
                    types[Next(&seed) % 3], {"ro"});
    }
    // INVARIANT: every live mount is one of the two whitelisted pairs, and
    // /proc/mounts mirrors the table exactly: each line names a live mount
    // with its mounter, and every live mount has a line.
    Task& root = sys.Login("root");
    auto proc = k.ReadWholeFile(root, "/proc/mounts");
    size_t lines = 0;
    for (const std::string& line : Split(proc.value(), '\n')) {
      std::vector<std::string> f = SplitWhitespace(line);
      if (f.empty()) {
        continue;
      }
      ++lines;
      ASSERT_EQ(f.size(), 5u) << line;
      bool allowed = (f[0] == "/dev/cdrom" && f[1] == "/media/cdrom") ||
                     (f[0] == "/dev/sdb1" && f[1] == "/media/usb");
      EXPECT_TRUE(allowed) << "illegal mount: " << line;
      EXPECT_EQ(k.vfs().FindMount(f[1]), std::optional<Uid>(std::stoul(f[4]))) << line;
    }
    size_t mounted = 0;
    for (const char* point : points) {
      mounted += k.vfs().FindMount(point).has_value() ? 1 : 0;
    }
    EXPECT_EQ(lines, mounted);
    k.ReapTask(root.pid);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MountSequenceProperty, ::testing::Range<uint64_t>(1, 13));

}  // namespace
}  // namespace protego
