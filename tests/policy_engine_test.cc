// Tests for the compiled policy engine: CompiledGlob classification parity
// with the generic matcher, a seeded differential oracle that checks every
// index against a plain table scan, end-to-end verdicts through a full
// SimSystem, and policy swaps and credential changes taking effect on the
// very next call.

#include <gtest/gtest.h>

#include <algorithm>

#include "src/base/strings.h"
#include "src/config/compiled_glob.h"
#include "src/protego/policy_engine.h"
#include "src/protego/proc_iface.h"
#include "src/sim/system.h"

namespace protego {
namespace {

// --- CompiledGlob -----------------------------------------------------------

TEST(CompiledGlob, AgreesWithGlobMatchOnEveryShape) {
  const char* patterns[] = {
      "/dev/cdrom",         // literal
      "/etc/shadows/*",     // prefix
      "*.iso",              // suffix
      "/home/*/mnt",        // prefix+suffix
      "/h?me/*",            // '?' forces the general matcher
      "/a/*/b/*",           // two stars likewise
      "*",                  // degenerate prefix (matches everything)
      "",                   // empty literal
  };
  const char* texts[] = {
      "/dev/cdrom",  "/dev/cdrom2",  "/etc/shadows/alice", "/etc/shadows/",
      "/etc/shadow", "disk.iso",     ".iso",               "iso",
      "/home/a/mnt", "/home/a/b/mnt", "/home/mnt",         "/hame/x",
      "/a/x/b/y",    "/a/b",          "",                  "x",
  };
  for (const char* p : patterns) {
    CompiledGlob compiled((std::string(p)));
    for (const char* t : texts) {
      EXPECT_EQ(compiled.Matches(t), GlobMatch(p, t))
          << "pattern=" << p << " text=" << t;
    }
  }
}

TEST(CompiledGlob, PrefixSuffixRequiresDisjointHalves) {
  // "ab*ba" must not match "aba": the head and tail may not overlap.
  CompiledGlob g("ab*ba");
  EXPECT_FALSE(g.Matches("aba"));
  EXPECT_TRUE(g.Matches("abba"));
  EXPECT_TRUE(g.Matches("abxba"));
  EXPECT_EQ(g.Matches("aba"), GlobMatch("ab*ba", "aba"));
}

TEST(CompiledGlob, LiteralDetection) {
  EXPECT_TRUE(CompiledGlob("/dev/sdb1").is_literal());
  EXPECT_FALSE(CompiledGlob("/dev/sd*").is_literal());
  EXPECT_FALSE(CompiledGlob("/dev/sd?").is_literal());
}

// --- Differential oracle: every index against a table scan ------------------
//
// The reference is the linear scan over the raw tables that the indices
// replace: the semantics the hooks must keep. Each test builds seeded
// random tables over a tiny alphabet, so exact hits, glob hits, shared
// ports and overlapping subjects are all common, and compares the index's
// answer with the scan's on every query.

constexpr int kOracleSeeds = 64;

uint64_t Next(uint64_t* s) {
  uint64_t z = (*s += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

template <typename T, size_t N>
const T& Pick(uint64_t* s, const T (&items)[N]) {
  return items[Next(s) % N];
}

// A concrete path over a tiny alphabet: "/a", "/ab/b", "/b/a/x", ...
std::string Word(uint64_t* s) {
  static const char* kParts[] = {"a", "b", "ab", "x"};
  std::string out;
  size_t parts = 1 + Next(s) % 3;
  for (size_t i = 0; i < parts; ++i) {
    out += "/";
    out += Pick(s, kParts);
  }
  return out;
}

// `text`, or a glob derived from it: a '*' replacing a span, a '?'
// replacing one character, or a bare "*".
std::string MaybeGlob(uint64_t* s, std::string text) {
  switch (Next(s) % 6) {
    case 0: {
      size_t at = Next(s) % (text.size() + 1);
      size_t len = Next(s) % (text.size() - at + 1);
      return text.replace(at, len, "*");
    }
    case 1:
      if (!text.empty()) {
        text[Next(s) % text.size()] = '?';
      }
      return text;
    case 2:
      return "*";
    default:
      return text;
  }
}

// A text the pattern is likely to match: each '*' becomes a random part and
// each '?' a random character.
std::string Instantiate(uint64_t* s, const std::string& pattern) {
  static const char* kFill[] = {"", "a", "b/x", "/ab"};
  std::string out;
  for (char c : pattern) {
    if (c == '*') {
      out += Pick(s, kFill);
    } else if (c == '?') {
      out += "abx/"[Next(s) % 4];
    } else {
      out += c;
    }
  }
  return out;
}

// --- Bind (§4.1.3) ---

// Scan: every allocation of `port`, in table order.
std::vector<BindConfEntry> ScanBind(const std::vector<BindConfEntry>& table, uint16_t port) {
  std::vector<BindConfEntry> out;
  for (const BindConfEntry& entry : table) {
    if (entry.port == port) {
      out.push_back(entry);
    }
  }
  return out;
}

TEST(PolicyEngineOracle, BindIndexFindMatchesScan) {
  static const char* kBinaries[] = {"/bin/a", "/bin/b", "/bin/c"};
  for (uint64_t seed = 1; seed <= kOracleSeeds; ++seed) {
    SCOPED_TRACE(seed);
    uint64_t s = seed;
    std::vector<BindConfEntry> table(Next(&s) % 12);
    for (BindConfEntry& entry : table) {
      entry.port = static_cast<uint16_t>(1 + Next(&s) % 6);  // ports repeat
      entry.binary = Pick(&s, kBinaries);
      entry.uid = static_cast<Uid>(Next(&s) % 3);
    }
    BindIndex index;
    index.Build(table);
    for (uint16_t port = 0; port <= 7; ++port) {
      std::vector<BindConfEntry> want = ScanBind(table, port);
      const std::vector<BindConfEntry>* got = index.Find(port);
      ASSERT_EQ(got == nullptr, want.empty()) << "port " << port;
      if (got == nullptr) {
        continue;
      }
      ASSERT_EQ(got->size(), want.size()) << "port " << port;
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ((*got)[i].ToString(), want[i].ToString()) << "port " << port;
      }
    }
  }
}

// --- Mount (§4.2) ---

std::vector<FstabEntry> RandomFstab(uint64_t* s) {
  static const char* kTypes[] = {"ext4", "vfat", "iso9660"};
  static const char* kOptions[] = {"user", "users", "ro", "rw", "noauto"};
  std::vector<FstabEntry> table(Next(s) % 10);
  for (FstabEntry& entry : table) {
    entry.device = MaybeGlob(s, "/dev" + Word(s));
    entry.mountpoint = MaybeGlob(s, Word(s));
    entry.fstype = MaybeGlob(s, Pick(s, kTypes));
    for (const char* opt : kOptions) {
      if (Next(s) % 3 == 0) {
        entry.options.push_back(opt);
      }
    }
  }
  return table;
}

// Entries are compared as a multiset: the index visits exact rules before
// glob rules, and the hooks grant on ANY matching rule, so only the set of
// matches is part of the contract.
std::vector<std::string> Sorted(std::vector<std::string> v) {
  std::sort(v.begin(), v.end());
  return v;
}

std::vector<std::string> ScanMount(const std::vector<FstabEntry>& table, const std::string& dev,
                                   const std::string& mp, const std::string& fstype) {
  std::vector<std::string> out;
  for (const FstabEntry& entry : table) {
    if (entry.UserMountable() && GlobMatch(entry.device, dev) &&
        GlobMatch(entry.mountpoint, mp) && GlobMatch(entry.fstype, fstype)) {
      out.push_back(entry.ToString());
    }
  }
  return Sorted(out);
}

std::vector<std::string> ScanMountpoint(const std::vector<FstabEntry>& table,
                                        const std::string& mp) {
  std::vector<std::string> out;
  for (const FstabEntry& entry : table) {
    if (entry.UserMountable() && GlobMatch(entry.mountpoint, mp)) {
      out.push_back(entry.ToString());
    }
  }
  return Sorted(out);
}

TEST(PolicyEngineOracle, MountIndexMatchesScan) {
  static const char* kTypes[] = {"ext4", "vfat", "iso9660", "fuse"};
  for (uint64_t seed = 1; seed <= kOracleSeeds; ++seed) {
    SCOPED_TRACE(seed);
    uint64_t s = seed;
    std::vector<FstabEntry> table = RandomFstab(&s);
    MountIndex index;
    index.Build(table);
    for (int q = 0; q < 40; ++q) {
      std::string dev = "/dev" + Word(&s);
      std::string mp = Word(&s);
      std::string fstype = Pick(&s, kTypes);
      if (!table.empty() && Next(&s) % 2 == 0) {
        // Aim at a rule: instantiate its (possibly glob) fields.
        const FstabEntry& target = table[Next(&s) % table.size()];
        dev = Instantiate(&s, target.device);
        mp = Instantiate(&s, target.mountpoint);
        fstype = Instantiate(&s, target.fstype);
      }
      std::vector<std::string> got;
      index.ForEachMatch(dev, mp, fstype, [&](const CompiledFstabRule& rule) {
        got.push_back(rule.entry.ToString());
        return false;  // visit every match
      });
      EXPECT_EQ(Sorted(got), ScanMount(table, dev, mp, fstype))
          << dev << " " << mp << " " << fstype;

      std::vector<std::string> got_mp;
      index.ForEachMountpointMatch(mp, [&](const CompiledFstabRule& rule) {
        got_mp.push_back(rule.entry.ToString());
        return false;
      });
      EXPECT_EQ(Sorted(got_mp), ScanMountpoint(table, mp)) << mp;
    }
  }
}

// --- File delegations and reauth reads (§4.4/§4.6) ---

bool ScanDelegated(const SudoersPolicy& policy, const std::string& binary,
                   const std::string& path, int may) {
  for (const FileDelegation& d : policy.file_delegations) {
    if (d.binary == binary && GlobMatch(d.path_glob, path) && (may & ~d.allow_may) == 0) {
      return true;
    }
  }
  return false;
}

bool ScanReauthGated(const SudoersPolicy& policy, const std::string& path) {
  for (const std::string& glob : policy.reauth_read_globs) {
    if (GlobMatch(glob, path)) {
      return true;
    }
  }
  return false;
}

bool IndexDelegated(const FileRuleIndex& index, const std::string& binary,
                    const std::string& path, int may) {
  const std::vector<CompiledDelegation>* delegations = index.FindDelegations(binary);
  if (delegations == nullptr) {
    return false;
  }
  for (const CompiledDelegation& d : *delegations) {
    if (d.path.Matches(path) && (may & ~d.allow_may) == 0) {
      return true;
    }
  }
  return false;
}

TEST(PolicyEngineOracle, FileRuleIndexMatchesScan) {
  static const char* kBinaries[] = {"/bin/a", "/bin/b", "/bin/c", "/bin/none"};
  static const int kMays[] = {kMayRead, kMayWrite, kMayRead | kMayWrite};
  for (uint64_t seed = 1; seed <= kOracleSeeds; ++seed) {
    SCOPED_TRACE(seed);
    uint64_t s = seed;
    SudoersPolicy policy;
    policy.file_delegations.resize(Next(&s) % 8);
    for (FileDelegation& d : policy.file_delegations) {
      d.binary = kBinaries[Next(&s) % 3];
      d.path_glob = MaybeGlob(&s, Word(&s));
      d.allow_may = Pick(&s, kMays);
    }
    policy.reauth_read_globs.resize(Next(&s) % 4);
    for (std::string& glob : policy.reauth_read_globs) {
      glob = MaybeGlob(&s, Word(&s));
    }
    FileRuleIndex index;
    index.Build(policy);
    EXPECT_EQ(index.has_reauth_rules(), !policy.reauth_read_globs.empty());
    for (int q = 0; q < 40; ++q) {
      std::string binary = Pick(&s, kBinaries);
      std::string path = Word(&s);
      if (!policy.file_delegations.empty() && Next(&s) % 2 == 0) {
        path = Instantiate(&s, policy.file_delegations[Next(&s) % policy.file_delegations.size()]
                                   .path_glob);
      } else if (!policy.reauth_read_globs.empty() && Next(&s) % 2 == 0) {
        path = Instantiate(
            &s, policy.reauth_read_globs[Next(&s) % policy.reauth_read_globs.size()]);
      }
      int may = Pick(&s, kMays);
      EXPECT_EQ(IndexDelegated(index, binary, path, may),
                ScanDelegated(policy, binary, path, may))
          << binary << " " << path << " may=" << may;
      EXPECT_EQ(index.ReauthGated(path), ScanReauthGated(policy, path)) << path;
    }
  }
}

// --- Sudoers delegation (§4.3) ---

// Scan: does rule's subject (exact name, %group membership, ALL) cover
// `user`?
bool ScanSubjectMatches(const UserDb& db, const SudoRule& rule, const std::string& user) {
  if (rule.user == "ALL" || rule.user == user) {
    return true;
  }
  if (!rule.user.empty() && rule.user[0] == '%') {
    const GroupEntry* group = db.FindGroup(rule.user.substr(1));
    if (group != nullptr) {
      return std::find(group->members.begin(), group->members.end(), user) !=
             group->members.end();
    }
  }
  return false;
}

TEST(PolicyEngineOracle, SudoersIndexMatchesScan) {
  static const char* kUsers[] = {"u0", "u1", "u2", "u3", "nobody"};
  static const char* kSubjects[] = {"u0", "u1", "u2", "%g0", "%g1", "%g2", "%nogroup", "ALL"};
  for (uint64_t seed = 1; seed <= kOracleSeeds; ++seed) {
    SCOPED_TRACE(seed);
    uint64_t s = seed;
    std::vector<PasswdEntry> users;
    for (int i = 0; i < 4; ++i) {
      users.push_back(PasswdEntry{kUsers[i], static_cast<Uid>(1000 + i), 100, "", "/", "/bin/sh"});
    }
    std::vector<GroupEntry> groups;
    for (int g = 0; g < 3; ++g) {
      GroupEntry group{"g" + std::to_string(g), static_cast<Gid>(200 + g), "", {}};
      for (const char* user : kUsers) {
        if (Next(&s) % 3 == 0) {
          group.members.push_back(user);  // "nobody" may be a member too
        }
      }
      groups.push_back(group);
    }
    UserDb db(users, {}, groups);

    SudoersPolicy policy;
    policy.rules.resize(Next(&s) % 10);
    for (SudoRule& rule : policy.rules) {
      rule.user = Pick(&s, kSubjects);
      rule.runas = {"ALL"};
      size_t commands = 1 + Next(&s) % 3;
      for (size_t c = 0; c < commands; ++c) {
        rule.commands.push_back(Next(&s) % 8 == 0 ? "ALL" : MaybeGlob(&s, Word(&s)));
      }
    }
    SudoersIndex index;
    index.Build(policy, db);

    for (const char* user : kUsers) {
      std::vector<size_t> want;
      for (size_t i = 0; i < policy.rules.size(); ++i) {
        if (ScanSubjectMatches(db, policy.rules[i], user)) {
          want.push_back(i);
        }
      }
      EXPECT_EQ(index.RulesForUser(user), want) << user;
    }
    for (size_t i = 0; i < policy.rules.size(); ++i) {
      for (int q = 0; q < 12; ++q) {
        std::string command = Word(&s);
        const std::vector<std::string>& specs = policy.rules[i].commands;
        if (Next(&s) % 2 == 0) {
          command = Instantiate(&s, specs[Next(&s) % specs.size()]);
        }
        if (Next(&s) % 3 == 0) {
          command += " " + Word(&s);  // "command arg..."
        }
        EXPECT_EQ(index.CommandMatches(i, command), policy.rules[i].CommandMatches(command))
            << policy.rules[i].ToString() << " vs '" << command << "'";
      }
    }
  }
}

// --- End to end, through a booted system -------------------------------------

class PolicyEngineTest : public ::testing::Test {
 protected:
  PolicyEngineTest() : sys_(SimMode::kProtego) {}

  SimSystem sys_;
};

TEST_F(PolicyEngineTest, DefaultPolicyVerdictsEndToEnd) {
  // A mixed workload over every indexed table of the shipped policy, with
  // fixed expected verdicts.
  Kernel& k = sys_.kernel();

  // Bind table.
  Task& exim = sys_.Login("exim");
  exim.exe_path = "/usr/sbin/eximd";
  auto fd = k.SocketCall(exim, kAfInet, kSockStream, 0);
  EXPECT_TRUE(k.BindCall(exim, fd.value(), 25).ok());
  Task& alice = sys_.Login("alice");
  auto fd2 = k.SocketCall(alice, kAfInet, kSockStream, 0);
  EXPECT_EQ(k.BindCall(alice, fd2.value(), 80).code(), Errno::kEACCES);
  EXPECT_EQ(k.BindCall(alice, fd2.value(), 443).code(), Errno::kEACCES);

  // Mount whitelist, literal and glob rules.
  EXPECT_TRUE(k.Mount(alice, "/dev/cdrom", "/media/cdrom", "iso9660", {"ro"}).ok());
  EXPECT_EQ(k.Mount(alice, "/dev/cdrom", "/media/usb", "iso9660", {"ro"}).code(),
            Errno::kEPERM);
  ASSERT_TRUE(k.Mkdir(alice, "/home/alice/mnt", 0755).ok());
  EXPECT_TRUE(k.Mount(alice, "fuse", "/home/alice/mnt", "fuse", {"rw", "user"}).ok());
  Task& bob = sys_.Login("bob");
  EXPECT_EQ(k.Umount(bob, "/media/cdrom").code(), Errno::kEPERM);
  EXPECT_TRUE(k.Umount(alice, "/media/cdrom").ok());

  // File delegation + reauth gate.
  EXPECT_EQ(k.ReadWholeFile(alice, "/etc/ssh/ssh_host_key").code(), Errno::kEACCES);
  auto out = sys_.RunCapture(alice, "/usr/lib/ssh-keysign", {"ssh-keysign", "x"});
  EXPECT_EQ(out.exit_code, 0);
  EXPECT_EQ(k.ReadWholeFile(alice, "/etc/shadows/alice").code(), Errno::kEACCES);
  Task& alice2 = sys_.Login("alice");
  alice2.terminal->QueueInput("alicepw");
  EXPECT_TRUE(k.ReadWholeFile(alice2, "/etc/shadows/alice").ok());

  // Sudoers: alice is %admin, www-data has nothing.
  Task& alice3 = sys_.Login("alice");
  alice3.terminal->QueueInput("alicepw");
  EXPECT_TRUE(k.Setuid(alice3, 0).ok());
  Task& www = sys_.Login("www-data");
  EXPECT_EQ(k.Setuid(www, 1001).code(), Errno::kEPERM);
}

// --- Policy swaps and credential changes --------------------------------------

TEST_F(PolicyEngineTest, PolicySwapTakesEffectOnTheNextCall) {
  Kernel& k = sys_.kernel();
  LsmStack& lsm = k.lsm();
  Task& root = sys_.Login("root");
  Task& web = sys_.Login("root");
  web.exe_path = "/usr/sbin/nginx";

  ASSERT_TRUE(k.WriteWholeFile(root, "/proc/protego/ports",
                               "80 /usr/sbin/nginx 0\n")
                  .ok());
  // An allowed bind, twice (bind + close), before the swap.
  for (int i = 0; i < 2; ++i) {
    auto fd = k.SocketCall(web, kAfInet, kSockStream, 0);
    ASSERT_TRUE(k.BindCall(web, fd.value(), 80).ok());
    ASSERT_TRUE(k.Close(web, fd.value()).ok());
  }

  // Swap the table so port 80 belongs to someone else. The very next call
  // must see the new policy, and the metrics file reports the bumped
  // generation.
  uint64_t generation = lsm.policy_generation();
  ASSERT_TRUE(k.WriteWholeFile(root, "/proc/protego/ports",
                               "80 /usr/sbin/httpd 33\n")
                  .ok());
  EXPECT_GT(lsm.policy_generation(), generation);
  std::string metrics = k.ReadWholeFile(root, "/proc/protego/metrics").value();
  EXPECT_NE(metrics.find(StrFormat("protego_policy_generation %llu\n",
                                   (unsigned long long)lsm.policy_generation())),
            std::string::npos)
      << metrics;
  auto fd = k.SocketCall(web, kAfInet, kSockStream, 0);
  EXPECT_EQ(k.BindCall(web, fd.value(), 80).code(), Errno::kEACCES);

  // And back: the deny verdict does not stick either.
  ASSERT_TRUE(k.WriteWholeFile(root, "/proc/protego/ports",
                               "80 /usr/sbin/nginx 0\n")
                  .ok());
  auto fd2 = k.SocketCall(web, kAfInet, kSockStream, 0);
  EXPECT_TRUE(k.BindCall(web, fd2.value(), 80).ok());
}

TEST_F(PolicyEngineTest, MountRuleSwapFlipsAllowToDeny) {
  Kernel& k = sys_.kernel();
  Task& root = sys_.Login("root");
  Task& alice = sys_.Login("alice");

  // An allowed mount, twice (mount + umount so it can repeat).
  ASSERT_TRUE(k.Mount(alice, "/dev/cdrom", "/media/cdrom", "iso9660", {"ro"}).ok());
  ASSERT_TRUE(k.Umount(alice, "/media/cdrom").ok());
  ASSERT_TRUE(k.Mount(alice, "/dev/cdrom", "/media/cdrom", "iso9660", {"ro"}).ok());
  ASSERT_TRUE(k.Umount(alice, "/media/cdrom").ok());

  // Drop the cdrom rule; the earlier allow must not survive the swap.
  ASSERT_TRUE(k.WriteWholeFile(root, "/proc/protego/mounts",
                               "/dev/sdb1 /media/usb vfat rw,users 0 0\n")
                  .ok());
  EXPECT_EQ(k.Mount(alice, "/dev/cdrom", "/media/cdrom", "iso9660", {"ro"}).code(),
            Errno::kEPERM);
}

TEST_F(PolicyEngineTest, CredentialChangesReevaluateTheVerdict) {
  Kernel& k = sys_.kernel();

  // An inode-permission verdict reached under alice's credentials must not
  // outlive them: after setuid the same request is decided afresh.
  Task& alice = sys_.Login("alice");
  alice.terminal->QueueInput("alicepw");
  ASSERT_TRUE(k.ReadWholeFile(alice, "/etc/shadows/alice").ok());

  ASSERT_TRUE(k.Setuid(alice, 0).ok());  // %admin, freshly authenticated
  ASSERT_EQ(alice.cred.euid, 0u);
  // Same path, new creds. The reauth gate now challenges for ruid 0 —
  // root's password is not on the terminal, so the read that succeeded a
  // moment ago is DENIED under the new credentials.
  EXPECT_EQ(k.ReadWholeFile(alice, "/etc/shadows/alice").code(), Errno::kEACCES);

  // A spawned child runs under its own image's delegations.
  auto out = sys_.RunCapture(alice, "/usr/lib/ssh-keysign", {"ssh-keysign", "x"});
  EXPECT_EQ(out.exit_code, 0);
}

}  // namespace
}  // namespace protego
