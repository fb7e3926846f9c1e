// Directories as copy-on-write hash tries (src/vfs/dir_tree.h): the trie
// against a std::map reference, its structural invariants, the same through
// the Vfs (create, unlink, renames, lookup and listing), and the cost of a
// create that must not grow with the directory.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/base/hash.h"
#include "src/vfs/dir_tree.h"
#include "src/vfs/vfs.h"
#include "tests/alloc_tally.h"

namespace protego {
namespace {

// A random name of 1 to 30 characters.
std::string RandomName(uint64_t& rng) {
  std::string name(1 + SplitMix64(rng) % 30, 'a');
  for (char& c : name) {
    c = static_cast<char>('a' + SplitMix64(rng) % 26);
  }
  return name;
}

// A trie edited through DirEdit, checked against a std::map. `hash` is the
// routing hash: Fnv1a, or a weak one whose repeats force buckets.
class TreeModel {
 public:
  explicit TreeModel(uint64_t (*hash)(std::string_view)) : hash_(hash) {}
  ~TreeModel() { DirFree(root_); }

  void Insert(const std::string& name) {
    const std::string* stored = &names_.emplace_back(name);
    Vnode* node = Fake(++next_);
    Edit([&](DirEdit& edit) { edit.Insert({hash_(name), stored, node}); });
    ref_[name] = node;
  }
  // By value: `name` may be a key of ref_, which the erase frees.
  void Erase(std::string name) {
    bool erased = false;
    Edit([&](DirEdit& edit) { erased = edit.Erase(hash_(name), name); });
    EXPECT_EQ(erased, ref_.erase(name) == 1) << name;
  }
  // Unlinks `from` and links `to` (replacing any entry so named) in one edit.
  void Rename(std::string from, std::string to) {
    Vnode* node = ref_.at(from);
    const std::string* stored = &names_.emplace_back(to);
    Edit([&](DirEdit& edit) {
      EXPECT_TRUE(edit.Erase(hash_(from), from));
      edit.Insert({hash_(to), stored, node});
    });
    ref_.erase(from);
    ref_[to] = node;
  }
  void ExpectFinds(const std::string& name) const {
    const DirEntry* entry = DirFind(root_, hash_(name), name);
    auto it = ref_.find(name);
    if (it == ref_.end()) {
      EXPECT_EQ(entry, nullptr) << name;
    } else {
      ASSERT_NE(entry, nullptr) << name;
      EXPECT_EQ(entry->node, it->second) << name;
    }
  }
  // The listing matches the reference, and the trie's shape holds.
  void ExpectMatches() const {
    std::map<std::string, Vnode*> listed;
    DirForEach(root_, [&](const DirEntry& e) {
      EXPECT_EQ(e.hash, hash_(*e.name));
      EXPECT_TRUE(listed.emplace(*e.name, e.node).second) << *e.name;
    });
    EXPECT_EQ(listed, ref_);
    if (root_ != nullptr) {
      CheckShape(root_, 0, 0, /*is_root=*/true);
    }
  }
  const std::map<std::string, Vnode*>& ref() const { return ref_; }

 private:
  static Vnode* Fake(uintptr_t id) { return reinterpret_cast<Vnode*>(id << 4); }

  template <typename Change>
  void Edit(Change&& change) {
    DirEdit edit(root_);
    change(edit);
    root_ = edit.root();
    edit.Release([](const DirNode* node) { delete node; });
  }

  // Every entry sits under the slots its hash spells (`prefix` is the
  // hash bits below `shift`), the maps match the slots, no node but the
  // root holds a lone entry, and a bucket holds two entries or more.
  void CheckShape(const DirNode* node, uint32_t shift, uint64_t prefix, bool is_root) const {
    const uint32_t n_entries = node->entry_count();
    const uint32_t n_children = node->child_count();
    EXPECT_GT(n_entries + n_children, 0u);
    if (!is_root) {
      EXPECT_FALSE(n_entries == 1 && n_children == 0);
    }
    const uint64_t spelled = shift >= 64 ? ~uint64_t{0} : (uint64_t{1} << shift) - 1;
    for (uint32_t i = 0; i < n_entries; ++i) {
      EXPECT_EQ(node->entries()[i].hash & spelled, prefix);
    }
    if (shift >= 64) {
      EXPECT_EQ(node->entry_map() | node->child_map(), 0u);
      EXPECT_EQ(n_children, 0u);
      EXPECT_GE(n_entries, 2u);
      return;
    }
    EXPECT_EQ(node->entry_map() & node->child_map(), 0u);
    EXPECT_EQ(static_cast<uint32_t>(std::popcount(node->entry_map())), n_entries);
    EXPECT_EQ(static_cast<uint32_t>(std::popcount(node->child_map())), n_children);
    uint32_t entry = 0;
    uint32_t child = 0;
    for (uint32_t slot = 0; slot < DirNode::kSlots; ++slot) {
      if ((node->entry_map() >> slot & 1) != 0) {
        EXPECT_EQ(node->entries()[entry++].hash >> shift & (DirNode::kSlots - 1), slot);
      } else if ((node->child_map() >> slot & 1) != 0) {
        CheckShape(node->children()[child++], shift + DirNode::kBits,
                   prefix | uint64_t{slot} << shift, false);
      }
    }
  }

  uint64_t (*hash_)(std::string_view);
  const DirNode* root_ = nullptr;
  std::deque<std::string> names_;  // every name object an entry pointed at
  std::map<std::string, Vnode*> ref_;
  uintptr_t next_ = 0;
};

uint64_t FullHash(std::string_view name) { return Fnv1a(name); }
uint64_t WeakHash(std::string_view name) { return Fnv1a(name) % 7; }

// Seeded random inserts, erases, renames and lookups at sizes from 0 to
// 20,000, checked against the reference after each batch.
void RunTreeDifferential(uint64_t (*hash)(std::string_view), uint64_t seed, int max_size) {
  uint64_t rng = seed;
  TreeModel tree(hash);
  tree.ExpectMatches();
  for (int target : {0, 1, 31, 32, 33, 200, 1000, max_size, 40, 0}) {
    // Grow or shrink to the target, then churn around it.
    while (static_cast<int>(tree.ref().size()) < target) {
      tree.Insert(RandomName(rng));
    }
    while (static_cast<int>(tree.ref().size()) > target) {
      auto it = tree.ref().begin();
      std::advance(it, SplitMix64(rng) % std::min<size_t>(tree.ref().size(), 64));
      tree.Erase(it->first);
    }
    tree.ExpectMatches();
    for (int op = 0; op < 600; ++op) {
      const std::string fresh = RandomName(rng);
      const uint64_t pick = SplitMix64(rng) % 5;
      if (tree.ref().empty() || pick == 0) {
        tree.Insert(fresh);
        continue;
      }
      auto it = tree.ref().begin();
      std::advance(it, SplitMix64(rng) % std::min<size_t>(tree.ref().size(), 64));
      const std::string existing = it->first;
      switch (pick) {
        case 1: tree.Erase(existing); break;
        case 2: tree.Rename(existing, fresh); break;
        case 3: tree.Rename(existing, tree.ref().rbegin()->first); break;  // over an entry
        default:
          tree.ExpectFinds(existing);
          tree.ExpectFinds(fresh);
          tree.Erase(fresh);  // usually absent: a miss changes nothing
          break;
      }
    }
    tree.ExpectMatches();
  }
}

TEST(DirTree, MatchesAMapReference) { RunTreeDifferential(FullHash, 11, 20000); }

TEST(DirTree, RepeatedHashesShareABucket) { RunTreeDifferential(WeakHash, 12, 2000); }

// The same through the Vfs: two directories, creates, unlinks, renames
// within and across them (over existing names too), lookups and listings,
// seeded, at sizes up to 20,000.
TEST(VfsDirectory, MatchesAMapReferenceThroughTheVfs) {
  Vfs vfs;
  ASSERT_TRUE(vfs.EnsureDirs("/d0").ok());
  ASSERT_TRUE(vfs.EnsureDirs("/d1").ok());
  std::map<std::string, Vnode*> ref[2];
  uint64_t rng = 21;
  auto path = [](int d, const std::string& name) { return "/d" + std::to_string(d) + "/" + name; };
  auto create = [&](int d, const std::string& name) {
    auto node = vfs.CreateFile(path(d, name), 0644, 0, 0);
    EXPECT_EQ(node.ok(), ref[d].count(name) == 0) << name;
    if (node.ok()) {
      ref[d][name] = node.value();
    }
  };
  auto pick = [&](int d) {
    auto it = ref[d].begin();
    std::advance(it, SplitMix64(rng) % std::min<size_t>(ref[d].size(), 64));
    return it->first;
  };
  auto check = [&](int d) {
    auto listed = vfs.ListDir(vfs.Resolve("/d" + std::to_string(d)).value());
    ASSERT_TRUE(listed.ok());
    std::vector<std::string> names;
    for (const auto& [name, node] : ref[d]) {
      names.push_back(name);
      WalkResult w = vfs.Walk("/", path(d, name), false);
      ASSERT_EQ(w.err, Errno::kOk) << name;
      EXPECT_EQ(w.node, node);
      EXPECT_EQ(vfs.PathOf(node), path(d, name));
    }
    EXPECT_EQ(listed.value(), names);  // getdents order: sorted by name
  };
  for (int target : {0, 40, 20000, 300}) {
    while (static_cast<int>(ref[0].size()) < target) {
      create(0, RandomName(rng));
    }
    while (static_cast<int>(ref[0].size()) > target) {
      const std::string name = pick(0);
      ASSERT_TRUE(vfs.Unlink(path(0, name)).ok());
      ref[0].erase(name);
    }
    for (int op = 0; op < 1500; ++op) {
      const int d = static_cast<int>(SplitMix64(rng) % 2);
      const std::string fresh = RandomName(rng);
      const uint64_t what = SplitMix64(rng) % 5;
      if (ref[d].empty() || what == 0) {
        create(d, fresh);
        continue;
      }
      const std::string name = pick(d);
      Vnode* node = ref[d][name];
      if (what == 1) {
        ASSERT_TRUE(vfs.Unlink(path(d, name)).ok());
        ref[d].erase(name);
      } else {
        // Within the directory or across, to a new name or over one.
        const int to = what == 2 ? d : 1 - d;
        const std::string target_name =
            SplitMix64(rng) % 2 == 0 || ref[to].empty() ? fresh : pick(to);
        ASSERT_TRUE(vfs.Rename(path(d, name), path(to, target_name)).ok());
        ref[d].erase(name);
        ref[to][target_name] = node;
      }
      EXPECT_EQ(vfs.Walk("/", path(d, fresh), false).node,
                ref[d].count(fresh) ? ref[d][fresh] : nullptr);
    }
    check(0);
    check(1);
  }
}

// The heap allocations and bytes of one create+unlink pair in a directory
// holding `entries` files with maildir-style names.
struct PairCost {
  double allocs;
  double bytes;
};
PairCost CreateUnlinkCost(int entries) {
  constexpr int kPairs = 64;
  Vfs vfs;
  EXPECT_TRUE(vfs.EnsureDirs("/spool").ok());
  char name[64];
  for (int i = 0; i < entries; ++i) {
    std::snprintf(name, sizeof(name), "/spool/1700000000.M%06dP4242.mailhost", i);
    EXPECT_TRUE(vfs.CreateFile(name, 0600, 0, 0).ok());
  }
  StartAllocTally();
  for (int i = 0; i < kPairs; ++i) {
    std::snprintf(name, sizeof(name), "/spool/1700000001.M%06dP4242.mailhost", i);
    EXPECT_TRUE(vfs.CreateFile(name, 0600, 0, 0).ok());
    EXPECT_TRUE(vfs.Unlink(name).ok());
  }
  const AllocTally tally = StopAllocTally();
  return {static_cast<double>(tally.allocs) / kPairs, static_cast<double>(tally.bytes) / kPairs};
}

// A create copies one root-to-slot path, never the listing: its
// allocations and bytes do not grow with the directory. From 10 to 10,000
// entries a path through the trie gains at most three levels, so a create
// and an unlink each copy at most three more nodes (of at most kSlots
// slots). Copying the whole listing allocates every name longer than the
// short-string buffer again, and copies every entry.
TEST(VfsDirectory, CreateCostDoesNotGrowWithDirectorySize) {
  const PairCost small = CreateUnlinkCost(10);
  const PairCost large = CreateUnlinkCost(10000);
  EXPECT_LE(large.allocs, small.allocs + 6) << small.allocs;
  EXPECT_LE(large.bytes,
            small.bytes + 6 * (sizeof(DirNode) + DirNode::kSlots * sizeof(DirEntry)))
      << small.bytes;
}

}  // namespace
}  // namespace protego
