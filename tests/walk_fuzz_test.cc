// Seeded differential fuzz of the VFS path walk. Each seed builds a random
// tree — directories, files, absolute and relative symlinks (loops and
// dangling ones included) and mounts — mirrored in a small model, then walks
// random paths (".." and ".", doubled and trailing slashes, relative ones
// from a random cwd) both through Vfs::Walk and through a textbook
// recursive walker over the model that follows path_resolution(7). They
// must agree on the errno, the vnode and the canonical path; the canonical
// path must be Vfs::PathOf of the vnode; and a seccomp path class must be
// decided on that canonical path, never on the string.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "src/kernel/kernel.h"
#include "src/lsm/capability_module.h"

namespace protego {
namespace {

// One node of the model tree, mirroring one vnode.
struct MNode {
  enum class Kind { kDir, kFile, kLink };
  Kind kind = Kind::kDir;
  std::string name;
  std::string target;  // kLink
  std::map<std::string, std::unique_ptr<MNode>> children;
  MNode* parent = nullptr;   // null for a filesystem root
  MNode* mounted = nullptr;  // root of the filesystem mounted over this directory
  MNode* covers = nullptr;   // for a mounted root: the directory it covers
  const Vnode* vnode = nullptr;
};

// What the reference walk found: the object, or where it failed.
struct RefResult {
  Errno err = Errno::kOk;
  MNode* node = nullptr;
  MNode* dir = nullptr;  // ENOENT: the directory the missing name was looked up in
  std::string name;
  bool last = false;
};

class Model {
 public:
  explicit Model(const Vnode* root_vnode) {
    root_.vnode = root_vnode;
  }

  MNode* root() { return &root_; }

  static MNode* Top(MNode* n) {
    while (n->mounted != nullptr) {
      n = n->mounted;
    }
    return n;
  }

  static MNode* Up(MNode* n) {
    MNode* u = n;
    while (u->covers != nullptr) {
      u = u->covers;
    }
    return u->parent == nullptr ? n : Top(u->parent);
  }

  static std::string PathOf(const MNode* n) {
    std::vector<std::string> names;
    while (true) {
      if (n->covers != nullptr) {
        n = n->covers;
      } else if (n->parent != nullptr) {
        names.push_back(n->name);
        n = n->parent;
      } else {
        break;
      }
    }
    std::string out;
    for (auto it = names.rbegin(); it != names.rend(); ++it) {
      out += "/" + *it;
    }
    return out.empty() ? "/" : out;
  }

  // path_resolution(7), recursively: a followed symlink's target is itself
  // walked (from the directory holding the link), sharing one budget of
  // Vfs::kMaxSymlinkDepth links per lookup.
  RefResult Walk(MNode* start, const std::string& path, bool follow, bool outer_last,
                 int* links) {
    RefResult r;
    std::vector<std::string> comps;
    size_t pos = 0;
    while (pos < path.size()) {
      size_t end = path.find('/', pos);
      if (end == std::string::npos) {
        end = path.size();
      }
      if (end > pos) {
        comps.push_back(path.substr(pos, end - pos));
      }
      pos = end + 1;
    }
    const bool trailing = !comps.empty() && path.back() == '/';
    MNode* cur = !path.empty() && path[0] == '/' ? Top(&root_) : start;
    for (size_t i = 0; i < comps.size(); ++i) {
      const std::string& c = comps[i];
      const bool last = i + 1 == comps.size() && outer_last;
      if (cur->kind != MNode::Kind::kDir) {
        r.err = Errno::kENOTDIR;
        return r;
      }
      if (c == ".") {
        continue;
      }
      if (c == "..") {
        cur = Up(cur);
        continue;
      }
      auto it = cur->children.find(c);
      if (it == cur->children.end()) {
        r.err = Errno::kENOENT;
        r.dir = cur;
        r.name = c;
        r.last = last;
        return r;
      }
      MNode* child = Top(it->second.get());
      if (child->kind == MNode::Kind::kLink &&
          (i + 1 < comps.size() || follow || trailing)) {
        if (++*links > Vfs::kMaxSymlinkDepth) {
          r.err = Errno::kELOOP;
          return r;
        }
        RefResult t = Walk(cur, child->target, /*follow=*/true, /*outer_last=*/last, links);
        if (t.err != Errno::kOk) {
          return t;
        }
        child = t.node;
      }
      cur = child;
    }
    if (trailing && cur->kind != MNode::Kind::kDir) {
      r.err = Errno::kENOTDIR;
      return r;
    }
    r.node = cur;
    return r;
  }

 private:
  MNode root_;
};

class TreeBuilder {
 public:
  TreeBuilder(Vfs& vfs, Model& model, uint64_t seed)
      : vfs_(vfs), model_(model), rng_(seed) {}

  size_t Pick(size_t n) { return std::uniform_int_distribution<size_t>(0, n - 1)(rng_); }
  bool Chance(int percent) { return static_cast<int>(Pick(100)) < percent; }
  std::string Name() { return kNames[Pick(kNames.size())]; }

  // Every node of the model that a walk can reach (mounted-over subtrees
  // are hidden and skipped).
  void Visible(MNode* n, std::vector<MNode*>* out) {
    n = Model::Top(n);
    out->push_back(n);
    for (auto& [name, child] : n->children) {
      Visible(child.get(), out);
    }
  }
  std::vector<MNode*> VisibleDirs() {
    std::vector<MNode*> all;
    Visible(model_.root(), &all);
    std::vector<MNode*> dirs;
    for (MNode* n : all) {
      if (n->kind == MNode::Kind::kDir) {
        dirs.push_back(n);
      }
    }
    return dirs;
  }

  void Build() {
    for (int i = 0; i < 40; ++i) {
      std::vector<MNode*> dirs = VisibleDirs();
      MNode* dir = dirs[Pick(dirs.size())];
      std::string name = Name();
      if (dir->children.count(name) != 0) {
        continue;
      }
      std::string path = Join(Model::PathOf(dir), name);
      auto node = std::make_unique<MNode>();
      node->name = name;
      node->parent = dir;
      int kind = static_cast<int>(Pick(10));
      Result<Vnode*> made = Errno::kEINVAL;
      if (kind < 4) {
        made = vfs_.CreateDir(path, 0755, 0, 0);
      } else if (kind < 6) {
        node->kind = MNode::Kind::kFile;
        made = vfs_.CreateFile(path, 0644, 0, 0, "data");
      } else {
        node->kind = MNode::Kind::kLink;
        node->target = LinkTarget();
        made = vfs_.CreateSymlink(path, node->target, 0, 0);
      }
      ASSERT_TRUE(made.ok()) << path << ": " << made.error().ToString();
      node->vnode = made.value();
      dir->children[name] = std::move(node);
      if (i % 15 == 14) {
        Mount();
      }
    }
  }

  // A symlink target: a path to a random node, absolute or relative, or
  // something dangling, looping or dotted.
  std::string LinkTarget() {
    std::vector<MNode*> all;
    Visible(model_.root(), &all);
    switch (Pick(6)) {
      case 0: return Model::PathOf(all[Pick(all.size())]);
      case 1: return Model::PathOf(all[Pick(all.size())]) + "/";
      case 2: return Name();                    // a sibling, maybe missing or itself
      case 3: return "../" + Name();
      case 4: return Pick(2) == 0 ? ".." : ".";
      default: return RandomPath(/*absolute=*/Pick(2) == 0);
    }
  }

  void Mount() {
    std::vector<MNode*> dirs = VisibleDirs();
    MNode* dir = dirs[Pick(dirs.size())];
    if (dir == model_.root() || dir->covers != nullptr || dir->mounted != nullptr) {
      return;
    }
    auto root = std::make_unique<MNode>();
    MNode* raw = root.get();
    raw->covers = dir;
    std::string child = Name();
    bool child_dir = Chance(50);
    ASSERT_TRUE(vfs_.AddMount(Model::PathOf(dir), "fuzz", "tmpfs", {}, 0,
                              [&](Vnode* vroot) {
                                raw->vnode = vroot;
                                Inode inode;
                                inode.mode = (child_dir ? kIfDir | 0755 : kIfReg | 0644);
                                auto made = vroot->AddChild(child, std::move(inode));
                                auto node = std::make_unique<MNode>();
                                node->name = child;
                                node->parent = raw;
                                node->kind = child_dir ? MNode::Kind::kDir : MNode::Kind::kFile;
                                node->vnode = made.value();
                                raw->children[child] = std::move(node);
                              })
                    .ok());
    dir->mounted = raw;
    mounts_.push_back(std::move(root));
  }

  // A path to walk: names, dots, doubled and trailing slashes.
  std::string RandomPath(bool absolute) {
    std::string path = absolute ? "/" : "";
    int n = 1 + static_cast<int>(Pick(5));
    for (int i = 0; i < n; ++i) {
      size_t r = Pick(10);
      path += r < 6 ? Name() : r < 8 ? ".." : r < 9 ? "." : "";
      if (i + 1 < n || Chance(20)) {
        path += Chance(15) ? "//" : "/";
      }
    }
    return path.empty() ? "." : path;
  }

  MNode* RandomDir() {
    std::vector<MNode*> dirs = VisibleDirs();
    return dirs[Pick(dirs.size())];
  }

 private:
  static std::string Join(const std::string& dir, const std::string& name) {
    return dir == "/" ? "/" + name : dir + "/" + name;
  }

  inline static const std::vector<std::string> kNames = {"a", "b", "c", "d", "ln"};

  Vfs& vfs_;
  Model& model_;
  std::mt19937_64 rng_;
  std::vector<std::unique_ptr<MNode>> mounts_;
};

class WalkFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WalkFuzz, MatchesReferenceWalker) {
  Kernel kernel;
  kernel.lsm().Register(std::make_unique<CapabilityModule>());
  Vfs& vfs = kernel.vfs();
  Model model(vfs.Resolve("/").value());
  TreeBuilder tree(vfs, model, GetParam());
  tree.Build();
  if (HasFatalFailure()) {
    return;
  }
  int walks = 0;
  int successes = 0;
  for (int i = 0; i < 300; ++i) {
    const bool absolute = tree.Chance(60);
    const std::string path = tree.RandomPath(absolute);
    MNode* cwd = tree.RandomDir();
    const std::string cwd_path = Model::PathOf(cwd);
    for (bool follow : {true, false}) {
      SCOPED_TRACE("cwd=" + cwd_path + " path=" + path + (follow ? " follow" : " nofollow"));
      WalkResult w = vfs.Walk(cwd_path, path, follow);
      int links = 0;
      RefResult ref = model.Walk(cwd, path, follow, /*outer_last=*/true, &links);
      ++walks;
      ASSERT_EQ(w.err, ref.err);
      if (ref.err == Errno::kOk) {
        ++successes;
        ASSERT_EQ(w.node, ref.node->vnode);
        EXPECT_EQ(w.path, Model::PathOf(ref.node));
        EXPECT_EQ(vfs.PathOf(w.node), w.path);
      } else if (ref.err == Errno::kENOENT) {
        EXPECT_EQ(w.dir, ref.dir->vnode);
        EXPECT_EQ(w.name, ref.name);
        EXPECT_EQ(w.last, ref.last);
        std::string dir_path = Model::PathOf(ref.dir);
        EXPECT_EQ(w.path, (dir_path == "/" ? "" : dir_path) + "/" + ref.name);
      }
    }
  }
  EXPECT_GT(successes, walks / 10) << "the fuzz should mostly reach objects";
}

TEST_P(WalkFuzz, PathClassIsTheClassOfTheCanonicalPath) {
  // An open refused by the class table must be refused for exactly the
  // paths whose canonical form lies outside the admitted class.
  Kernel kernel;
  kernel.lsm().Register(std::make_unique<CapabilityModule>());
  Vfs& vfs = kernel.vfs();
  Model model(vfs.Resolve("/").value());
  TreeBuilder tree(vfs, model, GetParam());
  tree.Build();
  if (HasFatalFailure()) {
    return;
  }
  // Class 1 is one directory's subtree or one exact object; class 2 is
  // another, so a path in neither class lands in class 0.
  std::string dir_entry = Model::PathOf(tree.RandomDir());
  std::vector<std::pair<std::string, uint64_t>> classes = {
      {dir_entry == "/" ? "/" : dir_entry + "/", 1}, {Model::PathOf(tree.RandomDir()), 2}};
  if (classes[1].first == classes[0].first) {
    classes.pop_back();
  }
  SeccompFilter::Spec spec;
  for (Sysno nr : AllSysnos()) {
    spec.allowed.set(static_cast<size_t>(nr));
  }
  spec.path_classes = classes;
  spec.rules[static_cast<uint16_t>(Sysno::kOpen)] = {{{{kSeccompArgPath, SeccompCmp::kEq, 1, 0}}}};
  auto filter = SeccompFilter::FromSpec(spec);
  ASSERT_TRUE(filter.ok()) << classes[0].first;
  Task& root = kernel.CreateTask("fuzz", Cred::Root(), nullptr);
  root.seccomp = std::make_shared<const SeccompFilter>(filter.value());
  for (int i = 0; i < 200; ++i) {
    const std::string path = tree.RandomPath(tree.Chance(60));
    MNode* cwd = tree.RandomDir();
    root.cwd = Model::PathOf(cwd);
    SCOPED_TRACE("cwd=" + root.cwd + " path=" + path);
    int links = 0;
    RefResult ref = model.Walk(cwd, path, /*follow=*/true, /*outer_last=*/true, &links);
    Result<int> fd = kernel.Open(root, path, kORdOnly);
    if (fd.ok()) {
      (void)kernel.Close(root, fd.value());
    }
    if (ref.err == Errno::kOk || ref.err == Errno::kENOENT) {
      std::string canonical = ref.err == Errno::kOk
                                  ? Model::PathOf(ref.node)
                                  : (Model::PathOf(ref.dir) == "/" ? "" : Model::PathOf(ref.dir)) +
                                        "/" + ref.name;
      bool admitted = PathClassOf(classes, canonical) == 1;
      EXPECT_EQ(fd.code(), admitted ? ref.err : Errno::kEPERM) << canonical;
    } else {
      EXPECT_TRUE(fd.code() == ref.err || fd.code() == Errno::kEPERM) << ErrnoName(fd.code());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WalkFuzz, ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

}  // namespace
}  // namespace protego
