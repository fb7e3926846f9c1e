// Unit tests for the VFS substrate: path handling, tree mutation, mounts,
// synthetic files, watches, and the DAC permission primitive.

#include <gtest/gtest.h>

#include "src/vfs/vfs.h"

namespace protego {
namespace {

TEST(VfsPath, WalkReturnsCanonicalPath) {
  Vfs vfs;
  ASSERT_TRUE(vfs.EnsureDirs("/a/b/c").ok());
  ASSERT_TRUE(vfs.EnsureDirs("/a/c").ok());
  ASSERT_TRUE(vfs.EnsureDirs("/b").ok());
  auto canonical = [&vfs](std::string_view cwd, std::string_view path) {
    WalkResult w = vfs.Walk(cwd, path, /*follow=*/true);
    EXPECT_EQ(w.err, Errno::kOk) << path;
    return w.path;
  };
  EXPECT_EQ(canonical("/", "/"), "/");
  EXPECT_EQ(canonical("/", "/a/b/../c"), "/a/c");
  EXPECT_EQ(canonical("/", "/a//b/./c/"), "/a/b/c");
  EXPECT_EQ(canonical("/", "/.."), "/");
  EXPECT_EQ(canonical("/", "/a/../../b"), "/b");
  EXPECT_EQ(canonical("/a", "b/../c"), "/a/c");
}

TEST(VfsTree, CreateResolveReadWrite) {
  Vfs vfs;
  ASSERT_TRUE(vfs.EnsureDirs("/etc/deep/nested").ok());
  ASSERT_TRUE(vfs.CreateFile("/etc/deep/nested/f", 0644, 10, 20, "hello").ok());
  auto node = vfs.Resolve("/etc/deep/nested/f");
  ASSERT_TRUE(node.ok());
  EXPECT_EQ(node.value()->inode().uid, 10u);
  EXPECT_EQ(node.value()->inode().gid, 20u);
  EXPECT_EQ(vfs.ReadNode(node.value()).value(), "hello");
  ASSERT_TRUE(vfs.WriteNode(node.value(), " world", /*append=*/true).ok());
  EXPECT_EQ(vfs.ReadFile("/etc/deep/nested/f").value(), "hello world");
  EXPECT_EQ(vfs.PathOf(node.value()), "/etc/deep/nested/f");
}

TEST(VfsTree, ErrnoContract) {
  Vfs vfs;
  EXPECT_EQ(vfs.Resolve("/missing").code(), Errno::kENOENT);
  EXPECT_EQ(vfs.Resolve("relative").code(), Errno::kEINVAL);
  ASSERT_TRUE(vfs.CreateFile("/f", 0644, 0, 0).ok());
  EXPECT_EQ(vfs.CreateFile("/f", 0644, 0, 0).code(), Errno::kEEXIST);
  EXPECT_EQ(vfs.Resolve("/f/child").code(), Errno::kENOTDIR);
  ASSERT_TRUE(vfs.EnsureDirs("/d/sub").ok());
  EXPECT_EQ(vfs.Unlink("/d").code(), Errno::kENOTEMPTY);
  ASSERT_TRUE(vfs.Unlink("/d/sub").ok());
  ASSERT_TRUE(vfs.Unlink("/d").ok());
  EXPECT_EQ(vfs.Unlink("/d").code(), Errno::kENOENT);
}

TEST(VfsTree, RenameMovesSubtrees) {
  Vfs vfs;
  ASSERT_TRUE(vfs.EnsureDirs("/a").ok());
  ASSERT_TRUE(vfs.EnsureDirs("/b").ok());
  ASSERT_TRUE(vfs.CreateFile("/a/f", 0644, 0, 0, "data").ok());
  ASSERT_TRUE(vfs.Rename("/a/f", "/b/g").ok());
  EXPECT_EQ(vfs.Resolve("/a/f").code(), Errno::kENOENT);
  EXPECT_EQ(vfs.ReadFile("/b/g").value(), "data");
}

TEST(VfsTree, DotDotAfterSymlinkLeavesTheTarget) {
  // Linux resolves ".." physically: after following lnd it climbs out of
  // the target directory, not back to /tmp.
  Vfs vfs;
  ASSERT_TRUE(vfs.EnsureDirs("/etc/sub").ok());
  ASSERT_TRUE(vfs.EnsureDirs("/tmp").ok());
  ASSERT_TRUE(vfs.CreateFile("/etc/x", 0644, 0, 0, "etc").ok());
  ASSERT_TRUE(vfs.CreateFile("/tmp/x", 0644, 0, 0, "tmp").ok());
  ASSERT_TRUE(vfs.CreateSymlink("/tmp/lnd", "/etc/sub", 0, 0).ok());
  auto node = vfs.Resolve("/tmp/lnd/../x");
  ASSERT_TRUE(node.ok());
  EXPECT_EQ(vfs.PathOf(node.value()), "/etc/x");
  EXPECT_EQ(vfs.ReadNode(node.value()).value(), "etc");
}

TEST(VfsTree, TrailingSlashOnNonDirectoryIsEnotdir) {
  Vfs vfs;
  ASSERT_TRUE(vfs.EnsureDirs("/d").ok());
  ASSERT_TRUE(vfs.CreateFile("/f", 0644, 0, 0).ok());
  ASSERT_TRUE(vfs.CreateSymlink("/ln", "/f", 0, 0).ok());
  EXPECT_EQ(vfs.Resolve("/f/").code(), Errno::kENOTDIR);
  EXPECT_EQ(vfs.Resolve("/f/.").code(), Errno::kENOTDIR);
  EXPECT_EQ(vfs.Resolve("/ln/").code(), Errno::kENOTDIR);
  EXPECT_TRUE(vfs.Resolve("/d/").ok());
}

TEST(VfsTree, RenameDirectoryBeneathItselfIsEinval) {
  Vfs vfs;
  ASSERT_TRUE(vfs.EnsureDirs("/tmp/a/b").ok());
  EXPECT_EQ(vfs.Rename("/tmp/a", "/tmp/a/b/c").code(), Errno::kEINVAL);
  EXPECT_EQ(vfs.Rename("/tmp/a", "/tmp/a/c").code(), Errno::kEINVAL);
  // The tree is untouched and its paths still terminate.
  EXPECT_EQ(vfs.PathOf(vfs.Resolve("/tmp/a/b").value()), "/tmp/a/b");
  EXPECT_EQ(vfs.Resolve("/tmp/a/b/c").code(), Errno::kENOENT);
}

TEST(VfsTree, RenameOntoItselfIsANoOp) {
  Vfs vfs;
  ASSERT_TRUE(vfs.EnsureDirs("/tmp").ok());
  ASSERT_TRUE(vfs.CreateFile("/tmp/f", 0644, 0, 0, "data").ok());
  EXPECT_TRUE(vfs.Rename("/tmp/f", "/tmp/f").ok());
  EXPECT_TRUE(vfs.Rename("/tmp/f", "/tmp/./f").ok());
  EXPECT_EQ(vfs.ReadFile("/tmp/f").value(), "data");
  EXPECT_EQ(vfs.orphan_count(), 0u);
}

TEST(VfsTree, RenameFileOverEmptyDirectoryIsEisdir) {
  Vfs vfs;
  ASSERT_TRUE(vfs.EnsureDirs("/tmp/empty").ok());
  ASSERT_TRUE(vfs.CreateFile("/tmp/f", 0644, 0, 0).ok());
  EXPECT_EQ(vfs.Rename("/tmp/f", "/tmp/empty").code(), Errno::kEISDIR);
  EXPECT_TRUE(vfs.Resolve("/tmp/empty").value()->inode().IsDir());
}

TEST(VfsTree, RenameDirectoryOverFileIsEnotdir) {
  Vfs vfs;
  ASSERT_TRUE(vfs.EnsureDirs("/tmp/dir").ok());
  ASSERT_TRUE(vfs.CreateFile("/tmp/f", 0644, 0, 0).ok());
  EXPECT_EQ(vfs.Rename("/tmp/dir", "/tmp/f").code(), Errno::kENOTDIR);
  EXPECT_TRUE(vfs.Resolve("/tmp/f").value()->inode().IsReg());
}

TEST(VfsTree, RenameOverMountpointIsEbusy) {
  Vfs vfs;
  ASSERT_TRUE(vfs.EnsureDirs("/mnt/real").ok());
  ASSERT_TRUE(vfs.EnsureDirs("/mnt/other").ok());
  ASSERT_TRUE(vfs.AddMount("/mnt/real", "a", "tmpfs", {}, 0, nullptr).ok());
  EXPECT_EQ(vfs.Rename("/mnt/other", "/mnt/real").code(), Errno::kEBUSY);
  EXPECT_EQ(vfs.FindMount("/mnt/real"), std::optional<Uid>(0u));
  EXPECT_EQ(vfs.FormatMounts(), "a /mnt/real tmpfs defaults 0\n");
}

TEST(VfsMounts, MountCoversAndUmountUncovers) {
  Vfs vfs;
  ASSERT_TRUE(vfs.EnsureDirs("/mnt/cd").ok());
  ASSERT_TRUE(vfs.CreateFile("/mnt/cd/shadowed", 0644, 0, 0, "under").ok());
  ASSERT_TRUE(vfs.AddMount("/mnt/cd", "/dev/cdrom", "iso9660", {"ro"}, 1000,
                           [](Vnode* root) {
                             Inode f;
                             f.mode = kIfReg | 0444;
                             f.data = "on-media";
                             (void)root->AddChild("f", std::move(f));
                           })
                  .ok());
  EXPECT_EQ(vfs.ReadFile("/mnt/cd/f").value(), "on-media");
  EXPECT_EQ(vfs.ReadFile("/mnt/cd/shadowed").code(), Errno::kENOENT);
  EXPECT_EQ(vfs.FindMount("/mnt/cd"), std::optional<Uid>(1000u));
  EXPECT_EQ(vfs.FormatMounts(), "/dev/cdrom /mnt/cd iso9660 ro 1000\n");
  // PathOf works across the mount boundary.
  auto node = vfs.Resolve("/mnt/cd/f");
  EXPECT_EQ(vfs.PathOf(node.value()), "/mnt/cd/f");

  ASSERT_TRUE(vfs.RemoveMount("/mnt/cd").ok());
  EXPECT_EQ(vfs.ReadFile("/mnt/cd/shadowed").value(), "under");
  EXPECT_EQ(vfs.RemoveMount("/mnt/cd").code(), Errno::kEINVAL);
}

TEST(VfsMounts, StackedMountsAreRejected) {
  Vfs vfs;
  ASSERT_TRUE(vfs.EnsureDirs("/m").ok());
  ASSERT_TRUE(vfs.AddMount("/m", "a", "tmpfs", {}, 0, nullptr).ok());
  EXPECT_EQ(vfs.AddMount("/m", "b", "tmpfs", {}, 0, nullptr).code(), Errno::kEBUSY);
}

TEST(VfsMounts, BusyMountpointCannotBeUnlinked) {
  Vfs vfs;
  ASSERT_TRUE(vfs.EnsureDirs("/m").ok());
  ASSERT_TRUE(vfs.AddMount("/m", "a", "tmpfs", {}, 0, nullptr).ok());
  EXPECT_EQ(vfs.Unlink("/m").code(), Errno::kEBUSY);
}

TEST(VfsMounts, UmountWithAMountBeneathIsEbusy) {
  // Unmounting /mnt/real would free the directory /mnt/real/sub's mount
  // covers; the later umount of the inner mount then touched freed memory.
  Vfs vfs;
  ASSERT_TRUE(vfs.EnsureDirs("/mnt/real").ok());
  ASSERT_TRUE(vfs.AddMount("/mnt/real", "outer", "tmpfs", {}, 0, [](Vnode* root) {
                   Inode dir;
                   dir.mode = kIfDir | 0755;
                   (void)root->AddChild("sub", std::move(dir));
                 }).ok());
  ASSERT_TRUE(vfs.AddMount("/mnt/real/sub", "inner", "tmpfs", {}, 0, nullptr).ok());
  EXPECT_EQ(vfs.RemoveMount("/mnt/real").code(), Errno::kEBUSY);
  ASSERT_TRUE(vfs.RemoveMount("/mnt/real/sub").ok());
  ASSERT_TRUE(vfs.RemoveMount("/mnt/real").ok());
  EXPECT_EQ(vfs.FormatMounts(), "");
}

TEST(VfsMounts, DotDotAtAMountRootLeavesTheMount) {
  Vfs vfs;
  ASSERT_TRUE(vfs.EnsureDirs("/mnt/cd").ok());
  ASSERT_TRUE(vfs.CreateFile("/mnt/marker", 0644, 0, 0, "parent").ok());
  ASSERT_TRUE(vfs.AddMount("/mnt/cd", "cd", "iso9660", {}, 0, [](Vnode* root) {
                   Inode dir;
                   dir.mode = kIfDir | 0755;
                   (void)root->AddChild("d", std::move(dir));
                 }).ok());
  WalkResult w = vfs.Walk("/", "/mnt/cd/d/../../marker", /*follow=*/true);
  ASSERT_EQ(w.err, Errno::kOk);
  EXPECT_EQ(w.path, "/mnt/marker");
  EXPECT_EQ(vfs.ReadNode(w.node).value(), "parent");
  // From the mount's root itself, and relative to a cwd inside the mount.
  EXPECT_EQ(vfs.Walk("/", "/mnt/cd/..", true).path, "/mnt");
  EXPECT_EQ(vfs.Walk("/mnt/cd/d", "../..", true).path, "/mnt");
}

TEST(VfsMounts, MountFollowsSymlinksAndRenamesMoveIt) {
  Vfs vfs;
  ASSERT_TRUE(vfs.EnsureDirs("/mnt/real").ok());
  ASSERT_TRUE(vfs.CreateSymlink("/mnt/alias", "/mnt/real", 0, 0).ok());
  ASSERT_TRUE(vfs.AddMount("/mnt/alias", "a", "tmpfs", {}, 7, nullptr).ok());
  EXPECT_EQ(vfs.FormatMounts(), "a /mnt/real tmpfs defaults 7\n");
  EXPECT_EQ(vfs.FindMount("/mnt/real"), std::optional<Uid>(7u));
  // The mount table names wherever the covered directory is now.
  ASSERT_TRUE(vfs.Rename("/mnt", "/media").ok());
  EXPECT_EQ(vfs.FormatMounts(), "a /media/real tmpfs defaults 7\n");
  ASSERT_TRUE(vfs.RemoveMount("/media/real").ok());
}

TEST(VfsWalk, CreateInADirectoryUnlinkedAfterTheWalkIsEnoent) {
  Vfs vfs;
  ASSERT_TRUE(vfs.EnsureDirs("/tmp/d").ok());
  WalkResult w = vfs.Walk("/", "/tmp/d/new", /*follow=*/false);
  ASSERT_EQ(w.err, Errno::kENOENT);
  ASSERT_TRUE(w.last);
  EXPECT_EQ(w.path, "/tmp/d/new");
  ASSERT_TRUE(vfs.Unlink("/tmp/d").ok());
  EXPECT_EQ(vfs.CreateAt(w, Inode(kIfReg | 0644, 0, 0)).code(), Errno::kENOENT);
  EXPECT_EQ(vfs.CreateAt(w, Inode(kIfDir | 0755, 0, 0)).code(), Errno::kENOENT);
}

TEST(VfsWalk, ReportsWhereItStopped) {
  Vfs vfs;
  ASSERT_TRUE(vfs.EnsureDirs("/a").ok());
  ASSERT_TRUE(vfs.CreateFile("/a/f", 0644, 0, 0).ok());
  ASSERT_TRUE(vfs.CreateSymlink("/a/loop", "/a/loop", 0, 0).ok());
  WalkResult missing = vfs.Walk("/", "/a/none/x", true);
  EXPECT_EQ(missing.err, Errno::kENOENT);
  EXPECT_FALSE(missing.last);
  EXPECT_EQ(missing.path, "/a/none");
  WalkResult notdir = vfs.Walk("/", "/a/f/x", true);
  EXPECT_EQ(notdir.err, Errno::kENOTDIR);
  EXPECT_EQ(notdir.path, "/a/f/x");
  WalkResult loop = vfs.Walk("/", "/a/loop", true);
  EXPECT_EQ(loop.err, Errno::kELOOP);
  EXPECT_EQ(loop.path, "/a/loop");
  // Not following the final link stops on the link itself.
  WalkResult link = vfs.Walk("/", "/a/loop", false);
  ASSERT_EQ(link.err, Errno::kOk);
  EXPECT_TRUE(link.node->inode().IsSymlink());
  EXPECT_EQ(vfs.Walk("/", "", true).err, Errno::kENOENT);
}

TEST(VfsSynthetic, ReadWriteCallbacks) {
  Vfs vfs;
  std::string stored = "initial";
  SyntheticOps ops;
  ops.read = [&stored]() { return stored; };
  ops.write = [&stored](std::string_view data) -> Result<Unit> {
    if (data == "reject") {
      return Error(Errno::kEINVAL);
    }
    stored = std::string(data);
    return OkUnit();
  };
  ASSERT_TRUE(vfs.CreateSynthetic("/proc/x/y", 0644, std::move(ops)).ok());
  EXPECT_EQ(vfs.ReadFile("/proc/x/y").value(), "initial");
  ASSERT_TRUE(vfs.WriteFile("/proc/x/y", "updated").ok());
  EXPECT_EQ(stored, "updated");
  EXPECT_EQ(vfs.WriteFile("/proc/x/y", "reject").code(), Errno::kEINVAL);
  EXPECT_EQ(stored, "updated");  // rejected write left state intact
}

TEST(VfsWatch, FiresForPathAndChildren) {
  Vfs vfs;
  ASSERT_TRUE(vfs.EnsureDirs("/etc/frag").ok());
  std::vector<std::string> events;
  int id = vfs.AddWatch("/etc/frag", [&events](FsEvent event, const std::string& path) {
    events.push_back(std::string(FsEventName(event)) + " " + path);
  });
  ASSERT_TRUE(vfs.CreateFile("/etc/frag/a", 0644, 0, 0).ok());
  ASSERT_TRUE(vfs.WriteFile("/etc/frag/a", "x").ok());
  ASSERT_TRUE(vfs.Unlink("/etc/frag/a").ok());
  ASSERT_TRUE(vfs.CreateFile("/etc/unwatched", 0644, 0, 0).ok());
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0], "CREATED /etc/frag/a");
  EXPECT_EQ(events[1], "MODIFIED /etc/frag/a");
  EXPECT_EQ(events[2], "DELETED /etc/frag/a");
  vfs.RemoveWatch(id);
  ASSERT_TRUE(vfs.CreateFile("/etc/frag/b", 0644, 0, 0).ok());
  EXPECT_EQ(events.size(), 3u);
  // Prefix matching is component-wise: /etc/fragX must not match /etc/frag.
  int id2 = vfs.AddWatch("/etc/frag", [&events](FsEvent, const std::string& p) {
    events.push_back(p);
  });
  ASSERT_TRUE(vfs.CreateFile("/etc/fragment", 0644, 0, 0).ok());
  EXPECT_EQ(events.size(), 3u);
  vfs.RemoveWatch(id2);
}

TEST(Dac, OwnerGroupOtherTriads) {
  Inode inode;
  inode.mode = kIfReg | 0640;
  inode.uid = 100;
  inode.gid = 50;
  auto in_g50 = [](Gid g) { return g == 50; };
  auto in_none = [](Gid) { return false; };
  EXPECT_TRUE(DacPermits(inode, 100, in_none, kMayRead | kMayWrite));
  EXPECT_FALSE(DacPermits(inode, 100, in_none, kMayExec));
  EXPECT_TRUE(DacPermits(inode, 200, in_g50, kMayRead));
  EXPECT_FALSE(DacPermits(inode, 200, in_g50, kMayWrite));
  EXPECT_FALSE(DacPermits(inode, 200, in_none, kMayRead));
  // Owner check takes precedence: owner with 0066 still cannot read.
  inode.mode = kIfReg | 0066;
  EXPECT_FALSE(DacPermits(inode, 100, in_none, kMayRead));
  EXPECT_TRUE(DacPermits(inode, 200, in_none, kMayRead));
}

TEST(ModeStringTest, RendersSetuidBit) {
  EXPECT_EQ(ModeString(kIfReg | 04755), "-rwsr-xr-x");
  EXPECT_EQ(ModeString(kIfReg | 0755), "-rwxr-xr-x");
  EXPECT_EQ(ModeString(kIfDir | 01777), "drwxrwxrwt");
  EXPECT_EQ(ModeString(kIfChr | 0600), "crw-------");
}

}  // namespace
}  // namespace protego
