// The simulated virtual filesystem: a directory tree of Vnodes, a mount
// table, the path walk with mount crossing, and inotify-style watches.
//
// The VFS performs no permission checks; the kernel layer (src/kernel)
// applies DAC + LSM policy and then calls into these primitives, exactly as
// the Linux VFS relies on callers having passed inode_permission().
//
// Paths become objects in exactly one place, Vfs::Walk, which returns the
// object with its canonical path (every symlink, "." and ".." resolved).
// The kernel, every policy layer and the mount table decide on that path
// and act on the vnodes the walk returned.
//
// Locking (parallel mode). Every lock is an RwLock (src/base/rw_lock.h):
// barging, so a release never waits for a sleeping thread to be scheduled,
// and writer-preferring, so a waiting writer turns new readers away.
//   * tree_mu_: the directory structure — children maps, parent links,
//     mount covers, the mount table, and the orphan list. Walks and PathOf
//     take it shared; create/unlink/rename/mount and chmod/chown-style
//     metadata updates take it unique. Spool workloads (mail's
//     create/rename/unlink per message) still take it unique for every
//     mutation, but each section is short and the lock passes straight to
//     the next runnable thread, so they no longer convoy behind a wake-up.
//     Per-directory locks would let writers in different directories run
//     in parallel; one tree lock keeps the deadlock surface small.
//   * data_mu_[ino % kDataStripes]: file contents, mtime, and the block
//     charge flag, one cache line per stripe. Reads take the stripe shared,
//     writes unique — so N threads stream N different files without
//     touching the tree lock's writer path. Safe without the tree lock
//     because unlinked vnodes are kept alive on the orphan list (a Vnode*
//     never dangles).
//   * watch_mu_: the watch list; dispatch matches events under it shared.
//   * Watch callbacks NEVER run under a lock: mutations queue events and
//     the public entry points dispatch them after unlocking, because
//     watchers (the monitoring daemon) re-enter the VFS from their
//     callbacks. Lock order is tree_mu_ before data stripe; neither is
//     held across user callbacks (watches, synthetic file generators) or a
//     scheduler yield, and no path takes one of them shared twice.
//   * Returned Vnode* remain valid forever (orphan pinning, unmounted
//     trees included); inode METADATA (mode/uid/gid) is guarded by tree_mu_
//     via the SetInode* helpers, and scalar counters are relaxed atomics.

#ifndef SRC_VFS_VFS_H_
#define SRC_VFS_VFS_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/base/clock.h"
#include "src/base/result.h"
#include "src/base/attribution.h"
#include "src/base/rw_lock.h"
#include "src/base/tracepoint.h"
#include "src/fault/fault.h"
#include "src/vfs/inode.h"

namespace protego {

class Vfs;
struct MountEntry;

// A node in the directory tree (directory entry + inode). Mount roots are
// detached Vnode trees owned by their MountEntry.
class Vnode {
 public:
  Vnode(std::string name, Inode inode) : name_(std::move(name)), inode_(std::move(inode)) {}

  Vnode(const Vnode&) = delete;
  Vnode& operator=(const Vnode&) = delete;

  const std::string& name() const { return name_; }
  Inode& inode() { return inode_; }
  const Inode& inode() const { return inode_; }
  Vnode* parent() const { return parent_; }

  // Child by name within this directory; nullptr if absent. Does not cross
  // mounts — Vfs::Walk handles mount traversal. Caller must hold the
  // tree lock (or be single-threaded bootstrap code).
  Vnode* Lookup(std::string_view child) const;

  // Adds a child entry to this directory. Fails with EEXIST/ENOTDIR.
  // Same locking contract as Lookup.
  Result<Vnode*> AddChild(std::string name, Inode inode);

  // Names of all children, sorted (directories only).
  std::vector<std::string> ListNames() const;

  bool HasChildren() const { return !children_.empty(); }

 private:
  friend class Vfs;

  std::string name_;
  Inode inode_;
  Vnode* parent_ = nullptr;
  std::map<std::string, std::unique_ptr<Vnode>, std::less<>> children_;
  // Left the tree (unlinked, renamed over, an unmounted root): no creates.
  bool unlinked_ = false;

  // Non-null when a filesystem is mounted over this directory.
  MountEntry* covered_by_ = nullptr;
  // Non-null when this node is the root of a mounted filesystem.
  MountEntry* mount_root_of_ = nullptr;
};

// One row of the mount table; its mountpoint is wherever `covered` is now.
struct MountEntry {
  std::string source;      // backing device or pseudo-source ("proc", "tmpfs")
  std::string fstype;
  std::vector<std::string> options;
  Uid mounter = kRootUid;  // uid that performed the mount (for user umount)

  std::unique_ptr<Vnode> root;  // the mounted filesystem's tree
  Vnode* covered = nullptr;     // the directory this mount covers
};

// Populates a freshly mounted filesystem's root (e.g. an iso9660 image's
// contents for a CD-ROM device).
using MountPopulator = std::function<void(Vnode* root)>;

// Filesystem change events delivered to watchers (inotify analog).
enum class FsEvent {
  kCreated,
  kModified,
  kDeleted,
};

const char* FsEventName(FsEvent event);

using WatchCallback = std::function<void(FsEvent, const std::string& path)>;

// What one Vfs::Walk found.
struct WalkResult {
  Errno err = Errno::kOk;
  Vnode* node = nullptr;  // the object (err == kOk)
  // Where the walk last looked a name up: the object's entry on success, the
  // missing component on ENOENT; null when the path names "/" or ends in a dot.
  Vnode* dir = nullptr;
  std::string name;
  bool last = false;      // `name` is the final component: dir/name is where a create lands
  bool dir_only = false;  // the path ends in '/': the object must be a directory
  std::string path;       // canonical path of the object, or of the component the walk stopped at
};

// The directory part of a canonical path ("/a/b" -> "/a", "/a" -> "/").
std::string_view DirPathOf(std::string_view canonical);

class Vfs {
 public:
  // Creates a filesystem containing only "/".
  explicit Vfs(Clock* clock = nullptr);

  Vfs(const Vfs&) = delete;
  Vfs& operator=(const Vfs&) = delete;

  // Attaches the kernel-wide tracer: mount-table changes emit kVfsMount
  // events (stamped with the calling syscall's span).
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  // Attaches the fault-injection registry: vnode allocation (ENOMEM) and
  // block allocation (ENOSPC) become injectable fault sites.
  void set_faults(FaultRegistry* faults) { faults_ = faults; }

  // Path resolutions performed since boot (exported as a metric).
  uint64_t resolves() const { return resolves_.load(std::memory_order_relaxed); }

  // Contended acquisitions of the tree lock, the data stripes (summed) and
  // the watch lock since boot (exported as metrics).
  uint64_t tree_lock_contended() const { return tree_mu_.contended(); }
  uint64_t data_lock_contended() const;
  uint64_t watch_lock_contended() const { return watch_mu_.contended(); }

  // --- Block accounting ------------------------------------------------------
  //
  // Regular-file data bytes are charged against a filesystem-wide quota
  // (a crude but sufficient stand-in for per-fs block counts): LinkLocked
  // charges a new file's initial contents, WriteNode charges growth and
  // releases shrinkage, and growing past the quota fails with ENOSPC.
  // Orphaned vnodes (unlinked/renamed-over while possibly still open) KEEP
  // their charge — as on a real filesystem, an unlinked inode's blocks are
  // freed only when the last reference dies, which in this simulation is
  // Vfs destruction. Files created by bootstrap populators that bypass
  // LinkLocked are charged lazily on their first quota-aware write.

  // 0 = unlimited (the default; quota enforcement is opt-in).
  void set_block_quota(uint64_t bytes) { block_quota_ = bytes; }
  uint64_t block_quota() const { return block_quota_; }
  uint64_t bytes_used() const { return bytes_used_.load(std::memory_order_relaxed); }
  size_t orphan_count() const;

  // Recomputes charged bytes by walking the tree, every mount, the orphan
  // list and unmounted trees, and cross-checks against the incremental bytes_used()
  // counter. EIO with a diagnostic on divergence — the fault-sweep harness
  // runs this after every scenario. Expects data writers to be quiescent.
  Result<Unit> AuditBlockAccounting() const;

  // --- The path walk ---------------------------------------------------------

  // Symlinks a walk may follow before ELOOP (Linux uses 40; the
  // simulation's filesystems are small enough that 8 suffices).
  static constexpr int kMaxSymlinkDepth = 8;

  // Walks `path` the way Linux path_resolution(7) does: from "/" when it is
  // absolute, else from `cwd` (an absolute path, walked first); ".." to the
  // parent, and from a mount root to the parent of the directory it covers;
  // symlink targets spliced in place, a final one followed when `follow` is
  // set or the path ends in '/'. Counts as one resolve.
  WalkResult Walk(std::string_view cwd, std::string_view path, bool follow) const {
    std::shared_lock<RwLock> lk(tree_mu_);
    return WalkLocked(cwd, path, follow);
  }

  // The object at an absolute path (EINVAL for a relative one), final
  // symlink followed.
  Result<Vnode*> Resolve(std::string_view path) const;

  // Canonical path of a node: the path a walk to it returns.
  std::string PathOf(const Vnode* node) const;

  // --- Node creation / removal / mutation ----------------------------------

  Result<Vnode*> CreateFile(std::string_view path, uint32_t perms, Uid uid, Gid gid,
                            std::string data = "") {
    return CreateAt(Walk("/", path, false),
                    Inode(kIfReg | (perms & kPermMask), uid, gid, std::move(data)));
  }
  Result<Vnode*> CreateDir(std::string_view path, uint32_t perms, Uid uid, Gid gid) {
    return CreateAt(Walk("/", path, false), Inode(kIfDir | (perms & kPermMask), uid, gid));
  }
  // Creates a symbolic link at `path` pointing at `target` (not required to
  // exist — dangling links are legal, as on Linux). Mode is always 0777.
  Result<Vnode*> CreateSymlink(std::string_view path, std::string_view target, Uid uid,
                               Gid gid) {
    return CreateAt(Walk("/", path, false), Inode(kIfLnk | 0777, uid, gid, std::string(target)));
  }
  Result<Vnode*> CreateDevice(std::string_view path, uint32_t perms, Uid uid, Gid gid,
                              bool block, uint32_t major, uint32_t minor);

  // Creates a synthetic (procfs-style) file whose content is generated by
  // `ops`. Missing parent directories are created root-owned 0755.
  Result<Vnode*> CreateSynthetic(std::string_view path, uint32_t perms, SyntheticOps ops);

  // Creates any missing directories along `path` (mkdir -p), root 0755.
  Result<Vnode*> EnsureDirs(std::string_view path);

  Result<Unit> Unlink(std::string_view path) { return UnlinkAt(Walk("/", path, false)); }
  // Linux rename(2) errnos: EINVAL for a directory moved beneath itself,
  // ENOTDIR/EISDIR when a directory and a non-directory would trade
  // places, EBUSY over a mountpoint, ENOTEMPTY over a populated directory;
  // renaming an entry onto itself succeeds and changes nothing.
  Result<Unit> Rename(std::string_view from, std::string_view to) {
    WalkResult from_walk = Walk("/", from, false);
    return RenameAt(from_walk, Walk("/", to, false));
  }

  // The same on what a walk returned (the kernel walks once, checks the
  // directory it got, and calls these). CreateAt takes a walk that only
  // missed its last component; a directory unlinked since the walk gives
  // ENOENT, a name that appeared since EEXIST.
  Result<Vnode*> CreateAt(const WalkResult& at, Inode inode);
  Result<Unit> UnlinkAt(const WalkResult& at);
  Result<Unit> RenameAt(const WalkResult& from, const WalkResult& to);

  // Reads file content (regular data or synthetic generator).
  Result<std::string> ReadNode(const Vnode* node) const;

  // Replaces or appends file content; fires kModified.
  Result<Unit> WriteNode(Vnode* node, std::string_view data, bool append);

  // Directory listing under the tree lock (kernel getdents path).
  Result<std::vector<std::string>> ListDir(const Vnode* node) const;

  // Inode metadata snapshot/update helpers (chmod/chown/stat paths): the
  // kernel must not poke node->inode() fields directly in parallel mode.
  Inode SnapshotInode(const Vnode* node) const;
  // Replaces the permission bits, preserving the file-type bits.
  void SetInodeMode(Vnode* node, uint32_t perms);
  // Changes ownership; clears setuid/setgid bits as on Linux when `clear_sbits`.
  void SetInodeOwner(Vnode* node, Uid uid, Gid gid, bool clear_sbits);

  // Path-based conveniences used by bootstrap code and trusted services.
  Result<std::string> ReadFile(std::string_view path) const;
  Result<Unit> WriteFile(std::string_view path, std::string_view data);

  // --- Mounts ---------------------------------------------------------------

  // Grafts a new filesystem over the directory a walk reached (symlinks
  // followed). EBUSY on a directory that already is a mount root.
  Result<Unit> AddMountAt(const WalkResult& at, std::string source, std::string fstype,
                          std::vector<std::string> options, Uid mounter,
                          const MountPopulator& populate);
  Result<Unit> AddMount(std::string_view mountpoint, std::string source, std::string fstype,
                        std::vector<std::string> options, Uid mounter,
                        const MountPopulator& populate) {
    return AddMountAt(Walk("/", mountpoint, true), std::move(source), std::move(fstype),
                      std::move(options), mounter, populate);
  }

  // Removes the mount with this root: EINVAL if it is none, EBUSY while
  // another mount sits beneath it. The tree stays allocated for open files.
  Result<Unit> RemoveMountAt(Vnode* mount_root);
  Result<Unit> RemoveMount(std::string_view mountpoint) {
    WalkResult w = Walk("/", mountpoint, true);
    return w.err == Errno::kOk ? RemoveMountAt(w.node) : Error(w.err, w.path);
  }

  // The uid that mounted the filesystem whose root `node` is (FindMount:
  // whose root `mountpoint` walks to), or nullopt when it is no mount root.
  std::optional<Uid> MounterOf(const Vnode* node) const {
    std::shared_lock<RwLock> lk(tree_mu_);
    if (node == nullptr || node->mount_root_of_ == nullptr) {
      return std::nullopt;
    }
    return node->mount_root_of_->mounter;
  }
  std::optional<Uid> FindMount(std::string_view mountpoint) const {
    return MounterOf(Walk("/", mountpoint, true).node);
  }

  // The /proc/mounts body, one "source mountpoint fstype options mounter"
  // line per mount, formatted under the tree lock.
  std::string FormatMounts() const;

  // --- Watches (inotify analog) ----------------------------------------------

  // Invokes `cb` for events on canonical `path` or anything beneath it.
  // Returns a watch id for RemoveWatch. Callbacks run with no VFS lock held.
  int AddWatch(std::string path, WatchCallback cb);
  void RemoveWatch(int watch_id);

 private:
  // Queued filesystem events, dispatched after the tree lock is released.
  using PendingEvents = std::vector<std::pair<FsEvent, std::string>>;

  static constexpr size_t kDataStripes = 16;
  RwLock& DataStripe(uint64_t ino) const { return data_mu_[ino % kDataStripes].mu; }

  // Lock-free internals; callers hold tree_mu_ (shared for walks, unique
  // for mutation).
  WalkResult WalkLocked(std::string_view cwd, std::string_view path, bool follow) const;
  // The topmost filesystem mounted over `node`, or `node` itself.
  static Vnode* Top(Vnode* node);
  std::string PathOfLocked(const Vnode* node) const;
  // The single vnode-allocation choke point every create routes through.
  Result<Vnode*> LinkLocked(const WalkResult& at, Inode inode, PendingEvents* events);
  // Runs fn(&events) under the unique tree lock, then dispatches them.
  template <typename Fn>
  auto Mutate(Fn&& fn) {
    PendingEvents events;
    auto result = [&] {
      std::unique_lock<RwLock> lk(tree_mu_);
      return fn(&events);
    }();
    DispatchEvents(events);
    return result;
  }
  // Moves a node out of the tree onto the orphan list.
  void OrphanLocked(Vnode* parent, const std::string& name);
  // Emits a kVfsMount trace event.
  void TraceMount(const char* what, std::string detail) const;
  // Releases the block charge of every charged inode under `node` (used
  // when a whole mount tree is destroyed).
  void UnchargeTree(Vnode* node);
  // Runs matching watch callbacks for each queued event. MUST be called
  // with no VFS lock held (callbacks re-enter the VFS).
  void DispatchEvents(PendingEvents& events) const;
  uint64_t NextIno() { return next_ino_.fetch_add(1, std::memory_order_relaxed); }
  uint64_t NowMtime() const { return clock_ ? clock_->Now() : 0; }

  struct Watch {
    int id;
    std::string path;
    WatchCallback callback;
  };

  Clock* clock_;
  Tracer* tracer_ = nullptr;
  FaultRegistry* faults_ = nullptr;
  uint64_t block_quota_ = 0;  // 0 = unlimited; set at boot, read-only after
  // Every task thread writes the next three (data writes, walks, the tree
  // lock's reader count), so they start a cache line of their own: the
  // read-only fields above, read on every walk, must not share it.
  alignas(64) std::atomic<uint64_t> bytes_used_{0};  // charged regular-file data bytes
  mutable std::atomic<uint64_t> resolves_{0};  // accounting from const Resolve()
  mutable RwLock tree_mu_;                     // directory structure + metadata
  // One line per stripe: threads writing different files share no line.
  struct alignas(64) DataStripeLock {
    RwLock mu;
  };
  mutable DataStripeLock data_mu_[kDataStripes];  // file contents by ino
  mutable RwLock watch_mu_;                       // watch list
  std::unique_ptr<Vnode> root_;
  // Vnodes unlinked or displaced by rename stay alive here until the Vfs is
  // destroyed: open file descriptions hold raw Vnode*, and on a real system
  // an open inode outlives its last directory entry.
  std::vector<std::unique_ptr<Vnode>> orphans_;
  // Roots of unmounted filesystems, kept alive for the same reason.
  std::vector<std::unique_ptr<Vnode>> unmounted_;
  std::vector<std::unique_ptr<MountEntry>> mounts_;
  std::vector<Watch> watches_;
  std::atomic<uint64_t> next_ino_{2};  // 1 is the root inode, per ext tradition
  std::atomic<int> next_watch_id_{1};
};

}  // namespace protego

#endif  // SRC_VFS_VFS_H_
