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
// Concurrency (parallel mode), as in Linux since RCU-walk:
//   * Walks take no lock. Walk, PathOf and ListDir run inside a read
//     section of the Vfs's grace period (src/base/grace.h), and everything
//     they read is atomic or immutable once published: each directory's
//     entries are a copy-on-write hash trie of immutable nodes keyed by
//     name hash (src/vfs/dir_tree.h), so a lookup hashes its component once
//     and compares integers, and a create, unlink or rename copies one
//     root-to-slot path, publishes one new root (a rename within one
//     directory included) and retires the nodes it replaced through the
//     grace period; parent links, names, mount covers and the unlinked flag
//     are atomics. A walk and PathOf check a
//     tree-shape sequence count that only directory renames,
//     cross-directory renames, mount and umount bump; a walk that overlaps
//     one retries, and after kShapeRetries tries runs once more under the
//     rename lock, shared. The only lines a walk writes are its thread's
//     read slot and counters (ThreadShards).
//   * Writers lock only the directory they change: create, unlink and a
//     same-directory rename of a non-directory take that directory's lock
//     (an unlinked directory's own lock too). Everything that changes the
//     tree's shape takes rename_mu_, the rename/mount lock, first. Lock
//     order: rename_mu_, then directories (an ancestor before its
//     descendants; two unrelated ones, only ever together under rename_mu_,
//     in address order), then a data stripe. Every lock is an RwLock
//     (src/base/rw_lock.h); the directory locks count into one LockStats.
//   * data_mu_[ino % kDataStripes]: serializes an inode's writers (the
//     contents, the block charge flag, and stat's fields for write, chmod
//     and chown), and read and SnapshotInode take it shared for the
//     contents; one cache line per stripe. stat takes no lock: it reads the
//     inode's atomics under its sequence count (Inode::seq), which a writer
//     holding the stripe makes odd while it changes them.
//   * The watch list is an immutable snapshot too: AddWatch and RemoveWatch
//     copy and retire it under watch_mu_, and dispatch matches it inside a
//     read section, copying only the matching callbacks.
//   * Watch callbacks never run under a lock or inside a read section:
//     mutations queue events and the public entry points dispatch them
//     afterwards, because watchers (the monitoring daemon) re-enter the
//     VFS. No lock is held and no section is open across a user callback
//     (watches, synthetic file generators) or a scheduler yield.
//   * Returned Vnode* stay valid until the Vfs is destroyed: every vnode is
//     owned by the directory it was created in (a mount root by the
//     directory it covers), whether it is linked there, renamed elsewhere,
//     unlinked or unmounted. Scalar counters are relaxed atomics.

#ifndef SRC_VFS_VFS_H_
#define SRC_VFS_VFS_H_

#include <atomic>
#include <functional>
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
#include "src/base/grace.h"
#include "src/base/rw_lock.h"
#include "src/base/thread_shards.h"
#include "src/base/tracepoint.h"
#include "src/fault/fault.h"
#include "src/vfs/dir_tree.h"
#include "src/vfs/inode.h"

namespace protego {

class Vfs;
class Vnode;
struct MountEntry;

// A node in the directory tree (directory entry + inode). Mount roots are
// detached Vnode trees, owned by the directory they cover.
class Vnode {
 public:
  // A directory's lock counts into `dir_lock_stats` (its own when null).
  Vnode(std::string name, Inode inode, LockStats* dir_lock_stats = nullptr)
      : name_(new std::string(std::move(name))), inode_(std::move(inode)),
        dir_(inode_.IsDir() ? std::make_unique<Dir>(dir_lock_stats) : nullptr) {
    inode_.size.store(inode_.data.size(), std::memory_order_relaxed);
  }
  ~Vnode() { delete name_.load(std::memory_order_relaxed); }

  Vnode(const Vnode&) = delete;
  Vnode& operator=(const Vnode&) = delete;

  Inode& inode() { return inode_; }
  const Inode& inode() const { return inode_; }
  Vnode* parent() const { return parent_.load(std::memory_order_acquire); }

  // Child by name within this directory; nullptr if absent. Does not cross
  // mounts (Vfs::Walk does). The result and ListNames() read the published
  // entries: call them in a Vfs read section, or on a tree nothing else
  // changes (a populator's, single-threaded setup).
  Vnode* Lookup(std::string_view child) const;
  // The names, sorted (getdents order).
  std::vector<std::string> ListNames() const;
  bool HasChildren() const {
    return dir_ != nullptr && dir_->root.load(std::memory_order_acquire) != nullptr;
  }

  // Adds a child entry to this directory. Fails with EEXIST/ENOTDIR. Only
  // for a tree no walk reaches yet (a populator's new mount root): the
  // nodes it replaces are freed at once.
  Result<Vnode*> AddChild(std::string name, Inode inode);

 private:
  friend class Vfs;

  // What only a directory has.
  struct Dir {
    explicit Dir(LockStats* stats) : mu(stats) {}
    ~Dir() { DirFree(root.load(std::memory_order_relaxed)); }
    // The published entries, a copy-on-write hash trie (null when empty).
    std::atomic<const DirNode*> root{nullptr};
    // Non-null when a filesystem is mounted over this directory.
    std::atomic<MountEntry*> covered_by{nullptr};
    // Non-null when this directory is the root of a mounted filesystem.
    std::atomic<MountEntry*> mount_root_of{nullptr};
    // Serializes writers of the entries, and guards owned: every vnode
    // created here (and the roots of mounts over this directory). None is
    // freed before the Vfs.
    RwLock mu;
    std::vector<std::unique_ptr<Vnode>> owned;
  };

  MountEntry* covered_by() const {
    return dir_ != nullptr ? dir_->covered_by.load(std::memory_order_acquire) : nullptr;
  }
  MountEntry* mount_root_of() const {
    return dir_ != nullptr ? dir_->mount_root_of.load(std::memory_order_acquire) : nullptr;
  }
  // Creates a child owned by this directory (its lock held, or the tree
  // unpublished) and adds its entry to `edit`.
  Vnode* Link(DirEdit& edit, std::string_view name, Inode inode);

  // Replaced, and the old one retired, by a rename.
  std::atomic<const std::string*> name_;
  Inode inode_;
  std::atomic<Vnode*> parent_{nullptr};
  // Left the tree (unlinked, renamed over, an unmounted root): no creates.
  std::atomic<bool> unlinked_{false};
  // Null unless this is a directory.
  const std::unique_ptr<Dir> dir_;
};

// One row of the mount table; its mountpoint is wherever `covered` is now.
// Immutable once published; umount retires it through the grace period.
struct MountEntry {
  std::string source;      // backing device or pseudo-source ("proc", "tmpfs")
  std::string fstype;
  std::vector<std::string> options;
  Uid mounter = kRootUid;  // uid that performed the mount (for user umount)

  Vnode* root = nullptr;     // the mounted filesystem's tree
  Vnode* covered = nullptr;  // the directory this mount covers
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
  ~Vfs();

  Vfs(const Vfs&) = delete;
  Vfs& operator=(const Vfs&) = delete;

  // Attaches the kernel-wide tracer: mount-table changes emit kVfsMount
  // events (stamped with the calling syscall's span).
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  // Attaches the fault-injection registry: vnode allocation (ENOMEM) and
  // block allocation (ENOSPC) become injectable fault sites.
  void set_faults(FaultRegistry* faults) { faults_ = faults; }

  // Path resolutions performed since boot (exported as a metric).
  uint64_t resolves() const;

  // Slow-path counts of the tree's locks (the rename lock and every
  // directory lock, summed), the data stripes (summed) and the watch lock
  // since boot (exported as metrics).
  LockCounts tree_lock_counts() const;
  LockCounts data_lock_counts() const;
  LockCounts watch_lock_counts() const { return watch_mu_.counts(); }

  // The grace period every walk reads under; the kernel's one domain
  // (Kernel::grace()), which the Protego module's policy reads share.
  GraceDomain& grace() const { return grace_; }
  // Retirements (replaced directory nodes, names, mount rows, watch lists,
  // and anything else retired through grace()) not yet freed (exported as a
  // gauge).
  uint64_t grace_pending() const { return grace_.pending(); }

  // --- Block accounting ------------------------------------------------------
  //
  // Regular-file data bytes are charged against a filesystem-wide quota
  // (a crude but sufficient stand-in for per-fs block counts): LinkAt
  // charges a new file's initial contents, WriteNode charges growth and
  // releases shrinkage, and growing past the quota fails with ENOSPC.
  // Orphaned vnodes (unlinked/renamed-over while possibly still open) KEEP
  // their charge — as on a real filesystem, an unlinked inode's blocks are
  // freed only when the last reference dies, which in this simulation is
  // Vfs destruction. Files created by bootstrap populators that bypass
  // LinkAt are charged lazily on their first quota-aware write.

  // 0 = unlimited (the default; quota enforcement is opt-in).
  void set_block_quota(uint64_t bytes) { block_quota_ = bytes; }
  uint64_t block_quota() const { return block_quota_; }
  uint64_t bytes_used() const { return bytes_used_.load(std::memory_order_relaxed); }
  // Vnodes unlinked or renamed over since boot (each stays allocated).
  size_t orphan_count() const;

  // Recomputes charged bytes over every vnode ever created (the tree, every
  // mount, orphans and unmounted trees) and cross-checks against the
  // incremental bytes_used() counter. EIO with a diagnostic on divergence —
  // the fault-sweep harness runs this after every scenario. Expects data
  // writers to be quiescent.
  Result<Unit> AuditBlockAccounting() const;

  // --- The path walk ---------------------------------------------------------

  // Symlinks a walk may follow before ELOOP (Linux uses 40; the
  // simulation's filesystems are small enough that 8 suffices).
  static constexpr int kMaxSymlinkDepth = 8;

  // Walks `path` the way Linux path_resolution(7) does: from "/" when it is
  // absolute, else from `cwd` (an absolute path, walked first); ".." to the
  // parent, and from a mount root to the parent of the directory it covers;
  // symlink targets spliced in place, a final one followed when `follow` is
  // set or the path ends in '/'. Counts as one resolve. Takes no lock.
  WalkResult Walk(std::string_view cwd, std::string_view path, bool follow) const;

  // The object at an absolute path (EINVAL for a relative one), final
  // symlink followed.
  Result<Vnode*> Resolve(std::string_view path) const;

  // Canonical path of a node: the path a walk to it returns. Takes no lock.
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

  // Directory listing, sorted by name (kernel getdents path). Takes no lock.
  Result<std::vector<std::string>> ListDir(const Vnode* node) const;

  // Inode metadata snapshot/update helpers (chmod/chown/stat paths): the
  // kernel must not poke node->inode() fields directly in parallel mode.
  // A whole copy, contents included, under the node's data stripe.
  Inode SnapshotInode(const Vnode* node) const;
  // stat(2)'s fields alone, taking no lock: one (mode, uid, gid, size,
  // mtime) that a writer stored, read under the inode's sequence count.
  InodeStat StatNode(const Vnode* node) const;
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
  std::optional<Uid> MounterOf(const Vnode* node) const;
  std::optional<Uid> FindMount(std::string_view mountpoint) const {
    return MounterOf(Walk("/", mountpoint, true).node);
  }

  // The /proc/mounts body, one "source mountpoint fstype options mounter"
  // line per mount, formatted under the rename lock.
  std::string FormatMounts() const;

  // --- Watches (inotify analog) ----------------------------------------------

  // Invokes `cb` for events on canonical `path` or anything beneath it.
  // Returns a watch id for RemoveWatch. Callbacks run with no VFS lock held.
  int AddWatch(std::string path, WatchCallback cb);
  void RemoveWatch(int watch_id);

 private:
  // Queued filesystem events, dispatched once the mutation's locks are
  // released.
  using PendingEvents = std::vector<std::pair<FsEvent, std::string>>;

  struct Watch {
    int id;
    std::string path;
    WatchCallback callback;
  };
  using WatchList = std::vector<Watch>;

  // What each thread counts, merged on read.
  struct Shard {
    std::atomic<uint64_t> resolves{0};
    std::atomic<uint64_t> orphans{0};
  };

  static constexpr size_t kDataStripes = 16;
  // Lock-free tries a walk or PathOf makes before taking the rename lock.
  static constexpr int kShapeRetries = 4;

  RwLock& DataStripe(uint64_t ino) const { return data_mu_[ino % kDataStripes].mu; }

  // Runs `read` in a read section until no shape change overlapped it,
  // then, after kShapeRetries tries, once more under the rename lock.
  template <typename Read>
  auto ReadStable(Read&& read) const;
  // The bodies of Walk and PathOf: in a read section, checked against the
  // shape count or under the rename lock.
  WalkResult WalkBody(std::string_view cwd, std::string_view path, bool follow) const;
  std::string PathBody(const Vnode* node) const;
  // The topmost filesystem mounted over `node`, or `node` itself.
  static Vnode* Top(Vnode* node);
  // Brackets a shape change (rename_mu_ held): walks that overlap it retry.
  void BeginShapeChange() { shape_seq_.store(shape_seq_.load(std::memory_order_relaxed) + 1,
                                             std::memory_order_relaxed); }
  void EndShapeChange() { shape_seq_.store(shape_seq_.load(std::memory_order_relaxed) + 1,
                                           std::memory_order_release); }
  // Applies change(edit) to `dir`'s entries, with its lock held, publishes
  // the result as one new root and retires the nodes it replaced.
  template <typename Change>
  void EditDir(Vnode* dir, Change&& change) {
    DirEdit edit(dir->dir_->root.load(std::memory_order_relaxed));
    change(edit);
    dir->dir_->root.store(edit.root(), std::memory_order_release);
    edit.Release([this](const DirNode* node) { grace_.Retire(node); });
  }
  // The single vnode-allocation choke point every create routes through.
  Result<Vnode*> LinkAt(const WalkResult& at, Inode inode, PendingEvents* events);
  // Marks a vnode leaving the tree (unlinked or renamed over), with its
  // parent's lock and, for a directory, its own held. It stays allocated.
  void MarkOrphan(Vnode* node);
  // Moves `source` to to.dir/to.name; the locks RenameAt chose are held.
  Result<Unit> RenameLocked(const WalkResult& from, const WalkResult& to, Vnode* source,
                            PendingEvents* events);
  // Runs fn(&events), which takes and drops its own locks, then dispatches
  // the events.
  template <typename Fn>
  auto Mutate(Fn&& fn) {
    PendingEvents events;
    auto result = fn(&events);
    DispatchEvents(events);
    return result;
  }
  // Emits a kVfsMount trace event.
  void TraceMount(const char* what, std::string detail) const;
  // Releases the block charge of every charged inode under `node` (used
  // when a whole mount tree leaves).
  void UnchargeTree(Vnode* node);
  // Runs matching watch callbacks for each queued event. MUST be called
  // with no VFS lock held (callbacks re-enter the VFS).
  void DispatchEvents(PendingEvents& events) const;
  uint64_t NextIno() { return next_ino_.fetch_add(1, std::memory_order_relaxed); }
  uint64_t NowMtime() const { return clock_ ? clock_->Now() : 0; }

  Clock* clock_;
  Tracer* tracer_ = nullptr;
  FaultRegistry* faults_ = nullptr;
  uint64_t block_quota_ = 0;  // 0 = unlimited; set at boot, read-only after
  std::unique_ptr<Vnode> root_;
  // Bumped to odd and back to even around each shape change; every walk
  // reads it twice, so it shares its line only with fields read-only
  // after boot.
  std::atomic<uint64_t> shape_seq_{0};
  // Data writers on every thread update this: a line of its own.
  alignas(64) std::atomic<uint64_t> bytes_used_{0};  // charged regular-file data bytes
  std::atomic<uint64_t> next_ino_{2};  // 1 is the root inode, per ext tradition
  std::atomic<int> next_watch_id_{1};
  mutable GraceDomain grace_;
  mutable ThreadShards<Shard> shards_;
  // Directory structure changes: renames of directories and across
  // directories, mount and umount. Guards mounts_.
  mutable RwLock rename_mu_;
  LockStats dir_lock_stats_;  // every directory's lock counts here
  // One line per stripe: threads writing different files share no line.
  struct alignas(64) DataStripeLock {
    RwLock mu;
  };
  mutable DataStripeLock data_mu_[kDataStripes];  // file contents by ino
  RwLock watch_mu_;                               // serializes watch-list writers
  std::atomic<const WatchList*> watches_{nullptr};
  std::vector<std::unique_ptr<MountEntry>> mounts_;
};

}  // namespace protego

#endif  // SRC_VFS_VFS_H_
