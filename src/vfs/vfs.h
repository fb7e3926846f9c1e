// The simulated virtual filesystem: a directory tree of Vnodes, a mount
// table, path resolution with mount crossing, and inotify-style watches.
//
// The VFS performs no permission checks; the kernel layer (src/kernel)
// applies DAC + LSM policy and then calls into these primitives, exactly as
// the Linux VFS relies on callers having passed inode_permission().
//
// Locking (parallel mode):
//   * tree_mu_ (reader-writer): the directory structure — children maps,
//     parent links, mount covers, the mount table, and the orphan list.
//     Resolution and PathOf take it shared; create/unlink/rename/mount and
//     chmod/chown-style metadata updates take it unique. Striped per-path
//     dentry locks would admit more write parallelism, but structural
//     writes are rare in every workload we model, so one tree lock with
//     striped DATA locks (below) captures the win at a fraction of the
//     deadlock surface.
//   * data_mu_[ino % kDataStripes]: file contents, mtime, and the block
//     charge flag. Reads take the stripe shared, writes unique — so N
//     threads stream N different files without touching the tree lock's
//     writer path. Safe without the tree lock because unlinked vnodes are
//     kept alive on the orphan list (a Vnode* never dangles).
//   * Watch callbacks NEVER run under a lock: mutations queue events and
//     the public entry points dispatch them after unlocking, because
//     watchers (the monitoring daemon) re-enter the VFS from their
//     callbacks. Lock order is tree_mu_ before data stripe; neither is
//     held across user callbacks (watches, synthetic file generators).
//   * Returned Vnode* remain valid forever (orphan pinning); inode METADATA
//     (mode/uid/gid) is guarded by tree_mu_ via the SetInode* helpers, and
//     scalar counters are relaxed atomics.

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
  // mounts — Vfs::Resolve handles mount traversal. Caller must hold the
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
  std::map<std::string, std::unique_ptr<Vnode>> children_;

  // Non-null when a filesystem is mounted over this directory.
  MountEntry* covered_by_ = nullptr;
  // Non-null when this node is the root of a mounted filesystem.
  MountEntry* mount_root_of_ = nullptr;
};

// One row of the mount table.
struct MountEntry {
  std::string source;      // backing device or pseudo-source ("proc", "tmpfs")
  std::string mountpoint;  // normalized absolute path
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

class Vfs {
 public:
  // Creates a filesystem containing only "/".
  explicit Vfs(Clock* clock = nullptr);

  Vfs(const Vfs&) = delete;
  Vfs& operator=(const Vfs&) = delete;

  // Attaches the kernel-wide tracer: mount-table changes emit kVfsMount
  // events (stamped with the calling syscall's span).
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  // Per-layer latency attribution: path resolution runs under a `vfs`
  // frame. Detached or disabled, resolution pays a pointer test.
  void set_profiler(LayerProfiler* profiler) { profiler_ = profiler; }

  // Attaches the fault-injection registry: vnode allocation (ENOMEM) and
  // block allocation (ENOSPC) become injectable fault sites.
  void set_faults(FaultRegistry* faults) { faults_ = faults; }

  // Path resolutions performed since boot (exported as a metric).
  uint64_t resolves() const { return resolves_.load(std::memory_order_relaxed); }

  // --- Block accounting ------------------------------------------------------
  //
  // Regular-file data bytes are charged against a filesystem-wide quota
  // (a crude but sufficient stand-in for per-fs block counts): CreateNode
  // charges a new file's initial contents, WriteNode charges growth and
  // releases shrinkage, and growing past the quota fails with ENOSPC.
  // Orphaned vnodes (unlinked/renamed-over while possibly still open) KEEP
  // their charge — as on a real filesystem, an unlinked inode's blocks are
  // freed only when the last reference dies, which in this simulation is
  // Vfs destruction. Files created by bootstrap populators that bypass
  // CreateNode are charged lazily on their first quota-aware write.

  // 0 = unlimited (the default; quota enforcement is opt-in).
  void set_block_quota(uint64_t bytes) { block_quota_ = bytes; }
  uint64_t block_quota() const { return block_quota_; }
  uint64_t bytes_used() const { return bytes_used_.load(std::memory_order_relaxed); }
  size_t orphan_count() const;

  // Recomputes charged bytes by walking the tree, every mount, and the
  // orphan list, and cross-checks against the incremental bytes_used()
  // counter. EIO with a diagnostic on divergence — the fault-sweep harness
  // runs this after every scenario. Expects data writers to be quiescent.
  Result<Unit> AuditBlockAccounting() const;

  // --- Path resolution -----------------------------------------------------

  // Collapses ".", "..", duplicate slashes. `path` must be absolute.
  static std::string Normalize(std::string_view path);

  // Symlink chains longer than this fail with ELOOP (Linux uses 40; the
  // simulation's filesystems are small enough that 8 suffices).
  static constexpr int kMaxSymlinkDepth = 8;

  // Resolves an absolute path to its Vnode, crossing mountpoints and
  // following symlinks (including the final component; use ResolveNoFollow
  // for lstat-style leaf access).
  Result<Vnode*> Resolve(std::string_view path) const;

  // Like Resolve, but does not follow a symlink in the FINAL component
  // (intermediate symlinks are still followed).
  Result<Vnode*> ResolveNoFollow(std::string_view path) const;

  // Resolves all but the last component; returns (parent dir, leaf name).
  Result<std::pair<Vnode*, std::string>> ResolveParent(std::string_view path) const;

  // Absolute path of a node (inverse of Resolve; accounts for mounts).
  std::string PathOf(const Vnode* node) const;

  // --- Node creation / removal / mutation ----------------------------------

  Result<Vnode*> CreateFile(std::string_view path, uint32_t perms, Uid uid, Gid gid,
                            std::string data = "");
  Result<Vnode*> CreateDir(std::string_view path, uint32_t perms, Uid uid, Gid gid);
  // Creates a symbolic link at `path` pointing at `target` (not required to
  // exist — dangling links are legal, as on Linux). Mode is always 0777.
  Result<Vnode*> CreateSymlink(std::string_view path, std::string_view target, Uid uid,
                               Gid gid);
  Result<Vnode*> CreateDevice(std::string_view path, uint32_t perms, Uid uid, Gid gid,
                              bool block, uint32_t major, uint32_t minor);

  // Creates a synthetic (procfs-style) file whose content is generated by
  // `ops`. Missing parent directories are created root-owned 0755.
  Result<Vnode*> CreateSynthetic(std::string_view path, uint32_t perms, SyntheticOps ops);

  // Creates any missing directories along `path` (mkdir -p), root 0755.
  Result<Vnode*> EnsureDirs(std::string_view path);

  Result<Unit> Unlink(std::string_view path);
  Result<Unit> Rename(std::string_view from, std::string_view to);

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

  // Grafts a new filesystem over the directory at `mountpoint`.
  Result<Unit> AddMount(std::string_view mountpoint, std::string source, std::string fstype,
                        std::vector<std::string> options, Uid mounter,
                        const MountPopulator& populate);

  // Removes the mount at `mountpoint`. EINVAL if nothing is mounted there.
  Result<Unit> RemoveMount(std::string_view mountpoint);

  // The uid that mounted the filesystem at `mountpoint`, or nullopt when
  // nothing is mounted there. Returned by value: the entry itself may be
  // freed by a concurrent RemoveMount as soon as the lock is released.
  std::optional<Uid> FindMount(std::string_view mountpoint) const;

  // The /proc/mounts body, one "source mountpoint fstype options mounter"
  // line per mount, formatted under the tree lock.
  std::string FormatMounts() const;

  // --- Watches (inotify analog) ----------------------------------------------

  // Invokes `cb` for events on `path` or anything beneath it. Returns a
  // watch id for RemoveWatch. Callbacks run with no VFS lock held.
  int AddWatch(std::string path, WatchCallback cb);
  void RemoveWatch(int watch_id);

 private:
  // Queued filesystem events, dispatched after the tree lock is released.
  using PendingEvents = std::vector<std::pair<FsEvent, std::string>>;

  static constexpr size_t kDataStripes = 16;
  std::shared_mutex& DataStripe(uint64_t ino) const {
    return data_mu_[ino % kDataStripes];
  }

  Vnode* root() const { return root_.get(); }
  // Lock-free internals; callers hold tree_mu_ (shared for resolution,
  // unique for mutation).
  Result<Vnode*> ResolveInternal(std::string_view path, bool want_parent,
                                 std::string* leaf_out, bool follow_leaf = true) const;
  std::string PathOfLocked(const Vnode* node) const;
  Result<Vnode*> CreateNodeLocked(std::string_view path, Inode inode, PendingEvents* events);
  Result<Vnode*> EnsureDirsLocked(std::string_view path);
  const MountEntry* FindMountLocked(std::string_view mountpoint) const;
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
  LayerProfiler* profiler_ = nullptr;
  FaultRegistry* faults_ = nullptr;
  uint64_t block_quota_ = 0;  // 0 = unlimited; set at boot, read-only after
  std::atomic<uint64_t> bytes_used_{0};     // charged regular-file data bytes
  mutable std::atomic<uint64_t> resolves_{0};  // accounting from const Resolve()
  mutable std::shared_mutex tree_mu_;          // directory structure + metadata
  mutable std::shared_mutex data_mu_[kDataStripes];  // file contents by ino
  mutable std::mutex watch_mu_;                // watch list
  std::unique_ptr<Vnode> root_;
  // Vnodes unlinked or displaced by rename stay alive here until the Vfs is
  // destroyed: open file descriptions hold raw Vnode*, and on a real system
  // an open inode outlives its last directory entry.
  std::vector<std::unique_ptr<Vnode>> orphans_;
  std::vector<std::unique_ptr<MountEntry>> mounts_;
  std::vector<Watch> watches_;
  std::atomic<uint64_t> next_ino_{2};  // 1 is the root inode, per ext tradition
  std::atomic<int> next_watch_id_{1};
};

}  // namespace protego

#endif  // SRC_VFS_VFS_H_
