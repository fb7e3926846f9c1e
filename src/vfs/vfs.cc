#include "src/vfs/vfs.h"

#include <algorithm>

#include "src/base/hash.h"
#include "src/base/strings.h"

namespace protego {

const char* FsEventName(FsEvent event) {
  switch (event) {
    case FsEvent::kCreated: return "CREATED";
    case FsEvent::kModified: return "MODIFIED";
    case FsEvent::kDeleted: return "DELETED";
  }
  return "?";
}

Vnode* Vnode::Lookup(std::string_view child) const {
  if (dir_ == nullptr) {
    return nullptr;
  }
  const DirEntry* entry =
      DirFind(dir_->root.load(std::memory_order_acquire), Fnv1a(child), child);
  return entry != nullptr ? entry->node : nullptr;
}

std::vector<std::string> Vnode::ListNames() const {
  std::vector<std::string_view> sorted;
  if (dir_ != nullptr) {
    DirForEach(dir_->root.load(std::memory_order_acquire),
               [&](const DirEntry& entry) { sorted.push_back(*entry.name); });
  }
  std::sort(sorted.begin(), sorted.end());
  return std::vector<std::string>(sorted.begin(), sorted.end());
}

Vnode* Vnode::Link(DirEdit& edit, std::string_view name, Inode inode) {
  dir_->owned.push_back(
      std::make_unique<Vnode>(std::string(name), std::move(inode), dir_->mu.stats()));
  Vnode* node = dir_->owned.back().get();
  node->parent_.store(this, std::memory_order_relaxed);
  const std::string* stored = node->name_.load(std::memory_order_relaxed);
  edit.Insert({Fnv1a(*stored), stored, node});
  return node;
}

Result<Vnode*> Vnode::AddChild(std::string name, Inode inode) {
  if (dir_ == nullptr) {
    return Error(Errno::kENOTDIR, *name_.load(std::memory_order_relaxed));
  }
  if (Lookup(name) != nullptr) {
    return Error(Errno::kEEXIST, name);
  }
  DirEdit edit(dir_->root.load(std::memory_order_relaxed));
  Vnode* node = Link(edit, name, std::move(inode));
  dir_->root.store(edit.root(), std::memory_order_release);
  edit.Release([](const DirNode* replaced) { delete replaced; });
  return node;
}

std::string_view DirPathOf(std::string_view canonical) {
  size_t slash = canonical.rfind('/');
  return slash == 0 || slash == std::string_view::npos ? "/" : canonical.substr(0, slash);
}

namespace {

// Makes an inode's sequence count odd for its scope, its data stripe held:
// a stat that overlaps the change retries. The writer stores the changed
// fields with release (or stronger) ordering, which keeps them after the
// odd count.
class StatChange {
 public:
  explicit StatChange(Inode& inode) : seq_(inode.seq) {
    seq_.store(seq_.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }
  ~StatChange() {
    seq_.store(seq_.load(std::memory_order_relaxed) + 1, std::memory_order_release);
  }
  StatChange(const StatChange&) = delete;
  StatChange& operator=(const StatChange&) = delete;

 private:
  std::atomic<uint32_t>& seq_;
};

// Takes the next component off the front of `rest` (empty when none is
// left).
std::string_view NextComponent(std::string_view& rest) {
  size_t start = std::min(rest.find_first_not_of('/'), rest.size());
  size_t end = std::min(rest.find('/', start), rest.size());
  std::string_view comp = rest.substr(start, end - start);
  rest.remove_prefix(end);
  return comp;
}

}  // namespace

Vfs::Vfs(Clock* clock) : clock_(clock) {
  Inode root_inode;
  root_inode.ino = 1;
  root_inode.mode = kIfDir | 0755;
  root_.reset(new Vnode("", std::move(root_inode), &dir_lock_stats_));
}

Vfs::~Vfs() = default;

Vnode* Vfs::Top(Vnode* node) {
  for (MountEntry* m; (m = node->covered_by()) != nullptr;) {
    node = m->root;
  }
  return node;
}

template <typename Read>
auto Vfs::ReadStable(Read&& read) const {
  for (int i = 0; i < kShapeRetries; ++i) {
    GraceDomain::Section section(grace_);
    const uint64_t seq = shape_seq_.load(std::memory_order_acquire);
    if ((seq & 1) == 0) {
      // Everything `read` loads is an acquire load, so this second read of
      // the count cannot move above them.
      auto result = read();
      if (shape_seq_.load(std::memory_order_acquire) == seq) {
        return result;
      }
    }
  }
  std::shared_lock<RwLock> lk(rename_mu_);
  GraceDomain::Section section(grace_);
  return read();
}

WalkResult Vfs::Walk(std::string_view cwd, std::string_view path, bool follow) const {
  LayerScope vfs_scope(Layer::kVfs);
  std::atomic<uint64_t>& resolves = shards_.Mine().resolves;
  resolves.store(resolves.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  return ReadStable([&] { return WalkBody(cwd, path, follow); });
}

WalkResult Vfs::WalkBody(std::string_view cwd, std::string_view path, bool follow) const {
  WalkResult w;
  w.err = path.empty() ? Errno::kENOENT : Errno::kOk;
  // The text still to walk, innermost last: a symlink's target sits above
  // the rest of the path that named it. Absolute pieces restart at "/".
  std::string_view views[kMaxSymlinkDepth + 2] = {path, cwd};
  size_t nviews = !path.empty() && path[0] != '/' ? 2 : 1;
  Vnode* node = Top(root_.get());
  std::string canon;      // "" stands for "/"
  canon.reserve((nviews == 2 ? cwd.size() + 1 : 0) + path.size());
  std::string_view name;  // the last regular component looked up
  int links_left = kMaxSymlinkDepth;
  while (w.err == Errno::kOk) {
    std::string_view comp;
    while (nviews > 0 && (comp = NextComponent(views[nviews - 1])).empty()) {
      --nviews;
    }
    if (comp.empty()) {
      break;
    }
    // Is this the final component, and does a '/' follow it?
    w.last = true;
    w.dir_only = false;
    for (size_t i = 0; i < nviews && w.last; ++i) {
      w.last = views[i].find_first_not_of('/') == std::string_view::npos;
      w.dir_only |= !views[i].empty();
    }
    const bool dot = comp == "." || comp == "..";
    const bool is_dir = node->inode().IsDir();
    name = dot ? std::string_view() : comp;
    w.dir = dot || !is_dir ? nullptr : node;
    Vnode* child = dot || !is_dir ? nullptr : node->Lookup(comp);
    if (child != nullptr) {
      child = Top(child);
    }
    if (!is_dir) {
      w.err = Errno::kENOTDIR;
    } else if (dot) {
      // ".." climbs out of mount roots to the parent of the covered
      // directory, and stays put at the top.
      Vnode* up = node;
      for (MountEntry* m; (m = up->mount_root_of()) != nullptr;) {
        up = m->covered;
      }
      Vnode* parent = up->parent_.load(std::memory_order_acquire);
      if (comp == ".." && parent != nullptr) {
        node = Top(parent);
        canon.resize(canon.rfind('/'));
      }
    } else if (child == nullptr) {
      w.err = Errno::kENOENT;
    } else if (child->inode().IsSymlink() && (!w.last || follow || w.dir_only)) {
      // Splice the target in: a relative one continues from `node`, the
      // directory holding the link.
      const std::string& target = child->inode().data;
      if (--links_left < 0) {
        w.err = Errno::kELOOP;
      } else {
        views[nviews++] = target;
        if (target[0] == '/') {
          node = Top(root_.get());
          canon.clear();
        }
      }
    } else {
      node = child;
      canon += '/';
      canon += comp;
    }
  }
  // A failed walk names the component it could not get past.
  w.name = std::string(name);
  if (w.err != Errno::kOk && !name.empty()) {
    canon += '/';
    canon += name;
  }
  w.path = canon.empty() ? "/" : std::move(canon);
  if (w.err == Errno::kOk && w.dir_only && !node->inode().IsDir()) {
    w.err = Errno::kENOTDIR;  // a trailing slash on a non-directory
  }
  w.node = w.err == Errno::kOk ? node : nullptr;
  return w;
}

Result<Vnode*> Vfs::Resolve(std::string_view path) const {
  if (path.empty() || path[0] != '/') {
    return Error(Errno::kEINVAL, "path must be absolute: " + std::string(path));
  }
  WalkResult w = Walk("/", path, /*follow=*/true);
  return w.err == Errno::kOk ? Result<Vnode*>(w.node) : Error(w.err, w.path);
}

std::string Vfs::PathOf(const Vnode* node) const {
  return ReadStable([&] { return PathBody(node); });
}

std::string Vfs::PathBody(const Vnode* node) const {
  // A mount root sits where the directory it covers does.
  for (MountEntry* m; (m = node->mount_root_of()) != nullptr;) {
    node = m->covered;
  }
  const Vnode* parent = node->parent_.load(std::memory_order_acquire);
  if (parent == nullptr) {
    return "/";
  }
  std::string path = PathBody(parent);
  if (path.size() > 1) {
    path += '/';
  }
  return path += *node->name_.load(std::memory_order_acquire);
}

Result<Vnode*> Vfs::LinkAt(const WalkResult& at, Inode inode, PendingEvents* events) {
  // The single vnode-allocation choke point: every create routes through
  // here, so one fault site models inode/dentry cache exhaustion.
  if (faults_ != nullptr && faults_->any_enabled()) {
    RETURN_IF_ERROR(faults_->Check(FaultSite::kVfsVnodeAlloc, "vfs vnode allocation"));
  }
  if (at.err == Errno::kOk || at.dir == nullptr) {
    return Error(Errno::kEEXIST, at.path);
  }
  if (at.err != Errno::kENOENT || !at.last) {
    return Error(at.err, at.path);
  }
  if (at.dir_only && !inode.IsDir()) {
    return Error(Errno::kEISDIR, at.path);
  }
  if (inode.IsSymlink() && inode.data.empty()) {
    return Error(Errno::kEINVAL, "empty symlink target");
  }
  std::unique_lock<RwLock> lk(at.dir->dir_->mu);
  if (at.dir->unlinked_.load(std::memory_order_relaxed)) {
    return Error(Errno::kENOENT, at.path);
  }
  if (at.dir->Lookup(at.name) != nullptr) {
    return Error(Errno::kEEXIST, at.name);
  }
  // A regular file's initial contents are charged against the block quota;
  // the checks run before the vnode is linked in so a refused create leaves
  // no partial state.
  bool charge = inode.IsReg() && inode.synthetic == nullptr;
  uint64_t size = charge ? inode.data.size() : 0;
  if (charge && size > 0) {
    if (faults_ != nullptr && faults_->any_enabled()) {
      RETURN_IF_ERROR(faults_->Check(FaultSite::kVfsBlockAlloc, "vfs block allocation"));
    }
    if (block_quota_ != 0 &&
        bytes_used_.load(std::memory_order_relaxed) + size > block_quota_) {
      return Error(Errno::kENOSPC, at.path);
    }
  }
  inode.ino = NextIno();
  inode.mtime = NowMtime();
  if (charge) {
    bytes_used_.fetch_add(size, std::memory_order_relaxed);
    inode.charged = true;
  }
  Vnode* node = nullptr;
  EditDir(at.dir, [&](DirEdit& edit) { node = at.dir->Link(edit, at.name, std::move(inode)); });
  events->emplace_back(FsEvent::kCreated, at.path);
  return node;
}

Result<Vnode*> Vfs::CreateAt(const WalkResult& at, Inode inode) {
  return Mutate([&](PendingEvents* events) { return LinkAt(at, std::move(inode), events); });
}

Result<Vnode*> Vfs::CreateDevice(std::string_view path, uint32_t perms, Uid uid, Gid gid,
                                 bool block, uint32_t major, uint32_t minor) {
  Inode inode((block ? kIfBlk : kIfChr) | (perms & kPermMask), uid, gid);
  inode.rdev_major = major;
  inode.rdev_minor = minor;
  return CreateAt(Walk("/", path, /*follow=*/false), std::move(inode));
}

Result<Vnode*> Vfs::CreateSynthetic(std::string_view path, uint32_t perms, SyntheticOps ops) {
  RETURN_IF_ERROR(EnsureDirs(DirPathOf(path)));
  Inode inode(kIfReg | (perms & kPermMask), kRootUid, kRootGid);
  inode.synthetic = std::make_shared<SyntheticOps>(std::move(ops));
  return CreateAt(Walk("/", path, /*follow=*/false), std::move(inode));
}

Result<Vnode*> Vfs::EnsureDirs(std::string_view path) {
  while (true) {
    WalkResult w = Walk("/", path, /*follow=*/true);
    if (w.err == Errno::kOk) {
      return w.node->inode().IsDir() ? Result<Vnode*>(w.node) : Error(Errno::kENOTDIR, w.path);
    }
    if (w.err != Errno::kENOENT) {
      return Error(w.err, w.path);
    }
    // Create the first missing directory; if another thread created the
    // name since the walk, walk again.
    std::unique_lock<RwLock> lk(w.dir->dir_->mu);
    if (w.dir->unlinked_.load(std::memory_order_relaxed)) {
      return Error(Errno::kENOENT, w.path);
    }
    if (w.dir->Lookup(w.name) == nullptr) {
      Inode inode(kIfDir | 0755, kRootUid, kRootGid);
      inode.ino = NextIno();
      inode.mtime = NowMtime();
      EditDir(w.dir, [&](DirEdit& edit) { w.dir->Link(edit, w.name, std::move(inode)); });
    }
  }
}

void Vfs::MarkOrphan(Vnode* node) {
  node->unlinked_.store(true, std::memory_order_relaxed);
  std::atomic<uint64_t>& orphans = shards_.Mine().orphans;
  orphans.store(orphans.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
}

Result<Unit> Vfs::UnlinkAt(const WalkResult& at) {
  return Mutate([&](PendingEvents* events) -> Result<Unit> {
    if (at.err != Errno::kOk) {
      return Error(at.err, at.path);
    }
    if (at.dir == nullptr) {
      return Error(Errno::kEBUSY, at.path);
    }
    std::unique_lock<RwLock> lk(at.dir->dir_->mu);
    Vnode* child =
        at.dir->unlinked_.load(std::memory_order_relaxed) ? nullptr : at.dir->Lookup(at.name);
    if (child == nullptr) {
      return Error(Errno::kENOENT, at.path);
    }
    // A directory's own lock, parent first: no create lands in it, and no
    // mount covers it, while it goes.
    std::unique_lock<RwLock> child_lk;
    if (child->inode().IsDir()) {
      child_lk = std::unique_lock<RwLock>(child->dir_->mu);
      if (child->covered_by() != nullptr) {
        return Error(Errno::kEBUSY, at.path);
      }
      if (child->HasChildren()) {
        return Error(Errno::kENOTEMPTY, at.path);
      }
    }
    events->emplace_back(FsEvent::kDeleted, at.path);
    MarkOrphan(child);
    EditDir(at.dir, [&](DirEdit& edit) { edit.Erase(Fnv1a(at.name), at.name); });
    return OkUnit();
  });
}

namespace {

bool IsAncestor(const Vnode* ancestor, const Vnode* node) {
  for (; node != nullptr; node = node->parent()) {
    if (node == ancestor) {
      return true;
    }
  }
  return false;
}

}  // namespace

Result<Unit> Vfs::RenameAt(const WalkResult& from, const WalkResult& to) {
  return Mutate([&](PendingEvents* events) -> Result<Unit> {
    if (from.err != Errno::kOk) {
      return Error(from.err, from.path);
    }
    if (to.err != Errno::kOk && (to.err != Errno::kENOENT || !to.last)) {
      return Error(to.err, to.path);
    }
    if (from.dir == nullptr || to.dir == nullptr) {
      return Error(Errno::kEBUSY, from.dir == nullptr ? from.path : to.path);
    }
    if (from.dir == to.dir) {
      // A non-directory renamed within its directory changes only that
      // directory: its lock suffices, and walks need not retry.
      std::unique_lock<RwLock> lk(from.dir->dir_->mu);
      Vnode* source = from.dir->unlinked_.load(std::memory_order_relaxed)
                          ? nullptr
                          : from.dir->Lookup(from.name);
      if (source == nullptr || !source->inode().IsDir()) {
        return RenameLocked(from, to, source, events);
      }
    }
    // The tree's shape changes: the rename lock, then both directories,
    // an ancestor first (the shape cannot change under the rename lock).
    std::unique_lock<RwLock> shape_lk(rename_mu_);
    Vnode* first = from.dir;
    Vnode* second = to.dir;
    if (IsAncestor(second, first) ||
        (!IsAncestor(first, second) && std::less<Vnode*>()(second, first))) {
      std::swap(first, second);
    }
    std::unique_lock<RwLock> first_lk(first->dir_->mu);
    std::unique_lock<RwLock> second_lk;
    if (second != first) {
      second_lk = std::unique_lock<RwLock>(second->dir_->mu);
    }
    Vnode* source =
        from.dir->unlinked_.load(std::memory_order_relaxed) ? nullptr : from.dir->Lookup(from.name);
    // A directory renamed over is locked too, after its parent, so no
    // create lands in it as it goes; one that holds from.dir (not empty, so
    // the rename fails) is never locked after its own descendant.
    Vnode* existing = to.dir->Lookup(to.name);
    std::unique_lock<RwLock> existing_lk;
    if (existing != nullptr && existing->inode().IsDir() && !IsAncestor(existing, from.dir)) {
      existing_lk = std::unique_lock<RwLock>(existing->dir_->mu);
    }
    BeginShapeChange();
    Result<Unit> result = RenameLocked(from, to, source, events);
    EndShapeChange();
    return result;
  });
}

Result<Unit> Vfs::RenameLocked(const WalkResult& from, const WalkResult& to, Vnode* source,
                               PendingEvents* events) {
  if (source == nullptr || to.dir->unlinked_.load(std::memory_order_relaxed)) {
    return Error(Errno::kENOENT, source == nullptr ? from.path : to.path);
  }
  if (source->covered_by() != nullptr) {
    return Error(Errno::kEBUSY, from.path);
  }
  Vnode* existing = to.dir->Lookup(to.name);
  if (existing == source) {
    return OkUnit();  // same entry: Linux's rename is a successful no-op
  }
  const bool is_dir = source->inode().IsDir();
  // A directory may not become its own ancestor: look for it above the
  // target directory, across mount roots.
  for (const Vnode* v = to.dir; is_dir && v != nullptr;) {
    if (v == source) {
      return Error(Errno::kEINVAL, to.path);
    }
    const MountEntry* m = v->mount_root_of();
    v = m != nullptr ? m->covered : v->parent();
  }
  if ((to.dir_only && !is_dir) || (existing != nullptr && is_dir != existing->inode().IsDir())) {
    return Error(is_dir || to.dir_only ? Errno::kENOTDIR : Errno::kEISDIR, to.path);
  }
  if (existing != nullptr) {
    if (existing->covered_by() != nullptr) {
      return Error(Errno::kEBUSY, to.path);
    }
    if (existing->HasChildren()) {
      return Error(Errno::kENOTEMPTY, to.path);
    }
  }
  events->emplace_back(FsEvent::kDeleted, from.path);
  if (existing != nullptr) {
    MarkOrphan(existing);
  }
  // The target name is never missing: to.dir links the source under it
  // (replacing any existing entry) before from.dir drops the old name, and
  // a rename within one directory publishes both changes as one root.
  const std::string* name = new std::string(to.name);
  const DirEntry entry{Fnv1a(*name), name, source};
  if (from.dir == to.dir) {
    EditDir(to.dir, [&](DirEdit& edit) {
      edit.Erase(Fnv1a(from.name), from.name);
      edit.Insert(entry);
    });
  } else {
    EditDir(to.dir, [&](DirEdit& edit) { edit.Insert(entry); });
    EditDir(from.dir, [&](DirEdit& edit) { edit.Erase(Fnv1a(from.name), from.name); });
    source->parent_.store(to.dir, std::memory_order_release);
  }
  grace_.Retire(source->name_.exchange(name, std::memory_order_acq_rel));
  events->emplace_back(FsEvent::kCreated, to.path);
  return OkUnit();
}

Result<std::string> Vfs::ReadNode(const Vnode* node) const {
  const Inode& inode = node->inode();
  if (inode.IsDir()) {
    return Error(Errno::kEISDIR, PathOf(node));
  }
  // The synthetic pointer and the file-type bits are immutable after
  // creation, so both checks above are lock-free; generators run with NO
  // VFS lock held (they call back into the kernel and the LSM).
  if (inode.synthetic != nullptr) {
    if (!inode.synthetic->read) {
      return Error(Errno::kEINVAL, "synthetic file is write-only");
    }
    return inode.synthetic->read();
  }
  std::shared_lock<RwLock> lk(DataStripe(inode.ino));
  return inode.data;
}

Result<Unit> Vfs::WriteNode(Vnode* node, std::string_view data, bool append) {
  Inode& inode = node->inode();
  if (inode.IsDir()) {
    return Error(Errno::kEISDIR, PathOf(node));
  }
  // The path is used for error diagnostics and the kModified event.
  std::string path = PathOf(node);
  if (inode.synthetic != nullptr) {
    if (!inode.synthetic->write) {
      return Error(Errno::kEACCES, "synthetic file is read-only");
    }
    // The write handler may re-enter the VFS (policy reloads resolve and
    // read config files), so it runs with no lock held.
    RETURN_IF_ERROR(inode.synthetic->write(data));
    std::unique_lock<RwLock> lk(DataStripe(inode.ino));
    StatChange change(inode);
    inode.mtime.store(NowMtime(), std::memory_order_release);
  } else {
    std::unique_lock<RwLock> lk(DataStripe(inode.ino));
    // Block accounting: charge growth (fault site + quota check BEFORE the
    // data mutates — a refused write leaves the file byte-identical),
    // release shrinkage. Files populated outside LinkAt are charged in
    // full on their first write here. The quota check is check-then-add
    // across stripes, so concurrent growers may overshoot the quota by one
    // write each — the same slop a real filesystem's per-CPU free-block
    // estimates exhibit.
    uint64_t old_charged = inode.charged ? inode.data.size() : 0;
    uint64_t new_size = append ? inode.data.size() + data.size() : data.size();
    if (inode.IsReg() && new_size > old_charged) {
      if (faults_ != nullptr && faults_->any_enabled()) {
        RETURN_IF_ERROR(faults_->Check(FaultSite::kVfsBlockAlloc, "vfs block allocation"));
      }
      if (block_quota_ != 0 && bytes_used_.load(std::memory_order_relaxed) - old_charged +
                                       new_size >
                                   block_quota_) {
        return Error(Errno::kENOSPC, path);
      }
    }
    if (inode.IsReg()) {
      // Unsigned wraparound makes this one fetch_add correct for both
      // growth and shrinkage.
      bytes_used_.fetch_add(new_size - old_charged, std::memory_order_relaxed);
      inode.charged = true;
    }
    StatChange change(inode);
    if (append) {
      inode.data.append(data);
    } else {
      inode.data.assign(data);
    }
    inode.size.store(inode.data.size(), std::memory_order_release);
    inode.mtime.store(NowMtime(), std::memory_order_release);
  }
  PendingEvents events;
  events.emplace_back(FsEvent::kModified, std::move(path));
  DispatchEvents(events);
  return OkUnit();
}

Result<std::vector<std::string>> Vfs::ListDir(const Vnode* node) const {
  if (!node->inode().IsDir()) {
    return Error(Errno::kENOTDIR, PathOf(node));
  }
  GraceDomain::Section section(grace_);
  return node->ListNames();
}

Inode Vfs::SnapshotInode(const Vnode* node) const {
  std::shared_lock<RwLock> lk(DataStripe(node->inode().ino));
  return node->inode();
}

InodeStat Vfs::StatNode(const Vnode* node) const {
  // Each field is an acquire load, so the second read of the count cannot
  // move above them; a writer that overlapped the reads moved the count.
  const Inode& inode = node->inode();
  InodeStat st{.ino = inode.ino, .rdev_major = inode.rdev_major, .rdev_minor = inode.rdev_minor};
  while (true) {
    const uint32_t seq = inode.seq.load(std::memory_order_acquire);
    st.mode = inode.mode.load(std::memory_order_acquire);
    st.uid = inode.uid.load(std::memory_order_acquire);
    st.gid = inode.gid.load(std::memory_order_acquire);
    st.size = inode.size.load(std::memory_order_acquire);
    st.mtime = inode.mtime.load(std::memory_order_acquire);
    if ((seq & 1) == 0 && inode.seq.load(std::memory_order_relaxed) == seq) {
      return st;
    }
  }
}

void Vfs::SetInodeMode(Vnode* node, uint32_t perms) {
  Inode& inode = node->inode();
  std::unique_lock<RwLock> lk(DataStripe(inode.ino));
  StatChange change(inode);
  inode.mode.store((inode.ModeRelaxed() & kIfMask) | (perms & kPermMask),
                   std::memory_order_release);
}

void Vfs::SetInodeOwner(Vnode* node, Uid uid, Gid gid, bool clear_sbits) {
  Inode& inode = node->inode();
  std::unique_lock<RwLock> lk(DataStripe(inode.ino));
  StatChange change(inode);
  inode.uid.store(uid, std::memory_order_release);
  inode.gid.store(gid, std::memory_order_release);
  if (clear_sbits) {
    inode.mode.store(inode.ModeRelaxed() & ~(kSetUidBit | kSetGidBit), std::memory_order_release);
  }
}

Result<std::string> Vfs::ReadFile(std::string_view path) const {
  ASSIGN_OR_RETURN(Vnode * node, Resolve(path));
  return ReadNode(node);
}

Result<Unit> Vfs::WriteFile(std::string_view path, std::string_view data) {
  ASSIGN_OR_RETURN(Vnode * node, Resolve(path));
  return WriteNode(node, data, /*append=*/false);
}

std::optional<Uid> Vfs::MounterOf(const Vnode* node) const {
  if (node == nullptr) {
    return std::nullopt;
  }
  GraceDomain::Section section(grace_);
  const MountEntry* m = node->mount_root_of();
  return m != nullptr ? std::optional<Uid>(m->mounter) : std::nullopt;
}

Result<Unit> Vfs::AddMountAt(const WalkResult& at, std::string source, std::string fstype,
                             std::vector<std::string> options, Uid mounter,
                             const MountPopulator& populate) {
  std::unique_lock<RwLock> shape_lk(rename_mu_);
  if (at.err != Errno::kOk) {
    return Error(at.err, at.path);
  }
  Vnode* target = at.node;
  if (!target->inode().IsDir()) {
    return Error(Errno::kENOTDIR, at.path);
  }
  std::unique_lock<RwLock> target_lk(target->dir_->mu);
  // No stacking on a mount root (or on a directory mounted over since the
  // walk): it keeps umount unambiguous.
  if (target->mount_root_of() != nullptr || target->covered_by() != nullptr ||
      target->unlinked_.load(std::memory_order_relaxed)) {
    return Error(Errno::kEBUSY, at.path);
  }
  auto entry = std::make_unique<MountEntry>();
  entry->source = std::move(source);
  entry->fstype = std::move(fstype);
  entry->options = std::move(options);
  entry->mounter = mounter;
  entry->covered = target;
  Inode root_inode(kIfDir | 0755, kRootUid, kRootGid);
  root_inode.ino = NextIno();
  target->dir_->owned.push_back(
      std::make_unique<Vnode>("", std::move(root_inode), &dir_lock_stats_));
  entry->root = target->dir_->owned.back().get();
  entry->root->dir_->mount_root_of.store(entry.get(), std::memory_order_relaxed);
  if (populate) {
    // Populators fill the detached new tree via Vnode::AddChild directly;
    // they do not re-enter the Vfs API.
    populate(entry->root);
  }
  BeginShapeChange();
  target->dir_->covered_by.store(entry.get(), std::memory_order_release);
  EndShapeChange();
  TraceMount("mount", StrFormat("%s on %s type %s", entry->source.c_str(), at.path.c_str(),
                                entry->fstype.c_str()));
  mounts_.push_back(std::move(entry));
  return OkUnit();
}

Result<Unit> Vfs::RemoveMountAt(Vnode* mount_root) {
  // Directory names and mount rows change only under the rename lock, so
  // PathBody needs no read section here.
  std::unique_lock<RwLock> shape_lk(rename_mu_);
  MountEntry* entry = mount_root->mount_root_of();
  if (entry == nullptr) {
    return Error(Errno::kEINVAL, "not mounted: " + PathBody(mount_root));
  }
  std::string mountpoint = PathBody(entry->covered);
  // A mount beneath this one would lose the directory it covers.
  for (const auto& other : mounts_) {
    const Vnode* v = other->covered;
    while (v->parent() != nullptr) {
      v = v->parent();
    }
    if (v == mount_root) {
      return Error(Errno::kEBUSY, mountpoint);
    }
  }
  {
    std::unique_lock<RwLock> covered_lk(entry->covered->dir_->mu);
    std::unique_lock<RwLock> root_lk(mount_root->dir_->mu);
    BeginShapeChange();
    entry->covered->dir_->covered_by.store(nullptr, std::memory_order_release);
    mount_root->dir_->mount_root_of.store(nullptr, std::memory_order_release);
    EndShapeChange();
    mount_root->unlinked_.store(true, std::memory_order_relaxed);
  }
  // The tree leaves with its entry; release its charges. Its vnodes stay
  // allocated for open files, and the entry until no walk can hold it.
  UnchargeTree(mount_root);
  auto it = std::find_if(mounts_.begin(), mounts_.end(),
                         [entry](const auto& m) { return m.get() == entry; });
  grace_.Retire(it->release());
  mounts_.erase(it);
  TraceMount("umount", std::move(mountpoint));
  return OkUnit();
}

void Vfs::TraceMount(const char* what, std::string detail) const {
  if (tracer_ != nullptr && tracer_->ShouldEmit(TracepointId::kVfsMount)) {
    TraceSlot ev = tracer_->Emit(TracepointId::kVfsMount, 0);
    ev->sname = what;
    ev->detail = std::move(detail);
  }
}

std::string Vfs::FormatMounts() const {
  std::shared_lock<RwLock> lk(rename_mu_);
  std::string out;
  for (const auto& m : mounts_) {
    out += StrFormat("%s %s %s %s %u\n", m->source.c_str(), PathBody(m->covered).c_str(),
                     m->fstype.c_str(),
                     m->options.empty() ? "defaults" : Join(m->options, ",").c_str(),
                     m->mounter);
  }
  return out;
}

uint64_t Vfs::resolves() const { return shards_.Sum(&Shard::resolves); }

size_t Vfs::orphan_count() const { return shards_.Sum(&Shard::orphans); }

LockCounts Vfs::tree_lock_counts() const {
  LockCounts total = rename_mu_.counts();
  return total += dir_lock_stats_.Read();
}

LockCounts Vfs::data_lock_counts() const {
  LockCounts total;
  for (const DataStripeLock& stripe : data_mu_) {
    total += stripe.mu.counts();
  }
  return total;
}

int Vfs::AddWatch(std::string path, WatchCallback cb) {
  int id = next_watch_id_.fetch_add(1, std::memory_order_relaxed);
  watches_.Update([&](WatchList& watches) {
    watches.push_back(Watch{id, std::move(path), std::move(cb)});
  });
  return id;
}

void Vfs::RemoveWatch(int watch_id) {
  watches_.Update([&](WatchList& watches) {
    return std::erase_if(watches, [&](const Watch& w) { return w.id == watch_id; }) != 0;
  });
}

void Vfs::UnchargeTree(Vnode* node) {
  {
    Inode& inode = node->inode();
    std::unique_lock<RwLock> lk(DataStripe(inode.ino));
    if (inode.charged) {
      bytes_used_.fetch_sub(inode.data.size(), std::memory_order_relaxed);
      inode.charged = false;
    }
  }
  if (node->dir_ == nullptr) {
    return;
  }
  GraceDomain::Section section(grace_);
  DirForEach(node->dir_->root.load(std::memory_order_acquire),
             [this](const DirEntry& entry) { UnchargeTree(entry.node); });
}

Result<Unit> Vfs::AuditBlockAccounting() const {
  // Every vnode ever created is owned by the root or by a vnode beneath it:
  // linked, moved away, unlinked or unmounted. Reads file data sizes, so
  // callers (the fault-sweep harness, tests) run it with data writers
  // quiescent.
  uint64_t recomputed = 0;
  std::vector<const Vnode*> todo = {root_.get()};
  while (!todo.empty()) {
    const Vnode* node = todo.back();
    todo.pop_back();
    if (node->inode().charged) {
      recomputed += node->inode().data.size();
    }
    if (node->dir_ != nullptr) {
      std::shared_lock<RwLock> lk(node->dir_->mu);
      for (const auto& owned : node->dir_->owned) {
        todo.push_back(owned.get());
      }
    }
  }
  uint64_t counter = bytes_used_.load(std::memory_order_relaxed);
  if (recomputed != counter) {
    return Error(Errno::kEIO,
                 StrFormat("block accounting divergence: counter=%llu recomputed=%llu",
                           (unsigned long long)counter, (unsigned long long)recomputed));
  }
  return OkUnit();
}

void Vfs::DispatchEvents(PendingEvents& events) const {
  if (events.empty()) {
    return;
  }
  // Match every event inside one read section and copy only the callbacks
  // that match (usually none), then invoke them outside it: a callback may
  // add or remove watches or re-enter the VFS.
  std::vector<std::pair<const PendingEvents::value_type*, WatchCallback>> matched;
  {
    GraceDomain::Section section(grace_);
    const WatchList& watches = watches_.Read();
    for (const auto& event : events) {
      const std::string& path = event.second;
      for (const Watch& watch : watches) {
        if (path == watch.path ||
            (StartsWith(path, watch.path) && path.size() > watch.path.size() &&
             (watch.path == "/" || path[watch.path.size()] == '/'))) {
          matched.emplace_back(&event, watch.callback);
        }
      }
    }
  }
  for (const auto& [event, callback] : matched) {
    callback(event->first, event->second);
  }
}

}  // namespace protego
