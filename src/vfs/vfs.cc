#include "src/vfs/vfs.h"

#include <algorithm>

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
  auto it = children_.find(child);
  return it == children_.end() ? nullptr : it->second.get();
}

Result<Vnode*> Vnode::AddChild(std::string name, Inode inode) {
  if (!inode_.IsDir()) {
    return Error(Errno::kENOTDIR, name_);
  }
  if (children_.count(name) != 0) {
    return Error(Errno::kEEXIST, name);
  }
  auto node = std::make_unique<Vnode>(name, std::move(inode));
  node->parent_ = this;
  Vnode* raw = node.get();
  children_.emplace(std::move(name), std::move(node));
  return raw;
}

std::vector<std::string> Vnode::ListNames() const {
  std::vector<std::string> names;
  names.reserve(children_.size());
  for (const auto& [name, node] : children_) {
    names.push_back(name);
  }
  return names;
}

std::string_view DirPathOf(std::string_view canonical) {
  size_t slash = canonical.rfind('/');
  return slash == 0 || slash == std::string_view::npos ? "/" : canonical.substr(0, slash);
}

namespace {

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
  root_.reset(new Vnode("", std::move(root_inode)));
}

Vnode* Vfs::Top(Vnode* node) {
  while (node->covered_by_ != nullptr) {
    node = node->covered_by_->root.get();
  }
  return node;
}

WalkResult Vfs::WalkLocked(std::string_view cwd, std::string_view path, bool follow) const {
  LayerScope vfs_scope(Layer::kVfs);
  resolves_.fetch_add(1, std::memory_order_relaxed);
  WalkResult w;
  w.err = path.empty() ? Errno::kENOENT : Errno::kOk;
  // The text still to walk, innermost last: a symlink's target sits above
  // the rest of the path that named it. Absolute pieces restart at "/".
  std::string_view views[kMaxSymlinkDepth + 2] = {path, cwd};
  size_t nviews = !path.empty() && path[0] != '/' ? 2 : 1;
  Vnode* node = Top(root_.get());
  std::string canon;      // "" stands for "/"
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
      while (up->mount_root_of_ != nullptr) {
        up = up->mount_root_of_->covered;
      }
      if (comp == ".." && up->parent_ != nullptr) {
        node = Top(up->parent_);
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
  std::shared_lock<RwLock> lk(tree_mu_);
  return PathOfLocked(node);
}

std::string Vfs::PathOfLocked(const Vnode* node) const {
  // A mount root sits where the directory it covers does.
  while (node->mount_root_of_ != nullptr) {
    node = node->mount_root_of_->covered;
  }
  if (node->parent_ == nullptr) {
    return "/";
  }
  std::string path = PathOfLocked(node->parent_);
  if (path.size() > 1) {
    path += '/';
  }
  return path += node->name_;
}

Result<Vnode*> Vfs::LinkLocked(const WalkResult& at, Inode inode, PendingEvents* events) {
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
  if (at.dir->unlinked_) {
    return Error(Errno::kENOENT, at.path);
  }
  // A regular file's initial contents are charged against the block quota;
  // the checks run before the vnode is linked in so a refused create leaves
  // no partial state, and the charge lands only after AddChild succeeds.
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
  ASSIGN_OR_RETURN(Vnode * node, at.dir->AddChild(at.name, std::move(inode)));
  if (charge) {
    bytes_used_.fetch_add(size, std::memory_order_relaxed);
    node->inode().charged = true;
  }
  events->emplace_back(FsEvent::kCreated, PathOfLocked(node));
  return node;
}

Result<Vnode*> Vfs::CreateAt(const WalkResult& at, Inode inode) {
  return Mutate([&](PendingEvents* events) { return LinkLocked(at, std::move(inode), events); });
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
  std::unique_lock<RwLock> lk(tree_mu_);
  while (true) {
    WalkResult w = WalkLocked("/", path, /*follow=*/true);
    if (w.err == Errno::kOk) {
      return w.node->inode().IsDir() ? Result<Vnode*>(w.node) : Error(Errno::kENOTDIR, w.path);
    }
    if (w.err != Errno::kENOENT) {
      return Error(w.err, w.path);
    }
    Inode inode(kIfDir | 0755, kRootUid, kRootGid);
    inode.ino = NextIno();
    inode.mtime = NowMtime();
    RETURN_IF_ERROR(w.dir->AddChild(w.name, std::move(inode)));
  }
}

void Vfs::OrphanLocked(Vnode* parent, const std::string& name) {
  auto it = parent->children_.find(name);
  it->second->unlinked_ = true;
  orphans_.push_back(std::move(it->second));
  parent->children_.erase(it);
}

Result<Unit> Vfs::UnlinkAt(const WalkResult& at) {
  return Mutate([&](PendingEvents* events) -> Result<Unit> {
    if (at.err != Errno::kOk) {
      return Error(at.err, at.path);
    }
    Vnode* child = at.dir == nullptr || at.dir->unlinked_ ? nullptr : at.dir->Lookup(at.name);
    if (child == nullptr) {
      return Error(at.dir == nullptr ? Errno::kEBUSY : Errno::kENOENT, at.path);
    }
    if (child->covered_by_ != nullptr) {
      return Error(Errno::kEBUSY, at.path);
    }
    if (child->inode().IsDir() && child->HasChildren()) {
      return Error(Errno::kENOTEMPTY, at.path);
    }
    events->emplace_back(FsEvent::kDeleted, PathOfLocked(child));
    OrphanLocked(at.dir, at.name);
    return OkUnit();
  });
}

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
    Vnode* source = from.dir->unlinked_ ? nullptr : from.dir->Lookup(from.name);
    if (source == nullptr || to.dir->unlinked_) {
      return Error(Errno::kENOENT, source == nullptr ? from.path : to.path);
    }
    if (source->covered_by_ != nullptr) {
      return Error(Errno::kEBUSY, from.path);
    }
    Vnode* existing = to.dir->Lookup(to.name);
    if (existing == source) {
      return OkUnit();  // same entry: Linux's rename is a successful no-op
    }
    const bool is_dir = source->inode().IsDir();
    // A directory may not become its own ancestor: look for it above the
    // target directory, across mount roots.
    for (const Vnode* v = to.dir; is_dir && v != nullptr;
         v = v->mount_root_of_ != nullptr ? v->mount_root_of_->covered : v->parent_) {
      if (v == source) {
        return Error(Errno::kEINVAL, to.path);
      }
    }
    if ((to.dir_only && !is_dir) || (existing != nullptr && is_dir != existing->inode().IsDir())) {
      return Error(is_dir || to.dir_only ? Errno::kENOTDIR : Errno::kEISDIR, to.path);
    }
    if (existing != nullptr) {
      if (existing->covered_by_ != nullptr) {
        return Error(Errno::kEBUSY, to.path);
      }
      if (existing->HasChildren()) {
        return Error(Errno::kENOTEMPTY, to.path);
      }
      OrphanLocked(to.dir, to.name);
    }
    events->emplace_back(FsEvent::kDeleted, PathOfLocked(source));
    auto it = from.dir->children_.find(from.name);
    std::unique_ptr<Vnode> moved = std::move(it->second);
    from.dir->children_.erase(it);
    moved->name_ = to.name;
    moved->parent_ = to.dir;
    Vnode* raw = moved.get();
    to.dir->children_.emplace(to.name, std::move(moved));
    events->emplace_back(FsEvent::kCreated, PathOfLocked(raw));
    return OkUnit();
  });
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
  // Taken before the data stripe (lock order: tree_mu_ then stripe; here
  // they are simply never held together). The path is used for error
  // diagnostics and the kModified event.
  std::string path = PathOf(node);
  if (inode.synthetic != nullptr) {
    if (!inode.synthetic->write) {
      return Error(Errno::kEACCES, "synthetic file is read-only");
    }
    // The write handler may re-enter the VFS (policy reloads resolve and
    // read config files), so it runs with no lock held.
    RETURN_IF_ERROR(inode.synthetic->write(data));
    std::unique_lock<RwLock> lk(DataStripe(inode.ino));
    inode.mtime = NowMtime();
  } else {
    std::unique_lock<RwLock> lk(DataStripe(inode.ino));
    // Block accounting: charge growth (fault site + quota check BEFORE the
    // data mutates — a refused write leaves the file byte-identical),
    // release shrinkage. Files populated outside LinkLocked are charged in
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
    if (append) {
      inode.data.append(data);
    } else {
      inode.data.assign(data);
    }
    inode.mtime = NowMtime();
  }
  PendingEvents events;
  events.emplace_back(FsEvent::kModified, std::move(path));
  DispatchEvents(events);
  return OkUnit();
}

Result<std::vector<std::string>> Vfs::ListDir(const Vnode* node) const {
  std::shared_lock<RwLock> lk(tree_mu_);
  if (!node->inode().IsDir()) {
    return Error(Errno::kENOTDIR, PathOfLocked(node));
  }
  return node->ListNames();
}

Inode Vfs::SnapshotInode(const Vnode* node) const {
  std::shared_lock<RwLock> tree_lk(tree_mu_);
  std::shared_lock<RwLock> data_lk(DataStripe(node->inode().ino));
  return node->inode();
}

void Vfs::SetInodeMode(Vnode* node, uint32_t perms) {
  std::unique_lock<RwLock> lk(tree_mu_);
  node->inode().mode = (node->inode().mode & kIfMask) | (perms & kPermMask);
}

void Vfs::SetInodeOwner(Vnode* node, Uid uid, Gid gid, bool clear_sbits) {
  std::unique_lock<RwLock> lk(tree_mu_);
  Inode& inode = node->inode();
  inode.uid = uid;
  inode.gid = gid;
  if (clear_sbits) {
    inode.mode &= ~(kSetUidBit | kSetGidBit);
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

Result<Unit> Vfs::AddMountAt(const WalkResult& at, std::string source, std::string fstype,
                             std::vector<std::string> options, Uid mounter,
                             const MountPopulator& populate) {
  std::unique_lock<RwLock> lk(tree_mu_);
  if (at.err != Errno::kOk) {
    return Error(at.err, at.path);
  }
  Vnode* target = at.node;
  if (!target->inode().IsDir()) {
    return Error(Errno::kENOTDIR, at.path);
  }
  // No stacking on a mount root (or on a directory mounted over since the
  // walk): it keeps umount unambiguous.
  if (target->mount_root_of_ != nullptr || target->covered_by_ != nullptr ||
      target->unlinked_) {
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
  entry->root.reset(new Vnode("", std::move(root_inode)));
  entry->root->mount_root_of_ = entry.get();
  if (populate) {
    // Populators fill the detached new tree via Vnode::AddChild directly;
    // they do not re-enter the Vfs API.
    populate(entry->root.get());
  }
  target->covered_by_ = entry.get();
  TraceMount("mount", StrFormat("%s on %s type %s", entry->source.c_str(), at.path.c_str(),
                                entry->fstype.c_str()));
  mounts_.push_back(std::move(entry));
  return OkUnit();
}

Result<Unit> Vfs::RemoveMountAt(Vnode* mount_root) {
  std::unique_lock<RwLock> lk(tree_mu_);
  MountEntry* entry = mount_root->mount_root_of_;
  if (entry == nullptr) {
    return Error(Errno::kEINVAL, "not mounted: " + PathOfLocked(mount_root));
  }
  std::string mountpoint = PathOfLocked(entry->covered);
  // A mount beneath this one would lose the directory it covers.
  for (const auto& other : mounts_) {
    const Vnode* v = other->covered;
    while (v->parent_ != nullptr) {
      v = v->parent_;
    }
    if (v == mount_root) {
      return Error(Errno::kEBUSY, mountpoint);
    }
  }
  entry->covered->covered_by_ = nullptr;
  // The tree leaves with its entry; release its charges, and keep its vnodes
  // alive for open files and walks already holding them.
  UnchargeTree(mount_root);
  mount_root->mount_root_of_ = nullptr;
  mount_root->unlinked_ = true;
  auto it = std::find_if(mounts_.begin(), mounts_.end(),
                         [entry](const auto& m) { return m.get() == entry; });
  unmounted_.push_back(std::move((*it)->root));
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
  std::shared_lock<RwLock> lk(tree_mu_);
  std::string out;
  for (const auto& m : mounts_) {
    out += StrFormat("%s %s %s %s %u\n", m->source.c_str(), PathOfLocked(m->covered).c_str(),
                     m->fstype.c_str(),
                     m->options.empty() ? "defaults" : Join(m->options, ",").c_str(),
                     m->mounter);
  }
  return out;
}

uint64_t Vfs::data_lock_contended() const {
  uint64_t total = 0;
  for (const DataStripeLock& stripe : data_mu_) {
    total += stripe.mu.contended();
  }
  return total;
}

size_t Vfs::orphan_count() const {
  std::shared_lock<RwLock> lk(tree_mu_);
  return orphans_.size();
}

int Vfs::AddWatch(std::string path, WatchCallback cb) {
  int id = next_watch_id_.fetch_add(1, std::memory_order_relaxed);
  std::unique_lock<RwLock> lk(watch_mu_);
  watches_.push_back(Watch{id, std::move(path), std::move(cb)});
  return id;
}

void Vfs::RemoveWatch(int watch_id) {
  std::unique_lock<RwLock> lk(watch_mu_);
  watches_.erase(std::remove_if(watches_.begin(), watches_.end(),
                                [&](const Watch& w) { return w.id == watch_id; }),
                 watches_.end());
}

void Vfs::UnchargeTree(Vnode* node) {
  if (node == nullptr) {
    return;
  }
  Inode& inode = node->inode();
  if (inode.charged) {
    bytes_used_.fetch_sub(inode.data.size(), std::memory_order_relaxed);
    inode.charged = false;
  }
  for (auto& [name, child] : node->children_) {
    UnchargeTree(child.get());
  }
}

namespace {

// Sums charged data bytes under `node`, descending into covering mounts'
// trees is NOT needed here — mount trees are walked from their MountEntry.
uint64_t ChargedBytesUnder(const Vnode* node) {
  uint64_t total = 0;
  if (node->inode().charged) {
    total += node->inode().data.size();
  }
  for (const std::string& name : node->ListNames()) {
    total += ChargedBytesUnder(node->Lookup(name));
  }
  return total;
}

}  // namespace

Result<Unit> Vfs::AuditBlockAccounting() const {
  // Takes the tree lock only: the walk reads file data sizes, so callers
  // (the fault-sweep harness, tests) run it with data writers quiescent.
  std::shared_lock<RwLock> lk(tree_mu_);
  uint64_t recomputed = ChargedBytesUnder(root_.get());
  for (const auto& mount : mounts_) {
    recomputed += ChargedBytesUnder(mount->root.get());
  }
  for (const auto& orphan : orphans_) {
    recomputed += ChargedBytesUnder(orphan.get());
  }
  for (const auto& tree : unmounted_) {
    recomputed += ChargedBytesUnder(tree.get());
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
  for (auto& [event, path] : events) {
    // Match under the shared watch lock and copy only the callbacks that
    // match (usually none), then invoke them with no lock held: a callback
    // may add/remove watches or re-enter the VFS.
    std::vector<WatchCallback> matched;
    {
      std::shared_lock<RwLock> lk(watch_mu_);
      for (const Watch& watch : watches_) {
        if (path == watch.path ||
            (StartsWith(path, watch.path) && path.size() > watch.path.size() &&
             (watch.path == "/" || path[watch.path.size()] == '/'))) {
          matched.push_back(watch.callback);
        }
      }
    }
    for (const WatchCallback& callback : matched) {
      callback(event, path);
    }
  }
}

}  // namespace protego
