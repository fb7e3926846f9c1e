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
  auto it = children_.find(std::string(child));
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

Vfs::Vfs(Clock* clock) : clock_(clock) {
  Inode root_inode;
  root_inode.ino = 1;
  root_inode.mode = kIfDir | 0755;
  root_.reset(new Vnode("", std::move(root_inode)));
}

std::string Vfs::Normalize(std::string_view path) {
  std::vector<std::string> stack;
  for (const std::string& part : Split(path, '/')) {
    if (part.empty() || part == ".") {
      continue;
    }
    if (part == "..") {
      if (!stack.empty()) {
        stack.pop_back();
      }
      continue;
    }
    stack.push_back(part);
  }
  if (stack.empty()) {
    return "/";
  }
  return "/" + Join(stack, "/");
}

Result<Vnode*> Vfs::ResolveInternal(std::string_view path, bool want_parent,
                                    std::string* leaf_out, bool follow_leaf) const {
  LayerScope vfs_scope(profiler_, Layer::kVfs);
  if (path.empty() || path[0] != '/') {
    return Error(Errno::kEINVAL, "path must be absolute: " + std::string(path));
  }
  std::string normalized = Normalize(path);
  std::vector<std::string> parts = Split(normalized.substr(1), '/');
  if (normalized == "/") {
    parts.clear();
  }
  if (want_parent) {
    if (parts.empty()) {
      return Error(Errno::kEINVAL, "cannot take parent of /");
    }
    *leaf_out = parts.back();
    parts.pop_back();
  }

  // Each symlink followed consumes one unit of budget; a cycle exhausts it
  // and surfaces as ELOOP, as in Linux's nested_symlinks limit.
  int links_left = kMaxSymlinkDepth;
  while (true) {
    Vnode* node = root_.get();
    while (node->covered_by_ != nullptr) {
      node = node->covered_by_->root.get();
    }
    bool restarted = false;
    for (size_t i = 0; i < parts.size(); ++i) {
      const std::string& part = parts[i];
      if (!node->inode().IsDir()) {
        return Error(Errno::kENOTDIR, normalized);
      }
      Vnode* child = node->Lookup(part);
      if (child == nullptr) {
        return Error(Errno::kENOENT, normalized);
      }
      while (child->covered_by_ != nullptr) {
        child = child->covered_by_->root.get();
      }
      bool is_leaf = i + 1 == parts.size();
      if (child->inode().IsSymlink() && (!is_leaf || follow_leaf)) {
        if (--links_left < 0) {
          return Error(Errno::kELOOP, normalized);
        }
        // Splice the target in front of the remaining components and walk
        // again from the root (relative targets resolve against `node`).
        const std::string& target = child->inode().data;
        std::string rebuilt = !target.empty() && target[0] == '/'
                                  ? target
                                  : PathOfLocked(node) + "/" + target;
        for (size_t j = i + 1; j < parts.size(); ++j) {
          rebuilt += "/" + parts[j];
        }
        normalized = Normalize(rebuilt);
        parts = Split(normalized.substr(1), '/');
        if (normalized == "/") {
          parts.clear();
        }
        restarted = true;
        break;
      }
      node = child;
    }
    if (!restarted) {
      return node;
    }
  }
}

Result<Vnode*> Vfs::Resolve(std::string_view path) const {
  resolves_.fetch_add(1, std::memory_order_relaxed);
  std::shared_lock<std::shared_mutex> lk(tree_mu_);
  std::string unused;
  return ResolveInternal(path, /*want_parent=*/false, &unused);
}

Result<Vnode*> Vfs::ResolveNoFollow(std::string_view path) const {
  resolves_.fetch_add(1, std::memory_order_relaxed);
  std::shared_lock<std::shared_mutex> lk(tree_mu_);
  std::string unused;
  return ResolveInternal(path, /*want_parent=*/false, &unused, /*follow_leaf=*/false);
}

Result<std::pair<Vnode*, std::string>> Vfs::ResolveParent(std::string_view path) const {
  std::shared_lock<std::shared_mutex> lk(tree_mu_);
  std::string leaf;
  ASSIGN_OR_RETURN(Vnode * parent, ResolveInternal(path, /*want_parent=*/true, &leaf));
  return std::make_pair(parent, leaf);
}

std::string Vfs::PathOf(const Vnode* node) const {
  std::shared_lock<std::shared_mutex> lk(tree_mu_);
  return PathOfLocked(node);
}

std::string Vfs::PathOfLocked(const Vnode* node) const {
  std::vector<std::string> parts;
  const Vnode* cur = node;
  while (cur != nullptr) {
    if (cur->mount_root_of_ != nullptr) {
      // Mount roots splice in at their mountpoint path.
      std::string prefix = cur->mount_root_of_->mountpoint;
      std::reverse(parts.begin(), parts.end());
      if (parts.empty()) {
        return prefix;
      }
      if (prefix == "/") {
        prefix.clear();
      }
      return prefix + "/" + Join(parts, "/");
    }
    if (cur->parent_ == nullptr) {
      break;  // real root
    }
    parts.push_back(cur->name_);
    cur = cur->parent_;
  }
  std::reverse(parts.begin(), parts.end());
  return "/" + Join(parts, "/");
}

Result<Vnode*> Vfs::CreateNodeLocked(std::string_view path, Inode inode,
                                     PendingEvents* events) {
  // The single vnode-allocation choke point: every Create* routes through
  // here, so one fault site models inode/dentry cache exhaustion.
  if (faults_ != nullptr && faults_->any_enabled()) {
    RETURN_IF_ERROR(faults_->Check(FaultSite::kVfsVnodeAlloc, "vfs vnode allocation"));
  }
  std::string leaf;
  ASSIGN_OR_RETURN(Vnode * parent, ResolveInternal(path, /*want_parent=*/true, &leaf));
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
      return Error(Errno::kENOSPC, std::string(path));
    }
  }
  inode.ino = NextIno();
  inode.mtime = NowMtime();
  ASSIGN_OR_RETURN(Vnode * node, parent->AddChild(leaf, std::move(inode)));
  if (charge) {
    bytes_used_.fetch_add(size, std::memory_order_relaxed);
    node->inode().charged = true;
  }
  events->emplace_back(FsEvent::kCreated, PathOfLocked(node));
  return node;
}

Result<Vnode*> Vfs::CreateFile(std::string_view path, uint32_t perms, Uid uid, Gid gid,
                               std::string data) {
  Inode inode;
  inode.mode = kIfReg | (perms & kPermMask);
  inode.uid = uid;
  inode.gid = gid;
  inode.data = std::move(data);
  PendingEvents events;
  Result<Vnode*> node = [&] {
    std::unique_lock<std::shared_mutex> lk(tree_mu_);
    return CreateNodeLocked(path, std::move(inode), &events);
  }();
  DispatchEvents(events);
  return node;
}

Result<Vnode*> Vfs::CreateDir(std::string_view path, uint32_t perms, Uid uid, Gid gid) {
  Inode inode;
  inode.mode = kIfDir | (perms & kPermMask);
  inode.uid = uid;
  inode.gid = gid;
  PendingEvents events;
  Result<Vnode*> node = [&] {
    std::unique_lock<std::shared_mutex> lk(tree_mu_);
    return CreateNodeLocked(path, std::move(inode), &events);
  }();
  DispatchEvents(events);
  return node;
}

Result<Vnode*> Vfs::CreateSymlink(std::string_view path, std::string_view target, Uid uid,
                                  Gid gid) {
  if (target.empty()) {
    return Error(Errno::kEINVAL, "empty symlink target");
  }
  Inode inode;
  inode.mode = kIfLnk | 0777;
  inode.uid = uid;
  inode.gid = gid;
  inode.data = std::string(target);
  PendingEvents events;
  Result<Vnode*> node = [&] {
    std::unique_lock<std::shared_mutex> lk(tree_mu_);
    return CreateNodeLocked(path, std::move(inode), &events);
  }();
  DispatchEvents(events);
  return node;
}

Result<Vnode*> Vfs::CreateDevice(std::string_view path, uint32_t perms, Uid uid, Gid gid,
                                 bool block, uint32_t major, uint32_t minor) {
  Inode inode;
  inode.mode = (block ? kIfBlk : kIfChr) | (perms & kPermMask);
  inode.uid = uid;
  inode.gid = gid;
  inode.rdev_major = major;
  inode.rdev_minor = minor;
  PendingEvents events;
  Result<Vnode*> node = [&] {
    std::unique_lock<std::shared_mutex> lk(tree_mu_);
    return CreateNodeLocked(path, std::move(inode), &events);
  }();
  DispatchEvents(events);
  return node;
}

Result<Vnode*> Vfs::CreateSynthetic(std::string_view path, uint32_t perms, SyntheticOps ops) {
  std::string normalized = Normalize(path);
  Inode inode;
  inode.mode = kIfReg | (perms & kPermMask);
  inode.synthetic = std::make_shared<SyntheticOps>(std::move(ops));
  PendingEvents events;
  Result<Vnode*> node = [&]() -> Result<Vnode*> {
    std::unique_lock<std::shared_mutex> lk(tree_mu_);
    size_t slash = normalized.find_last_of('/');
    if (slash > 0) {
      RETURN_IF_ERROR(EnsureDirsLocked(normalized.substr(0, slash)));
    }
    return CreateNodeLocked(normalized, std::move(inode), &events);
  }();
  DispatchEvents(events);
  return node;
}

Result<Vnode*> Vfs::EnsureDirs(std::string_view path) {
  std::unique_lock<std::shared_mutex> lk(tree_mu_);
  return EnsureDirsLocked(path);
}

Result<Vnode*> Vfs::EnsureDirsLocked(std::string_view path) {
  std::string normalized = Normalize(path);
  if (normalized == "/") {
    return root_.get();
  }
  Vnode* node = root_.get();
  while (node->covered_by_ != nullptr) {
    node = node->covered_by_->root.get();
  }
  for (const std::string& part : Split(normalized.substr(1), '/')) {
    Vnode* child = node->Lookup(part);
    if (child == nullptr) {
      Inode inode;
      inode.ino = NextIno();
      inode.mode = kIfDir | 0755;
      inode.mtime = NowMtime();
      ASSIGN_OR_RETURN(child, node->AddChild(part, std::move(inode)));
    }
    while (child->covered_by_ != nullptr) {
      child = child->covered_by_->root.get();
    }
    if (!child->inode().IsDir()) {
      return Error(Errno::kENOTDIR, normalized);
    }
    node = child;
  }
  return node;
}

Result<Unit> Vfs::Unlink(std::string_view path) {
  PendingEvents events;
  Result<Unit> result = [&]() -> Result<Unit> {
    std::unique_lock<std::shared_mutex> lk(tree_mu_);
    std::string leaf;
    ASSIGN_OR_RETURN(Vnode * parent, ResolveInternal(path, /*want_parent=*/true, &leaf));
    Vnode* child = parent->Lookup(leaf);
    if (child == nullptr) {
      return Error(Errno::kENOENT, std::string(path));
    }
    if (child->covered_by_ != nullptr) {
      return Error(Errno::kEBUSY, std::string(path));
    }
    if (child->inode().IsDir() && child->HasChildren()) {
      return Error(Errno::kENOTEMPTY, std::string(path));
    }
    std::string full = PathOfLocked(child);
    auto child_it = parent->children_.find(leaf);
    orphans_.push_back(std::move(child_it->second));
    parent->children_.erase(child_it);
    events.emplace_back(FsEvent::kDeleted, std::move(full));
    return OkUnit();
  }();
  DispatchEvents(events);
  return result;
}

Result<Unit> Vfs::Rename(std::string_view from, std::string_view to) {
  PendingEvents events;
  Result<Unit> result = [&]() -> Result<Unit> {
    std::unique_lock<std::shared_mutex> lk(tree_mu_);
    std::string from_leaf;
    ASSIGN_OR_RETURN(Vnode * from_parent,
                     ResolveInternal(from, /*want_parent=*/true, &from_leaf));
    Vnode* source = from_parent->Lookup(from_leaf);
    if (source == nullptr) {
      return Error(Errno::kENOENT, std::string(from));
    }
    if (source->covered_by_ != nullptr || source->mount_root_of_ != nullptr) {
      return Error(Errno::kEBUSY, std::string(from));
    }
    std::string to_leaf;
    ASSIGN_OR_RETURN(Vnode * to_parent, ResolveInternal(to, /*want_parent=*/true, &to_leaf));
    if (!to_parent->inode().IsDir()) {
      return Error(Errno::kENOTDIR, std::string(to));
    }
    Vnode* existing = to_parent->Lookup(to_leaf);
    if (existing != nullptr) {
      if (existing->inode().IsDir() && existing->HasChildren()) {
        return Error(Errno::kENOTEMPTY, std::string(to));
      }
      auto existing_it = to_parent->children_.find(to_leaf);
      orphans_.push_back(std::move(existing_it->second));
      to_parent->children_.erase(existing_it);
    }
    std::string old_path = PathOfLocked(source);
    auto it = from_parent->children_.find(from_leaf);
    std::unique_ptr<Vnode> moved = std::move(it->second);
    from_parent->children_.erase(it);
    moved->name_ = to_leaf;
    moved->parent_ = to_parent;
    Vnode* raw = moved.get();
    to_parent->children_.emplace(to_leaf, std::move(moved));
    events.emplace_back(FsEvent::kDeleted, std::move(old_path));
    events.emplace_back(FsEvent::kCreated, PathOfLocked(raw));
    return OkUnit();
  }();
  DispatchEvents(events);
  return result;
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
  std::shared_lock<std::shared_mutex> lk(DataStripe(inode.ino));
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
    std::unique_lock<std::shared_mutex> lk(DataStripe(inode.ino));
    inode.mtime = NowMtime();
  } else {
    std::unique_lock<std::shared_mutex> lk(DataStripe(inode.ino));
    // Block accounting: charge growth (fault site + quota check BEFORE the
    // data mutates — a refused write leaves the file byte-identical),
    // release shrinkage. Files populated outside CreateNode are charged in
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
  std::shared_lock<std::shared_mutex> lk(tree_mu_);
  if (!node->inode().IsDir()) {
    return Error(Errno::kENOTDIR, PathOfLocked(node));
  }
  return node->ListNames();
}

Inode Vfs::SnapshotInode(const Vnode* node) const {
  std::shared_lock<std::shared_mutex> tree_lk(tree_mu_);
  std::shared_lock<std::shared_mutex> data_lk(DataStripe(node->inode().ino));
  return node->inode();
}

void Vfs::SetInodeMode(Vnode* node, uint32_t perms) {
  std::unique_lock<std::shared_mutex> lk(tree_mu_);
  node->inode().mode = (node->inode().mode & kIfMask) | (perms & kPermMask);
}

void Vfs::SetInodeOwner(Vnode* node, Uid uid, Gid gid, bool clear_sbits) {
  std::unique_lock<std::shared_mutex> lk(tree_mu_);
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

Result<Unit> Vfs::AddMount(std::string_view mountpoint, std::string source, std::string fstype,
                           std::vector<std::string> options, Uid mounter,
                           const MountPopulator& populate) {
  std::string trace_detail;
  {
    std::unique_lock<std::shared_mutex> lk(tree_mu_);
    // Stacked mounts are rejected to keep the simulation's umount unambiguous
    // (Resolve descends through covers, so also check the mount table).
    if (FindMountLocked(mountpoint) != nullptr) {
      return Error(Errno::kEBUSY, std::string(mountpoint));
    }
    std::string unused;
    ASSIGN_OR_RETURN(Vnode * target,
                     ResolveInternal(mountpoint, /*want_parent=*/false, &unused));
    if (!target->inode().IsDir()) {
      return Error(Errno::kENOTDIR, std::string(mountpoint));
    }
    if (target->covered_by_ != nullptr) {
      return Error(Errno::kEBUSY, std::string(mountpoint));
    }

    auto entry = std::make_unique<MountEntry>();
    entry->source = std::move(source);
    entry->mountpoint = Normalize(mountpoint);
    entry->fstype = std::move(fstype);
    entry->options = std::move(options);
    entry->mounter = mounter;
    entry->covered = target;

    Inode root_inode;
    root_inode.ino = NextIno();
    root_inode.mode = kIfDir | 0755;
    entry->root.reset(new Vnode("", std::move(root_inode)));
    entry->root->mount_root_of_ = entry.get();
    if (populate) {
      // Populators fill the detached new tree via Vnode::AddChild directly;
      // they do not re-enter the Vfs API.
      populate(entry->root.get());
    }

    target->covered_by_ = entry.get();
    trace_detail = StrFormat("%s on %s type %s", entry->source.c_str(),
                             entry->mountpoint.c_str(), entry->fstype.c_str());
    mounts_.push_back(std::move(entry));
  }
  if (tracer_ != nullptr && tracer_->ShouldEmit(TracepointId::kVfsMount)) {
    TraceSlot ev = tracer_->Emit(TracepointId::kVfsMount, 0);
    ev->sname = "mount";
    ev->detail = trace_detail;
  }
  return OkUnit();
}

Result<Unit> Vfs::RemoveMount(std::string_view mountpoint) {
  std::string normalized = Normalize(mountpoint);
  bool removed = false;
  {
    std::unique_lock<std::shared_mutex> lk(tree_mu_);
    for (auto it = mounts_.begin(); it != mounts_.end(); ++it) {
      if ((*it)->mountpoint == normalized) {
        (*it)->covered->covered_by_ = nullptr;
        // The mount's tree is destroyed with its entry; release its charges.
        UnchargeTree((*it)->root.get());
        mounts_.erase(it);
        removed = true;
        break;
      }
    }
  }
  if (!removed) {
    return Error(Errno::kEINVAL, "not mounted: " + normalized);
  }
  if (tracer_ != nullptr && tracer_->ShouldEmit(TracepointId::kVfsMount)) {
    TraceSlot ev = tracer_->Emit(TracepointId::kVfsMount, 0);
    ev->sname = "umount";
    ev->detail = normalized;
  }
  return OkUnit();
}

std::optional<Uid> Vfs::FindMount(std::string_view mountpoint) const {
  std::shared_lock<std::shared_mutex> lk(tree_mu_);
  const MountEntry* entry = FindMountLocked(mountpoint);
  if (entry == nullptr) {
    return std::nullopt;
  }
  return entry->mounter;
}

std::string Vfs::FormatMounts() const {
  std::shared_lock<std::shared_mutex> lk(tree_mu_);
  std::string out;
  for (const auto& m : mounts_) {
    out += StrFormat("%s %s %s %s %u\n", m->source.c_str(), m->mountpoint.c_str(),
                     m->fstype.c_str(),
                     m->options.empty() ? "defaults" : Join(m->options, ",").c_str(),
                     m->mounter);
  }
  return out;
}

const MountEntry* Vfs::FindMountLocked(std::string_view mountpoint) const {
  std::string normalized = Normalize(mountpoint);
  for (const auto& entry : mounts_) {
    if (entry->mountpoint == normalized) {
      return entry.get();
    }
  }
  return nullptr;
}

size_t Vfs::orphan_count() const {
  std::shared_lock<std::shared_mutex> lk(tree_mu_);
  return orphans_.size();
}

int Vfs::AddWatch(std::string path, WatchCallback cb) {
  int id = next_watch_id_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lk(watch_mu_);
  watches_.push_back(Watch{id, Normalize(path), std::move(cb)});
  return id;
}

void Vfs::RemoveWatch(int watch_id) {
  std::lock_guard<std::mutex> lk(watch_mu_);
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
  std::shared_lock<std::shared_mutex> lk(tree_mu_);
  uint64_t recomputed = ChargedBytesUnder(root_.get());
  for (const auto& mount : mounts_) {
    recomputed += ChargedBytesUnder(mount->root.get());
  }
  for (const auto& orphan : orphans_) {
    recomputed += ChargedBytesUnder(orphan.get());
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
  for (auto& [event, path] : events) {
    // Copy the matching watches under the watch lock, then invoke with no
    // lock held: a callback may add/remove watches or re-enter the VFS.
    std::vector<Watch> active;
    {
      std::lock_guard<std::mutex> lk(watch_mu_);
      active = watches_;
    }
    for (const Watch& watch : active) {
      bool match = path == watch.path ||
                   (StartsWith(path, watch.path) && path.size() > watch.path.size() &&
                    (watch.path == "/" || path[watch.path.size()] == '/'));
      if (match) {
        watch.callback(event, path);
      }
    }
  }
}

}  // namespace protego
