#include "src/kernel/kernel.h"

#include <algorithm>

#include "src/base/strings.h"

namespace protego {

void ProcessContext::Out(std::string_view text) {
  task.stdout_buf.append(text);
  if (task.terminal != nullptr) {
    task.terminal->Write(text);
  }
}

void ProcessContext::Err(std::string_view text) {
  task.stderr_buf.append(text);
  if (task.terminal != nullptr) {
    task.terminal->Write(text);
  }
}

std::optional<std::string> ProcessContext::ReadLine() {
  if (task.terminal == nullptr) {
    return std::nullopt;
  }
  return task.terminal->ReadLine();
}

std::optional<std::string> ProcessContext::Flag(std::string_view name) const {
  std::string prefix = "--" + std::string(name) + "=";
  for (const std::string& arg : argv) {
    if (StartsWith(arg, prefix)) {
      return arg.substr(prefix.size());
    }
  }
  return std::nullopt;
}

bool ProcessContext::HasFlag(std::string_view name) const {
  std::string flag = "--" + std::string(name);
  for (const std::string& arg : argv) {
    if (arg == flag) {
      return true;
    }
  }
  return false;
}

Kernel::Kernel() : vfs_(&clock_), net_(vfs_.grace()) {
  gate_.set_audit_sink([this](std::string message) { Audit(std::move(message)); });
  lsm_.set_audit_sink([this](std::string message) { Audit(std::move(message)); });
  // Every subsystem emits into the one kernel-wide tracer so a syscall's
  // decision span threads through LSM, VFS, and netfilter events.
  gate_.set_tracer(&tracer_);
  lsm_.set_tracer(&tracer_);
  vfs_.set_tracer(&tracer_);
  net_.netfilter().set_tracer(&tracer_);
  // The fault registry is threaded through every subsystem that hosts a
  // fault site; injections stamp kFaultInject events into the same tracer.
  faults_.set_tracer(&tracer_);
  gate_.set_faults(&faults_);
  vfs_.set_faults(&faults_);
  lsm_.set_faults(&faults_);
  net_.netfilter().set_faults(&faults_);
  // One kernel-wide layer profiler: the gate puts it on every timed call's
  // frame, each subsystem's LayerScope nests its layer inside the gate's,
  // and /proc/protego/profile renders the folded result.
  gate_.set_profiler(&profiler_);
  metrics_.AddCollector([this](MetricsBuilder& b) {
    gate_.CollectMetrics(b);
    lsm_.CollectMetrics(b);
    faults_.CollectMetrics(b);
    profiler_.CollectMetrics(b);
    CollectKernelMetrics(b);
  });
}

void Kernel::CollectKernelMetrics(MetricsBuilder& b) const {
  b.Counter("protego_audit_records_total", "Audit records pushed since boot.", {},
            audit_ring_.size() + audit_ring_.dropped());
  b.Counter("protego_audit_dropped_total", "Audit records lost to ring overflow.", {},
            audit_ring_.dropped());
  b.Counter("protego_netfilter_evaluated_total", "Packets run through netfilter chains.", {},
            net_.netfilter().evaluated());
  b.Counter("protego_netfilter_dropped_total", "Packets dropped by netfilter rules.", {},
            net_.netfilter().dropped());
  b.Counter("protego_netfilter_fail_closed_total",
            "Packets dropped because a fault was injected into netfilter.", {},
            net_.netfilter().fail_closed_drops());
  b.Counter("protego_vfs_resolves_total", "VFS path resolutions since boot.", {},
            vfs_.resolves());
  b.Counter("protego_trace_events_total", "Trace events emitted since boot.", {},
            tracer_.seq());
  b.Counter("protego_trace_dropped_total", "Trace events overwritten in the ring.", {},
            tracer_.dropped());
  for (size_t i = 0; i < kTracepointCount; ++i) {
    TracepointId tp = static_cast<TracepointId>(i);
    uint64_t n = tracer_.sampled_out(tp);
    if (n == 0) {
      continue;
    }
    b.Counter("protego_trace_sampled_out_total",
              "Trace emissions dropped by head sampling, per tracepoint.",
              {{"point", TracepointName(tp)}}, n);
  }
  b.Counter("protego_lsm_fail_closed_total",
            "LSM hook dispatches denied because a fault was injected.", {},
            lsm_.fail_closed_denials());
  CollectLock(b, "vfs_tree", vfs_.tree_lock_counts());
  CollectLock(b, "vfs_data", vfs_.data_lock_counts());
  CollectLock(b, "vfs_watch", vfs_.watch_lock_counts());
  CollectLock(b, "netfilter_rules", net_.netfilter().rules_lock_counts());
  CollectLock(b, "routing", net_.routes().lock_counts());
  CollectLock(b, "net_raw", net_.raw_lock_counts());
  CollectLock(b, "net_topo", net_.topo_lock_counts());
  CollectLock(b, "binary_registry", registry_mu_.counts());
  b.Gauge("protego_vfs_grace_pending",
          "Objects retired through the kernel's grace period (directory nodes, names, mount "
          "rows, watch lists, policy, AppArmor profile, binary filter, netfilter, route, address, "
          "host and raw-list snapshots, closed raw sockets) and not yet freed.",
          {}, static_cast<double>(vfs_.grace_pending()));
  b.Gauge("protego_open_files", "Open file descriptions across all tasks.", {},
          static_cast<double>(OpenFileCount()));
  b.Gauge("protego_tasks", "Live tasks.", {},
          static_cast<double>(task_count_.load(std::memory_order_relaxed)));
}

Task& Kernel::CreateTask(std::string comm, Cred cred, Terminal* terminal, int ppid) {
  auto task = std::make_unique<Task>();
  task->pid = next_pid_.fetch_add(1, std::memory_order_relaxed);
  task->ppid = ppid;
  task->comm = std::move(comm);
  task->cred = std::move(cred);
  task->terminal = terminal;
  // Wire the fd table into the system-wide open-file count before the
  // task becomes visible (and thus before it can open anything).
  task->fds.set_accounting(&open_files_);
  Task* raw = task.get();
  TaskShard& shard = ShardFor(raw->pid);
  {
    std::lock_guard<std::mutex> lk(shard.mu);
    shard.tasks.emplace(raw->pid, std::move(task));
  }
  task_count_.fetch_add(1, std::memory_order_relaxed);
  return *raw;
}

Task* Kernel::FindTask(int pid) {
  TaskShard& shard = ShardFor(pid);
  std::lock_guard<std::mutex> lk(shard.mu);
  auto it = shard.tasks.find(pid);
  return it == shard.tasks.end() ? nullptr : it->second.get();
}

void Kernel::ReapTask(int pid) {
  TaskShard& shard = ShardFor(pid);
  std::unique_ptr<Task> victim;
  {
    std::lock_guard<std::mutex> lk(shard.mu);
    auto it = shard.tasks.find(pid);
    if (it == shard.tasks.end()) {
      return;
    }
    victim = std::move(it->second);
    // The task has exited. Fold its fd table's remainder while the table
    // is still in the shard, so an exact sum always sees it one way.
    victim->fds.Fold();
    shard.tasks.erase(it);
  }
  task_count_.fetch_sub(1, std::memory_order_relaxed);
  // Exit drops any advisory file locks the task still held.
  if (victim->took_flock) {
    ReleaseFileLocks(pid);
  }
  // The task is destroyed outside the shard lock: its fd table closes its
  // descriptors, and the last reference to a socket releases its port.
}

Result<Unit> Kernel::InstallBinary(const std::string& path, uint32_t mode, Uid uid, Gid gid,
                                   ProgramMain main) {
  RETURN_IF_ERROR(vfs_.EnsureDirs(DirPathOf(path)));
  auto program = std::make_unique<Program>(std::move(main));
  Inode inode(kIfReg | (mode & kPermMask), uid, gid, "\177ELF " + path);
  inode.program = program.get();
  RETURN_IF_ERROR(vfs_.CreateAt(vfs_.Walk("/", path, /*follow=*/false), std::move(inode)));
  std::unique_lock<RwLock> lk(registry_mu_);
  programs_.push_back(std::move(program));
  return OkUnit();
}

void Kernel::SetFileCaps(const std::string& path, CapSet caps) {
  WalkResult w = vfs_.Walk("/", path, /*follow=*/true);
  if (w.err == Errno::kOk && w.node->inode().program != nullptr) {
    w.node->inode().program->file_caps.store(caps, std::memory_order_relaxed);
  }
}

bool Kernel::HasBinary(const std::string& path) const {
  WalkResult w = vfs_.Walk("/", path, /*follow=*/true);
  return w.err == Errno::kOk && w.node->inode().program != nullptr;
}

Result<Unit> Kernel::CheckDirWrite(Task& task, const WalkResult& w) {
  return CheckPermission(task, std::string(DirPathOf(w.path)), w.dir->inode(), kMayWrite);
}

Result<WalkResult> Kernel::Lookup(Task& task, const std::string& path, PathArg arg,
                                  bool primary) {
  WalkResult w =
      vfs_.Walk(task.cwd, path, /*follow=*/arg == PathArg::kObject || arg == PathArg::kCreate);
  if (primary && !gate_.CheckPath(w.path)) {
    return Error(Errno::kEPERM, "seccomp: " + w.path);
  }
  const bool may_be_missing = arg == PathArg::kNewEntry || arg == PathArg::kCreate;
  if (w.err != Errno::kOk && !(may_be_missing && w.err == Errno::kENOENT && w.last)) {
    return Error(w.err, w.path);
  }
  // "/" and paths ending in "." or ".." name a directory, not an entry.
  if (w.dir == nullptr && (arg == PathArg::kEntry || arg == PathArg::kNewEntry)) {
    return Error(arg == PathArg::kEntry ? Errno::kEBUSY : Errno::kEEXIST, w.path);
  }
  return w;
}

bool Kernel::Capable(const Task& task, Capability cap) const {
  LayerScope lsm_scope(Layer::kLsm);
  bool ok = lsm_.Capable(task, cap);
  if (tracer_.ShouldEmit(TracepointId::kCapable)) {
    TraceSlot ev = tracer_.Emit(TracepointId::kCapable, task.pid);
    ev->sname = CapabilityName(cap);
    ev->a = static_cast<uint64_t>(cap);
    ev->code = ok ? 1 : 0;
    if (!ok) {
      ev->flags |= kTraceFlagDenied;
    }
  }
  return ok;
}

void Kernel::Audit(std::string message) { audit_ring_.Push(std::move(message)); }

bool Kernel::Authenticate(Task& task, Uid account) {
  return AuthenticateAny(task, {account}).has_value();
}

std::optional<Uid> Kernel::AuthenticateAny(Task& task, const std::vector<Uid>& accounts) {
  if (!auth_agent_) {
    return std::nullopt;
  }
  // Fail closed: if the auth-service round trip faults (the daemon crashed,
  // the socket dropped), authentication DID NOT HAPPEN — never fall back to
  // an open gate.
  if (faults_.any_enabled() &&
      faults_.Evaluate(FaultSite::kAuthRoundTrip) != Errno::kOk) {
    Audit(StrFormat("auth: round-trip fault injected; denying authentication for pid %d",
                    task.pid));
    return std::nullopt;
  }
  std::optional<Uid> who = auth_agent_(task, accounts);
  if (auth_observer_) {
    auth_observer_(task.pid, accounts, who);
  }
  return who;
}

void Kernel::ForEachTask(const std::function<void(const Task&)>& fn) const {
  for (size_t s = 0; s < kTaskShards; ++s) {
    std::lock_guard<std::mutex> lk(task_shards_[s].mu);
    for (const auto& [pid, t] : task_shards_[s].tasks) {
      fn(*t);
    }
  }
}

Result<Unit> Kernel::CheckPermission(Task& task, const std::string& path, const Inode& inode,
                                     int may) {
  Result<Unit> r = CheckPermissionImpl(task, path, inode, may);
  if (tracer_.ShouldEmit(TracepointId::kVfsPermission)) {
    TraceSlot ev = tracer_.Emit(TracepointId::kVfsPermission, task.pid);
    ev->detail = path;
    ev->a = static_cast<uint64_t>(may);
    ev->code = r.ok() ? 0 : static_cast<int>(r.code());
    if (!r.ok()) {
      ev->flags |= kTraceFlagDenied;
    }
  }
  return r;
}

void Kernel::EmitCredChange(const Task& task, const char* what, std::string detail) {
  TraceSlot ev = tracer_.Emit(TracepointId::kCredChange, task.pid);
  ev->sname = what;
  ev->detail = std::move(detail);
}

Result<Unit> Kernel::CheckPermissionImpl(Task& task, const std::string& path, const Inode& inode,
                                         int may) {
  HookVerdict verdict = lsm_.InodePermission(task, path, inode, may);
  if (verdict == HookVerdict::kDeny) {
    return Error(Errno::kEACCES, path);
  }
  if (verdict == HookVerdict::kAllow) {
    return OkUnit();  // delegation rule bypasses DAC (e.g. ssh-keysign host key)
  }
  LayerScope dac_scope(Layer::kDac);
  const Cred& cred = task.cred;
  auto in_group = [&cred](Gid gid) { return cred.InGroup(gid); };
  if (DacPermits(inode, cred.fsuid, in_group, may)) {
    return OkUnit();
  }
  // CAP_DAC_OVERRIDE bypasses rw checks; exec still needs some x bit.
  if (Capable(task, Capability::kDacOverride)) {
    if (!(may & kMayExec) || (inode.mode & 0111) != 0 || inode.IsDir()) {
      return OkUnit();
    }
  }
  if ((may & (kMayWrite | kMayExec)) == 0 && Capable(task, Capability::kDacReadSearch)) {
    return OkUnit();
  }
  return Error(Errno::kEACCES, path);
}

// --- Files -------------------------------------------------------------------
//
// Each public syscall below is a thin wrapper routing the old body (now
// XxxImpl) through the gate: seccomp filter check first, then the body, then
// stats/trace accounting. The args lambda is only evaluated when tracing.

Result<int> Kernel::Open(Task& task, const std::string& path, int flags, uint32_t mode) {
  SyscallArgs sargs;
  sargs.a[1] = static_cast<uint64_t>(static_cast<uint32_t>(flags));
  sargs.a[2] = mode;
  return gate_.Run<int>(
      task, Sysno::kOpen, sargs,
      [&] { return StrFormat("\"%s\", 0x%x, 0%o", path.c_str(), flags, mode); },
      [&] { return OpenImpl(task, path, flags, mode); });
}

Result<int> Kernel::OpenImpl(Task& task, const std::string& path, int flags, uint32_t mode) {
  // Linux allocates the fd slot before walking the path (get_unused_fd_flags
  // in do_sys_open), so resource exhaustion is reported before ENOENT.
  RETURN_IF_ERROR(CheckFdAvailable(task));
  const PathArg arg = (flags & kOCreat) == 0 ? PathArg::kObject
                      : (flags & kOExcl) != 0 ? PathArg::kNewEntry
                                              : PathArg::kCreate;
  WalkResult w;
  while (true) {
    ASSIGN_OR_RETURN(w, Lookup(task, path, arg));
    if (w.node != nullptr) {
      if (arg == PathArg::kNewEntry) {
        return Error(Errno::kEEXIST, w.path);
      }
      break;
    }
    // Create: need write permission on the directory the walk ended in.
    RETURN_IF_ERROR(CheckDirWrite(task, w));
    auto created =
        vfs_.CreateAt(w, Inode(kIfReg | (mode & kPermMask), task.cred.fsuid, task.cred.fsgid));
    if (created.ok()) {
      w.node = created.value();
      break;
    }
    // Losing an O_CREAT race to a concurrent creator is not an error without
    // O_EXCL: walk again and open the winner's file.
    if (created.code() != Errno::kEEXIST || arg != PathArg::kCreate) {
      return created.error();
    }
  }
  Vnode* node = w.node;
  const std::string& full = w.path;
  if (node->inode().IsDir() && (flags & kOAccMode) != kORdOnly) {
    return Error(Errno::kEISDIR, full);
  }
  int may = 0;
  switch (flags & kOAccMode) {
    case kORdOnly: may = kMayRead; break;
    case kOWrOnly: may = kMayWrite; break;
    default: may = kMayRead | kMayWrite; break;
  }
  RETURN_IF_ERROR(CheckPermission(task, full, node->inode(), may));
  if ((flags & kOTrunc) && (may & kMayWrite) && node->inode().IsReg() &&
      node->inode().synthetic == nullptr) {
    RETURN_IF_ERROR(vfs_.WriteNode(node, "", /*append=*/false));
  }
  FdEntry entry;
  entry.kind = FdEntry::Kind::kFile;
  entry.file = std::make_shared<OpenFile>();
  entry.file->node = node;
  entry.file->flags = flags;
  entry.cloexec = (flags & kOCloExec) != 0;
  return task.fds.Install(std::move(entry));
}

Result<Unit> Kernel::Close(Task& task, int fd) {
  SyscallArgs sargs;
  sargs.a[0] = static_cast<uint64_t>(fd);
  return gate_.Run<Unit>(
      task, Sysno::kClose, sargs, [&] { return StrFormat("%d", fd); },
      [&] { return CloseImpl(task, fd); });
}

Result<Unit> Kernel::CloseImpl(Task& task, int fd) {
  return task.fds.Close(fd);
}

Result<std::string> Kernel::Read(Task& task, int fd) {
  SyscallArgs sargs;
  sargs.a[0] = static_cast<uint64_t>(fd);
  return gate_.Run<std::string>(
      task, Sysno::kRead, sargs, [&] { return StrFormat("%d", fd); },
      [&] { return ReadImpl(task, fd); });
}

Result<std::string> Kernel::ReadImpl(Task& task, int fd) {
  FdEntry* entry = task.fds.Get(fd);
  if (entry == nullptr || entry->kind != FdEntry::Kind::kFile) {
    return Error(Errno::kEBADF);
  }
  if ((entry->file->flags & kOAccMode) == kOWrOnly) {
    return Error(Errno::kEBADF, "write-only fd");
  }
  ASSIGN_OR_RETURN(std::string data, vfs_.ReadNode(entry->file->node));
  if (entry->file->offset >= data.size()) {
    return std::string();
  }
  std::string out = data.substr(entry->file->offset);
  entry->file->offset = data.size();
  return out;
}

Result<Unit> Kernel::Write(Task& task, int fd, std::string_view data) {
  SyscallArgs sargs;
  sargs.a[0] = static_cast<uint64_t>(fd);
  sargs.a[2] = data.size();
  return gate_.Run<Unit>(
      task, Sysno::kWrite, sargs,
      [&] { return StrFormat("%d, %zu bytes", fd, data.size()); },
      [&] { return WriteImpl(task, fd, data); });
}

Result<Unit> Kernel::WriteImpl(Task& task, int fd, std::string_view data) {
  FdEntry* entry = task.fds.Get(fd);
  if (entry == nullptr || entry->kind != FdEntry::Kind::kFile) {
    return Error(Errno::kEBADF);
  }
  if ((entry->file->flags & kOAccMode) == kORdOnly) {
    return Error(Errno::kEBADF, "read-only fd");
  }
  bool append = (entry->file->flags & kOAppend) != 0 || entry->file->offset > 0;
  RETURN_IF_ERROR(vfs_.WriteNode(entry->file->node, data, append));
  entry->file->offset += data.size();
  return OkUnit();
}

Result<KernelStat> Kernel::Stat(Task& task, const std::string& path) {
  SyscallArgs sargs;
  return gate_.Run<KernelStat>(
      task, Sysno::kStat, sargs, [&]() -> std::string { return path; },
      [&] { return StatImpl(task, path); });
}

Result<KernelStat> Kernel::StatImpl(Task& task, const std::string& path) {
  ASSIGN_OR_RETURN(WalkResult w, Lookup(task, path, PathArg::kObject));
  // Coherent copy under the VFS locks: a concurrent write may be growing
  // `data` while we stat.
  return vfs_.StatNode(w.node);
}

Result<Unit> Kernel::Chmod(Task& task, const std::string& path, uint32_t mode) {
  SyscallArgs sargs;
  sargs.a[1] = mode;
  return gate_.Run<Unit>(
      task, Sysno::kChmod, sargs,
      [&] { return StrFormat("\"%s\", 0%o", path.c_str(), mode); },
      [&] { return ChmodImpl(task, path, mode); });
}

Result<Unit> Kernel::ChmodImpl(Task& task, const std::string& path, uint32_t mode) {
  ASSIGN_OR_RETURN(WalkResult w, Lookup(task, path, PathArg::kObject));
  if (task.cred.fsuid != w.node->inode().uid && !Capable(task, Capability::kFowner)) {
    return Error(Errno::kEPERM, w.path);
  }
  vfs_.SetInodeMode(w.node, mode);
  return OkUnit();
}

Result<Unit> Kernel::Chown(Task& task, const std::string& path, Uid uid, Gid gid) {
  SyscallArgs sargs;
  sargs.a[1] = uid;
  sargs.a[2] = gid;
  return gate_.Run<Unit>(
      task, Sysno::kChown, sargs,
      [&] { return StrFormat("\"%s\", %u, %u", path.c_str(), uid, gid); },
      [&] { return ChownImpl(task, path, uid, gid); });
}

Result<Unit> Kernel::ChownImpl(Task& task, const std::string& path, Uid uid, Gid gid) {
  ASSIGN_OR_RETURN(WalkResult w, Lookup(task, path, PathArg::kObject));
  if (!Capable(task, Capability::kChown)) {
    return Error(Errno::kEPERM, w.path);
  }
  // Ownership change clears the setuid/setgid bits, as on Linux.
  vfs_.SetInodeOwner(w.node, uid, gid, /*clear_sbits=*/true);
  return OkUnit();
}

Result<Unit> Kernel::Mkdir(Task& task, const std::string& path, uint32_t mode) {
  SyscallArgs sargs;
  sargs.a[1] = mode;
  return gate_.Run<Unit>(
      task, Sysno::kMkdir, sargs,
      [&] { return StrFormat("\"%s\", 0%o", path.c_str(), mode); },
      [&] { return MkdirImpl(task, path, mode); });
}

Result<Unit> Kernel::MkdirImpl(Task& task, const std::string& path, uint32_t mode) {
  ASSIGN_OR_RETURN(WalkResult w, Lookup(task, path, PathArg::kNewEntry));
  RETURN_IF_ERROR(CheckDirWrite(task, w));
  RETURN_IF_ERROR(
      vfs_.CreateAt(w, Inode(kIfDir | (mode & kPermMask), task.cred.fsuid, task.cred.fsgid)));
  return OkUnit();
}

Result<Unit> Kernel::Unlink(Task& task, const std::string& path) {
  SyscallArgs sargs;
  return gate_.Run<Unit>(
      task, Sysno::kUnlink, sargs, [&]() -> std::string { return path; },
      [&] { return UnlinkImpl(task, path); });
}

Result<Unit> Kernel::UnlinkImpl(Task& task, const std::string& path) {
  ASSIGN_OR_RETURN(WalkResult w, Lookup(task, path, PathArg::kEntry));
  RETURN_IF_ERROR(CheckDirWrite(task, w));
  return vfs_.UnlinkAt(w);
}

Result<Unit> Kernel::Rename(Task& task, const std::string& from, const std::string& to) {
  SyscallArgs sargs;
  sargs.str1 = &to;
  return gate_.Run<Unit>(
      task, Sysno::kRename, sargs,
      [&] { return StrFormat("\"%s\", \"%s\"", from.c_str(), to.c_str()); },
      [&] { return RenameImpl(task, from, to); });
}

Result<Unit> Kernel::RenameImpl(Task& task, const std::string& from, const std::string& to) {
  ASSIGN_OR_RETURN(WalkResult src, Lookup(task, from, PathArg::kEntry));
  RETURN_IF_ERROR(CheckDirWrite(task, src));
  ASSIGN_OR_RETURN(WalkResult dst, Lookup(task, to, PathArg::kNewEntry, /*primary=*/false));
  RETURN_IF_ERROR(CheckDirWrite(task, dst));
  return vfs_.RenameAt(src, dst);
}

Result<Unit> Kernel::Symlink(Task& task, const std::string& target, const std::string& linkpath) {
  SyscallArgs sargs;
  sargs.str1 = &target;
  return gate_.Run<Unit>(
      task, Sysno::kSymlink, sargs,
      [&] { return StrFormat("\"%s\", \"%s\"", target.c_str(), linkpath.c_str()); },
      [&] { return SymlinkImpl(task, target, linkpath); });
}

Result<Unit> Kernel::SymlinkImpl(Task& task, const std::string& target,
                                 const std::string& linkpath) {
  ASSIGN_OR_RETURN(WalkResult w, Lookup(task, linkpath, PathArg::kNewEntry));
  RETURN_IF_ERROR(CheckDirWrite(task, w));
  RETURN_IF_ERROR(vfs_.CreateAt(w, Inode(kIfLnk | 0777, task.cred.fsuid, task.cred.fsgid, target)));
  return OkUnit();
}

Result<Unit> Kernel::Flock(Task& task, int fd, int op) {
  SyscallArgs sargs;
  sargs.a[0] = static_cast<uint64_t>(fd);
  sargs.a[1] = static_cast<uint64_t>(static_cast<uint32_t>(op));
  return gate_.Run<Unit>(
      task, Sysno::kFlock, sargs, [&] { return StrFormat("%d, %d", fd, op); },
      [&] { return FlockImpl(task, fd, op); });
}

Result<Unit> Kernel::FlockImpl(Task& task, int fd, int op) {
  FdEntry* entry = task.fds.Get(fd);
  if (entry == nullptr || entry->kind != FdEntry::Kind::kFile) {
    return Error(Errno::kEBADF);
  }
  uint64_t ino = entry->file->node->inode().ino;
  std::string path = vfs_.PathOf(entry->file->node);

  if (op & kLockUn) {
    bool released = false;
    {
      std::lock_guard<std::mutex> lk(locks_mu_);
      auto it = file_locks_.find(ino);
      if (it != file_locks_.end()) {
        if (it->second.exclusive == task.pid) {
          it->second.exclusive = 0;
        }
        it->second.shared.erase(task.pid);
        if (it->second.exclusive == 0 && it->second.shared.empty()) {
          file_locks_.erase(it);
        }
        released = true;
      }
    }
    // Wake waiters after dropping locks_mu_ so a woken thread can
    // immediately re-check the lock table.
    if (released) {
      if (TaskScheduler* sched = gate_.scheduler()) {
        sched->Signal(kWaitKeyFileLock | ino);
      }
    }
    EmitFileLockEvent(task, "LOCK_UN", path, ino, "released");
    return OkUnit();
  }

  int op_base = op & ~kLockNb;
  if (op_base != kLockSh && op_base != kLockEx) {
    return Error(Errno::kEINVAL, StrFormat("flock op %d", op));
  }
  const char* op_name = op_base == kLockEx ? "LOCK_EX" : "LOCK_SH";
  while (true) {
    bool acquired = false;
    bool downgraded = false;
    {
      std::lock_guard<std::mutex> lk(locks_mu_);
      FileLockState& state = file_locks_[ino];
      bool other_exclusive = state.exclusive != 0 && state.exclusive != task.pid;
      bool other_shared = false;
      for (int holder : state.shared) {
        if (holder != task.pid) {
          other_shared = true;
          break;
        }
      }
      bool conflict =
          op_base == kLockEx ? (other_exclusive || other_shared) : other_exclusive;
      if (!conflict) {
        // Acquire; a holder re-locking converts its own lock (upgrade or
        // downgrade), as flock(2) specifies.
        if (op_base == kLockEx) {
          state.shared.erase(task.pid);
          state.exclusive = task.pid;
        } else {
          if (state.exclusive == task.pid) {
            state.exclusive = 0;
          }
          state.shared.insert(task.pid);
          downgraded = true;
        }
        acquired = true;
      }
    }
    if (acquired) {
      task.took_flock = true;
      if (downgraded) {
        if (TaskScheduler* sched = gate_.scheduler()) {
          sched->Signal(kWaitKeyFileLock | ino);  // downgrade admits other readers
        }
      }
      EmitFileLockEvent(task, op_name, path, ino, "acquired");
      return OkUnit();
    }
    if (op & kLockNb) {
      EmitFileLockEvent(task, op_name, path, ino, "would-block");
      return Error(Errno::kEAGAIN, path);
    }
    EmitFileLockEvent(task, op_name, path, ino, "blocked");
    TaskScheduler* sched = gate_.scheduler();
    if (sched == nullptr || !sched->WaitOn(task.pid, kWaitKeyFileLock | ino)) {
      // No scheduler to block under, or blocking would leave no runnable
      // unit: the lock can never be released.
      EmitFileLockEvent(task, op_name, path, ino, "deadlock");
      return Error(Errno::kEDEADLK, path);
    }
  }
}

void Kernel::EmitFileLockEvent(const Task& task, const char* op, const std::string& path,
                               uint64_t ino, const char* outcome) {
  if (!tracer_.ShouldEmit(TracepointId::kFileLock)) {
    return;
  }
  TraceSlot ev = tracer_.Emit(TracepointId::kFileLock, task.pid);
  ev->comm = task.comm;
  ev->sname = op;
  ev->detail = path;
  ev->a = ino;
  ev->svalue = outcome;
}

void Kernel::ReleaseFileLocks(int pid) {
  std::vector<uint64_t> changed_inos;
  {
    std::lock_guard<std::mutex> lk(locks_mu_);
    for (auto it = file_locks_.begin(); it != file_locks_.end();) {
      FileLockState& state = it->second;
      bool changed = false;
      if (state.exclusive == pid) {
        state.exclusive = 0;
        changed = true;
      }
      changed |= state.shared.erase(pid) > 0;
      uint64_t ino = it->first;
      if (state.exclusive == 0 && state.shared.empty()) {
        it = file_locks_.erase(it);
      } else {
        ++it;
      }
      if (changed) {
        changed_inos.push_back(ino);
      }
    }
  }
  if (!changed_inos.empty()) {
    if (TaskScheduler* sched = gate_.scheduler()) {
      for (uint64_t ino : changed_inos) {
        sched->Signal(kWaitKeyFileLock | ino);
      }
    }
  }
}

Result<std::vector<std::string>> Kernel::ReadDir(Task& task, const std::string& path) {
  SyscallArgs sargs;
  return gate_.Run<std::vector<std::string>>(
      task, Sysno::kGetDents, sargs, [&]() -> std::string { return path; },
      [&] { return ReadDirImpl(task, path); });
}

Result<std::vector<std::string>> Kernel::ReadDirImpl(Task& task, const std::string& path) {
  ASSIGN_OR_RETURN(WalkResult w, Lookup(task, path, PathArg::kObject));
  if (!w.node->inode().IsDir()) {
    return Error(Errno::kENOTDIR, w.path);
  }
  RETURN_IF_ERROR(CheckPermission(task, w.path, w.node->inode(), kMayRead));
  return vfs_.ListDir(w.node);
}

Result<Unit> Kernel::Access(Task& task, const std::string& path, int may) {
  SyscallArgs sargs;
  sargs.a[1] = static_cast<uint64_t>(static_cast<uint32_t>(may));
  return gate_.Run<Unit>(
      task, Sysno::kAccess, sargs,
      [&] { return StrFormat("\"%s\", %d", path.c_str(), may); },
      [&] { return AccessImpl(task, path, may); });
}

Result<Unit> Kernel::AccessImpl(Task& task, const std::string& path, int may) {
  ASSIGN_OR_RETURN(WalkResult w, Lookup(task, path, PathArg::kObject));
  return CheckPermission(task, w.path, w.node->inode(), may);
}

Result<std::string> Kernel::ReadWholeFile(Task& task, const std::string& path) {
  ASSIGN_OR_RETURN(int fd, Open(task, path, kORdOnly));
  auto data = Read(task, fd);
  (void)Close(task, fd);
  return data;
}

Result<Unit> Kernel::WriteWholeFile(Task& task, const std::string& path, std::string_view data,
                                    bool append, uint32_t create_mode) {
  int flags = kOWrOnly | kOCreat | (append ? kOAppend : kOTrunc);
  ASSIGN_OR_RETURN(int fd, Open(task, path, flags, create_mode));
  auto r = Write(task, fd, data);
  (void)Close(task, fd);
  if (!r.ok()) {
    return r.error();
  }
  return OkUnit();
}

// --- Mounts --------------------------------------------------------------------

void Kernel::RegisterFsType(const std::string& fstype, FsTypeFactory factory) {
  std::unique_lock<RwLock> lk(registry_mu_);
  fs_types_[fstype] = std::move(factory);
}

Result<Unit> Kernel::Mount(Task& task, const std::string& source, const std::string& target,
                           const std::string& fstype, std::vector<std::string> options) {
  SyscallArgs sargs;
  sargs.str1 = &source;
  sargs.str2 = &fstype;
  sargs.list = &options;
  return gate_.Run<Unit>(
      task, Sysno::kMount, sargs,
      [&] {
        return StrFormat("\"%s\", \"%s\", \"%s\"", source.c_str(), target.c_str(),
                         fstype.c_str());
      },
      [&] { return MountImpl(task, source, target, fstype, std::move(options)); });
}

Result<Unit> Kernel::MountImpl(Task& task, const std::string& source, const std::string& target,
                               const std::string& fstype, std::vector<std::string> options) {
  ASSIGN_OR_RETURN(WalkResult w, Lookup(task, target, PathArg::kObject));
  MountRequest req{source, w.path, fstype, options, w.node->inode().uid};
  HookVerdict verdict = lsm_.SbMount(task, req);
  if (verdict == HookVerdict::kDeny) {
    Audit(StrFormat("mount denied by LSM: %s on %s (uid=%u)", source.c_str(), w.path.c_str(),
                    task.cred.euid));
    return Error(Errno::kEPERM, "mount " + w.path);
  }
  if (verdict == HookVerdict::kDefault && !Capable(task, Capability::kSysAdmin)) {
    return Error(Errno::kEPERM, "mount requires CAP_SYS_ADMIN");
  }
  FsTypeFactory factory;
  {
    std::shared_lock<RwLock> lk(registry_mu_);
    auto it = fs_types_.find(fstype);
    if (it == fs_types_.end()) {
      return Error(Errno::kENODEV, "unknown filesystem type " + fstype);
    }
    factory = it->second;  // copy: the factory may nest syscalls
  }
  ASSIGN_OR_RETURN(MountPopulator populate, factory(source));
  return vfs_.AddMountAt(w, source, fstype, std::move(options), task.cred.ruid, populate);
}

Result<Unit> Kernel::Umount(Task& task, const std::string& target) {
  SyscallArgs sargs;
  return gate_.Run<Unit>(
      task, Sysno::kUmount2, sargs, [&]() -> std::string { return target; },
      [&] { return UmountImpl(task, target); });
}

Result<Unit> Kernel::UmountImpl(Task& task, const std::string& target) {
  ASSIGN_OR_RETURN(WalkResult w, Lookup(task, target, PathArg::kObject));
  std::optional<Uid> mounter = vfs_.MounterOf(w.node);
  if (!mounter.has_value()) {
    return Error(Errno::kEINVAL, "not mounted: " + w.path);
  }
  HookVerdict verdict = lsm_.SbUmount(task, w.path, *mounter);
  if (verdict == HookVerdict::kDeny) {
    return Error(Errno::kEPERM, "umount " + w.path);
  }
  if (verdict == HookVerdict::kDefault && !Capable(task, Capability::kSysAdmin)) {
    return Error(Errno::kEPERM, "umount requires CAP_SYS_ADMIN");
  }
  return vfs_.RemoveMountAt(w.node);
}

// --- Namespaces --------------------------------------------------------------------

Result<Unit> Kernel::Unshare(Task& task, int flags) {
  SyscallArgs sargs;
  sargs.a[0] = static_cast<uint64_t>(static_cast<uint32_t>(flags));
  return gate_.Run<Unit>(
      task, Sysno::kUnshare, sargs, [&] { return StrFormat("0x%x", flags); },
      [&] { return UnshareImpl(task, flags); });
}

Result<Unit> Kernel::UnshareImpl(Task& task, int flags) {
  if ((flags & ~(kCloneNewUser | kCloneNewNet)) != 0) {
    return Error(Errno::kEINVAL, "unsupported unshare flags");
  }
  bool want_user = (flags & kCloneNewUser) != 0;
  bool want_net = (flags & kCloneNewNet) != 0;
  if (!want_user && !want_net) {
    return OkUnit();
  }
  if (!unprivileged_userns_enabled_) {
    // Pre-3.8: every namespace type requires CAP_SYS_ADMIN — which is why
    // chromium-sandbox had to be setuid root (§4.6).
    if (!Capable(task, Capability::kSysAdmin)) {
      return Error(Errno::kEPERM, "unshare requires CAP_SYS_ADMIN");
    }
  } else if (want_net && !want_user && task.ns.user_ns == 0 &&
             !Capable(task, Capability::kSysAdmin)) {
    // 3.8+: user namespaces are free; other namespaces need CAP_SYS_ADMIN
    // in the current user namespace (i.e. ride along with CLONE_NEWUSER).
    return Error(Errno::kEPERM, "network namespace requires a user namespace");
  }
  if (want_user) {
    task.ns.user_ns = next_userns_.fetch_add(1, std::memory_order_relaxed);
  }
  if (want_net) {
    task.ns.net_ns = net_.NewNetNamespace();
  }
  Audit(StrFormat("unshare: pid=%d uid=%u user_ns=%d net_ns=%d", task.pid, task.cred.ruid,
                     task.ns.user_ns, task.ns.net_ns));
  return OkUnit();
}

// --- Credentials -----------------------------------------------------------------

void Kernel::RecomputeCapsAfterSetuid(Cred& cred, Uid old_euid) {
  if (old_euid == kRootUid && cred.euid != kRootUid) {
    cred.effective.Clear();
    if (cred.ruid != kRootUid && cred.suid != kRootUid) {
      cred.permitted.Clear();
    }
  }
  if (old_euid != kRootUid && cred.euid == kRootUid) {
    cred.effective = cred.permitted;
  }
}

Result<Unit> Kernel::Setuid(Task& task, Uid uid) {
  SyscallArgs sargs;
  sargs.a[0] = uid;
  return gate_.Run<Unit>(
      task, Sysno::kSetuid, sargs, [&] { return StrFormat("%u", uid); },
      [&] { return SetuidImpl(task, uid); });
}

Result<Unit> Kernel::SetuidImpl(Task& task, Uid uid) {
  SetuidRequest req;
  req.target_uid = uid;
  SetuidDisposition disposition;
  HookVerdict verdict = lsm_.TaskFixSetuid(task, req, &disposition);
  if (verdict == HookVerdict::kDeny) {
    Audit(StrFormat("setuid(%u) denied by LSM for uid=%u", uid, task.cred.ruid));
    return Error(Errno::kEPERM, "setuid");
  }
  Uid old_euid = task.cred.euid;
  Uid old_ruid = task.cred.ruid;
  if (verdict == HookVerdict::kAllow) {
    if (disposition.defer_to_exec) {
      // Protego setuid-on-exec: report success now, transition at execve.
      task.pending_setuid.active = true;
      task.pending_setuid.target_uid = uid;
      task.pending_setuid.has_gid = false;
      if (TraceCredOn()) {
        EmitCredChange(task, "setuid_deferred",
                       StrFormat("target uid=%u (transition at exec)", uid));
      }
      return OkUnit();
    }
    task.cred.ruid = task.cred.euid = task.cred.suid = task.cred.fsuid = uid;
    if (disposition.has_gid) {
      task.cred.rgid = task.cred.egid = task.cred.sgid = task.cred.fsgid = disposition.gid;
    }
    if (uid == kRootUid) {
      task.cred.effective = CapSet::All();
      task.cred.permitted = CapSet::All();
    } else {
      RecomputeCapsAfterSetuid(task.cred, old_euid);
    }
    if (TraceCredOn()) {
      EmitCredChange(task, "setuid",
                     StrFormat("uid %u->%u euid %u->%u", old_ruid, uid, old_euid, uid));
    }
    return OkUnit();
  }
  // Legacy rule (stock Linux).
  if (Capable(task, Capability::kSetuid)) {
    task.cred.ruid = task.cred.euid = task.cred.suid = task.cred.fsuid = uid;
    RecomputeCapsAfterSetuid(task.cred, old_euid);
    if (TraceCredOn()) {
      EmitCredChange(task, "setuid",
                     StrFormat("uid %u->%u euid %u->%u", old_ruid, uid, old_euid, uid));
    }
    return OkUnit();
  }
  if (uid == task.cred.ruid || uid == task.cred.suid) {
    task.cred.euid = task.cred.fsuid = uid;
    RecomputeCapsAfterSetuid(task.cred, old_euid);
    if (TraceCredOn()) {
      EmitCredChange(task, "setuid", StrFormat("euid %u->%u", old_euid, uid));
    }
    return OkUnit();
  }
  return Error(Errno::kEPERM, "setuid");
}

Result<Unit> Kernel::Seteuid(Task& task, Uid uid) {
  SyscallArgs sargs;
  sargs.a[0] = static_cast<uint64_t>(-1);
  sargs.a[1] = uid;
  return gate_.Run<Unit>(
      task, Sysno::kSetreuid, sargs, [&] { return StrFormat("-1, %u", uid); },
      [&] { return SeteuidImpl(task, uid); });
}

Result<Unit> Kernel::SeteuidImpl(Task& task, Uid uid) {
  if (Capable(task, Capability::kSetuid) || uid == task.cred.ruid || uid == task.cred.suid) {
    Uid old_euid = task.cred.euid;
    task.cred.euid = task.cred.fsuid = uid;
    RecomputeCapsAfterSetuid(task.cred, old_euid);
    if (TraceCredOn()) {
      EmitCredChange(task, "seteuid", StrFormat("euid %u->%u", old_euid, uid));
    }
    return OkUnit();
  }
  return Error(Errno::kEPERM, "seteuid");
}

Result<Unit> Kernel::Setgid(Task& task, Gid gid) {
  SyscallArgs sargs;
  sargs.a[0] = gid;
  return gate_.Run<Unit>(
      task, Sysno::kSetgid, sargs, [&] { return StrFormat("%u", gid); },
      [&] { return SetgidImpl(task, gid); });
}

Result<Unit> Kernel::SetgidImpl(Task& task, Gid gid) {
  SetuidRequest req;
  req.is_gid = true;
  req.target_gid = gid;
  SetuidDisposition disposition;
  HookVerdict verdict = lsm_.TaskFixSetuid(task, req, &disposition);
  if (verdict == HookVerdict::kDeny) {
    return Error(Errno::kEPERM, "setgid");
  }
  Gid old_rgid = task.cred.rgid;
  Gid old_egid = task.cred.egid;
  if (verdict == HookVerdict::kAllow) {
    if (disposition.defer_to_exec) {
      task.pending_setuid.active = true;
      task.pending_setuid.target_uid = task.cred.ruid;
      task.pending_setuid.has_gid = true;
      task.pending_setuid.target_gid = gid;
      if (TraceCredOn()) {
        EmitCredChange(task, "setgid_deferred",
                       StrFormat("target gid=%u (transition at exec)", gid));
      }
      return OkUnit();
    }
    task.cred.rgid = task.cred.egid = task.cred.sgid = task.cred.fsgid = gid;
    if (TraceCredOn()) {
      EmitCredChange(task, "setgid",
                     StrFormat("gid %u->%u egid %u->%u", old_rgid, gid, old_egid, gid));
    }
    return OkUnit();
  }
  if (Capable(task, Capability::kSetgid)) {
    task.cred.rgid = task.cred.egid = task.cred.sgid = task.cred.fsgid = gid;
    if (TraceCredOn()) {
      EmitCredChange(task, "setgid",
                     StrFormat("gid %u->%u egid %u->%u", old_rgid, gid, old_egid, gid));
    }
    return OkUnit();
  }
  if (gid == task.cred.rgid || gid == task.cred.sgid) {
    task.cred.egid = task.cred.fsgid = gid;
    if (TraceCredOn()) {
      EmitCredChange(task, "setgid", StrFormat("egid %u->%u", old_egid, gid));
    }
    return OkUnit();
  }
  return Error(Errno::kEPERM, "setgid");
}

// --- Resource limits -------------------------------------------------------------

Result<RLimit> Kernel::GetRlimit(Task& task, int resource) {
  SyscallArgs sargs;
  sargs.a[0] = static_cast<uint64_t>(static_cast<uint32_t>(resource));
  return gate_.Run<RLimit>(
      task, Sysno::kGetRlimit, sargs, [&] { return StrFormat("%d", resource); },
      [&] { return GetRlimitImpl(task, resource); });
}

Result<RLimit> Kernel::GetRlimitImpl(Task& task, int resource) {
  if (resource != kRlimitNofile) {
    return Error(Errno::kEINVAL, StrFormat("getrlimit: unsupported resource %d", resource));
  }
  return task.rlimit_nofile;
}

Result<Unit> Kernel::SetRlimit(Task& task, int resource, RLimit limit) {
  SyscallArgs sargs;
  sargs.a[0] = static_cast<uint64_t>(static_cast<uint32_t>(resource));
  sargs.a[1] = limit.cur;
  sargs.a[2] = limit.max;
  return gate_.Run<Unit>(
      task, Sysno::kSetRlimit, sargs,
      [&] {
        return StrFormat("%d, {cur=%llu, max=%llu}", resource,
                         (unsigned long long)limit.cur, (unsigned long long)limit.max);
      },
      [&] { return SetRlimitImpl(task, resource, limit); });
}

Result<Unit> Kernel::SetRlimitImpl(Task& task, int resource, RLimit limit) {
  if (resource != kRlimitNofile) {
    return Error(Errno::kEINVAL, StrFormat("setrlimit: unsupported resource %d", resource));
  }
  if (limit.cur > limit.max) {
    return Error(Errno::kEINVAL, "setrlimit: soft limit above hard limit");
  }
  if (limit.max > task.rlimit_nofile.max && !Capable(task, Capability::kSysResource)) {
    return Error(Errno::kEPERM, "setrlimit: raising the hard limit needs CAP_SYS_RESOURCE");
  }
  task.rlimit_nofile = limit;
  return OkUnit();
}

Result<Unit> Kernel::CheckFdAvailable(Task& task) {
  if (faults_.any_enabled()) {
    RETURN_IF_ERROR(faults_.Check(FaultSite::kFdAlloc, "fd-table slot allocation"));
  }
  if (task.fds.size() >= task.rlimit_nofile.cur) {
    return Error(Errno::kEMFILE,
                 StrFormat("RLIMIT_NOFILE: %zu open, limit %llu", task.fds.size(),
                           (unsigned long long)task.rlimit_nofile.cur));
  }
  // Each live table holds back less than kBatch, so the folded count alone
  // decides unless the remainders could reach file-max; only then sum them
  // (Linux's percpu_counter_compare on nr_files).
  const uint64_t limit = file_max();
  const int64_t folded = open_files_.load(std::memory_order_relaxed);
  const uint64_t slack = FdTable::kBatch * task_count_.load(std::memory_order_relaxed);
  if (static_cast<uint64_t>(std::max<int64_t>(folded, 0)) + slack >= limit) {
    const uint64_t open = OpenFileCount();
    if (open >= limit) {
      return Error(Errno::kENFILE,
                   StrFormat("file-max: %llu open system-wide, limit %llu",
                             (unsigned long long)open, (unsigned long long)limit));
    }
  }
  return OkUnit();
}

uint64_t Kernel::OpenFileCount() const {
  // Remainders first, then the folded count: a fold racing the sum lands
  // in the count before its remainder clears, so it is never missed.
  int64_t open = 0;
  for (const TaskShard& shard : task_shards_) {
    std::lock_guard<std::mutex> lk(shard.mu);
    for (const auto& [pid, task] : shard.tasks) {
      open += task->fds.unreported();
    }
  }
  open += open_files_.load(std::memory_order_relaxed);
  return static_cast<uint64_t>(std::max<int64_t>(open, 0));
}

Result<Unit> Kernel::Setgroups(Task& task, std::vector<Gid> groups) {
  SyscallArgs sargs;
  sargs.a[0] = groups.size();
  return gate_.Run<Unit>(
      task, Sysno::kSetgroups, sargs,
      [&] { return StrFormat("%zu groups", groups.size()); },
      [&] { return SetgroupsImpl(task, std::move(groups)); });
}

Result<Unit> Kernel::SetgroupsImpl(Task& task, std::vector<Gid> groups) {
  if (!Capable(task, Capability::kSetgid)) {
    return Error(Errno::kEPERM, "setgroups");
  }
  task.cred.groups = std::move(groups);
  if (TraceCredOn()) {
    EmitCredChange(task, "setgroups", StrFormat("%zu groups", task.cred.groups.size()));
  }
  return OkUnit();
}

// --- Seccomp ---------------------------------------------------------------------

Result<Unit> Kernel::SeccompSetFilter(Task& task, const std::vector<Sysno>& allowed) {
  // Gated under its own number: a filter that omits Sysno::kSeccomp makes
  // this very call fail with EPERM next time — the latch locks itself.
  SyscallArgs sargs;
  sargs.a[0] = allowed.size();
  return gate_.Run<Unit>(
      task, Sysno::kSeccomp, sargs,
      [&] { return StrFormat("%zu syscalls allowed", allowed.size()); },
      [&] { return SeccompSetFilterImpl(task, SeccompFilter::AllowList(allowed)); });
}

Result<Unit> Kernel::SeccompSetFilterSpec(Task& task, const SeccompFilter::Spec& spec) {
  SyscallArgs sargs;
  sargs.a[0] = spec.allowed.count();
  return gate_.Run<Unit>(
      task, Sysno::kSeccomp, sargs,
      [&] {
        return StrFormat("%zu syscalls allowed (predicate spec)", spec.allowed.count());
      },
      [&]() -> Result<Unit> {
        ASSIGN_OR_RETURN(SeccompFilter filter, SeccompFilter::FromSpec(spec));
        return SeccompSetFilterImpl(task, std::move(filter));
      });
}

Result<Unit> Kernel::SeccompSetFilterImpl(Task& task, SeccompFilter filter) {
  if (task.seccomp != nullptr) {
    // One-way latch: the new filter can only narrow the existing one.
    filter.IntersectWith(*task.seccomp);
  }
  task.seccomp = std::make_shared<const SeccompFilter>(std::move(filter));
  Audit(StrFormat("seccomp: pid=%d comm=%s filter installed (%zu syscalls allowed, %zu rules)",
                  task.pid, task.comm.c_str(), task.seccomp->allowed_count(),
                  task.seccomp->rule_count()));
  return OkUnit();
}

void Kernel::RegisterBinaryFilter(const std::string& path, SeccompFilter filter) {
  // Keyed by the canonical path, which a missing binary also has: the
  // directory's canonical path and the binary's name.
  std::string canonical = vfs_.Walk("/", path, /*follow=*/true).path;
  auto shared = std::make_shared<const SeccompFilter>(std::move(filter));
  std::unique_lock<RwLock> lk(registry_mu_);
  binary_filters_.Update([&](BinaryFilters& filters) { filters[canonical] = std::move(shared); });
}

void Kernel::ClearBinaryFilters() {
  std::unique_lock<RwLock> lk(registry_mu_);
  binary_filters_.Publish(BinaryFilters());
}

// --- exec ------------------------------------------------------------------------

Result<int> Kernel::Spawn(Task& parent, const std::string& path, std::vector<std::string> argv,
                          std::map<std::string, std::string> env) {
  SyscallArgs sargs;
  sargs.list = &argv;
  return gate_.Run<int>(
      parent, Sysno::kClone, sargs, [&]() -> std::string { return path; },
      [&] { return SpawnImpl(parent, path, std::move(argv), std::move(env)); });
}

Task& Kernel::ForkTask(Task& parent) {
  // fork(): child inherits credentials, cwd, terminal, fds, and the Protego
  // security metadata (auth recency, pending setuid-on-exec, seccomp filter).
  Task& child = CreateTask(parent.comm, parent.cred, parent.terminal, parent.pid);
  child.cwd = parent.cwd;
  child.exe_path = parent.exe_path;
  child.rlimit_nofile = parent.rlimit_nofile;
  child.ns = parent.ns;
  child.auth_times = parent.auth_times;
  child.pending_setuid = parent.pending_setuid;
  child.seccomp = parent.seccomp;
  for (const auto& [fd, entry] : parent.fds.entries()) {
    child.fds.Install(entry);  // a socket gains a reference
  }
  // The parent's pending transition is consumed by the child's exec, as when
  // sudo execs the target in-process; clear it on the parent.
  parent.pending_setuid = PendingSetuid{};
  return child;
}

Result<int> Kernel::SpawnImpl(Task& parent, const std::string& path, std::vector<std::string> argv,
                              std::map<std::string, std::string> env) {
  // clone walks the binary it will run; its nested execve walks it again.
  RETURN_IF_ERROR(Lookup(parent, path, PathArg::kObject));
  Task& child = ForkTask(parent);
  auto status = Execve(child, path, std::move(argv), std::move(env));
  // waitpid(): surface the child's output on the parent, then reap.
  parent.stdout_buf += child.stdout_buf;
  parent.stderr_buf += child.stderr_buf;
  int child_pid = child.pid;
  if (!status.ok()) {
    ReapTask(child_pid);
    return status.error();
  }
  int code = status.value();
  ReapTask(child_pid);
  return code;
}

Result<int> Kernel::SpawnAsync(Task& parent, const std::string& path,
                               std::vector<std::string> argv,
                               std::map<std::string, std::string> env) {
  SyscallArgs sargs;
  sargs.list = &argv;
  return gate_.Run<int>(
      parent, Sysno::kClone, sargs, [&] { return path + " [async]"; },
      [&] { return SpawnAsyncImpl(parent, path, std::move(argv), std::move(env)); });
}

Result<int> Kernel::SpawnAsyncImpl(Task& parent, const std::string& path,
                                   std::vector<std::string> argv,
                                   std::map<std::string, std::string> env) {
  TaskScheduler* sched = gate_.scheduler();
  if (sched == nullptr) {
    return Error(Errno::kENOSYS, "SpawnAsync requires an attached scheduler");
  }
  RETURN_IF_ERROR(Lookup(parent, path, PathArg::kObject));
  Task& child = ForkTask(parent);
  int child_pid = child.pid;
  // The child's execve becomes a schedulable unit: it runs on the
  // scheduler's thread for this pid and interleaves with every other unit
  // at syscall-entry yield points. The task stays in the process table as a
  // zombie (exit status parked in exit_records_) until the parent's WaitPid.
  sched->StartTask(child_pid, [this, child_pid, path, argv = std::move(argv),
                               env = std::move(env)]() mutable {
    Task* child_task = FindTask(child_pid);
    if (child_task == nullptr) {
      return;  // reaped before ever being scheduled
    }
    auto status = Execve(*child_task, path, std::move(argv), std::move(env));
    ExitRecord rec;
    if (status.ok()) {
      rec.status = status.value();
    } else {
      rec.err = status.code();
      rec.context = status.error().context();
    }
    // Exit closes the descriptors and drops advisory locks before the
    // parent can reap (Linux's exit_files), so ports and the file-max share
    // come back while the task is a zombie. Once the record below is posted
    // the parent may free the task at any moment: nothing after it touches
    // child_task.
    child_task->fds.CloseAll();
    if (child_task->took_flock) {
      ReleaseFileLocks(child_pid);
    }
    {
      // exit_mu_ also publishes the child's stdout/stderr buffers to the
      // parent thread that finds this record in WaitPid.
      std::lock_guard<std::mutex> lk(exit_mu_);
      exit_records_[child_pid] = std::move(rec);
    }
    TaskScheduler* s = gate_.scheduler();
    if (s != nullptr) {
      s->Signal(kWaitKeyChildExit | static_cast<uint32_t>(child_pid));
    }
  });
  return child_pid;
}

Result<int> Kernel::WaitPid(Task& parent, int pid) {
  SyscallArgs sargs;
  sargs.a[0] = static_cast<uint64_t>(pid);
  return gate_.Run<int>(
      parent, Sysno::kWait4, sargs, [&] { return StrFormat("%d", pid); },
      [&] { return WaitPidImpl(parent, pid); });
}

Result<int> Kernel::WaitPidImpl(Task& parent, int pid) {
  while (true) {
    std::optional<ExitRecord> rec;
    {
      std::lock_guard<std::mutex> lk(exit_mu_);
      auto rec_it = exit_records_.find(pid);
      if (rec_it != exit_records_.end()) {
        rec = std::move(rec_it->second);
        exit_records_.erase(rec_it);
      }
    }
    if (rec.has_value()) {
      // waitpid(): surface the child's output on the parent, then reap.
      // Safe to touch the child's buffers: it has exited (the record only
      // exists post-exit) and exit_mu_ ordered its final writes before us.
      if (Task* child = FindTask(pid)) {
        parent.stdout_buf += child->stdout_buf;
        parent.stderr_buf += child->stderr_buf;
      }
      ReapTask(pid);
      if (rec->err != Errno::kOk) {
        return Error(rec->err, rec->context);
      }
      return rec->status;
    }
    if (FindTask(pid) == nullptr) {
      return Error(Errno::kECHILD, StrFormat("pid %d", pid));
    }
    TaskScheduler* sched = gate_.scheduler();
    if (sched == nullptr ||
        !sched->WaitOn(parent.pid, kWaitKeyChildExit | static_cast<uint32_t>(pid))) {
      // No scheduler, or blocking would leave no runnable unit: the child
      // can never exit.
      return Error(Errno::kEDEADLK, StrFormat("wait4 pid %d", pid));
    }
  }
}

Result<int> Kernel::Execve(Task& task, const std::string& path, std::vector<std::string> argv,
                           std::map<std::string, std::string> env) {
  SyscallArgs sargs;
  sargs.list = &argv;
  return gate_.Run<int>(
      task, Sysno::kExecve, sargs, [&]() -> std::string { return path; },
      [&] { return ExecveImpl(task, path, std::move(argv), std::move(env)); });
}

Result<int> Kernel::ExecveImpl(Task& task, const std::string& path, std::vector<std::string> argv,
                               std::map<std::string, std::string> env) {
  ASSIGN_OR_RETURN(WalkResult w, Lookup(task, path, PathArg::kObject));
  const std::string& full = w.path;
  const Inode& inode = w.node->inode();
  if (!inode.IsReg()) {
    return Error(Errno::kEACCES, full);
  }
  RETURN_IF_ERROR(CheckPermission(task, full, inode, kMayExec));
  // The program hangs off the inode the walk reached, and lives as long as
  // the kernel: its main runs without a copy or a lock.
  const Program* program = inode.program;
  if (program == nullptr) {
    return Error(Errno::kENOEXEC, full);
  }

  // Provisional post-exec credentials: the setuid/setgid bits (the exact
  // mechanism this paper is about) are applied here.
  Cred new_cred = task.cred;
  if (inode.IsSetUid()) {
    new_cred.euid = inode.uid;
  }
  if (inode.IsSetGid()) {
    new_cred.egid = inode.gid;
  }
  new_cred.suid = new_cred.euid;
  new_cred.sgid = new_cred.egid;
  new_cred.fsuid = new_cred.euid;
  new_cred.fsgid = new_cred.egid;
  if (new_cred.euid == kRootUid) {
    new_cred.permitted = CapSet::All();
    new_cred.effective = CapSet::All();
  } else {
    new_cred.permitted = program->file_caps.load(std::memory_order_relaxed);
    new_cred.effective = new_cred.permitted;
  }

  ExecControl control;
  control.cred = &new_cred;
  control.env = &env;
  HookVerdict verdict = lsm_.BprmCheck(task, full, inode, argv, &control);
  if (verdict == HookVerdict::kDeny) {
    // Deferred setuid-on-exec failures surface here as EACCES (§4.3's
    // documented error-behaviour change).
    task.pending_setuid = PendingSetuid{};
    Audit(StrFormat("exec of %s denied by LSM for uid=%u", full.c_str(), task.cred.ruid));
    return Error(Errno::kEACCES, "exec " + full);
  }
  task.pending_setuid = PendingSetuid{};

  Uid old_exec_euid = task.cred.euid;
  Gid old_exec_egid = task.cred.egid;
  task.cred = new_cred;
  task.exe_path = full;
  // Per-binary synthesized filter: an AppArmor-style profile TRANSITION —
  // the registered filter replaces the inherited one (sudo's filter must not
  // strangle the target it execs). Self-installs via SeccompSetFilter keep
  // the one-way intersection latch.
  {
    GraceDomain::Section section(binary_filters_.grace());
    const BinaryFilters& filters = binary_filters_.Read();
    auto fit = filters.find(full);
    if (fit != filters.end()) {
      task.seccomp = fit->second;
    }
  }
  if (TraceCredOn()) {
    EmitCredChange(task, "execve",
                   StrFormat("%s euid %u->%u egid %u->%u", full.c_str(), old_exec_euid,
                             new_cred.euid, old_exec_egid, new_cred.egid));
  }
  // comm names the file as exec was given it (a symlink's own name).
  task.comm = path.substr(path.find_last_of('/') + 1);
  task.fds.CloseOnExec();
  if (control.close_non_std_fds) {
    task.fds.CloseAll();
  }

  ProcessContext ctx{*this, task, std::move(argv), std::move(env)};
  return program->main(ctx);
}

// --- Network -----------------------------------------------------------------------

namespace {

// The socket `fd` names in the caller's own fd table (Linux's
// sockfd_lookup_light): the entry's reference keeps it alive for the call.
Socket* SocketAt(Task& task, int fd) {
  FdEntry* entry = task.fds.Get(fd);
  return entry != nullptr && entry->kind == FdEntry::Kind::kSocket ? entry->socket.get()
                                                                   : nullptr;
}

}  // namespace

Result<int> Kernel::SocketCall(Task& task, int family, int type, int protocol) {
  SyscallArgs sargs;
  sargs.a[0] = static_cast<uint64_t>(static_cast<uint32_t>(family));
  sargs.a[1] = static_cast<uint64_t>(static_cast<uint32_t>(type));
  sargs.a[2] = static_cast<uint64_t>(static_cast<uint32_t>(protocol));
  return gate_.Run<int>(
      task, Sysno::kSocket, sargs,
      [&] { return StrFormat("%d, %d, %d", family, type, protocol); },
      [&] { return SocketCallImpl(task, family, type, protocol); });
}

Result<int> Kernel::SocketCallImpl(Task& task, int family, int type, int protocol) {
  // Socket creation consumes an fd slot; same exhaustion contract as open.
  RETURN_IF_ERROR(CheckFdAvailable(task));
  SocketRequest req{family, type, protocol};
  HookVerdict verdict = lsm_.SocketCreate(task, req);
  if (verdict == HookVerdict::kDeny) {
    return Error(Errno::kEACCES, "socket");
  }
  bool raw = (type == kSockRaw || family == kAfPacket);
  if (raw && verdict == HookVerdict::kDefault && !Capable(task, Capability::kNetRaw)) {
    // Inside a sandbox created via a user namespace the task holds
    // CAP_NET_RAW over ITS OWN fake network (§6) — but only there.
    if (task.ns.net_ns == 0 || task.ns.user_ns == 0) {
      return Error(Errno::kEPERM, "raw socket requires CAP_NET_RAW");
    }
  }
  FdEntry entry;
  entry.kind = FdEntry::Kind::kSocket;
  entry.socket =
      net_.CreateSocket(family, type, protocol, task.cred.euid, task.exe_path, task.ns.net_ns);
  return task.fds.Install(std::move(entry));
}

Result<Unit> Kernel::BindCall(Task& task, int fd, uint16_t port) {
  SyscallArgs sargs;
  sargs.a[0] = static_cast<uint64_t>(fd);
  sargs.a[1] = port;
  return gate_.Run<Unit>(
      task, Sysno::kBind, sargs, [&] { return StrFormat("%d, port=%u", fd, port); },
      [&] { return BindCallImpl(task, fd, port); });
}

Result<Unit> Kernel::BindCallImpl(Task& task, int fd, uint16_t port) {
  Socket* sock = SocketAt(task, fd);
  if (sock == nullptr) {
    return Error(Errno::kEBADF);
  }
  BindRequest req{port, task.exe_path, task.ns.net_ns};
  HookVerdict verdict = lsm_.SocketBind(task, req);
  if (verdict == HookVerdict::kDeny) {
    Audit(StrFormat("bind(%u) denied by LSM for %s uid=%u", port, task.exe_path.c_str(),
                       task.cred.euid));
    return Error(Errno::kEACCES, "bind");
  }
  if (port < 1024 && verdict == HookVerdict::kDefault &&
      !Capable(task, Capability::kNetBindService)) {
    // Low ports inside a user-namespace sandbox are the sandbox's own.
    if (task.ns.net_ns == 0 || task.ns.user_ns == 0) {
      return Error(Errno::kEACCES, "privileged port requires CAP_NET_BIND_SERVICE");
    }
  }
  return net_.Bind(*sock, port);
}

Result<Unit> Kernel::ListenCall(Task& task, int fd) {
  SyscallArgs sargs;
  sargs.a[0] = static_cast<uint64_t>(fd);
  return gate_.Run<Unit>(
      task, Sysno::kListen, sargs, [&] { return StrFormat("%d", fd); },
      [&] { return ListenCallImpl(task, fd); });
}

Result<Unit> Kernel::ListenCallImpl(Task& task, int fd) {
  Socket* sock = SocketAt(task, fd);
  if (sock == nullptr) {
    return Error(Errno::kEBADF);
  }
  return net_.Listen(*sock);
}

Result<Unit> Kernel::ConnectCall(Task& task, int fd, Ipv4 ip, uint16_t port) {
  SyscallArgs sargs;
  sargs.a[0] = static_cast<uint64_t>(fd);
  sargs.a[1] = port;
  sargs.a[2] = ip;
  return gate_.Run<Unit>(
      task, Sysno::kConnect, sargs, [&] { return StrFormat("%d, port=%u", fd, port); },
      [&] { return ConnectCallImpl(task, fd, ip, port); });
}

Result<Unit> Kernel::ConnectCallImpl(Task& task, int fd, Ipv4 ip, uint16_t port) {
  Socket* sock = SocketAt(task, fd);
  if (sock == nullptr) {
    return Error(Errno::kEBADF);
  }
  return net_.Connect(*sock, ip, port);
}

Result<Unit> Kernel::SendCall(Task& task, int fd, Packet packet) {
  SyscallArgs sargs;
  sargs.a[0] = static_cast<uint64_t>(fd);
  return gate_.Run<Unit>(
      task, Sysno::kSendTo, sargs, [&] { return StrFormat("%d", fd); },
      [&] { return SendCallImpl(task, fd, std::move(packet)); });
}

Result<Unit> Kernel::SendCallImpl(Task& task, int fd, Packet packet) {
  Socket* sock = SocketAt(task, fd);
  if (sock == nullptr) {
    return Error(Errno::kEBADF);
  }
  return net_.Send(*sock, std::move(packet));
}

Result<std::optional<Packet>> Kernel::RecvCall(Task& task, int fd) {
  SyscallArgs sargs;
  sargs.a[0] = static_cast<uint64_t>(fd);
  return gate_.Run<std::optional<Packet>>(
      task, Sysno::kRecvFrom, sargs, [&] { return StrFormat("%d", fd); },
      [&] { return RecvCallImpl(task, fd); });
}

Result<std::optional<Packet>> Kernel::RecvCallImpl(Task& task, int fd) {
  Socket* sock = SocketAt(task, fd);
  if (sock == nullptr) {
    return Error(Errno::kEBADF);
  }
  return net_.Receive(*sock);
}

// --- ioctl --------------------------------------------------------------------------

void Kernel::RegisterIoctlHandler(uint32_t major, uint32_t minor, IoctlHandler handler) {
  std::unique_lock<RwLock> lk(registry_mu_);
  ioctl_handlers_[(static_cast<uint64_t>(major) << 32) | minor] = std::move(handler);
}

Result<std::string> Kernel::Ioctl(Task& task, int fd, uint32_t request, const std::string& arg) {
  SyscallArgs sargs;
  sargs.a[0] = static_cast<uint64_t>(fd);
  sargs.a[1] = request;
  sargs.str1 = &arg;
  return gate_.Run<std::string>(
      task, Sysno::kIoctl, sargs,
      [&] { return StrFormat("%d, %s", fd, IoctlName(request)); },
      [&] { return IoctlImpl(task, fd, request, arg); });
}

Result<std::string> Kernel::IoctlImpl(Task& task, int fd, uint32_t request,
                                      const std::string& arg) {
  FdEntry* entry = task.fds.Get(fd);
  if (entry == nullptr) {
    return Error(Errno::kEBADF);
  }

  if (entry->kind == FdEntry::Kind::kSocket) {
    IoctlRequest ireq{"socket", request, arg};
    HookVerdict verdict = lsm_.FileIoctl(task, ireq);
    if (verdict == HookVerdict::kDeny) {
      return Error(Errno::kEPERM, "ioctl");
    }
    switch (request) {
      case kSiocAddRt: {
        if (verdict == HookVerdict::kDefault && !Capable(task, Capability::kNetAdmin)) {
          return Error(Errno::kEPERM, "SIOCADDRT requires CAP_NET_ADMIN");
        }
        ASSIGN_OR_RETURN(RouteEntry route, ParseRouteSpec(arg));
        route.added_by = task.cred.ruid;
        RETURN_IF_ERROR(net_.routes().Add(route));
        return std::string("route added");
      }
      case kSiocDelRt: {
        if (verdict == HookVerdict::kDefault && !Capable(task, Capability::kNetAdmin)) {
          return Error(Errno::kEPERM, "SIOCDELRT requires CAP_NET_ADMIN");
        }
        auto fields = SplitWhitespace(arg);
        if (fields.empty()) {
          return Error(Errno::kEINVAL, "route spec: " + arg);
        }
        ASSIGN_OR_RETURN(auto dst, ParseDstSpec(fields[0]));
        RETURN_IF_ERROR(net_.routes().Remove(dst.first, dst.second));
        return std::string("route removed");
      }
      case kSiocNfAppend: {
        // The iptables control path (the paper's 175-line extension).
        if (verdict == HookVerdict::kDefault && !Capable(task, Capability::kNetAdmin)) {
          return Error(Errno::kEPERM, "netfilter changes require CAP_NET_ADMIN");
        }
        ASSIGN_OR_RETURN(NfRule rule, ParseNfRule(arg));
        net_.netfilter().Append(std::move(rule));
        Audit(StrFormat("iptables: uid=%u appended rule: %s", task.cred.ruid, arg.c_str()));
        return std::string("rule appended");
      }
      case kSiocNfDelete: {
        if (verdict == HookVerdict::kDefault && !Capable(task, Capability::kNetAdmin)) {
          return Error(Errno::kEPERM, "netfilter changes require CAP_NET_ADMIN");
        }
        int removed = net_.netfilter().DeleteByComment(arg);
        if (removed == 0) {
          return Error(Errno::kESRCH, "no rules tagged: " + arg);
        }
        Audit(StrFormat("iptables: uid=%u deleted %d rule(s) tagged %s", task.cred.ruid,
                        removed, arg.c_str()));
        return StrFormat("%d rule(s) deleted", removed);
      }
      case kSiocNfList: {
        if (verdict == HookVerdict::kDefault && !Capable(task, Capability::kNetAdmin)) {
          return Error(Errno::kEPERM, "netfilter listing requires CAP_NET_ADMIN");
        }
        return net_.netfilter().ListRules();
      }
      default:
        return Error(Errno::kENOTTY);
    }
  }

  // Device ioctl: dispatch by device number.
  const Inode& inode = entry->file->node->inode();
  if (!inode.IsDevice()) {
    return Error(Errno::kENOTTY);
  }
  IoctlRequest ireq{vfs_.PathOf(entry->file->node), request, arg};
  HookVerdict verdict = lsm_.FileIoctl(task, ireq);
  if (verdict == HookVerdict::kDeny) {
    return Error(Errno::kEPERM, "ioctl " + ireq.target);
  }
  IoctlHandler handler;
  {
    std::shared_lock<RwLock> lk(registry_mu_);
    auto it = ioctl_handlers_.find((static_cast<uint64_t>(inode.rdev_major) << 32) |
                                   inode.rdev_minor);
    if (it == ioctl_handlers_.end()) {
      return Error(Errno::kENOTTY, ireq.target);
    }
    handler = it->second;  // copy: handlers nest syscalls (pppd's ioctls do)
  }
  return handler(task, request, arg, verdict);
}

}  // namespace protego
