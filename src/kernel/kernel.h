// The simulated kernel: syscall surface, process table, installed programs
// (hung off their files' inodes), execve with real setuid-bit semantics, and
// the integration of DAC, capability checks, and the LSM stack at each
// decision point.
//
// Policy layering mirrors Linux: each syscall consults the LSM stack first;
// a kDeny refuses, a kAllow grants past the legacy capability check (the
// Protego kernel change), and kDefault falls back to the hard-coded
// capability test that stock Linux 3.6 applies.

#ifndef SRC_KERNEL_KERNEL_H_
#define SRC_KERNEL_KERNEL_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <shared_mutex>
#include <string>
#include <vector>

#include "src/base/attribution.h"
#include "src/base/clock.h"
#include "src/base/grace.h"
#include "src/base/metrics.h"
#include "src/base/published.h"
#include "src/base/result.h"
#include "src/base/rw_lock.h"
#include "src/base/tracepoint.h"
#include "src/fault/fault.h"
#include "src/kernel/audit_ring.h"
#include "src/kernel/syscall.h"
#include "src/kernel/task.h"
#include "src/lsm/stack.h"
#include "src/net/ioctl_codes.h"
#include "src/net/network.h"
#include "src/vfs/vfs.h"

namespace protego {

class Kernel;

// flock(2) operation bits (Linux values).
inline constexpr int kLockSh = 1;  // shared lock
inline constexpr int kLockEx = 2;  // exclusive lock
inline constexpr int kLockNb = 4;  // don't block; fail with EAGAIN
inline constexpr int kLockUn = 8;  // release

// Execution context handed to a simulated userspace program.
struct ProcessContext {
  Kernel& kernel;
  Task& task;
  std::vector<std::string> argv;
  std::map<std::string, std::string> env;

  // Writes to the program's stdout/stderr (mirrored to the terminal).
  void Out(std::string_view text);
  void Err(std::string_view text);
  // Reads a line from the controlling terminal (password prompts).
  std::optional<std::string> ReadLine();
  // First argv value for a "--flag=value" style option, if present.
  std::optional<std::string> Flag(std::string_view name) const;
  bool HasFlag(std::string_view name) const;
};

// Entry point of a simulated userspace binary.
using ProgramMain = std::function<int(ProcessContext&)>;

// An installed program, hung off its file's inode (Inode::program) before
// the file is linked, as Linux's exec runs bprm->file with the capabilities
// of that inode's security.capability. Exec reaches it through its walk and
// takes no lock; it lives until the kernel dies.
struct Program {
  explicit Program(ProgramMain program_main) : main(std::move(program_main)) {}
  const ProgramMain main;
  std::atomic<CapSet> file_caps{CapSet{}};  // setcap: granted at exec when not setuid-root
};

// stat(2) result.
using KernelStat = InodeStat;

// Per-device ioctl handler (e.g. /dev/ppp, /dev/mapper/control). Receives
// the combined LSM verdict so drivers can honor policy-granted access.
using IoctlHandler =
    std::function<Result<std::string>(Task&, uint32_t request, const std::string& arg,
                                      HookVerdict lsm_verdict)>;

// Produces the content populator for mounting `source` with some fstype.
using FsTypeFactory = std::function<Result<MountPopulator>(const std::string& source)>;

// Trusted user-session authenticator, installed by the authentication
// service. Asks the human (via the task's terminal) for a password and
// verifies it against any of the candidate accounts (e.g. the invoker for
// a sudo-style rule OR the target for a su-style rule); returns the account
// that authenticated and stamps task.auth_times.
using AuthAgent =
    std::function<std::optional<Uid>(Task& task, const std::vector<Uid>& accounts)>;

// Observer of authentication attempts (candidate accounts and outcome),
// used by the policy synthesizer to correlate password prompts with the
// credential transitions that follow them. Called after every agent round
// trip, success or failure.
using AuthObserver = std::function<void(int pid, const std::vector<Uid>& accounts,
                                        std::optional<Uid> authenticated)>;

class Kernel {
 public:
  Kernel();

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  Clock& clock() { return clock_; }
  Vfs& vfs() { return vfs_; }
  LsmStack& lsm() { return lsm_; }
  Network& net() { return net_; }

  // The kernel's one grace period, the Vfs's (src/base/grace.h): path walks,
  // the packet path and Protego's policy reads open their read sections on
  // it, and every Published snapshot and closed raw socket retires through
  // it.
  GraceDomain& grace() { return vfs_.grace(); }

  // The unified syscall entry path every public syscall below routes
  // through (seccomp filtering, counters, latency, trace ring).
  SyscallGate& syscalls() { return gate_; }
  const SyscallGate& syscalls() const { return gate_; }

  // Attaches/detaches the deterministic scheduler (forwarded to the gate,
  // which owns the per-syscall yield point). Detach before destroying the
  // scheduler.
  void set_scheduler(TaskScheduler* scheduler) { gate_.set_scheduler(scheduler); }
  TaskScheduler* scheduler() { return gate_.scheduler(); }

  // The kernel-wide tracepoint ring (decision spans; /proc/protego/trace)
  // shared by the gate, the LSM stack, the VFS, and netfilter.
  Tracer& tracer() { return tracer_; }
  const Tracer& tracer() const { return tracer_; }

  // The per-layer latency profiler (/proc/protego/profile). It attributes
  // the self time of every timed syscall to gate/seccomp/dac/lsm/...
  // frames; the timed set is empty at boot.
  LayerProfiler& profiler() { return profiler_; }
  const LayerProfiler& profiler() const { return profiler_; }

  // The metrics registry exported at /proc/protego/metrics. The kernel
  // registers a collector for its own subsystems at construction; trusted
  // services (e.g. the Protego LSM's proc plumbing) may add more.
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  // The deterministic fault-injection registry, threaded through the gate,
  // VFS, LSM stack, and netfilter (configured at /proc/protego/fault_inject).
  FaultRegistry& faults() { return faults_; }
  const FaultRegistry& faults() const { return faults_; }

  // --- Processes -------------------------------------------------------------

  Task& CreateTask(std::string comm, Cred cred, Terminal* terminal, int ppid = 0);

  // getpid(2) analog: the cheapest possible syscall, used to measure bare
  // syscall-entry cost in the Table 5 reproduction. Returns -1 if the
  // task's seccomp filter denies it.
  int GetPid(const Task& task) const { return gate_.RunGetPid(task); }
  Task* FindTask(int pid);
  void ReapTask(int pid);

  // --- Binaries --------------------------------------------------------------

  // Installs a program: creates its VFS inode (mode decides the setuid bit)
  // with the entry point hung off it.
  Result<Unit> InstallBinary(const std::string& path, uint32_t mode, Uid uid, Gid gid,
                             ProgramMain main);
  // setcap analog: file capabilities granted at exec when not setuid-root,
  // set on the program `path` walks to (a no-op on any other file).
  void SetFileCaps(const std::string& path, CapSet caps);
  // Whether `path` walks to an installed program.
  bool HasBinary(const std::string& path) const;

  // fork + execve + waitpid in one step: runs `path` as a child of `parent`
  // and returns its exit status. This is how all simulated programs launch
  // other programs.
  Result<int> Spawn(Task& parent, const std::string& path, std::vector<std::string> argv,
                    std::map<std::string, std::string> env);

  // fork + execve without the wait: the child's exec runs as a schedulable
  // unit of the attached TaskScheduler (set_scheduler), interleaving with
  // other tasks at syscall-entry yield points. Returns the child pid
  // immediately; collect it with WaitPid. ENOSYS without a scheduler.
  Result<int> SpawnAsync(Task& parent, const std::string& path,
                         std::vector<std::string> argv,
                         std::map<std::string, std::string> env);

  // wait4(2) analog for SpawnAsync children: blocks (via the scheduler)
  // until `pid` exits, merges its captured output into `parent`, reaps it,
  // and returns its exit status. ECHILD if `pid` is not an un-reaped child;
  // EDEADLK if blocking could never be satisfied.
  Result<int> WaitPid(Task& parent, int pid);

  // execve(2) semantics applied to `task` itself (setuid bit, capability
  // recomputation, bprm LSM hook, close-on-exec), then runs the new image
  // to completion and returns its exit status.
  Result<int> Execve(Task& task, const std::string& path, std::vector<std::string> argv,
                     std::map<std::string, std::string> env);

  // --- Files -----------------------------------------------------------------

  Result<int> Open(Task& task, const std::string& path, int flags, uint32_t mode = 0644);
  Result<Unit> Close(Task& task, int fd);
  Result<std::string> Read(Task& task, int fd);
  Result<Unit> Write(Task& task, int fd, std::string_view data);
  Result<KernelStat> Stat(Task& task, const std::string& path);
  Result<Unit> Chmod(Task& task, const std::string& path, uint32_t mode);
  Result<Unit> Chown(Task& task, const std::string& path, Uid uid, Gid gid);
  Result<Unit> Mkdir(Task& task, const std::string& path, uint32_t mode);
  Result<Unit> Unlink(Task& task, const std::string& path);
  Result<Unit> Rename(Task& task, const std::string& from, const std::string& to);
  Result<std::vector<std::string>> ReadDir(Task& task, const std::string& path);
  Result<Unit> Access(Task& task, const std::string& path, int may);

  // symlink(2): creates `linkpath` pointing at `target` (which need not
  // exist). Needs write permission on linkpath's parent directory.
  Result<Unit> Symlink(Task& task, const std::string& target, const std::string& linkpath);

  // flock(2): advisory inode-level lock on an open fd. op is kLockSh /
  // kLockEx / kLockUn, optionally | kLockNb. Conflicting requests block via
  // the attached scheduler (EAGAIN with kLockNb, EDEADLK when blocking can
  // never succeed). Locks are tracked per (task, inode) and released on
  // kLockUn or task reap.
  Result<Unit> Flock(Task& task, int fd, int op);

  // Whole-file conveniences used heavily by utilities (open+read+close).
  Result<std::string> ReadWholeFile(Task& task, const std::string& path);
  Result<Unit> WriteWholeFile(Task& task, const std::string& path, std::string_view data,
                              bool append = false, uint32_t create_mode = 0644);

  // --- Mounts ----------------------------------------------------------------

  Result<Unit> Mount(Task& task, const std::string& source, const std::string& target,
                     const std::string& fstype, std::vector<std::string> options);
  Result<Unit> Umount(Task& task, const std::string& target);
  void RegisterFsType(const std::string& fstype, FsTypeFactory factory);

  // --- Credentials -----------------------------------------------------------

  // --- Namespaces (§4.6: unprivileged sandboxing since Linux 3.8) -----------

  // unshare(2) flags (Linux values).
  static constexpr int kCloneNewUser = 0x10000000;
  static constexpr int kCloneNewNet = 0x40000000;

  // Creates fresh namespaces for `task`. Pre-3.8 semantics (see
  // set_unprivileged_userns_enabled) require CAP_SYS_ADMIN for everything;
  // 3.8+ lets any user create a user namespace, and a network namespace
  // when combined with (or already inside) one.
  Result<Unit> Unshare(Task& task, int flags);

  // Models the kernel version: false = pre-3.8 (sandboxing utilities must
  // be setuid root), true (default) = 3.8+.
  void set_unprivileged_userns_enabled(bool enabled) {
    unprivileged_userns_enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool unprivileged_userns_enabled() const {
    return unprivileged_userns_enabled_.load(std::memory_order_relaxed);
  }

  Result<Unit> Setuid(Task& task, Uid uid);
  Result<Unit> Seteuid(Task& task, Uid uid);
  Result<Unit> Setgid(Task& task, Gid gid);
  Result<Unit> Setgroups(Task& task, std::vector<Gid> groups);

  // --- Resource limits -------------------------------------------------------

  // The only modeled resource (RLIMIT_NOFILE's Linux value).
  static constexpr int kRlimitNofile = 7;

  // getrlimit(2)/setrlimit(2) analogs. Only kRlimitNofile is supported
  // (EINVAL otherwise). setrlimit enforces cur <= max and requires
  // CAP_SYS_RESOURCE to raise the hard limit (EPERM).
  Result<RLimit> GetRlimit(Task& task, int resource);
  Result<Unit> SetRlimit(Task& task, int resource, RLimit limit);

  // System-wide open-file ceiling (/proc/sys/fs/file-max analog): when the
  // sum of all tasks' fd-table sizes reaches it, fd allocation fails with
  // ENFILE.
  void set_file_max(uint64_t file_max) {
    file_max_.store(file_max, std::memory_order_relaxed);
  }
  uint64_t file_max() const { return file_max_.load(std::memory_order_relaxed); }
  // Open file descriptions across every task (the ENFILE numerator), exact:
  // the folded count plus every live fd table's unreported remainder
  // (FdTable). Fd allocation reads the folded count alone unless the
  // remainders could reach file_max.
  uint64_t OpenFileCount() const;

  // --- Seccomp ---------------------------------------------------------------

  // seccomp(2)-style allow-list install, honored at syscall entry (before
  // DAC and the LSM stack). Installing over an existing filter intersects
  // with it — the prctl-style one-way latch: access only ever shrinks, and
  // a filter that omits Sysno::kSeccomp locks itself permanently. Filters
  // are inherited across Spawn and kept across Execve.
  Result<Unit> SeccompSetFilter(Task& task, const std::vector<Sysno>& allowed);

  // Argument-aware variant: installs a predicate filter built from `spec`
  // (per-syscall OR-of-AND rule lists + path-class table). Same
  // one-way latch: intersects with any existing filter.
  Result<Unit> SeccompSetFilterSpec(Task& task, const SeccompFilter::Spec& spec);

  // Registers a synthesized per-binary filter, attached at execve of `path`
  // as a profile TRANSITION (replaces the inherited filter, AppArmor-style —
  // the latch applies to self-installs, not registry attachment). Exec reads
  // the filters from a Published snapshot.
  void RegisterBinaryFilter(const std::string& path, SeccompFilter filter);
  void ClearBinaryFilters();

  // --- Network ---------------------------------------------------------------

  Result<int> SocketCall(Task& task, int family, int type, int protocol);
  Result<Unit> BindCall(Task& task, int fd, uint16_t port);
  Result<Unit> ListenCall(Task& task, int fd);
  Result<Unit> ConnectCall(Task& task, int fd, Ipv4 ip, uint16_t port);
  Result<Unit> SendCall(Task& task, int fd, Packet packet);
  Result<std::optional<Packet>> RecvCall(Task& task, int fd);

  // --- ioctl -----------------------------------------------------------------

  Result<std::string> Ioctl(Task& task, int fd, uint32_t request, const std::string& arg);
  void RegisterIoctlHandler(uint32_t major, uint32_t minor, IoctlHandler handler);

  // --- Capability and authentication services ---------------------------------

  // security_capable() over the LSM stack.
  bool Capable(const Task& task, Capability cap) const;

  // Invokes the installed trusted authentication agent for `account`.
  bool Authenticate(Task& task, Uid account);

  // Multi-candidate variant: one password prompt, verified against every
  // candidate; returns the account that matched.
  std::optional<Uid> AuthenticateAny(Task& task, const std::vector<Uid>& accounts);
  void SetAuthAgent(AuthAgent agent) { auth_agent_ = std::move(agent); }
  void SetAuthObserver(AuthObserver observer) { auth_observer_ = std::move(observer); }

  // Visits every live task (all shards, under their locks). `fn` must not
  // call back into the kernel.
  void ForEachTask(const std::function<void(const Task&)>& fn) const;

  // Appends a security-audit record to the kernel's ring buffer, the one
  // audit log (seccomp and LSM denials, auth outcomes). Exposed at
  // /proc/protego/audit.
  void Audit(std::string message);
  // Snapshot of the retained audit records, oldest first.
  std::vector<std::string> audit_log() const { return audit_ring_.Snapshot(); }
  // Records lost to the bounded ring since boot.
  uint64_t audit_dropped() const { return audit_ring_.dropped(); }

  // DAC + LSM inode permission check used by every file syscall; public so
  // trusted services can probe policy.
  Result<Unit> CheckPermission(Task& task, const std::string& path, const Inode& inode, int may);

 private:
  // Applies Linux's capability recomputation when uids change via setuid().
  static void RecomputeCapsAfterSetuid(Cred& cred, Uid old_euid);

  // What a syscall body needs its path argument to name.
  enum class PathArg {
    kObject,    // an existing object, final symlink followed (stat, open, exec, mount)
    kEntry,     // an existing entry, final symlink not followed (unlink, rename's source)
    kNewEntry,  // an entry that may be missing, final symlink not followed (mkdir, symlink)
    kCreate,    // an object that may be missing, final symlink followed (open O_CREAT)
  };

  // The one path lookup of every syscall body that takes a path: walks
  // `path` from the task's cwd and hands the primary argument's canonical
  // path to the gate's path-class rules (EPERM before DAC or any hook). Then
  // fails with the walk's error, except that kNewEntry/kCreate accept a
  // missing last component (node null; dir/name say where to create it).
  Result<WalkResult> Lookup(Task& task, const std::string& path, PathArg arg,
                            bool primary = true);

  // Write permission on the directory holding a walk's last component.
  Result<Unit> CheckDirWrite(Task& task, const WalkResult& w);

  // CheckPermission body; the public wrapper adds the kVfsPermission event.
  Result<Unit> CheckPermissionImpl(Task& task, const std::string& path, const Inode& inode,
                                   int may);

  // Emits a kCredChange event (callers gate on the tracepoint being on, so
  // the detail string is only built when traced).
  void EmitCredChange(const Task& task, const char* what, std::string detail);
  bool TraceCredOn() const { return tracer_.ShouldEmit(TracepointId::kCredChange); }

  // Registers the kernel-side metrics collector (gate, LSM, VFS, netfilter,
  // audit, tracer) on metrics_.
  void CollectKernelMetrics(MetricsBuilder& b) const;

  // Syscall bodies (DAC + LSM + work). The public methods above are thin
  // wrappers routing these through gate_.
  Result<int> SpawnImpl(Task& parent, const std::string& path, std::vector<std::string> argv,
                        std::map<std::string, std::string> env);
  Result<int> SpawnAsyncImpl(Task& parent, const std::string& path,
                             std::vector<std::string> argv,
                             std::map<std::string, std::string> env);
  Result<int> WaitPidImpl(Task& parent, int pid);
  // fork() half shared by Spawn and SpawnAsync: duplicates `parent` into a
  // fresh child task (credentials, cwd, fds, Protego metadata).
  Task& ForkTask(Task& parent);
  Result<Unit> SymlinkImpl(Task& task, const std::string& target, const std::string& linkpath);
  Result<Unit> FlockImpl(Task& task, int fd, int op);
  // Drops every advisory lock held by `pid` and wakes its waiters (process
  // exit semantics, called from ReapTask for a task that took a flock).
  void ReleaseFileLocks(int pid);
  void EmitFileLockEvent(const Task& task, const char* op, const std::string& path,
                         uint64_t ino, const char* outcome);
  Result<int> ExecveImpl(Task& task, const std::string& path, std::vector<std::string> argv,
                         std::map<std::string, std::string> env);
  Result<int> OpenImpl(Task& task, const std::string& path, int flags, uint32_t mode);
  Result<Unit> CloseImpl(Task& task, int fd);
  Result<std::string> ReadImpl(Task& task, int fd);
  Result<Unit> WriteImpl(Task& task, int fd, std::string_view data);
  Result<KernelStat> StatImpl(Task& task, const std::string& path);
  Result<Unit> ChmodImpl(Task& task, const std::string& path, uint32_t mode);
  Result<Unit> ChownImpl(Task& task, const std::string& path, Uid uid, Gid gid);
  Result<Unit> MkdirImpl(Task& task, const std::string& path, uint32_t mode);
  Result<Unit> UnlinkImpl(Task& task, const std::string& path);
  Result<Unit> RenameImpl(Task& task, const std::string& from, const std::string& to);
  Result<std::vector<std::string>> ReadDirImpl(Task& task, const std::string& path);
  Result<Unit> AccessImpl(Task& task, const std::string& path, int may);
  Result<Unit> MountImpl(Task& task, const std::string& source, const std::string& target,
                         const std::string& fstype, std::vector<std::string> options);
  Result<Unit> UmountImpl(Task& task, const std::string& target);
  Result<Unit> UnshareImpl(Task& task, int flags);
  Result<Unit> SetuidImpl(Task& task, Uid uid);
  Result<Unit> SeteuidImpl(Task& task, Uid uid);
  Result<Unit> SetgidImpl(Task& task, Gid gid);
  Result<Unit> SetgroupsImpl(Task& task, std::vector<Gid> groups);
  Result<RLimit> GetRlimitImpl(Task& task, int resource);
  Result<Unit> SetRlimitImpl(Task& task, int resource, RLimit limit);
  // The fd-allocation choke point: RLIMIT_NOFILE (EMFILE), the system-wide
  // file-max (ENFILE), and the fd_alloc fault site, checked before a new fd
  // is installed in `task`'s table.
  Result<Unit> CheckFdAvailable(Task& task);
  Result<Unit> SeccompSetFilterImpl(Task& task, SeccompFilter filter);
  Result<int> SocketCallImpl(Task& task, int family, int type, int protocol);
  Result<Unit> BindCallImpl(Task& task, int fd, uint16_t port);
  Result<Unit> ListenCallImpl(Task& task, int fd);
  Result<Unit> ConnectCallImpl(Task& task, int fd, Ipv4 ip, uint16_t port);
  Result<Unit> SendCallImpl(Task& task, int fd, Packet packet);
  Result<std::optional<Packet>> RecvCallImpl(Task& task, int fd);
  Result<std::string> IoctlImpl(Task& task, int fd, uint32_t request, const std::string& arg);

  // A child launched with SpawnAsync that has exited but not been reaped
  // (zombie-style): its status parks here until the parent's WaitPid.
  struct ExitRecord {
    Errno err = Errno::kOk;  // kOk -> `status` is the exit code
    int status = 0;
    std::string context;  // error context when err != kOk
  };

  // Advisory flock state for one inode: one exclusive holder XOR any number
  // of shared holders (pids). Linux tracks flock by open file description;
  // the simulation's (pid, inode) granularity is equivalent for programs
  // that open-lock-write-unlock-close, which is all the corpus does.
  struct FileLockState {
    int exclusive = 0;      // holder pid, 0 = none
    std::set<int> shared;   // shared holder pids
  };

  // One shard of the process table. Sharding by pid % kTaskShards keeps
  // task creation/lookup/reap on different pids contention-free when task
  // threads enter the kernel concurrently (ExecMode::kParallel); a task's
  // OWN fields (creds, fd table, cwd) are still single-writer — only the
  // owning task thread mutates them, which is the Linux model. One cache
  // line per shard, so neighbouring shards' locks share none.
  static constexpr size_t kTaskShards = 16;
  struct alignas(64) TaskShard {
    mutable std::mutex mu;
    std::map<int, std::unique_ptr<Task>> tasks;
  };
  TaskShard& ShardFor(int pid) const {
    return task_shards_[static_cast<size_t>(pid) % kTaskShards];
  }

  Clock clock_;
  // mutable so const syscalls (GetPid) and const checks (Capable) can emit
  // trace events.
  mutable Tracer tracer_{&clock_, SyscallGate::kTraceCapacity};
  LayerProfiler profiler_;
  MetricsRegistry metrics_;
  FaultRegistry faults_;
  Vfs vfs_;
  // mutable so const syscalls (GetPid) can account themselves.
  mutable SyscallGate gate_;
  LsmStack lsm_;
  // Tasks die first: a dying fd table folds into open_files_ and releases
  // its sockets into net_, so both are declared before the task table.
  Network net_;
  std::atomic<int64_t> open_files_{0};  // folded fd-table counts (FdTable)
  mutable TaskShard task_shards_[kTaskShards];
  std::atomic<uint64_t> task_count_{0};   // live tasks across all shards
  // Read-mostly registries: populated at boot (unique lock), consulted on
  // every mount/ioctl (shared lock, entry copied out so the callable runs
  // lock-free — handlers nest further syscalls). The lock also serializes
  // the writers of the programs and the binary filters.
  mutable RwLock registry_mu_;
  std::map<std::string, FsTypeFactory> fs_types_;
  std::map<uint64_t, IoctlHandler> ioctl_handlers_;  // (major<<32)|minor
  // Every program ever installed; inodes point at them.
  std::vector<std::unique_ptr<Program>> programs_;
  // Synthesized per-binary filters attached at execve (profile transition),
  // by canonical path, read in a section of the kernel's grace period.
  using BinaryFilters = std::map<std::string, std::shared_ptr<const SeccompFilter>>;
  Published<BinaryFilters> binary_filters_{vfs_.grace()};
  AuthAgent auth_agent_;
  AuthObserver auth_observer_;
  std::mutex exit_mu_;  // guards exit_records_; also orders stdout_buf handoff
  std::map<int, ExitRecord> exit_records_;     // async children awaiting WaitPid
  std::mutex locks_mu_;  // guards file_locks_; Signal fires after unlock
  std::map<uint64_t, FileLockState> file_locks_;  // keyed by inode number
  AuditRing audit_ring_{512};
  std::atomic<int> next_pid_{1};
  std::atomic<int> next_userns_{1};
  std::atomic<bool> unprivileged_userns_enabled_{true};
  std::atomic<uint64_t> file_max_{1024};  // system-wide open-file ceiling (ENFILE)
};

}  // namespace protego

#endif  // SRC_KERNEL_KERNEL_H_
