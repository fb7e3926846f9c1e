// Task (process) state: credentials, fd table, controlling terminal, and the
// two pieces of security metadata Protego adds to task_struct —
// authentication recency and the pending setuid-on-exec record (§4.3).

#ifndef SRC_KERNEL_TASK_H_
#define SRC_KERNEL_TASK_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

#include "src/base/result.h"
#include "src/kernel/cred.h"
#include "src/kernel/syscall.h"
#include "src/vfs/vfs.h"

namespace protego {

struct Socket;  // src/net/network.h

// The controlling terminal of a session. The simulated "human" queues input
// lines (passwords, editor content); programs and the trusted authentication
// utility read them.
// Internally locked: several tasks can share one controlling terminal, and
// in parallel mode they run on different threads (one reads a password
// prompt while another writes output).
class Terminal {
 public:
  // Authentication recency per account for this terminal session — the
  // state behind sudo's "no password if entered on this terminal within
  // the last 5 minutes" behaviour. Stamped by the trusted authentication
  // utility alongside the per-task record.
  void StampAuth(Uid uid, uint64_t when) {
    std::lock_guard<std::mutex> lk(mu_);
    auth_times_[uid] = when;
  }
  std::optional<uint64_t> AuthTimeOf(Uid uid) const {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = auth_times_.find(uid);
    if (it == auth_times_.end()) {
      return std::nullopt;
    }
    return it->second;
  }

  void QueueInput(std::string line) {
    std::lock_guard<std::mutex> lk(mu_);
    input_.push_back(std::move(line));
  }

  // Next queued line, or nullopt if the human has nothing more to type.
  std::optional<std::string> ReadLine() {
    std::lock_guard<std::mutex> lk(mu_);
    if (input_.empty()) {
      return std::nullopt;
    }
    std::string line = std::move(input_.front());
    input_.pop_front();
    return line;
  }

  void Write(std::string_view text) {
    std::lock_guard<std::mutex> lk(mu_);
    output_.append(text);
  }
  // A copy: the buffer may grow on another thread while the caller scans it.
  std::string output() const {
    std::lock_guard<std::mutex> lk(mu_);
    return output_;
  }
  void ClearOutput() {
    std::lock_guard<std::mutex> lk(mu_);
    output_.clear();
  }

 private:
  mutable std::mutex mu_;
  std::map<Uid, uint64_t> auth_times_;
  std::deque<std::string> input_;
  std::string output_;
};

// One open file description (shared across dup'ed fds). The offset is
// atomic because fork shares the description: parent and child advancing
// the same offset concurrently is the one field here that two task
// threads legitimately touch at once.
struct OpenFile {
  Vnode* node = nullptr;
  int flags = 0;
  std::atomic<size_t> offset{0};
};

// A file descriptor table entry: either a VFS file or a socket. The entry
// holds a reference to the socket; the socket dies with the last entry
// that names it.
struct FdEntry {
  enum class Kind { kFile, kSocket };
  Kind kind = Kind::kFile;
  std::shared_ptr<OpenFile> file;
  std::shared_ptr<Socket> socket;  // a SocketRef
  bool cloexec = false;
};

// A task's descriptors. Only the thread running the task changes them:
// fork fills a child's table before the child runs, and reap folds it
// after the task has exited.
//
// Open-file accounting, the ENFILE numerator, as Linux counts nr_files
// with a percpu_counter: a table adds to the kernel-wide count only when
// its unreported delta reaches +-kBatch, and folds the rest when it dies
// or its task is reaped, so an install or close writes no shared line.
// The kernel-wide count is therefore within kBatch of the truth per live
// table; Kernel::OpenFileCount() adds the remainders for the exact sum.
class FdTable {
 public:
  static constexpr int64_t kBatch = 16;

  FdTable() = default;
  // A copy counts nowhere until set_accounting().
  FdTable(const FdTable& other) : table_(other.table_), next_fd_(other.next_fd_) {}
  ~FdTable() {
    Account(-static_cast<int64_t>(table_.size()));
    Fold();
  }

  // Wires this table into the kernel's folded open-file count. Set once at
  // task creation, before the task runs.
  void set_accounting(std::atomic<int64_t>* folded) {
    folded_ = folded;
    Account(static_cast<int64_t>(table_.size()));
  }

  // Installs and closes not yet added to the kernel-wide count. Read by
  // other threads for the exact sum.
  int64_t unreported() const { return unreported_.load(std::memory_order_acquire); }

  // Adds the unreported delta to the kernel-wide count. The folded count
  // is updated before the remainder is cleared, so a sum that reads the
  // remainder first and the count second never misses the delta.
  void Fold() {
    const int64_t n = unreported_.load(std::memory_order_relaxed);
    if (folded_ != nullptr && n != 0) {
      folded_->fetch_add(n, std::memory_order_relaxed);
      unreported_.store(0, std::memory_order_release);
    }
  }

  int Install(FdEntry entry) {
    int fd = next_fd_++;
    table_.emplace(fd, std::move(entry));
    Account(1);
    return fd;
  }

  FdEntry* Get(int fd) {
    auto it = table_.find(fd);
    return it == table_.end() ? nullptr : &it->second;
  }

  Result<Unit> Close(int fd) {
    if (table_.erase(fd) == 0) {
      return Error(Errno::kEBADF);
    }
    Account(-1);
    return OkUnit();
  }

  // Drops close-on-exec entries (called during execve).
  void CloseOnExec() {
    const size_t dropped =
        std::erase_if(table_, [](const auto& entry) { return entry.second.cloexec; });
    Account(-static_cast<int64_t>(dropped));
  }

  void CloseAll() {
    Account(-static_cast<int64_t>(table_.size()));
    table_.clear();
  }
  size_t size() const { return table_.size(); }
  const std::map<int, FdEntry>& entries() const { return table_; }

 private:
  void Account(int64_t delta) {
    if (folded_ == nullptr || delta == 0) {
      return;
    }
    const int64_t n = unreported_.load(std::memory_order_relaxed) + delta;
    unreported_.store(n, std::memory_order_release);
    if (n >= kBatch || n <= -kBatch) {
      Fold();
    }
  }

  std::map<int, FdEntry> table_;
  int next_fd_ = 3;  // 0/1/2 are the terminal
  std::atomic<int64_t>* folded_ = nullptr;  // the kernel-wide folded count
  std::atomic<int64_t> unreported_{0};
};

// Namespace membership (§4.6/§6: Linux >= 3.8 lets unprivileged processes
// create sandboxed namespaces). Id 0 is the init namespace.
struct NamespaceSet {
  int net_ns = 0;
  int user_ns = 0;
};

// A struct rlimit analog: soft (enforced) and hard (ceiling) limits.
// Only RLIMIT_NOFILE (resource 7) is modeled; 0 in `max` means unlimited
// is NOT modeled — both fields are always concrete counts.
struct RLimit {
  uint64_t cur = 0;  // soft limit, enforced at fd allocation
  uint64_t max = 0;  // hard ceiling; raising it requires CAP_SYS_RESOURCE
};

// RLIMIT_NOFILE defaults, mirroring a typical login shell (ulimit -n) and
// its hard ceiling.
inline constexpr uint64_t kDefaultNofileCur = 256;
inline constexpr uint64_t kDefaultNofileMax = 4096;

// Pending deferred uid/gid transition: setuid() under a Protego delegation
// rule returns 0 but records the target here; the switch is validated and
// applied at the next execve (§4.3, "setuid-on-exec").
struct PendingSetuid {
  bool active = false;
  Uid target_uid = 0;
  bool has_gid = false;
  Gid target_gid = 0;
};

// A process.
struct Task {
  int pid = 0;
  int ppid = 0;
  std::string comm;      // short program name
  std::string exe_path;  // binary that is executing
  Cred cred;
  std::string cwd = "/";
  FdTable fds;
  Terminal* terminal = nullptr;

  // RLIMIT_NOFILE: fd allocation fails with EMFILE once the table holds
  // cur entries. Copied across fork, kept across exec (as on Linux).
  RLimit rlimit_nofile{kDefaultNofileCur, kDefaultNofileMax};

  // Namespace membership (copied across fork, kept across exec).
  NamespaceSet ns;

  // --- Protego security metadata (the paper's task_struct additions) ---
  // Last successful authentication time, per authenticated identity.
  std::map<Uid, uint64_t> auth_times;
  PendingSetuid pending_setuid;

  // Seccomp-style allow list; null means unfiltered. Shared (copy-on-install)
  // so fork is cheap; inherited across fork, kept across exec, and only ever
  // narrowed by Kernel::SeccompSetFilter.
  std::shared_ptr<const SeccompFilter> seccomp;

  // Set when the task first takes a flock: only such a task's exit scans
  // the lock table, as Linux's exit skips inodes that hold no locks.
  bool took_flock = false;

  // Captured standard streams (also mirrored to the terminal if any).
  std::string stdout_buf;
  std::string stderr_buf;

  bool RecentlyAuthenticated(Uid uid, uint64_t now, uint64_t window) const {
    auto it = auth_times.find(uid);
    if (it != auth_times.end() && now - it->second <= window) {
      return true;
    }
    if (terminal != nullptr) {
      std::optional<uint64_t> stamped = terminal->AuthTimeOf(uid);
      return stamped.has_value() && now - *stamped <= window;
    }
    return false;
  }
};

}  // namespace protego

#endif  // SRC_KERNEL_TASK_H_
