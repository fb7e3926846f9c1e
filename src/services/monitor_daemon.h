// The monitoring daemon (§2): a trusted root process that watches the
// legacy, policy-relevant configuration files and keeps the kernel policy
// (the /proc/protego files) synchronized with them. It also regenerates the
// legacy shared credential databases (/etc/passwd, /etc/shadow, /etc/group)
// from Protego's fragmented per-account files, for backward compatibility
// with applications that still read the shared files.
//
// The daemon is only required for backward compatibility: an administrator
// may instead write the /proc/protego files directly.
//
// Each sync (every watch event, and SyncAll) runs on a fresh root task
// (exe /sbin/protego-monitord, the binary the File_Delegate rule names),
// reaped before it returns, as AuthService does per request: an event runs
// on whichever task thread wrote the watched file, so edits from tasks
// running in parallel each sync on their own task and none is dropped.
// Concurrent edits of the same file apply in order: each sync an event can
// trigger has a generation that every such event bumps, and a sync re-runs
// while its generation moved during it, so the last to publish read the
// last edit.

#ifndef SRC_SERVICES_MONITOR_DAEMON_H_
#define SRC_SERVICES_MONITOR_DAEMON_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "src/base/result.h"
#include "src/config/passwd_db.h"
#include "src/kernel/kernel.h"

namespace protego {

class MonitorDaemon {
 public:
  static constexpr const char* kBinaryPath = "/sbin/protego-monitord";

  explicit MonitorDaemon(Kernel* kernel) : kernel_(kernel) {}
  ~MonitorDaemon();

  // Installs the trusted binary, registers filesystem watches, and performs
  // an initial full synchronization.
  Result<Unit> Start();

  // Unregisters watches (the daemon "exits").
  void Stop();

  // Re-reads every watched file and pushes all policy tables.
  Result<Unit> SyncAll();

  uint64_t sync_count() const { return sync_count_.load(std::memory_order_relaxed); }
  // A copy: a sync on another thread may record an error meanwhile.
  std::vector<std::string> errors() const;

 private:
  using SyncStep = Result<Unit> (MonitorDaemon::*)(Task&);

  // A sync an event can trigger, and how many events have asked for it.
  struct EventSync {
    explicit EventSync(SyncStep s) : step(s) {}
    const SyncStep step;
    std::atomic<uint64_t> generation{0};
  };

  // One sync: runs `step` on a fresh service task, reaped before returning.
  Result<Unit> OnServiceTask(SyncStep step);
  void OnEvent(FsEvent event, const std::string& path);
  void RecordError(const Error& error, const std::string& what);

  // The sync steps, issued on the sync's task.
  Result<Unit> SyncEverything(Task& task);
  Result<Unit> SyncAccounts(Task& task);  // SyncUserDb, then SyncLegacy
  Result<Unit> SyncMounts(Task& task);
  Result<Unit> SyncSudoers(Task& task);
  Result<Unit> SyncPorts(Task& task);
  Result<Unit> SyncPpp(Task& task);
  Result<Unit> SyncUserDb(Task& task);  // fragments -> /proc/protego/userdb
  Result<Unit> SyncLegacy(Task& task);  // fragments -> /etc/passwd, /etc/shadow, /etc/group

  // Reads the fragmented credential directories into a UserDb.
  Result<UserDb> ReadFragments(Task& task);

  Kernel* kernel_ = nullptr;
  EventSync mounts_{&MonitorDaemon::SyncMounts};
  EventSync sudoers_{&MonitorDaemon::SyncSudoers};
  EventSync ports_{&MonitorDaemon::SyncPorts};
  EventSync ppp_{&MonitorDaemon::SyncPpp};
  EventSync accounts_{&MonitorDaemon::SyncAccounts};
  std::vector<int> watch_ids_;
  std::atomic<uint64_t> sync_count_{0};
  mutable std::mutex errors_mu_;
  std::vector<std::string> errors_;  // guarded by errors_mu_
};

}  // namespace protego

#endif  // SRC_SERVICES_MONITOR_DAEMON_H_
