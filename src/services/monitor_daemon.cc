#include "src/services/monitor_daemon.h"

#include <algorithm>

#include "src/base/log.h"
#include "src/base/strings.h"
#include "src/config/bindconf.h"
#include "src/config/fstab.h"
#include "src/config/ppp_options.h"
#include "src/config/sudoers.h"
#include "src/protego/proc_iface.h"

namespace protego {

MonitorDaemon::~MonitorDaemon() { Stop(); }

Result<Unit> MonitorDaemon::Start() {
  if (!kernel_->HasBinary(kBinaryPath)) {
    RETURN_IF_ERROR(kernel_->InstallBinary(kBinaryPath, 0755, kRootUid, kRootGid,
                                           [](ProcessContext&) { return 0; }));
  }
  const char* watched[] = {
      "/etc/fstab",   "/etc/sudoers", "/etc/sudoers.d", "/etc/bind",
      "/etc/ppp",     "/etc/passwds", "/etc/shadows",   "/etc/groups",
  };
  for (const char* path : watched) {
    watch_ids_.push_back(kernel_->vfs().AddWatch(
        path, [this](FsEvent event, const std::string& p) { OnEvent(event, p); }));
  }
  return SyncAll();
}

void MonitorDaemon::Stop() {
  for (int id : watch_ids_) {
    kernel_->vfs().RemoveWatch(id);
  }
  watch_ids_.clear();
}

void MonitorDaemon::RecordError(const Error& error, const std::string& what) {
  std::string message = "monitord: " + what + ": " + error.ToString();
  LogWarn(message);
  std::lock_guard<std::mutex> lk(errors_mu_);
  errors_.push_back(std::move(message));
}

std::vector<std::string> MonitorDaemon::errors() const {
  std::lock_guard<std::mutex> lk(errors_mu_);
  return errors_;
}

Result<Unit> MonitorDaemon::OnServiceTask(SyncStep step) {
  Task& task = kernel_->CreateTask("protego-monitord", Cred::Root(), nullptr);
  task.exe_path = kBinaryPath;
  Result<Unit> r = (this->*step)(task);
  kernel_->ReapTask(task.pid);
  return r;
}

void MonitorDaemon::OnEvent(FsEvent event, const std::string& path) {
  (void)event;
  // The daemon's own writes (/proc/protego/*, /etc/passwd|shadow|group)
  // match no watch, so every event is another task's edit.
  EventSync* sync = nullptr;
  if (path == "/etc/fstab") {
    sync = &mounts_;
  } else if (StartsWith(path, "/etc/sudoers")) {
    sync = &sudoers_;
  } else if (path == "/etc/bind") {
    sync = &ports_;
  } else if (StartsWith(path, "/etc/ppp")) {
    sync = &ppp_;
  } else if (StartsWith(path, "/etc/passwds") || StartsWith(path, "/etc/shadows") ||
             StartsWith(path, "/etc/groups")) {
    sync = &accounts_;
  } else {
    return;
  }
  // A sync may have read the file before a concurrent edit and publish
  // after that edit's own sync. So each event bumps the generation before
  // its sync reads, and a sync that finds the generation moved runs again:
  // whichever sync publishes last read the file after the last edit.
  uint64_t seen = sync->generation.fetch_add(1, std::memory_order_acq_rel) + 1;
  while (true) {
    Result<Unit> r = OnServiceTask(sync->step);
    if (!r.ok()) {
      RecordError(r.error(), "event sync for " + path);
    }
    const uint64_t now = sync->generation.load(std::memory_order_acquire);
    if (now == seen) {
      return;
    }
    seen = now;
  }
}

Result<Unit> MonitorDaemon::SyncAll() { return OnServiceTask(&MonitorDaemon::SyncEverything); }

Result<Unit> MonitorDaemon::SyncEverything(Task& task) {
  Result<Unit> result = OkUnit();
  struct Step {
    const char* what;
    SyncStep fn;
  };
  const Step steps[] = {
      {"mounts", &MonitorDaemon::SyncMounts},   {"sudoers", &MonitorDaemon::SyncSudoers},
      {"ports", &MonitorDaemon::SyncPorts},     {"ppp", &MonitorDaemon::SyncPpp},
      {"userdb", &MonitorDaemon::SyncUserDb},   {"legacy", &MonitorDaemon::SyncLegacy},
  };
  for (const Step& step : steps) {
    Result<Unit> r = (this->*step.fn)(task);
    if (!r.ok()) {
      RecordError(r.error(), step.what);
      result = r;
    }
  }
  return result;
}

Result<Unit> MonitorDaemon::SyncAccounts(Task& task) {
  RETURN_IF_ERROR(SyncUserDb(task));
  return SyncLegacy(task);
}

Result<Unit> MonitorDaemon::SyncMounts(Task& task) {
  ASSIGN_OR_RETURN(std::string content, kernel_->ReadWholeFile(task, "/etc/fstab"));
  if (Trim(content).empty()) {
    return OkUnit();  // transient truncate-before-write state; wait for the write
  }
  // Validate before pushing so a bad fstab leaves kernel policy untouched.
  RETURN_IF_ERROR(ParseFstab(content));
  RETURN_IF_ERROR(kernel_->WriteWholeFile(task, "/proc/protego/mounts", content));
  sync_count_.fetch_add(1, std::memory_order_relaxed);
  return OkUnit();
}

Result<Unit> MonitorDaemon::SyncSudoers(Task& task) {
  ASSIGN_OR_RETURN(std::string main_content, kernel_->ReadWholeFile(task, "/etc/sudoers"));
  if (Trim(main_content).empty()) {
    return OkUnit();  // transient truncate-before-write state
  }
  std::vector<std::string> fragments;
  auto names = kernel_->ReadDir(task, "/etc/sudoers.d");
  if (names.ok()) {
    std::vector<std::string> sorted = names.value();
    std::sort(sorted.begin(), sorted.end());
    for (const std::string& name : sorted) {
      ASSIGN_OR_RETURN(std::string frag,
                       kernel_->ReadWholeFile(task, "/etc/sudoers.d/" + name));
      fragments.push_back(std::move(frag));
    }
  }
  ASSIGN_OR_RETURN(SudoersPolicy policy, ParseSudoersWithFragments(main_content, fragments));
  RETURN_IF_ERROR(
      kernel_->WriteWholeFile(task, "/proc/protego/sudoers", SerializeSudoers(policy)));
  sync_count_.fetch_add(1, std::memory_order_relaxed);
  return OkUnit();
}

Result<Unit> MonitorDaemon::SyncPorts(Task& task) {
  ASSIGN_OR_RETURN(std::string content, kernel_->ReadWholeFile(task, "/etc/bind"));
  if (Trim(content).empty()) {
    return OkUnit();  // transient truncate-before-write state
  }
  RETURN_IF_ERROR(ParseBindConf(content));
  RETURN_IF_ERROR(kernel_->WriteWholeFile(task, "/proc/protego/ports", content));
  sync_count_.fetch_add(1, std::memory_order_relaxed);
  return OkUnit();
}

Result<Unit> MonitorDaemon::SyncPpp(Task& task) {
  ASSIGN_OR_RETURN(std::string content, kernel_->ReadWholeFile(task, "/etc/ppp/options"));
  if (Trim(content).empty()) {
    return OkUnit();  // transient truncate-before-write state
  }
  RETURN_IF_ERROR(ParsePppOptions(content));
  RETURN_IF_ERROR(kernel_->WriteWholeFile(task, "/proc/protego/ppp", content));
  sync_count_.fetch_add(1, std::memory_order_relaxed);
  return OkUnit();
}

Result<UserDb> MonitorDaemon::ReadFragments(Task& task) {
  std::vector<PasswdEntry> users;
  std::vector<ShadowEntry> shadows;
  std::vector<GroupEntry> groups;
  // A fragment being rewritten is briefly empty (truncate, then write, two
  // inotify events); skip the transient state — the write event follows.
  auto user_names = kernel_->ReadDir(task, "/etc/passwds");
  if (user_names.ok()) {
    for (const std::string& name : user_names.value()) {
      ASSIGN_OR_RETURN(std::string line, kernel_->ReadWholeFile(task, "/etc/passwds/" + name));
      if (Trim(line).empty()) {
        continue;
      }
      ASSIGN_OR_RETURN(PasswdEntry entry, ParsePasswdLine(Trim(line)));
      users.push_back(std::move(entry));
    }
  }
  auto shadow_names = kernel_->ReadDir(task, "/etc/shadows");
  if (shadow_names.ok()) {
    for (const std::string& name : shadow_names.value()) {
      ASSIGN_OR_RETURN(std::string line, kernel_->ReadWholeFile(task, "/etc/shadows/" + name));
      if (Trim(line).empty()) {
        continue;
      }
      ASSIGN_OR_RETURN(ShadowEntry entry, ParseShadowLine(Trim(line)));
      shadows.push_back(std::move(entry));
    }
  }
  auto group_names = kernel_->ReadDir(task, "/etc/groups");
  if (group_names.ok()) {
    for (const std::string& name : group_names.value()) {
      ASSIGN_OR_RETURN(std::string line, kernel_->ReadWholeFile(task, "/etc/groups/" + name));
      if (Trim(line).empty()) {
        continue;
      }
      ASSIGN_OR_RETURN(GroupEntry entry, ParseGroupLine(Trim(line)));
      groups.push_back(std::move(entry));
    }
  }
  return UserDb(std::move(users), std::move(shadows), std::move(groups));
}

Result<Unit> MonitorDaemon::SyncUserDb(Task& task) {
  ASSIGN_OR_RETURN(UserDb db, ReadFragments(task));
  RETURN_IF_ERROR(
      kernel_->WriteWholeFile(task, "/proc/protego/userdb", SerializeUserDbSections(db)));
  sync_count_.fetch_add(1, std::memory_order_relaxed);
  return OkUnit();
}

Result<Unit> MonitorDaemon::SyncLegacy(Task& task) {
  ASSIGN_OR_RETURN(UserDb db, ReadFragments(task));
  RETURN_IF_ERROR(kernel_->WriteWholeFile(task, "/etc/passwd", SerializePasswd(db.users()),
                                          /*append=*/false, /*create_mode=*/0644));
  RETURN_IF_ERROR(kernel_->WriteWholeFile(task, "/etc/shadow", SerializeShadow(db.shadows()),
                                          /*append=*/false, /*create_mode=*/0600));
  RETURN_IF_ERROR(kernel_->WriteWholeFile(task, "/etc/group", SerializeGroup(db.groups()),
                                          /*append=*/false, /*create_mode=*/0644));
  sync_count_.fetch_add(1, std::memory_order_relaxed);
  return OkUnit();
}

}  // namespace protego
