// SimSystem: a fully-populated simulated machine — users, filesystem,
// devices, network topology, LSM stack, trusted services, and userland —
// bootable in either of two configurations:
//
//   SimMode::kLinux   — the paper's baseline: Linux 3.6 semantics with
//                       AppArmor loaded and the studied binaries setuid root.
//   SimMode::kProtego — the same machine with the Protego LSM, deprivileged
//                       binaries, fragmented credential databases, the
//                       monitoring daemon, and the authentication utility.
//
// Tests, benchmarks, and examples all start from here.

#ifndef SRC_SIM_SYSTEM_H_
#define SRC_SIM_SYSTEM_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/kernel/kernel.h"
#include "src/lsm/apparmor.h"
#include "src/protego/dmcrypt.h"
#include "src/protego/protego_lsm.h"
#include "src/services/auth_service.h"
#include "src/services/monitor_daemon.h"

namespace protego {

enum class SimMode {
  kLinux,    // Linux 3.6 + AppArmor, studied binaries setuid root
  kSetcap,   // the §3.1 "Capabilities" hardening: setuid bit replaced by
             // per-binary file capabilities (Fedora's RemoveSETUID approach)
  kProtego,  // the paper's system
};

const char* SimModeName(SimMode mode);

// A user account provisioned at boot.
struct SimUser {
  std::string name;
  Uid uid = 0;
  Gid gid = 0;
  std::string password;  // plaintext; hashed into the shadow database
  std::string shell = "/bin/sh";
};

// Well-known simulated addresses.
inline constexpr Ipv4 kSimLocalIp = MakeIp(10, 0, 0, 1);
inline constexpr Ipv4 kSimGatewayIp = MakeIp(10, 0, 0, 2);
inline constexpr Ipv4 kSimMailPeerIp = MakeIp(10, 0, 0, 3);
inline constexpr Ipv4 kSimWebServerIp = MakeIp(93, 184, 216, 34);  // 4 hops away
inline constexpr Ipv4 kSimFarHostIp = MakeIp(203, 0, 113, 9);      // unrouted by default

class SimSystem {
 public:
  explicit SimSystem(SimMode mode);

  SimSystem(const SimSystem&) = delete;
  SimSystem& operator=(const SimSystem&) = delete;

  SimMode mode() const { return mode_; }
  Kernel& kernel() { return kernel_; }
  // The unified syscall entry path (counters, trace ring, seccomp).
  SyscallGate& syscalls() { return kernel_.syscalls(); }
  // The Protego module, or nullptr in Linux mode.
  ProtegoLsm* lsm() { return lsm_; }
  AppArmorModule* apparmor() { return apparmor_; }
  MonitorDaemon* daemon() { return daemon_.get(); }
  AuthService* auth() { return auth_.get(); }
  std::shared_ptr<DmCryptTable> dmcrypt() { return dmcrypt_; }

  // Default accounts: alice (1000), bob (1001), charlie (1002), plus the
  // system users exim and www-data. Passwords are "<name>pw".
  const std::vector<SimUser>& users() const { return users_; }
  const SimUser* FindUser(const std::string& name) const;

  // Starts a login session: a shell task for `user` with its own terminal.
  Task& Login(const std::string& user);

  // Runs a program as a child of `session` and returns its exit status;
  // stdout/stderr accumulate on the session task.
  Result<int> Run(Task& session, const std::string& path, std::vector<std::string> argv,
                  std::map<std::string, std::string> env = {});

  // Run + return what the child wrote to stdout (clears the buffers first).
  struct RunOutput {
    int exit_code = -1;
    Errno error = Errno::kOk;  // non-kOk when the exec itself failed
    std::string out;
    std::string err;
  };
  RunOutput RunCapture(Task& session, const std::string& path, std::vector<std::string> argv,
                       std::map<std::string, std::string> env = {});

 private:
  void BootstrapFilesystem();
  void BootstrapUsers();
  void BootstrapConfigs();
  void BootstrapDevices();
  void BootstrapNetwork();
  void BootstrapProcFiles();

  SimMode mode_;
  Kernel kernel_;
  ProtegoLsm* lsm_ = nullptr;          // owned by the LSM stack
  AppArmorModule* apparmor_ = nullptr; // owned by the LSM stack
  std::shared_ptr<DmCryptTable> dmcrypt_;
  std::unique_ptr<AuthService> auth_;
  std::unique_ptr<MonitorDaemon> daemon_;
  std::vector<SimUser> users_;
  std::vector<std::unique_ptr<Terminal>> terminals_;
};

}  // namespace protego

#endif  // SRC_SIM_SYSTEM_H_
