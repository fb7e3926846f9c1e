// The Linux Security Module hook surface modeled by this simulation.
//
// Linux 3.6 hard-codes capability checks inside the 8 system calls the paper
// studies; Protego's kernel patch adds LSM hooks at those decision points so
// a module can express object-based policy. This header defines those hooks.
//
// Verdict semantics: a module with no opinion returns kDefault, in which case
// the kernel falls back to its legacy capability check. kAllow grants the
// operation even where the legacy check would refuse (this is the Protego
// extension — policy migrated INTO the kernel), and kDeny refuses regardless.
// Across a stack of modules, any kDeny wins; otherwise any kAllow wins;
// otherwise the legacy check decides.

#ifndef SRC_LSM_MODULE_H_
#define SRC_LSM_MODULE_H_

#include <map>
#include <string>
#include <vector>

#include "src/kernel/capability.h"
#include "src/kernel/task.h"
#include "src/vfs/inode.h"

namespace protego {

enum class HookVerdict {
  kDefault,  // no opinion; legacy kernel policy applies
  kAllow,    // grant, overriding the legacy capability check
  kDeny,     // refuse
};

const char* HookVerdictName(HookVerdict v);

// Parameters of a mount(2) request, as seen by the sb_mount hook.
struct MountRequest {
  std::string source;
  std::string mountpoint;  // canonical path of the directory the walk reached
  std::string fstype;
  std::vector<std::string> options;
  Uid mountpoint_owner = kRootUid;  // owner of that directory
};

// Parameters of setuid(2)/setgid(2), as seen by task_fix_setuid.
struct SetuidRequest {
  bool is_gid = false;
  Uid target_uid = 0;
  Gid target_gid = 0;
};

// Out-parameters a module may set when allowing a setuid request.
struct SetuidDisposition {
  // Record a pending setuid-on-exec instead of switching now (§4.3).
  bool defer_to_exec = false;
  // For immediate transitions: also switch the primary gid (stock su/login
  // call setgid while still root; a deprivileged binary cannot).
  bool has_gid = false;
  Gid gid = 0;
};

// Parameters of socket(2).
struct SocketRequest {
  int family = 0;    // AF_INET / AF_PACKET (see src/net/packet.h)
  int type = 0;      // SOCK_STREAM / SOCK_DGRAM / SOCK_RAW
  int protocol = 0;  // IPPROTO_*
};

// Parameters of bind(2).
struct BindRequest {
  uint16_t port = 0;
  std::string binary_path;  // task->exe_path, the application instance key
  int netns = 0;            // 0 = the real system port namespace
};

// Parameters of an ioctl(2) on a device or socket.
struct IoctlRequest {
  std::string target;   // device path ("/dev/ppp") or "socket"
  uint32_t request = 0; // request code (see src/net/ioctl_codes.h)
  std::string arg;      // serialized argument (e.g. a route spec)
};

// Mutable exec state a bprm_check hook may adjust: the credentials the new
// image will run with and the environment it inherits.
struct ExecControl {
  Cred* cred = nullptr;
  std::map<std::string, std::string>* env = nullptr;
  bool close_non_std_fds = false;
};

class LsmStack;

// Interface implemented by security modules (commoncap, AppArmor, Protego).
//
// The InodePermission/SbMount/SocketBind hooks end in an unnamed `bool*`
// that no module reads and the stack always passes as nullptr. It remains
// only because perfbench/probes.cc calls the Protego module's hooks with it;
// it goes with the next change to the benchmark.
class SecurityModule {
 public:
  virtual ~SecurityModule() = default;

  virtual const char* name() const = 0;

  // Called by LsmStack::Register; lets a module bump the stack's policy
  // generation when its policy changes.
  void AttachStack(LsmStack* stack) { stack_ = stack; }

  // security_capable(): may this task use `cap`? All stacked modules must
  // agree; the capability module implements the commoncap rule.
  virtual bool CapablePermitted(const Task& task, Capability cap) {
    (void)task;
    (void)cap;
    return true;
  }

  // inode_permission(): DAC has NOT yet been consulted; kDeny refuses even
  // what DAC would allow, kAllow bypasses DAC (used for delegation rules
  // that grant specific binaries access to specific files, §4.4/§4.6).
  virtual HookVerdict InodePermission(Task& task, const std::string& path,
                                      const Inode& inode, int may, bool* /*unused*/) {
    (void)task;
    (void)path;
    (void)inode;
    (void)may;
    return HookVerdict::kDefault;
  }

  virtual HookVerdict SbMount(const Task& task, const MountRequest& req, bool* /*unused*/) {
    (void)task;
    (void)req;
    return HookVerdict::kDefault;
  }

  // `mountpoint` is canonical; `mounter` is the uid that mounted it.
  virtual HookVerdict SbUmount(const Task& task, const std::string& mountpoint, Uid mounter) {
    (void)task;
    (void)mountpoint;
    (void)mounter;
    return HookVerdict::kDefault;
  }

  virtual HookVerdict SocketCreate(const Task& task, const SocketRequest& req) {
    (void)task;
    (void)req;
    return HookVerdict::kDefault;
  }

  virtual HookVerdict SocketBind(const Task& task, const BindRequest& req, bool* /*unused*/) {
    (void)task;
    (void)req;
    return HookVerdict::kDefault;
  }

  virtual HookVerdict TaskFixSetuid(Task& task, const SetuidRequest& req,
                                    SetuidDisposition* disposition) {
    (void)task;
    (void)req;
    (void)disposition;
    return HookVerdict::kDefault;
  }

  // bprm_check_security(): called during execve after the kernel computed
  // the provisional post-exec credentials (setuid-bit already applied).
  virtual HookVerdict BprmCheck(Task& task, const std::string& path, const Inode& inode,
                                const std::vector<std::string>& argv, ExecControl* control) {
    (void)task;
    (void)path;
    (void)inode;
    (void)argv;
    (void)control;
    return HookVerdict::kDefault;
  }

  virtual HookVerdict FileIoctl(const Task& task, const IoctlRequest& req) {
    (void)task;
    (void)req;
    return HookVerdict::kDefault;
  }

 protected:
  // Bumps the attached stack's policy-generation counter. Call from every
  // successful policy swap (defined in stack.cc).
  void BumpPolicyGeneration();

  // Sends a record to the attached stack's audit sink, the kernel's audit
  // ring (defined in stack.cc).
  void Audit(std::string record);

 private:
  LsmStack* stack_ = nullptr;
};

}  // namespace protego

#endif  // SRC_LSM_MODULE_H_
