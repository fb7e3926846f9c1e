// The /proc/protego configuration interface (§2, Figure 1).
//
// Five root-owned synthetic files with simple grammars configure the
// Protego LSM; the monitoring daemon (or the administrator directly)
// writes them. Writes are parse-validate-swap: a malformed table is
// rejected with EINVAL and the previous policy stays in force.
//
//   /proc/protego/mounts  — fstab grammar, user-mountable whitelist
//   /proc/protego/ports   — /etc/bind grammar, port -> (binary, uid)
//   /proc/protego/sudoers — sudoers grammar (incl. Protego extensions)
//   /proc/protego/ppp     — ppp options grammar
//   /proc/protego/userdb  — sectioned passwd/shadow/group snapshot
//   /proc/protego/metrics — Prometheus text exposition of the registry
//   /proc/protego/trace   — decision-span trees; writable control file
//   /proc/protego/fault_inject — deterministic fault-site configuration

#ifndef SRC_PROTEGO_PROC_IFACE_H_
#define SRC_PROTEGO_PROC_IFACE_H_

#include <vector>

#include "src/base/result.h"
#include "src/base/tracepoint.h"
#include "src/fault/fault.h"

namespace protego {

class Kernel;
class ProtegoLsm;

// One parsed /proc/protego/fault_inject directive. Exactly one of the three
// kinds per line:
//   site=<name> error=<ERRNO> [prob=N/M] [interval=N] [times=N]
//                [pid=N] [syscall=<name>|sysno=N] [hook=<name>|N] [seed=N]
//   off site=<name>
//   reset
struct FaultDirective {
  enum class Kind { kConfigure, kOff, kReset };
  Kind kind = Kind::kConfigure;
  FaultSite site = FaultSite::kCount;
  FaultConfig config;
};

// Parses a full fault_inject write into directives, validating every line
// (including the constraints Configure() enforces) before anything is
// applied — a failed parse leaves the registry byte-identical. Blank lines
// and '#' comments are skipped; the read side's counter comments re-parse
// cleanly, so a saved snapshot can be written back verbatim for replay.
Result<std::vector<FaultDirective>> ParseFaultDirectives(std::string_view content);

// Creates the /proc/protego files in `kernel`'s VFS, wired to `lsm`.
// Both must outlive the filesystem.
Result<Unit> InstallProtegoProcFiles(Kernel* kernel, ProtegoLsm* lsm);

// Parses a /proc/protego/trace filter write: "?pid=N&syscall=name&span=N"
// (any subset, any order). "?" alone yields the match-everything filter.
// Unknown keys and malformed numbers are EINVAL.
Result<TraceFilter> ParseTraceQuery(std::string_view query);

// Serializes / parses the /proc/protego/userdb sectioned format.
std::string SerializeUserDbSections(const class UserDb& db);
Result<class UserDb> ParseUserDbSections(std::string_view content);

}  // namespace protego

#endif  // SRC_PROTEGO_PROC_IFACE_H_
