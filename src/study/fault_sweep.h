// The error-path sweep (the robustness counterpart of the functional
// suite): for every registered fault site, boot a fresh Protego system,
// enable single-site injection through the real /proc/protego/fault_inject
// control file, drive a workload that crosses the site, and audit the
// wreckage:
//
//   * errno contract   — the failing operation surfaces exactly the
//                        configured (or fail-closed) errno;
//   * no fd leak       — every task's fd table is back to its pre-fault size;
//   * no vnode leak    — the VFS block-accounting audit balances and the
//                        orphan list did not grow;
//   * no retained privilege — session credentials are byte-identical after a
//                        failed privileged transition;
//   * trace/metrics consistency — injections counted by the registry equal
//                        the kFaultInject events in the decision trace;
//   * replayability    — re-running the identical {seed, site-config} tuple
//                        on a fresh system reproduces the identical outcome.
//
// Two deeper checks ride along: a transactional policy-swap rollback proof
// (generation and verdicts unperturbed by a fault mid-swap) and a
// DetScheduler replay proof (a seeded two-task schedule with
// probabilistic injection is bit-identical across runs).

#ifndef SRC_STUDY_FAULT_SWEEP_H_
#define SRC_STUDY_FAULT_SWEEP_H_

#include <string>
#include <vector>

#include "src/fault/fault.h"
#include "src/sim/system.h"

namespace protego {

// The audited outcome of one site's single-site injection scenario.
struct FaultSiteAudit {
  FaultSite site = FaultSite::kCount;
  std::string scenario;     // what workload was driven
  std::string config_line;  // the directive written (the replay tuple)
  Errno expected = Errno::kOk;  // errno the failing operation must surface
  Errno observed = Errno::kOk;
  bool errno_ok = false;     // observed == expected AND scenario contract held
  uint64_t injections = 0;   // registry count; must be >= 1
  uint64_t trace_hits = 0;   // kFaultInject events in the decision trace
  bool trace_ok = false;     // trace_hits == injections
  bool no_fd_leak = false;
  bool vfs_ok = false;       // block audit balances, orphan list stable
  bool no_cred_retention = false;
  bool replay_ok = false;    // identical outcome on a fresh identical run
  std::string detail;        // diagnostics for whichever audit failed

  bool ok() const {
    return errno_ok && injections >= 1 && trace_ok && no_fd_leak && vfs_ok &&
           no_cred_retention && replay_ok;
  }
};

struct FaultSweepReport {
  std::vector<FaultSiteAudit> sites;  // one entry per FaultSite
  bool swap_rollback_ok = false;      // fault mid-swap rolls back provably
  std::string swap_detail;
  bool det_replay_ok = false;  // seeded scheduler + probabilistic injection replays
  std::string det_detail;

  bool all_ok() const;
  // Human-readable table, one line per site plus the deep checks.
  std::string Format() const;
};

// Runs the full sweep. Every registered site is exercised at least once;
// the report says which audits (if any) failed and why.
FaultSweepReport RunFaultSweep();

}  // namespace protego

#endif  // SRC_STUDY_FAULT_SWEEP_H_
