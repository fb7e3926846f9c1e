// TOCTTOU race corpus (§5's race-condition CVE class, made executable).
//
// The classic symlink-swap attack against a check-then-open setuid binary:
// the victim validates a pathname (ownership check via stat, or an
// access(2) probe) and then opens it, while the attacker atomically
// rename(2)s a symlink to a root-only secret over the validated path inside
// the check/use window. Against a setuid-root victim the open runs with
// euid 0, so the swapped link dereferences to the secret and the victim
// leaks it into its world-readable report.
//
// Under Protego the same binary carries no setuid bit: it opens the file
// with the invoker's own fsuid, so even the "winning" interleaving is
// denied by ordinary DAC at the use site — the race window still exists,
// but there is no privilege to steal through it. The schedule explorer
// (src/conc) makes both claims checkable: bounded-exhaustive search FINDS a
// violating interleaving against the stock system and finds NONE under
// Protego.

#ifndef SRC_STUDY_RACES_H_
#define SRC_STUDY_RACES_H_

#include "src/conc/explore.h"
#include "src/sim/system.h"

namespace protego {

// What the victim's check looks like; both are real-world idioms from the
// race CVEs in Table 6.
enum class TocttouVariant {
  kStatThenOpen,    // stat() + st_uid ownership check, then open()
  kAccessThenOpen,  // access(R_OK) with real uid, then open() with euid
};

const char* TocttouVariantName(TocttouVariant variant);

// The root-only content the attacker is after; the invariant checks the
// victim's report for it.
inline constexpr const char* kTocttouSecret = "TOP-SECRET-ROOT-ONLY";

// Paths the scenario uses (exported for tests and the example binary).
inline constexpr const char* kTocttouSecretPath = "/etc/secret";
inline constexpr const char* kTocttouJobPath = "/tmp/job";
inline constexpr const char* kTocttouReportPath = "/tmp/report";

// Builds the scenario factory: each run boots a fresh SimSystem in `mode`,
// installs the victim (`/usr/bin/filereport`, setuid root in stock mode,
// plain 0755 under Protego) and the attacker (`/usr/bin/swapjob`), and
// launches both as schedulable tasks from alice's session. The invariant
// fails iff the victim's report contains the secret.
//
// With `filter_victim`, filereport's registered filter confines its open(2)
// to /tmp/: the swapped-in link walks to the secret outside it, so the open
// is refused whatever privilege the victim runs with.
conc::ScenarioFactory MakeTocttouScenario(SimMode mode, TocttouVariant variant,
                                          bool filter_victim = false);

// Lost-update scenario for the shared credential database: two concurrent
// chfn runs (root editing alice's and bob's gecos fields) each do a
// whole-file read-modify-write of /etc/passwd. With the advisory flock held
// across the RMW (with_flock=true, the shipped behavior) both edits survive
// every bounded interleaving and no schedule deadlocks; with locking
// disabled via PROTEGO_NO_FLOCK=1 (with_flock=false) the explorer finds a
// schedule where the second writer clobbers the first editor's record.
inline constexpr const char* kLostUpdateGecosAlice = "Alice Lovelace";
inline constexpr const char* kLostUpdateGecosBob = "Bob Babbage";
conc::ScenarioFactory MakePasswdLostUpdateScenario(bool with_flock);

}  // namespace protego

#endif  // SRC_STUDY_RACES_H_
