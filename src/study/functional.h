// §5.3 / Table 7: the functional-equivalence suite.
//
// Each scenario drives one or more setuid command-line utilities through a
// realistic interaction (including password entry on the session terminal)
// and folds the observable outcome — exit status, normalized output, and
// state probes — into a canonical transcript. Running the same scenario on
// the stock system and on Protego must produce identical transcripts: the
// paper's "same output and effects on both systems".
//
// Password prompts are excluded from the transcript: WHO asks (the trusted
// binary vs. the kernel-launched authentication utility) is exactly the
// mechanism that changed; WHAT the user can do must not change.
//
// The scenarios double as the coverage workload for Table 7's gcov analog.

#ifndef SRC_STUDY_FUNCTIONAL_H_
#define SRC_STUDY_FUNCTIONAL_H_

#include <functional>
#include <string>
#include <vector>

#include "src/sim/system.h"

namespace protego {

struct FunctionalScenario {
  std::string name;
  // Runs the interaction and returns the canonical transcript.
  std::function<std::string(SimSystem&)> run;
};

const std::vector<FunctionalScenario>& FunctionalSuite();

// Runs one command in `session`, queueing terminal input first, and appends
// a canonical record to `transcript`. Input the command leaves unread is
// drained afterwards, so it never answers a later command's prompt.
void Step(SimSystem& sys, Task& session, std::string* transcript, const std::string& label,
          const std::string& path, std::vector<std::string> argv,
          std::vector<std::string> terminal_input = {});

// Appends an out-of-band state probe (mode-agnostic by construction).
void Probe(std::string* transcript, const std::string& label, const std::string& value);

// Strips authentication dialogue and error-message wording (which §4.3
// documents as legitimately different) while keeping semantics: exit codes,
// stdout payloads, state probes, and whether stderr was empty.
std::string NormalizeTranscript(const std::string& transcript);

// Runs every scenario on a fresh system of each mode; returns
// (scenario name, linux transcript, protego transcript) triples.
struct EquivalenceResult {
  std::string name;
  std::string linux_transcript;
  std::string protego_transcript;
  bool equivalent = false;
};
std::vector<EquivalenceResult> RunEquivalenceSuite();

}  // namespace protego

#endif  // SRC_STUDY_FUNCTIONAL_H_
