// §5.3: Protego must behave equivalently to unmodified Linux — same outputs
// and same effects for every command-line scenario in the suite.

#include <gtest/gtest.h>

#include "src/study/functional.h"

namespace protego {
namespace {

class EquivalenceTest : public ::testing::TestWithParam<size_t> {};

TEST_P(EquivalenceTest, LinuxAndProtegoTranscriptsMatch) {
  const FunctionalScenario& scenario = FunctionalSuite()[GetParam()];
  SimSystem linux_sys(SimMode::kLinux);
  std::string linux_transcript = NormalizeTranscript(scenario.run(linux_sys));
  SimSystem protego_sys(SimMode::kProtego);
  std::string protego_transcript = NormalizeTranscript(scenario.run(protego_sys));
  EXPECT_EQ(linux_transcript, protego_transcript) << "scenario: " << scenario.name;
}

INSTANTIATE_TEST_SUITE_P(AllScenarios, EquivalenceTest,
                         ::testing::Range<size_t>(0, FunctionalSuite().size()),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return FunctionalSuite()[info.param].name;
                         });

// Input one command leaves unread must not answer the next command's
// prompt: `id` never reads the queued password, so the `su` after it has
// nothing to answer with and fails, on both stacks. Regression: the
// leftover line authenticated the `su`, which ran `id` as bob.
TEST(FunctionalStep, UnreadInputDoesNotAnswerTheNextPrompt) {
  for (SimMode mode : {SimMode::kLinux, SimMode::kProtego}) {
    SimSystem sys(mode);
    Task& alice = sys.Login("alice");
    std::string transcript;
    Step(sys, alice, &transcript, "id", "/usr/bin/id", {"id"}, {"bobpw"});
    Step(sys, alice, &transcript, "su-bob-id", "/bin/su", {"su", "bob", "/usr/bin/id"});
    EXPECT_NE(transcript.find("[su-bob-id] exit="), std::string::npos) << transcript;
    EXPECT_EQ(transcript.find("[su-bob-id] exit=0"), std::string::npos) << transcript;
    EXPECT_EQ(transcript.find("uid=1001"), std::string::npos) << transcript;
    EXPECT_FALSE(alice.terminal->ReadLine().has_value());
  }
}

}  // namespace
}  // namespace protego
