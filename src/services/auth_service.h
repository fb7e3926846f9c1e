// The trusted authentication utility (§4.3): a root service, launched by
// the kernel, that temporarily takes over the requesting task's terminal,
// asks for an account's password, verifies it against the fragmented
// credential database, and stamps the task's authentication-recency record.
//
// The kernel launches it per request: each Authenticate call runs on a
// fresh root task (exe /sbin/protego-auth) with its own fd table and audit
// identity, reaped before the call returns, so requests from tasks running
// in parallel never share one. Outcomes go to the kernel's audit ring.
//
// Refactored from the roles login and newgrp played on stock Linux (the
// paper's 1,200-line component). It also understands password-protected
// groups: accounts at or above kGroupAuthBase are gids.

#ifndef SRC_SERVICES_AUTH_SERVICE_H_
#define SRC_SERVICES_AUTH_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/base/result.h"
#include "src/kernel/kernel.h"

namespace protego {

class AuthService {
 public:
  static constexpr const char* kBinaryPath = "/sbin/protego-auth";
  static constexpr int kMaxAttempts = 3;

  explicit AuthService(Kernel* kernel) : kernel_(kernel) {}

  // Installs the trusted binary and registers this service as the kernel's
  // authentication agent.
  Result<Unit> Install();

  uint64_t prompts_issued() const { return prompts_issued_.load(std::memory_order_relaxed); }
  uint64_t successes() const { return successes_.load(std::memory_order_relaxed); }
  uint64_t failures() const { return failures_.load(std::memory_order_relaxed); }

  // The agent entry point (also invocable directly by tests): prompts once
  // per attempt on `requester`'s terminal and verifies the typed password
  // against every candidate account; returns the account that matched.
  std::optional<Uid> Authenticate(Task& requester, const std::vector<Uid>& accounts);

 private:
  // The conversation on `requester`'s terminal, run on the request's
  // service task.
  std::optional<Uid> Converse(Task& service, Task& requester, const std::vector<Uid>& accounts);

  // Locates the stored hash for a uid (shadow fragment) or a group-auth
  // account (group fragment), reading through the service task's syscalls
  // so that policy (File_Delegate) is exercised, not bypassed.
  std::optional<std::string> LookupHash(Task& service, Uid account, std::string* display_name);
  std::optional<std::string> UserNameForUid(Task& service, Uid uid);

  Kernel* kernel_;
  std::atomic<uint64_t> prompts_issued_{0};
  std::atomic<uint64_t> successes_{0};
  std::atomic<uint64_t> failures_{0};
};

}  // namespace protego

#endif  // SRC_SERVICES_AUTH_SERVICE_H_
