#include "src/services/auth_service.h"

#include "src/base/hash.h"
#include "src/base/strings.h"
#include "src/config/passwd_db.h"
#include "src/protego/protego_lsm.h"

namespace protego {

Result<Unit> AuthService::Install() {
  if (!kernel_->HasBinary(kBinaryPath)) {
    // The binary body never runs through exec; the inode exists so the
    // File_Delegate rules and audit trails have a real path to refer to.
    RETURN_IF_ERROR(kernel_->InstallBinary(kBinaryPath, 0755, kRootUid, kRootGid,
                                           [](ProcessContext&) { return 0; }));
  }
  kernel_->SetAuthAgent([this](Task& requester, const std::vector<Uid>& accounts) {
    return Authenticate(requester, accounts);
  });
  return OkUnit();
}

std::optional<std::string> AuthService::UserNameForUid(Task& service, Uid uid) {
  auto names = kernel_->ReadDir(service, "/etc/passwds");
  if (!names.ok()) {
    return std::nullopt;
  }
  for (const std::string& name : names.value()) {
    auto content = kernel_->ReadWholeFile(service, "/etc/passwds/" + name);
    if (!content.ok()) {
      continue;
    }
    auto entry = ParsePasswdLine(Trim(content.value()));
    if (entry.ok() && entry.value().uid == uid) {
      return entry.value().name;
    }
  }
  return std::nullopt;
}

std::optional<std::string> AuthService::LookupHash(Task& service, Uid account,
                                                   std::string* display_name) {
  if (account >= kGroupAuthBase) {
    Gid gid = account - kGroupAuthBase;
    auto names = kernel_->ReadDir(service, "/etc/groups");
    if (!names.ok()) {
      return std::nullopt;
    }
    for (const std::string& name : names.value()) {
      auto content = kernel_->ReadWholeFile(service, "/etc/groups/" + name);
      if (!content.ok()) {
        continue;
      }
      auto entry = ParseGroupLine(Trim(content.value()));
      if (entry.ok() && entry.value().gid == gid) {
        *display_name = "group " + entry.value().name;
        return entry.value().password_hash;
      }
    }
    return std::nullopt;
  }
  std::optional<std::string> user = UserNameForUid(service, account);
  if (!user.has_value()) {
    return std::nullopt;
  }
  auto content = kernel_->ReadWholeFile(service, "/etc/shadows/" + *user);
  if (!content.ok()) {
    return std::nullopt;
  }
  auto entry = ParseShadowLine(Trim(content.value()));
  if (!entry.ok()) {
    return std::nullopt;
  }
  *display_name = *user;
  return entry.value().hash;
}

std::optional<Uid> AuthService::Authenticate(Task& requester,
                                             const std::vector<Uid>& accounts) {
  std::optional<Uid> who;
  if (requester.terminal != nullptr) {  // else there is no way to ask a human
    Task& service = kernel_->CreateTask("protego-auth", Cred::Root(), nullptr);
    service.exe_path = kBinaryPath;
    who = Converse(service, requester, accounts);
    kernel_->ReapTask(service.pid);
  }
  (who.has_value() ? successes_ : failures_).fetch_add(1, std::memory_order_relaxed);
  return who;
}

std::optional<Uid> AuthService::Converse(Task& service, Task& requester,
                                         const std::vector<Uid>& accounts) {
  struct Candidate {
    Uid account;
    std::string name;
    std::string hash;
  };
  std::vector<Candidate> candidates;
  std::string prompt_names;
  for (Uid account : accounts) {
    std::string display_name;
    std::optional<std::string> hash = LookupHash(service, account, &display_name);
    if (!hash.has_value() || hash->empty() || (*hash)[0] == '!') {
      continue;  // unknown or locked account
    }
    if (!prompt_names.empty()) {
      prompt_names += " or ";
    }
    prompt_names += display_name;
    candidates.push_back(Candidate{account, display_name, *hash});
  }
  if (candidates.empty()) {
    return std::nullopt;
  }
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    requester.terminal->Write("[protego] password for " + prompt_names + ": ");
    prompts_issued_.fetch_add(1, std::memory_order_relaxed);
    std::optional<std::string> password = requester.terminal->ReadLine();
    if (!password.has_value()) {
      break;  // the human gave up
    }
    for (const Candidate& c : candidates) {
      if (VerifyPassword(*password, c.hash)) {
        requester.auth_times[c.account] = kernel_->clock().Now();
        // Terminal-scoped recency (sudo's 5-minute window) only proves the
        // INVOKING user is still at the keyboard; target-password grants
        // (su semantics) are never cached on the terminal.
        if (c.account == requester.cred.ruid) {
          requester.terminal->StampAuth(c.account, kernel_->clock().Now());
        }
        kernel_->Audit(StrFormat("protego-auth: uid=%u authenticated as %s",
                                 requester.cred.ruid, c.name.c_str()));
        return c.account;
      }
    }
    requester.terminal->Write("Sorry, try again.\n");
  }
  kernel_->Audit(StrFormat("protego-auth: authentication FAILED for uid=%u as %s",
                           requester.cred.ruid, prompt_names.c_str()));
  return std::nullopt;
}

}  // namespace protego
