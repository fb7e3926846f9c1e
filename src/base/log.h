// Minimal leveled logger. The simulated kernel logs audit events (LSM denials,
// setuid transitions, policy reloads) through this. Records at kWarn and
// above go to stderr; the rest are dropped. Safe to call from any thread.

#ifndef SRC_BASE_LOG_H_
#define SRC_BASE_LOG_H_

#include <string>

namespace protego {

enum class LogLevel {
  kDebug,
  kInfo,
  kAudit,  // security-relevant: denials, privilege transitions
  kWarn,
  kError,
};

const char* LogLevelName(LogLevel level);

void LogDebug(std::string message);
void LogInfo(std::string message);
void LogAudit(std::string message);
void LogWarn(std::string message);
void LogError(std::string message);

}  // namespace protego

#endif  // SRC_BASE_LOG_H_
